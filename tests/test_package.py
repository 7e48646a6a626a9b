"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import orbitctl

# public functions kept as references: the tests check the vectorized
# f, f' kernel against the scalar quotient rule
REFERENCES = {"maps.derivative"}


def test_every_public_name_resolves():
    missing = [name for name in orbitctl.__all__ if not hasattr(orbitctl, name)]
    assert missing == []


def test_every_public_function_has_a_caller_in_the_package():
    # a public function that only the tests call is API kept for the tests:
    # every one must be used by name somewhere in the package outside its
    # own definition and the re-exports of __init__.py
    defined, used = {}, set()
    for path in sorted(Path(orbitctl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined.update(
            (node.name, path.stem) for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        )
        used.update(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        )
    unused = {f"{module}.{name}" for name, module in defined.items() if name not in used}
    assert sorted(unused - REFERENCES) == []


def test_cli_import_loads_no_scipy():
    # a cold start pays for every module the CLI imports; scipy serves the
    # tests only, as the reference for the package's own solvers
    code = "import sys, orbitctl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(orbitctl.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_module_imports_are_acyclic():
    # every import between the package's modules, those inside functions
    # included, points one way: a module never depends on itself
    modules = {path.stem: path for path in Path(orbitctl.__file__).parent.glob("*.py")}
    modules.pop("__init__")
    graph = {}
    for name, path in modules.items():
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else (alias.name for alias in node.names))
        graph[name] = deps & modules.keys()
    done, stack = set(), []

    def visit(name):
        assert name not in stack, " -> ".join(stack[stack.index(name):] + [name])
        if name in done:
            return
        stack.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        stack.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
