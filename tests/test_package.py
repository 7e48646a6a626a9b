"""The package's public surface."""

import ast
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
