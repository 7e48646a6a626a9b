"""Spans around the public functions of orbitctl's layers, recorded from outside.

Tracer.install replaces each traced function with a wrapper wherever the
program looks it up: in its own module and in every orbitctl module that
imported it by name (so orbits.fn_shift is wrapped as well as
rootfind.fn_shift).  Spans (name, start, end, parent) stay in memory;
self_times turns them into per-function self time, the span's duration
minus the part its child spans cover.  Work counts are computed from the
arguments and results of the wrapped calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "orbitctl"
LAYER_MODULES = ("maps", "rootfind", "orbits", "thermo", "counting", "transfer")
# cli's other public functions are argument parsing and CSV glue, which stay
# in cli.main's self time
CLI_FUNCTIONS = ("main", "load_or_build_db")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_fn_shift(counts, args, kwargs, result):
    counts["rootfind.fn_shift.point_steps"] += np.size(_arg(args, kwargs, 1, "z")) * _arg(args, kwargs, 2, "n")


def _count_newton_polish(counts, args, kwargs, result):
    counts["rootfind.newton_polish.points"] += np.size(_arg(args, kwargs, 1, "z"))


def _count_aberth(counts, args, kwargs, result):
    counts["rootfind.aberth_fixed_points.points"] += np.size(result)


def _count_preimages(counts, args, kwargs, result):
    counts["orbits.preimages.points"] += np.size(_arg(args, kwargs, 1, "w"))


def _count_save_db(counts, args, kwargs, result):
    counts["orbits.cache_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_walk(counts, args, kwargs, result):
    counts["orbits.walk.nodes"] += result.nodes
    counts["orbits.walk.cycles"] += np.size(result.periods)


def _count_mesh(counts, args, kwargs, result):
    counts["transfer.mesh_nodes"] += result.size


COUNTERS = {
    "rootfind.fn_shift": _count_fn_shift,
    "rootfind.newton_polish": _count_newton_polish,
    "rootfind.aberth_fixed_points": _count_aberth,
    "orbits.preimages": _count_preimages,
    "orbits.save_db": _count_save_db,
    "orbits.walk_multiplier_bounded": _count_walk,
    "transfer.build_mesh": _count_mesh,
}


def traced_functions() -> dict[str, object]:
    """{'module.function': function} for every function the tracer wraps."""
    out = {}
    for mod_name in LAYER_MODULES + ("cli",):
        mod = sys.modules[f"{PACKAGE}.{mod_name}"]
        for name, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name.startswith("_"):
                continue
            if mod_name == "cli" and name not in CLI_FUNCTIONS:
                continue
            out[f"{mod_name}.{name}"] = fn
    return out


class Tracer:
    """Records spans while installed; install and remove around traced work."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def remove(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span from the benchmark's own code, such as one workload phase."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), parent)


def self_times(spans) -> dict[str, tuple[float, int]]:
    """{name: (total self time, calls)}; self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _) in enumerate(spans):
        acc = out[name]
        acc[0] += (end - start) - child[i]
        acc[1] += 1
    return {name: (v[0], v[1]) for name, v in out.items()}


def calls_per_root(spans) -> dict[str, int]:
    """{name of a root span: number of spans below it, at any depth}.

    A span's index is taken when it opens, so a parent precedes its children.
    """
    root = [0] * len(spans)
    out: dict[str, int] = defaultdict(int)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            out[spans[root[i]][0]] += 1
    return dict(out)


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped empty function timed
    against the bare one, the median of several repeats.  The work counters
    of the few counted functions are not included."""
    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("empty", empty)
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            empty()
        samples.append(((middle - start) - (time.perf_counter() - middle)) / calls)
    return statistics.median(samples)
