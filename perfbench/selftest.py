"""Tests of the benchmark's own helpers (not of orbitctl).

    python3 -m pytest perfbench/selftest.py     # or: python3 perfbench/selftest.py

The file name keeps these tests out of the repository's test suite.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

import checks
import layertrace


def brute_force_cycles(d: int, n: int) -> int:
    """Primitive period-n cycles of z^d, by iterating every fixed point of its n-th iterate.

    The fixed points of z -> z^(d^n) are 0 and the (d^n - 1)-th roots of
    unity e^(2 pi i k / (d^n - 1)); on the angle k / (d^n - 1) the map is
    x -> d x mod 1, iterated exactly with fractions.
    """
    total = d**n - 1
    points = 1 if n == 1 else 0   # z = 0 is a fixed point
    for k in range(total):
        x = Fraction(k, total)
        y, least = x, None
        for m in range(1, n + 1):
            y = (d * y) % 1
            if y == x:
                least = m
                break
        if least == n:
            points += 1
    assert points % n == 0
    return points // n


def test_mobius_small_values():
    assert [checks.mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_necklace_matches_brute_force_on_power_maps():
    for d in (2, 3, 4):
        for n in range(1, 7 if d < 4 else 6):
            assert checks.necklace(d, n) == brute_force_cycles(d, n), (d, n)


def test_attracting_cycle_is_taken_out_once():
    # basilica: 2 fixed points, 1 period-2 cycle of which it attracts
    assert [checks.repelling_cycles(2, n, 2) for n in range(1, 5)] == [2, 0, 2, 3]
    assert [checks.repelling_points(2, n, 2) for n in range(1, 5)] == [2, 2, 8, 14]
    # z^3 + c near 0: the attracting fixed point takes one point from every level
    assert [checks.repelling_points(3, n, 1) for n in range(1, 4)] == [2, 8, 26]


def test_self_time_on_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 6.0, 7.0, 3),   # a second, nested call of b
        ("e", 11.0, 12.5, -1),
    ]
    got = layertrace.self_times(spans)
    assert got == {"a": (3.0, 1), "b": (3.0, 2), "c": (1.0, 1), "d": (3.0, 1), "e": (1.5, 1)}


def test_self_times_sum_to_the_root_span():
    tracer = layertrace.Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            time.sleep(0.002)
            with tracer.span("grandchild"):
                time.sleep(0.002)
        with tracer.span("child"):
            time.sleep(0.001)
    got = layertrace.self_times(tracer.spans)
    root = tracer.spans[0]
    assert all(v[0] >= 0.0 for v in got.values())
    assert abs(sum(v[0] for v in got.values()) - (root[2] - root[1])) < 1e-9
    assert got["child"][1] == 2 and got["grandchild"][0] >= 0.002


def basilica_census(path, replace_second_period3_cycle=False):
    """Write the census of z^2 - 1 through period 3 in the cache format.

    With replace_second_period3_cycle, the second period-3 cycle is
    replaced by another point of the first one: the counts stay right and
    only the cycle keys can tell.
    """
    c = -1.0
    f = np.polynomial.Polynomial([c, 0.0, 1.0])
    f3 = f(f(f))
    roots = (f3 - np.polynomial.Polynomial([0.0, 1.0])).roots()
    fixed = [(1 + 5**0.5) / 2, (1 - 5**0.5) / 2]
    period3 = [z for z in roots if min(abs(z - p) for p in fixed) > 1e-6]
    cycles = []
    while period3:
        z = period3[0]
        orbit = [z, z * z + c, (z * z + c) ** 2 + c]
        period3 = [w for w in period3 if min(abs(w - o) for o in orbit) > 1e-6]
        cycles.append(orbit)
    assert len(cycles) == 2
    points = [(1, complex(z)) for z in fixed] + [(3, complex(o[0])) for o in cycles]
    if replace_second_period3_cycle:
        points[-1] = (3, complex(cycles[0][1]))
    lines = [{"version": 0}] + [{"period": n, "complete": True} for n in (1, 2, 3)]
    for n, z in points:
        _, _, log_abs, theta, _ = checks.reiterate(c, 2, z, n)
        lines.append({"n": n, "z": [z.real, z.imag], "log_abs": log_abs, "theta": theta, "repelling": True})
    lines.append({"n": 2, "z": [0.0, 0.0], "log_abs": None, "theta": 0.0, "repelling": False})
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")


def test_a_true_census_passes(tmp_path):
    basilica_census(tmp_path / "census.jsonl")
    assert checks.check_census_file(tmp_path / "census.jsonl", -1 + 0j, 2, 3, 2) == {}


def test_a_cycle_stored_twice_is_flagged(tmp_path):
    basilica_census(tmp_path / "census.jsonl", replace_second_period3_cycle=True)
    problems = checks.check_census_file(tmp_path / "census.jsonl", -1 + 0j, 2, 3, 2)
    assert list(problems) == [3]
    assert len(problems[3]) == 1 and "stored again" in problems[3][0]


def test_calls_per_root_counts_every_depth():
    spans = [
        ("phase.a", 0.0, 10.0, -1),
        ("f", 1.0, 4.0, 0),
        ("g", 2.0, 3.0, 1),
        ("phase.b", 11.0, 12.0, -1),
        ("f", 11.5, 11.6, 3),
        ("phase.c", 13.0, 14.0, -1),
    ]
    assert layertrace.calls_per_root(spans) == {"phase.a": 2, "phase.b": 1}


def test_wrapper_cost_is_small_and_positive():
    assert 0.0 < layertrace.wrapper_cost(calls=2000, repeats=3) < 1e-3


if __name__ == "__main__":
    import inspect
    import pathlib
    import tempfile

    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            if "tmp_path" in inspect.signature(fn).parameters:
                with tempfile.TemporaryDirectory() as tmp:
                    fn(pathlib.Path(tmp))
            else:
                fn()
            print("ok", name)
