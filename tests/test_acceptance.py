"""Top-level verification battery.

Each numbered criterion runs once per session (shared enumeration context)
and reports as its own test so the pytest -v output carries one pass/fail
line per criterion.  The detail string is printed and repeated in the
assertion message.
"""

import sys

import pytest

from orbitctl import acceptance, counting

NAMES = {
    1: "census exactness and dual-method agreement",
    2: "degenerate pressure closed form",
    3: "maximal-entropy anchor",
    4: "dimension dual-method agreement",
    5: "local-limit window counts",
    6: "shrinking-window counts",
    7: "holonomy equidistribution",
    8: "twisted-operator decay probe",
    9: "smoothed sandwich",
    10: "multiplier-count trend vs Li",
}


@pytest.fixture(scope="session")
def criterion_results(ctx, request):
    results = {r.cid: r for r in (fn(ctx) for fn in acceptance.CRITERIA)}
    # route around stdout capture so the battery summary shows up per run
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    emit = reporter.write_line if reporter else lambda s: print(s, file=sys.__stdout__)
    for cid in sorted(results):
        r = results[cid]
        mark = "PASS" if r.passed else "FAIL"
        emit(f"[{mark}] criterion {r.cid}: {r.name} ({r.elapsed:.1f}s) -- {r.detail}")
    return results


@pytest.mark.parametrize("cid", sorted(NAMES))
def test_criterion(criterion_results, cid):
    r = criterion_results[cid]
    assert r.name == NAMES[cid]
    mark = "PASS" if r.passed else "FAIL"
    line = f"[{mark}] criterion {r.cid}: {r.name} -- {r.detail}"
    print(line)
    assert r.passed, line


def test_every_criterion_reported(criterion_results):
    assert sorted(criterion_results) == sorted(NAMES)
    for r in criterion_results.values():
        assert r.detail
        assert r.elapsed >= 0.0


def _weyl(n, magnitudes, size):
    return counting.WeylReport(
        n=n, k_values=tuple(range(1, len(magnitudes) + 1)),
        magnitudes=tuple(magnitudes), sample_size=size, empty=False,
    )


def test_stuck_rule_ignores_sampling_noise():
    # basilica, |u| <= 1 at alpha = log 2: |W_4| rises from 0.0018 (N = 51)
    # to 0.0022 (N = 467), both far below the noise scale 1/sqrt(467) = 0.046
    early = _weyl(10, (0.28, 0.05, 0.05, 0.0018, 0.01), 51)
    late = _weyl(14, (0.095, 0.033, 0.039, 0.0022, 0.0013), 467)
    assert acceptance.stuck_characters(late, early) == []


def test_stuck_rule_flags_sum_that_stays_put():
    # k = 2 neither drops nor sits within noise; k = 3 does not drop but is
    # noise; k = 1 drops
    early = _weyl(10, (0.28, 0.15, 0.02), 51)
    late = _weyl(14, (0.095, 0.15, 0.03), 467)
    assert acceptance.stuck_characters(late, early) == [(2, 0.15, 0.15)]
