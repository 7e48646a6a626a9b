"""Level sums, pressure, profiles, and the dimension root."""

import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from orbitctl import thermo
from orbitctl.errors import (
    AlphaOutOfRangeError,
    BracketError,
    DegenerateError,
    NonConvergenceError,
)
from orbitctl.orbits import divisors

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def brute_zn(db, n, s, k, alpha):
    """Re-derive Z_n straight from the primitive censuses of the divisors."""
    total = 0j
    for m in divisors(n):
        reps = n // m
        for orb in db.level(m).orbits:
            r = reps * orb.log_abs_multiplier
            th = reps * orb.holonomy_angle
            total += m * cmath.exp(s * (r - n * alpha) + 1j * k * th)
    return total


def zn(db, n, s, k=0, alpha=0.0):
    return cmath.exp(thermo.log_zn(db, n, s, k, alpha))


def test_zn_closed_form_circle(square_db):
    # every repelling level-n point of the doubling map has r = n log 2 and
    # trivial holonomy, so Z_n = (2^n - 1) e^{s n(log 2 - alpha)} for every k
    for n in (3, 6, 9):
        for s, k, alpha in ((0.4, 0, 0.0), (-1.2, 0, 0.3), (0.7, 3, 0.1)):
            closed = (2**n - 1) * math.exp(s * n * (LOG2 - alpha))
            got = zn(square_db, n, s, k, alpha)
            assert got.real == pytest.approx(closed, rel=1e-12)
            assert abs(got.imag) < 1e-9 * abs(closed)


def test_zn_matches_divisor_sum(basilica_db):
    for n, s, k, alpha in ((6, 0.3, 1, 0.7), (8, -0.4, 2, 0.5), (12, 0.1, 0, 0.69)):
        got = zn(basilica_db, n, s, k, alpha)
        want = brute_zn(basilica_db, n, s, k, alpha)
        assert got == pytest.approx(want, rel=1e-10)


def test_log_zn_consistent_with_zn(basilica_db):
    # log_zn is the principal log: its imaginary part is the argument of Z_n
    lz = thermo.log_zn(basilica_db, 10, 0.3, 1, 0.7)
    want = cmath.log(brute_zn(basilica_db, 10, 0.3, 1, 0.7))
    assert lz.real == pytest.approx(want.real, rel=1e-12)
    assert lz.imag == pytest.approx(want.imag, abs=1e-10)


def test_zn_real_and_positive_for_real_tilt(basilica_db):
    for s in (-1.0, 0.0, 0.8):
        z = zn(basilica_db, 9, s, 0, 0.6)
        assert z.real > 0
        assert abs(z.imag) < 1e-10 * z.real


def test_zn_overflow_guard(basilica_db):
    # Z_8(200) is far beyond double range; its log stays finite
    lz = thermo.log_zn(basilica_db, 8, 200.0)
    assert lz.real > 705.0 and math.isfinite(lz.real)


def test_pressure_closed_form_square(square_db):
    # q_n(t) = (1+t)(log 2) - t*alpha + log(1 - 2^{-n})/n exactly
    for n in (6, 10, 12):
        for t in (-1.0, 0.0, 0.8):
            alpha = 0.25
            defect = math.log(1.0 - 2.0**-n) / n
            closed = LOG2 + t * (LOG2 - alpha) + defect
            assert thermo.pressure_estimate(square_db, n, t, alpha) == pytest.approx(
                closed, abs=1e-12
            )


def test_pressure_ratio_variant(square_db):
    t, alpha = 0.5, 0.2
    got = thermo.pressure_estimate(square_db, 10, t, alpha, variant="ratio")
    closed = (
        LOG2
        + t * (LOG2 - alpha)
        + math.log((1.0 - 2.0**-10) / (1.0 - 2.0**-9))
    )
    assert got == pytest.approx(closed, abs=1e-12)
    with pytest.raises(ValueError):
        thermo.pressure_estimate(square_db, 1, t, alpha, variant="ratio")


def test_pressure_derivatives_match_finite_differences(basilica_db):
    n, t, alpha, h = 12, 0.4, 0.7, 1e-3
    q1, q2 = thermo.pressure_derivatives(basilica_db, n, t, alpha)
    qp = thermo.pressure_estimate(basilica_db, n, t + h, alpha)
    qm = thermo.pressure_estimate(basilica_db, n, t - h, alpha)
    assert q1 == pytest.approx((qp - qm) / (2 * h), abs=5e-3)
    assert q2 >= 0.0


def test_pressure_curve_shape(basilica_db):
    curve = thermo.pressure_curve(basilica_db, 10, (-0.5, 0.0, 0.5), alpha=0.7)
    assert curve.variant == "direct" and curve.n_used == 10
    assert list(curve.t) == [-0.5, 0.0, 0.5]
    # q is convex, q1 increasing
    assert curve.q1[0] <= curve.q1[1] <= curve.q1[2]
    mid = 0.5 * (curve.q[0] + curve.q[2])
    assert curve.q[1] <= mid + 1e-3


def test_profile_maximal_entropy(basilica_db, maxent_alpha):
    prof = thermo.thermo_profile(basilica_db, maxent_alpha, 12)
    assert abs(prof.xi) < 1e-6
    assert prof.sigma2 > 0
    assert prof.entropy == pytest.approx(LOG2, abs=1e-3)


def test_profile_stable_in_level(basilica_db, maxent_alpha):
    a, b = (
        thermo.thermo_profile(basilica_db, maxent_alpha, 11),
        thermo.thermo_profile(basilica_db, maxent_alpha, 12),
    )
    assert abs(a.xi - b.xi) < 1e-2
    assert abs(a.sigma2 - b.sigma2) < 1e-2
    assert abs(a.entropy - b.entropy) < 1e-2


def test_profile_legendre_consistency(basilica_db):
    # at the solved tilt the centered pressure equals the entropy, and the
    # tilt grows with the target mean
    tilts = []
    for alpha in (0.5, 0.7, 0.9, 1.1):
        prof = thermo.thermo_profile(basilica_db, alpha, 12)
        q = thermo.pressure_estimate(basilica_db, 12, prof.xi, alpha)
        assert prof.entropy == pytest.approx(q, abs=1e-8)
        tilts.append(prof.xi)
    assert tilts == sorted(tilts)
    assert tilts[0] < 0 < tilts[-1]


def test_profile_degenerate_on_pure_power(square_db):
    with pytest.raises(DegenerateError):
        thermo.thermo_profile(square_db, LOG2, 12)


def test_profile_alpha_out_of_range(basilica_db):
    with pytest.raises(AlphaOutOfRangeError):
        thermo.thermo_profile(basilica_db, 5.0, 12)


def test_alpha_range_basilica(basilica_db):
    lo, hi = thermo.alpha_range(basilica_db, 12, t_span=3.0)
    assert lo == pytest.approx(0.27962705993929876, abs=1e-9)
    assert hi == pytest.approx(1.124872427249868, abs=1e-9)
    lo2, hi2 = thermo.alpha_range(basilica_db, 12, t_span=10.0)
    assert lo2 <= lo and hi2 >= hi
    assert lo2 < LOG2 < hi2


def test_alpha_range_degenerate_square(square_db):
    lo, hi = thermo.alpha_range(square_db, 10)
    assert lo == pytest.approx(LOG2, abs=1e-12)
    assert hi == pytest.approx(LOG2, abs=1e-12)


def test_maximal_entropy_alpha_is_untilted_mean(basilica_db):
    alpha = thermo.maximal_entropy_alpha(basilica_db, 12)
    r, _, w = thermo.level_terms(basilica_db, 12)
    assert alpha == pytest.approx(float(np.sum(w * r) / (12.0 * np.sum(w))), abs=1e-12)
    lo, hi = thermo.alpha_range(basilica_db, 12)
    assert lo < alpha < hi


def test_bowen_dimension_pure_powers(square_db, cubic_db):
    for db, n in ((square_db, 12), (cubic_db, 8)):
        res = thermo.bowen_dimension(db, n)
        assert abs(res.value - 1.0) < 1e-4
        # the root of one level alone is within 1e-3 too
        direct, _, _ = thermo.bracketed_root(
            lambda t: thermo.pressure_estimate(db, n, -t), (1e-9, 2.0), 1e-14, 1e-10, "direct"
        )
        assert abs(direct - 1.0) < 1e-3


def test_bowen_dimension_basilica(basilica_db):
    res = thermo.bowen_dimension(basilica_db, 12)
    assert 1.0 < res.value < 1.5
    assert res.residual < 1e-8


def test_bracketed_root_contract():
    root, residual, calls = thermo.bracketed_root(
        lambda t: t * t - 2.0, (0.0, 2.0), 1e-14, 1e-10, "sqrt 2"
    )
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-13)
    assert residual < 1e-10 and calls < 20
    with pytest.raises(BracketError, match=r"sqrt 2 .*f\(2.0\) = 2"):
        thermo.bracketed_root(lambda t: t * t - 2.0, (2.0, 3.0), 1e-14, 1e-10, "sqrt 2")
    # a sign change without a root: Brent closes in on the jump, whose
    # residual stays at 1
    with pytest.raises(NonConvergenceError, match="jump residual"):
        thermo.bracketed_root(lambda t: 1.0 if t < 0.5 else -1.0, (0.0, 1.0), 1e-14, 1e-10, "jump")


@pytest.mark.parametrize(
    "fn, bracket",
    [
        (lambda t: t * t - 2.0, (0.0, 2.0)),
        (lambda t: 1.0 if t < 0.5 else -1.0, (0.0, 1.0)),  # the contract's jump
        (lambda t: math.exp(t) - 3.0, (-5.0, 5.0)),
        (lambda t: t**9 - 1e-3, (0.0, 4.0)),
        (lambda t: math.tanh(t - 0.3) ** 3, (-1.0, 2.0)),  # runs out of steps
    ],
)
def test_brent_evaluates_where_scipy_brentq_does(fn, bracket):
    def traced(points):
        def probe(t):
            points.append(t)
            return fn(t)
        return probe

    ours, theirs = [], []
    lo, hi = bracket
    probe = traced(ours)
    root = thermo._brent(probe, lo, hi, probe(lo), probe(hi), 1e-14)
    want, info = brentq(traced(theirs), lo, hi, xtol=1e-14, rtol=1e-14, full_output=True, disp=False)
    assert ours == theirs
    assert root == (want if info.converged else None)


def test_bracketed_root_counts_the_points_brentq_takes():
    points = []
    root, _, calls = thermo.bracketed_root(
        lambda t: t * t - 2.0, (0.0, 2.0), 1e-14, 1e-10, "sqrt 2"
    )
    want = brentq(lambda t: points.append(t) or t * t - 2.0, 0.0, 2.0, xtol=1e-14, rtol=1e-14)
    assert root == want and calls == len(set(points))


def test_bowen_bracket_error(basilica_db):
    with pytest.raises(BracketError):
        thermo.bowen_dimension(basilica_db, 12, bracket=(1e-9, 0.2))


def test_expansion_shoulder(basilica_db, maxent_alpha):
    # exp(q(xi + it)) against the quadratic shoulder exp(q(xi)) (1 - sigma2 t^2 / 2):
    # the gap shrinks like t^3 and is even in t
    n = 12
    prof = thermo.thermo_profile(basilica_db, maxent_alpha, n)

    def gap(t):
        lhs = cmath.exp(thermo.log_zn(basilica_db, n, complex(prof.xi, t), 0, maxent_alpha) / n)
        base = cmath.exp(thermo.log_zn(basilica_db, n, prof.xi, 0, maxent_alpha) / n)
        return abs(lhs - base * (1.0 - 0.5 * prof.sigma2 * t**2))

    assert gap(0.0) < 1e-12
    # cubic decay of the remainder: slope of log residual vs log t
    slope = (math.log(gap(0.08)) - math.log(gap(0.02))) / math.log(4.0)
    assert slope > 2.5
    assert gap(-0.05) == pytest.approx(gap(0.05), abs=1e-9)
