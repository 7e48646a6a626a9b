"""Orbit counting: sharp windows, predictions, Weyl sums, Li comparisons."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from orbitctl import counting, thermo, windows
from orbitctl.counting import CountQuery
from orbitctl.errors import DomainError
from orbitctl.thermo import ThermoProfile

LOG2 = math.log(2.0)


# ---- sharp counts ----------------------------------------------------------

def test_count_square_period3(square_db):
    # both period-3 cycles of the doubling map sit at u = 3 log 2 - 3 alpha = 0
    q = CountQuery(n=3, alpha=LOG2, interval=(-1.0, 1.0))
    assert counting.count_orbits(square_db, q) == 2


def test_count_empty_window(basilica_db, maxent_alpha):
    q = CountQuery(n=8, alpha=maxent_alpha, interval=(5.0, 6.0))
    assert counting.count_orbits(basilica_db, q) == 0


def test_count_interval_endpoints_included(basilica_db, maxent_alpha):
    us = sorted(
        o.log_abs_multiplier - 8 * maxent_alpha
        for o in basilica_db.level(8).orbits
    )
    closed = counting.count_orbits(
        basilica_db, CountQuery(n=8, alpha=maxent_alpha, interval=(us[0], us[-1]))
    )
    assert closed == len(us)
    shrunk = counting.count_orbits(
        basilica_db,
        CountQuery(
            n=8,
            alpha=maxent_alpha,
            interval=(np.nextafter(us[0], 1.0), np.nextafter(us[-1], -1.0)),
        ),
    )
    assert shrunk <= closed - 1


def test_count_matches_direct_filter(basilica_db, maxent_alpha):
    """Plain-python recount over the level-8 census."""
    q = CountQuery(n=8, alpha=maxent_alpha, interval=(-0.8, 0.6),
                   arc_center=1.2, arc_width=0.4)
    manual = 0
    for orb in basilica_db.level(8).orbits:
        u = orb.log_abs_multiplier - 8 * maxent_alpha
        frac = math.remainder((orb.holonomy_angle - 1.2) / (2 * math.pi), 1.0)
        if -0.8 <= u <= 0.6 and abs(frac) <= 0.2:
            manual += 1
    assert counting.count_orbits(basilica_db, q) == manual
    assert manual > 0


def test_count_full_window_identity(basilica_db, maxent_alpha):
    q = CountQuery(n=9, alpha=maxent_alpha, interval=(-50.0, 50.0), arc_width=1.0)
    assert counting.count_orbits(basilica_db, q) == basilica_db.level(9).z.size


@settings(max_examples=40, deadline=None)
@given(
    half_a=st.floats(0.05, 1.5),
    half_b=st.floats(0.05, 1.5),
    width=st.floats(0.05, 0.45),
)
def test_count_monotone_in_window(basilica_db, maxent_alpha, half_a, half_b, width):
    small, large = sorted((half_a, half_b))
    q_small = CountQuery(n=8, alpha=maxent_alpha, interval=(-small, small),
                         arc_width=width)
    q_large = CountQuery(n=8, alpha=maxent_alpha, interval=(-large, large),
                         arc_width=2 * width)
    c_small = counting.count_orbits(basilica_db, q_small)
    c_large = counting.count_orbits(basilica_db, q_large)
    assert 0 <= c_small <= c_large


def test_count_additive_over_split(basilica_db, maxent_alpha):
    a, b, m = -1.0, 1.0, 0.1234567891234
    total = counting.count_orbits(
        basilica_db, CountQuery(n=10, alpha=maxent_alpha, interval=(a, b))
    )
    left = counting.count_orbits(
        basilica_db, CountQuery(n=10, alpha=maxent_alpha, interval=(a, m))
    )
    right = counting.count_orbits(
        basilica_db,
        CountQuery(n=10, alpha=maxent_alpha, interval=(float(np.nextafter(m, 2.0)), b)),
    )
    assert total == left + right


@settings(max_examples=80, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(-6.0, 6.0))
def test_wrapped_fraction_range(theta, center):
    frac = float(counting.wrapped_fraction(theta, center))
    assert -0.5 <= frac < 0.5
    again = float(counting.wrapped_fraction(theta + 2 * math.pi, center))
    assert frac == pytest.approx(again, abs=1e-9)


# ---- window integral and predictions ---------------------------------------

def test_exp_window_integral_flat():
    assert counting.exp_window_integral(-0.3, 0.9, 0.0) == pytest.approx(1.2)


def test_exp_window_integral_quad_oracle():
    for xi in (1.0, -0.7, 3.5):
        val, _ = quad(lambda u: math.exp(-xi * u), -0.3, 0.9)
        assert counting.exp_window_integral(-0.3, 0.9, xi) == pytest.approx(
            val, rel=1e-12
        )


def test_exp_window_integral_continuous_through_zero():
    base = counting.exp_window_integral(-0.4, 0.8, 0.0)
    for xi in (1e-13, 1e-9, 1e-7, 2e-6):
        assert counting.exp_window_integral(-0.4, 0.8, xi) == pytest.approx(
            base, rel=1e-5
        )
    # just below the handoff the series branch must match the closed form
    xi = 0.999e-6
    series = counting.exp_window_integral(-0.4, 0.8, xi)
    closed = (math.exp(0.4 * xi) - math.exp(-0.8 * xi)) / xi
    assert series == pytest.approx(closed, rel=1e-9)


def test_exp_window_integral_rejects_empty():
    with pytest.raises(ValueError):
        counting.exp_window_integral(1.0, 0.0, 0.5)


def _profile(alpha=LOG2, xi=0.0, sigma2=1.0, entropy=LOG2, n=10):
    return ThermoProfile(alpha=alpha, xi=xi, sigma2=sigma2, entropy=entropy,
                         residual=0.0, n_used=n)


def test_predicted_count_untilted_value():
    # 2^10 / (sqrt(2 pi) * 10^{3/2}) with unit window and variance
    q = CountQuery(n=10, alpha=LOG2, interval=(-0.5, 0.5))
    assert counting.predicted_count(_profile(), q) == pytest.approx(
        12.918438512743220, rel=1e-12
    )


def test_predicted_count_tilted_matches_quad():
    prof = _profile(xi=0.7, sigma2=0.4, entropy=0.6)
    q = CountQuery(n=12, alpha=LOG2, interval=(-0.3, 0.9), arc_width=0.25)
    j, _ = quad(lambda u: math.exp(-0.7 * u), -0.3, 0.9)
    want = 0.25 * j * math.exp(12 * 0.6) / (math.sqrt(0.4 * 2 * math.pi) * 12**1.5)
    assert counting.predicted_count(prof, q) == pytest.approx(want, rel=1e-12)


def test_predicted_count_continuous_in_tilt():
    q = CountQuery(n=10, alpha=LOG2, interval=(-0.5, 0.5))
    at_zero = counting.predicted_count(_profile(xi=0.0), q)
    near_zero = counting.predicted_count(_profile(xi=1e-12), q)
    assert near_zero == pytest.approx(at_zero, rel=1e-10)


def test_predicted_count_shrinking_formula():
    lengths = tuple(2.0 * n**-0.5 for n in range(8, 13))
    widths = tuple(min(n**-0.25, 1.0) for n in range(8, 13))
    sched = windows.WindowSchedule(
        n_min=8, n_max=12, centers=(0.2,) * 5, lengths=lengths,
        arc_centers=(0.0,) * 5, arc_widths=widths,
    )
    prof = _profile(xi=0.8, sigma2=0.5, entropy=0.65)
    for n in (8, 10, 12):
        ell = 2.0 * n**-0.5
        want = (
            min(n**-0.25, 1.0)
            * ell
            * math.exp(-0.8 * 0.2)
            * math.exp(0.65 * n)
            / (math.sqrt(0.5) * math.sqrt(2 * math.pi) * n**1.5)
        )
        got = counting.predicted_count_shrinking(prof, sched, n, LOG2)
        assert got == pytest.approx(want, rel=1e-12)


def test_predicted_count_shrinking_midpoint_bound():
    sched = windows.WindowSchedule.power_law(8, 14, center=0.2, length_scale=1.0)
    prof = _profile(xi=0.8, sigma2=0.5, entropy=0.65)
    for n in (8, 11, 14):
        a, b = sched.interval_at(n)
        q = CountQuery(n=n, alpha=LOG2, interval=(a, b))
        exact = counting.predicted_count(prof, q)
        mid = counting.predicted_count_shrinking(prof, sched, n, LOG2)
        ell = b - a
        bound = (0.8 * ell) ** 2 / 8.0 * math.exp(0.8 * ell / 2.0)
        assert abs(mid / exact - 1.0) <= bound
    # with no tilt the midpoint value is the integral and the two agree
    flat = _profile(xi=0.0)
    a, b = sched.interval_at(10)
    q = CountQuery(n=10, alpha=LOG2, interval=(a, b))
    assert counting.predicted_count_shrinking(flat, sched, 10, LOG2) == pytest.approx(
        counting.predicted_count(flat, q), rel=1e-12
    )


# ---- smoothed counts --------------------------------------------------------

def fixed_point_sum(db, n, alpha, window=None):
    """(1/n) times the window-weighted sum over all level-n fixed points,
    every point rebuilt from the divisor censuses."""
    r, _, mult = thermo.level_terms(db, n)
    weight = np.ones(r.size) if window is None else window(r - n * alpha)
    return float(np.sum(mult * weight)) / n


def test_smoothed_count_sandwich(basilica_db, maxent_alpha):
    outer = windows.make_bump("interval", 0.0, 1.0, 0.2, side="outer")
    inner = windows.make_bump("interval", 0.0, 1.0, 0.2, side="inner")
    sharp_expected = {8: 16, 10: 51, 12: 137}
    for n, sharp_count in sharp_expected.items():
        sharp = counting.count_orbits(
            basilica_db, CountQuery(n=n, alpha=maxent_alpha, interval=(-1.0, 1.0))
        )
        assert sharp == sharp_count
        hi = counting.smoothed_count(basilica_db, n, maxent_alpha, interval_window=outer)
        lo = counting.smoothed_count(basilica_db, n, maxent_alpha, interval_window=inner)
        assert lo.value <= sharp <= hi.value
        # orbit sum versus fixed-point sum: divisor levels contribute little
        for window, sc in ((outer, hi), (inner, lo)):
            gap = abs(sc.value - fixed_point_sum(basilica_db, n, maxent_alpha, window))
            assert gap <= 0.05 * max(sc.value, 1.0)


def test_smoothed_count_trivial_weight(basilica_db, maxent_alpha):
    sc = counting.smoothed_count(basilica_db, 9, maxent_alpha)
    assert sc.value == pytest.approx(basilica_db.level(9).z.size)
    assert sc.sample_size == basilica_db.level(9).z.size
    assert abs(sc.value - fixed_point_sum(basilica_db, 9, maxent_alpha)) < 0.05 * sc.value


# ---- Weyl sums ---------------------------------------------------------------

def test_weyl_k0_normalization(basilica_db):
    rep = counting.weyl_sums(basilica_db, 8, (0, 1))
    assert rep.magnitudes[0] == pytest.approx(1.0, abs=1e-15)
    assert rep.sample_size == basilica_db.level(8).z.size


def test_weyl_circle_degenerate(square_db):
    # all holonomies of the doubling map vanish, so nothing equidistributes
    rep = counting.weyl_sums(square_db, 8, range(1, 6))
    assert np.allclose(rep.magnitudes, 1.0, atol=1e-12)


def test_weyl_basilica_small(basilica_db14, maxent_alpha):
    rep = counting.weyl_sums(
        basilica_db14, 14, range(1, 6), alpha=maxent_alpha, interval=(-1.0, 1.0)
    )
    assert rep.sample_size == 467
    assert not rep.empty
    assert max(rep.magnitudes) < 0.2


def test_weyl_empty_selection(basilica_db, maxent_alpha):
    rep = counting.weyl_sums(
        basilica_db, 8, (1, 2), alpha=maxent_alpha, interval=(50.0, 51.0)
    )
    assert rep.empty and rep.sample_size == 0


def test_weyl_interval_needs_alpha(basilica_db):
    with pytest.raises(ValueError):
        counting.weyl_sums(basilica_db, 8, (1,), interval=(-1.0, 1.0))


# ---- multiplier counting -----------------------------------------------------

def test_logarithmic_integral_values():
    assert counting.logarithmic_integral(2.0) == pytest.approx(0.0, abs=1e-12)
    assert counting.logarithmic_integral(10.0) == pytest.approx(
        5.120435724669806, abs=1e-9
    )
    with pytest.raises(DomainError):
        counting.logarithmic_integral(1.5)


@pytest.mark.parametrize("x", [2.5, 10.0, 1e4, 1e8])
def test_logarithmic_integral_matches_mpmath(x):
    with mpmath.workdps(30):
        want = mpmath.li(x) - mpmath.li(2)
    assert abs(counting.logarithmic_integral(x) - want) <= 1e-13 * abs(want)


def test_li_table_from_map_counts_past_census(basilica, basilica_db14):
    # multiplier size does not order basilica orbits by period: the least
    # log|lambda| is 2.079 at period 3 but 1.517 at period 4, so the walk
    # must find the period-4 orbit below e^1.8
    rep = counting.li_table(basilica_db14, (math.exp(1.8), 20.0), delta=1.0, map_spec=basilica)
    assert rep.rows[0].count == 3
    # below 20 the walk finds no orbit beyond the period-14 census
    census = sum(
        1
        for m in range(1, 15)
        for o in basilica_db14.level(m).orbits
        if o.log_abs_multiplier < math.log(20.0)
    )
    assert rep.rows[1].count == census
    assert rep.rows[0].max_period == 4
    assert rep.slack > 0


def test_li_table_square(square, square_db):
    rep = counting.li_table(square_db, (6.0, 20.0), delta=1.0, map_spec=square)
    assert [row.threshold for row in rep.rows] == [6.0, 20.0]
    assert [row.count for row in rep.rows] == [2, 7]
    for row in rep.rows:
        assert row.li_value == pytest.approx(
            counting.logarithmic_integral(row.threshold), rel=1e-12
        )
        assert row.ratio == pytest.approx(row.count / row.li_value, rel=1e-12)
    assert rep.delta == 1.0
    assert isinstance(rep.trend_ok, bool)


@pytest.mark.parametrize("delta", [0.0, -1.0, 5.0, 2.0 + 1e-12, math.nan])
def test_li_table_refuses_delta_outside_0_2(square, square_db, delta):
    # delta is the dimension of a Julia set in the sphere
    with pytest.raises(DomainError, match=r"in \(0, 2\]"):
        counting.li_table(square_db, (6.0, 20.0), delta=delta, map_spec=square)


# ---- level-by-level convergence ----------------------------------------------

def convergence_rows(db, profile, template, n_range):
    """(count, prediction) for the template window at each level."""
    rows = []
    for n in n_range:
        q = replace(template, n=n)
        rows.append((counting.count_orbits(db, q), counting.predicted_count(profile, q)))
    return rows


def test_convergence_report_basilica(basilica_db, maxent_alpha):
    prof = thermo.thermo_profile(basilica_db, maxent_alpha, 12)
    template = CountQuery(n=0, alpha=maxent_alpha, interval=(-1.0, 1.0))
    rows = convergence_rows(basilica_db, prof, template, range(7, 11))
    assert [count for count, _ in rows] == [12, 16, 26, 51]
    assert all(pred > 0 for _, pred in rows)
    ratios = [count / pred for count, pred in rows]
    assert ratios == pytest.approx((1.066674, 0.868853, 0.842395, 0.967691), abs=1e-4)
    # |ratio - 1| does not grow over the top half of the levels
    assert abs(ratios[3] - 1.0) <= abs(ratios[2] - 1.0)


def test_convergence_report_zero_prediction(basilica_db, maxent_alpha):
    prof = thermo.thermo_profile(basilica_db, maxent_alpha, 12)
    template = CountQuery(n=0, alpha=maxent_alpha, interval=(-1.0, 1.0), arc_width=0.0)
    for _, pred in convergence_rows(basilica_db, prof, template, range(8, 10)):
        assert pred == 0.0
