"""Smoothed indicator windows and shrinking-window schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from orbitctl import windows
from orbitctl.errors import ScheduleError


def test_mollifier_cdf_endpoints():
    assert windows.mollifier_cdf(-1.0) == 0.0
    assert windows.mollifier_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert windows.mollifier_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert windows.mollifier_cdf(-3.0) == 0.0
    assert windows.mollifier_cdf(3.0) == pytest.approx(1.0, abs=1e-15)


def test_mollifier_cdf_matches_density_integral():
    density = lambda x: (693.0 / 512.0) * (1.0 - x * x) ** 5
    for s in (-0.7, -0.2, 0.3, 0.9):
        val, _ = quad(density, -1.0, s)
        assert windows.mollifier_cdf(s) == pytest.approx(val, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_mollifier_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert windows.mollifier_cdf(lo) <= windows.mollifier_cdf(hi) + 1e-15
    assert 0.0 <= windows.mollifier_cdf(a) <= 1.0


def test_outer_window_dominates_indicator():
    w = windows.make_bump("interval", 0.0, 1.0, 0.2, side="outer")
    for u in np.linspace(-1.0, 1.0, 201):
        assert float(w(u)) >= 1.0 - 1e-12
    # support radius half + eta/4
    for u in (-1.05, 1.05):
        assert w(u + 1e-9 * np.sign(u)) == 0.0 and w(0.999 * u) > 0.0


def test_inner_window_is_dominated():
    w = windows.make_bump("interval", 0.0, 1.0, 0.2, side="inner")
    for u in np.linspace(-1.2, 1.2, 241):
        inside = abs(u) <= 1.0
        assert float(w(u)) <= (1.0 if inside else 0.0) + 1e-12
    # support radius exactly half
    for u in (-1.0, 1.0):
        assert w(u) == 0.0 and w(0.999 * u) > 0.0


def test_window_integral_closed_form():
    # the integral is amp * 2 * plateau_half = (1 + eta/2)(2 half + eta/4)
    w = windows.make_bump("interval", 0.3, 1.0, 0.8, side="outer")
    num, _ = quad(lambda u: float(w(u)), 0.3 - 1.2, 0.3 + 1.2, limit=200)
    assert num == pytest.approx(1.4 * 2.2, abs=1e-9)
    # a thin smoothing collar costs little mass relative to the sharp window
    thin = windows.make_bump("interval", 0.0, 1.0, 0.1, side="outer")
    mass, _ = quad(lambda u: float(thin(u)), -1.025, 1.025, limit=200)
    assert 1.0 <= mass / 2.0 <= 1.1


def test_window_fourth_difference_stable():
    # the quintic mollifier leaves four continuous derivatives; the centered
    # fourth difference must stabilize (a C^3 kink would double as h halves)
    w = windows.make_bump("interval", 0.0, 1.0, 0.8, side="outer")

    def d4(x, h):
        return (
            float(w(x - 2 * h)) - 4 * float(w(x - h)) + 6 * float(w(x))
            - 4 * float(w(x + h)) + float(w(x + 2 * h))
        ) / h**4

    xs = np.linspace(-1.25, 1.25, 41)
    coarse = max(abs(d4(float(x), 0.01)) for x in xs)
    fine = max(abs(d4(float(x), 0.005)) for x in xs)
    assert fine <= 1.1 * coarse


def test_arc_window_wraps():
    w = windows.make_bump("arc", 3.0, 0.5, 0.2, side="outer")
    for theta in (3.2, -0.4, 2.9):
        base = float(w(theta))
        assert float(w(theta - 2 * math.pi)) == pytest.approx(base, abs=1e-12)
        assert float(w(theta + 4 * math.pi)) == pytest.approx(base, abs=1e-12)
    assert float(w(3.0 + math.pi)) == 0.0


def test_window_validation():
    with pytest.raises(ValueError):
        windows.make_bump("interval", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        windows.make_bump("interval", 0.0, -1.0, 0.2)
    # inner needs room for the collar inside the window
    with pytest.raises(ValueError):
        windows.make_bump("interval", 0.0, 0.01, 0.2, side="inner")
    # an arc cannot smear past the half circle
    with pytest.raises(ValueError):
        windows.make_bump("arc", 0.0, 3.1, 0.8)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-2.0, 2.0),
    st.floats(0.1, 2.0),
    st.floats(0.01, 0.5),
    st.floats(-3.0, 3.0),
)
def test_outer_domination_property(center, half, eta, u):
    w = windows.make_bump("interval", center, half, eta, side="outer")
    indicator = 1.0 if abs(u - center) <= half else 0.0
    if indicator:
        assert float(w(u)) >= indicator - 1e-12
    assert float(w(u)) <= w.amp + 1e-12


def test_power_law_schedule_arithmetic():
    sched = windows.WindowSchedule.power_law(
        8, 14, center=0.1, length_scale=2.0, length_power=0.5,
        arc_center=1.0, arc_width=0.5,
    )
    assert list(sched.levels()) == [8, 9, 10, 11, 12, 13, 14]
    a, b = sched.interval_at(9)
    assert b - a == pytest.approx(2.0 / math.sqrt(9.0), abs=1e-12)
    assert 0.5 * (a + b) == pytest.approx(0.1, abs=1e-12)
    assert sched.arc_at(9) == (1.0, 0.5)
    with pytest.raises(ScheduleError):
        sched.interval_at(15)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        windows.WindowSchedule.power_law(10, 8)
    # a window shrinking like e^{-n} is not subexponential
    lengths = tuple(math.exp(-n) for n in range(8, 13))
    with pytest.raises(ScheduleError):
        windows.WindowSchedule(
            n_min=8, n_max=12, centers=(0.0,) * 5, lengths=lengths,
            arc_centers=(0.0,) * 5, arc_widths=(1.0,) * 5,
        )
    # centers must stay inside the compact frame
    with pytest.raises(ScheduleError):
        windows.WindowSchedule.power_law(8, 12, center=7.0)
    with pytest.raises(ScheduleError):
        windows.WindowSchedule(
            n_min=8, n_max=12, centers=(0.0,) * 5, lengths=(1.0,) * 4,
            arc_centers=(0.0,) * 5, arc_widths=(1.0,) * 5,
        )
    with pytest.raises(ScheduleError):
        windows.WindowSchedule.power_law(8, 12, arc_width=0.0)
