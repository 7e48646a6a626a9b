"""Aberth-Ehrlich solver for f^n(z) = z, evaluated by composition."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from orbitctl import maps, orbits, rootfind
from orbitctl.acceptance import MAPS


def sorted_points(pts):
    return np.array(sorted(pts, key=lambda w: (round(w.real, 9), round(w.imag, 9))))


def test_aberth_square_n2_exact(square):
    # z^4 = z: 0 and the cube roots of unity
    got = rootfind.aberth_fixed_points(square, 2, orbits._aberth_start(square, 2))
    expected = [0.0, 1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
    gaps = np.abs(sorted_points(got) - sorted_points(expected))
    assert gaps.max() < 1e-12
    assert orbits._newton_step(square, got, 2)[0].max() < orbits.STEP_TOL


def test_aberth_count_and_residuals_deeper(basilica):
    n = 7
    got = rootfind.aberth_fixed_points(basilica, n, orbits._aberth_start(basilica, n))
    assert len(got) == 2**n
    assert orbits._newton_step(basilica, got, n)[0].max() < orbits.STEP_TOL
    # all distinct: hyperbolic maps have simple fixed-point equations
    diffs = np.abs(got[:, None] - got[None, :]) + np.eye(len(got))
    assert diffs.min() > 1e-8


def test_aberth_square_n10_roots_of_unity(square):
    # z^1024 = z: 0, superattracting, and the 1023rd roots of unity, all
    # reached from starts on the circle |z| = |w0|^(1/1024)
    got = rootfind.aberth_fixed_points(square, 10, orbits._aberth_start(square, 10))
    expected = np.append(0.0, np.exp(2j * np.pi * np.arange(1023) / 1023))
    dist, idx = cKDTree(np.c_[expected.real, expected.imag]).query(np.c_[got.real, got.imag])
    assert dist.max() < 1e-12
    assert np.unique(idx).size == 1024


@pytest.mark.parametrize("spec, n", [
    (maps.RationalMapSpec(numerator=(-1.0, 0.0, 1.0)), 8),
    (maps.RationalMapSpec(numerator=(0.0, 0.0, 0.0, 1.0)), 5),
    (maps.RationalMapSpec(numerator=(0.1, 0.0, 1.0), denominator=(1.0, 0.3)), 6),
    # deg P = deg Q: infinity is not fixed, and w0 itself is the extra start
    (maps.RationalMapSpec(numerator=(1.0, 0.0, 1.0), denominator=(-1.0, 0.0, 1.0)), 5),
])
def test_aberth_start_is_the_preimages_of_one_point(spec, n):
    w0 = orbits._outer_point(spec)
    start = orbits._aberth_start(spec, n)
    assert start.size == orbits.expected_fixed_count(spec, n)
    pulled = start[: spec.degree**n]
    image, _, bad = rootfind.fn_shift(spec, pulled, n)
    assert not bad.any()
    assert np.abs(image + pulled - w0).max() <= 1e-9 * abs(w0)
    assert start[spec.degree**n:].tolist() == [w0] * (start.size - spec.degree**n)


@pytest.mark.parametrize("key", sorted(MAPS))
def test_outer_point_lies_beyond_the_escape_radius(key):
    spec = MAPS[key]
    assert spec.is_polynomial
    assert abs(orbits._outer_point(spec)) > maps.escape_radius(spec)


def test_newton_polish_recovers_perturbed_roots(square):
    exact = np.array([1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)])
    rng = np.random.default_rng(7)
    noisy = exact + 1e-4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    polished = rootfind.newton_polish(square, noisy, 2)
    assert np.abs(sorted_points(polished) - sorted_points(exact)).max() < 1e-12


def test_repulsion_matches_direct_sum():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    z[11] = z[7]  # a coincident point adds nothing, like the point itself
    rows = np.array([0, 7, 11, 150, 299])
    want = np.array([sum(1.0 / (z[i] - w) for w in z if w != z[i]) for i in rows])
    got = rootfind._repulsion(z, rows)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fn_shift_flags_escaping_points(square):
    f_val, df_val, bad = rootfind.fn_shift(square, np.array([1e200 + 0j, 0.5 + 0j]), 3)
    assert bad[0] and not bad[1]
    assert np.isfinite(f_val[1])


BASILICA = maps.RationalMapSpec(numerator=(-1.0, 0.0, 1.0), denominator=(1.0,))
# a polynomial over a constant that is not 1 must take the quotient rule
HALVED = maps.RationalMapSpec(numerator=(-2.0, 0.0, 2.0), denominator=(2.0,))
RATIONAL = maps.RationalMapSpec(numerator=(0.1, 0.0, 1.0), denominator=(1.0, 0.3))


def composed(spec, z, n):
    """(f^n(z) - z, (f^n)'(z) - 1) by the scalar maps.evaluate/derivative."""
    w = z
    dw = 1.0 + 0j
    for _ in range(n):
        dw *= maps.derivative(spec, w)
        w = maps.evaluate(spec, w)
    return w - z, dw - 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([BASILICA, HALVED, RATIONAL]),
    st.complex_numbers(min_magnitude=0.2, max_magnitude=1.6, allow_nan=False),
    st.integers(min_value=1, max_value=5),
)
def test_fn_shift_matches_direct_composition(spec, z, n):
    f_val, df_val, bad = rootfind.fn_shift(spec, np.array([z]), n)
    assert not bad[0]
    f_want, df_want = composed(spec, z, n)
    assert f_val[0] == pytest.approx(f_want, rel=1e-9, abs=1e-9)
    assert df_val[0] == pytest.approx(df_want, rel=1e-9, abs=1e-9)


def test_fn_shift_flags_orbit_through_pole():
    # the pole sits at -1/0.3: the orbit of 0 misses it, and a preimage of
    # the pole lands on it with its first step
    z = np.array([0.0 + 0j, orbits.preimages(RATIONAL, -1.0 / 0.3)[0, 0]])
    f_val, df_val, bad = rootfind.fn_shift(RATIONAL, z, 3)
    assert bad.tolist() == [False, True]
    f_want, df_want = composed(RATIONAL, 0j, 3)
    assert f_val[0] == pytest.approx(f_want, rel=1e-12)
    assert df_val[0] == pytest.approx(df_want, rel=1e-12)


def fn_shift_masked_every_step(spec, z, n):
    """fn_shift with the escape mask taken on every step."""
    w = np.array(z, dtype=complex)
    deriv = np.ones_like(w)
    bad = np.zeros(w.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n):
            w, fp = maps._map_and_derivative(spec, w)
            deriv *= fp
            bad |= ~(np.abs(w) <= rootfind._BIG)
            if bad.any():
                w[bad] = 0.0
                deriv[bad] = 1.0
    return w - z, deriv - 1.0, bad


@pytest.mark.parametrize("spec", [BASILICA, HALVED, RATIONAL], ids=["basilica", "halved", "rational"])
@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_fn_shift_masks_from_the_first_escape_as_every_step(spec, n):
    # the mask starts late but leaves the same outputs: escaping points,
    # the pole -1/0.3 and a preimage of it, nan and inf among bounded points
    rng = np.random.default_rng(n)
    z = np.r_[rng.standard_normal(30) + 1j * rng.standard_normal(30), 3.0, 40.0, 1e100, 1e200 + 1e200j,
              -1.0 / 0.3, orbits.preimages(RATIONAL, -1.0 / 0.3)[0], np.nan, complex(1.0, np.nan),
              np.inf, complex(np.inf, 1.0), 0.0, 0.5j]
    for points in (z, z[:30], z[:0]):
        got, want = rootfind.fn_shift(spec, points, n), fn_shift_masked_every_step(spec, points, n)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
