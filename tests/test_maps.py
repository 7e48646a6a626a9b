"""Pointwise map evaluation, cycle multipliers, and the hyperbolicity probe."""

import cmath
import math

import numpy as np
import pytest

from orbitctl import maps, orbits
from orbitctl.errors import PoleError

LOG2 = math.log(2.0)
OMEGA = cmath.exp(2j * cmath.pi / 3)


def test_evaluate_square(square):
    z = 1.0 + 1.0j
    assert maps.evaluate(square, z) == z * z


def test_evaluate_at_pole_raises():
    inv = maps.RationalMapSpec(numerator=(1.0,), denominator=(0.0, 0.0, 1.0))  # 1/z^2
    assert maps.evaluate(inv, 5.0) == pytest.approx(0.04)
    with pytest.raises(PoleError):
        maps.evaluate(inv, 0.0)


def test_derivative_matches_finite_difference(basilica):
    h = 1e-6
    for z in (0.3 + 0.4j, -1.1 + 0.2j, 2.0 - 0.5j):
        fd = (maps.evaluate(basilica, z + h) - maps.evaluate(basilica, z - h)) / (2 * h)
        assert maps.derivative(basilica, z) == pytest.approx(fd, abs=1e-6)


def test_vector_evaluation_matches_scalar(basilica):
    halved = maps.RationalMapSpec(numerator=(-2.0, 0.0, 2.0), denominator=(2.0,))
    rational = maps.RationalMapSpec(numerator=(0.1, 0.0, 1.0), denominator=(1.0, 0.3))
    zs = np.array([0.3 + 0.4j, -1.1 + 0.2j, 2.0 - 0.5j, 0.01j])
    # a polynomial over a constant that is not 1 takes the quotient rule
    for spec in (basilica, halved, rational):
        vals = maps.map_values(spec, zs)
        ders = maps.derivative_values(spec, zs)
        for i, z in enumerate(zs):
            assert vals[i] == pytest.approx(maps.evaluate(spec, complex(z)))
            assert ders[i] == pytest.approx(maps.derivative(spec, complex(z)))
        # f alone is the kernel's f bit for bit, nan at the pole -1/0.3 included
        at_pole = np.append(zs, -1.0 / 0.3)
        assert maps.map_values(spec, at_pole).tobytes() == maps._map_and_derivative(spec, at_pole)[0].tobytes()
    assert np.isnan(maps.map_values(rational, at_pole)[-1])


# the census reads each cycle's multiplier off its ring (orbits._ring_orbits),
# whose row j holds the j-th points of the cycles

def test_cycle_multiplier_fixed_point(square):
    z, log_abs, theta = orbits._ring_orbits(square, np.array([[1.0 + 0j]]))
    assert z.tolist() == [1.0]
    assert log_abs[0] == pytest.approx(LOG2, abs=1e-12)
    assert math.remainder(theta[0], 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_cycle_multiplier_two_cycle(square):
    _, log_abs, theta = orbits._ring_orbits(square, np.array([[OMEGA], [OMEGA**2]]))
    assert log_abs[0] == pytest.approx(2 * LOG2, abs=1e-10)
    assert math.remainder(theta[0], 2 * math.pi) == pytest.approx(0.0, abs=1e-10)


def test_cycle_multiplier_rejects_nonperiodic(square):
    # the census takes a point as periodic by its Newton step on f^n(z) = z,
    # which is infinite where the orbit escapes
    step, mult = orbits._newton_step(square, np.array([0.5, 1e160, 1.0, OMEGA]), 2)
    assert step[0] > 0.1 and step[1] == np.inf and step[2:].max() < orbits.STEP_TOL
    assert np.abs(mult[2:] - 4.0).max() < 1e-12


def test_cycle_multiplier_rejects_superattracting(square):
    # a cycle through a critical point gets log|multiplier| -inf and angle
    # 0.0, and the tree's cycle finder does not keep it as repelling
    _, log_abs, theta = orbits._ring_orbits(square, np.array([[0j]]))
    assert (log_abs[0], theta[0]) == (-math.inf, 0.0)
    _, _, ok = orbits._newton_cycles(square, np.array([0j, 1.0 + 0j]), 1)
    assert ok.tolist() == [False, True]


def test_critical_points_square(square):
    pts = maps.critical_points(square)
    assert len(pts) == 1
    assert abs(pts[0]) < 1e-12


def test_escape_radius_polynomial(square):
    radius = maps.escape_radius(square)
    assert radius is not None and radius >= 1.0
    w = radius * 1.5
    assert abs(maps.evaluate(square, w)) > abs(w)


def census_rates(db):
    """The probe's rates, read off the repelling cycles of a census's levels 1-6."""
    return [la / m for m in maps.PROBE_PERIODS for la in db.level(m).log_abs.tolist()]


def test_hyperbolicity_square(square, square_db):
    rep = maps.hyperbolicity_probe(square, census_rates(square_db))
    assert rep.verdict == "hyperbolic-evidence"
    statuses = {s.status for s in rep.critical_orbit_summary}
    assert statuses == {"attracting-cycle"}
    assert rep.min_log_multiplier_rate > 0.05


def test_hyperbolicity_basilica(basilica, basilica_db):
    rep = maps.hyperbolicity_probe(basilica, census_rates(basilica_db))
    assert rep.verdict == "hyperbolic-evidence"
    cycle = [s for s in rep.critical_orbit_summary if s.status == "attracting-cycle"]
    assert cycle and cycle[0].period == 2


def test_hyperbolicity_inconclusive_near_parabolic():
    # the fixed points of z^2 + 0.26 repel so weakly the probe refuses
    close = maps.RationalMapSpec(numerator=(0.26, 0.0, 1.0), denominator=(1.0,))
    db = orbits.OrbitDatabase.for_map(close)
    orbits.enumerate_primitive(close, 6, db, override_hyperbolicity=True)
    rep = maps.hyperbolicity_probe(close, census_rates(db))
    assert rep.verdict == "inconclusive"
    assert 0.0 < rep.min_log_multiplier_rate <= maps.RATE_FLOOR


def test_load_map_roundtrip(basilica, basilica_file):
    loaded = maps.load_map(basilica_file)
    assert loaded.fingerprint == basilica.fingerprint
    assert loaded.degree == 2
    assert loaded.is_polynomial


def test_fingerprint_distinguishes_maps(square, basilica):
    assert square.fingerprint != basilica.fingerprint
    assert square.to_dict() != basilica.to_dict()
    again = maps.RationalMapSpec.from_dict(square.to_dict())
    assert again.fingerprint == square.fingerprint
