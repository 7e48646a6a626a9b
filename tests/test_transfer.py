"""Collocation mesh, tilted operator action, eigendata, decay probes."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from orbitctl import maps, thermo, transfer
from orbitctl.errors import (
    BracketError,
    ConfigError,
    CriticalValueError,
    NonConvergenceError,
    NormalizationError,
    OverflowGuard,
)

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def circle_mesh(square):
    return transfer.build_mesh(square, 8)


@pytest.fixture(scope="module")
def basilica_mesh(ctx):
    return transfer.build_mesh(ctx.spec("basilica"), 10)


def test_mesh_square_depth3_is_eighth_roots(square):
    mesh = transfer.build_mesh(square, 3)
    assert mesh.size == 8
    roots = np.exp(2j * np.pi * np.arange(8) / 8)
    tree = cKDTree(np.c_[roots.real, roots.imag])
    dist, idx = tree.query(np.c_[mesh.points.real, mesh.points.imag])
    assert dist.max() < 1e-12
    assert len(set(idx)) == 8


def test_mesh_shapes_and_seed(square, basilica_mesh):
    tiny = transfer.build_mesh(square, 1)
    assert tiny.size == 2
    assert sorted(np.round(tiny.points.real, 9)) == [-1.0, 1.0]
    assert tiny.pre_points.shape == (2, 2)
    with pytest.raises(ConfigError):
        transfer.build_mesh(square, 0)
    # the basilica mesh grows from the repelling fixed point
    assert basilica_mesh.seed == pytest.approx(PHI, abs=1e-12)
    assert basilica_mesh.size == 2**10
    assert basilica_mesh.resolution > 0


def test_mesh_preimages_consistent(ctx, basilica_mesh):
    spec = ctx.spec("basilica")
    for i in (0, 17, 500):
        for j in range(basilica_mesh.pre_points.shape[1]):
            w = basilica_mesh.pre_points[i, j]
            assert maps.evaluate(spec, complex(w)) == pytest.approx(
                complex(basilica_mesh.points[i]), abs=1e-9
            )
            r = math.log(abs(maps.derivative(spec, complex(w))))
            assert basilica_mesh.pre_r[i, j] == pytest.approx(r, abs=1e-9)


def test_mesh_forward_closure(ctx, basilica_mesh):
    spec = ctx.spec("basilica")
    images = maps.map_values(spec, basilica_mesh.points)
    tree = cKDTree(np.c_[basilica_mesh.points.real, basilica_mesh.points.imag])
    dist, _ = tree.query(np.c_[images.real, images.imag])
    assert dist.max() < 1e-9


def test_preimages_reject_critical_value(square):
    with pytest.raises(CriticalValueError):
        transfer._preimages(square, 0.0)


@pytest.fixture(scope="module")
def dense_mesh(ctx):
    return transfer.build_mesh(ctx.spec("basilica"), 6)


def dense_matrix(mesh, weights):
    """The N x N matrix whose row i holds weights[i, j] at column pre_index[i, j]."""
    mat = np.zeros((mesh.size, mesh.size), dtype=weights.dtype)
    for j in range(weights.shape[1]):
        np.add.at(mat, (np.arange(mesh.size), mesh.pre_index[:, j]), weights[:, j])
    return mat


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [float, complex])
def test_apply_equals_row_sum_bit_for_bit(d, kind):
    rng = np.random.default_rng(d)
    for n in (1, 7, 8, 9, 33, 1000):
        w = rng.standard_normal((n, d)) * np.exp(rng.uniform(-20, 20, (n, d)))
        v = rng.standard_normal(n)
        if kind is complex:
            w = w * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, d)))
            v = v + 1j * rng.standard_normal(n)
        idx = rng.integers(0, n, (n, d))
        want = np.sum(w * v[idx], axis=1)
        got = transfer._apply(transfer._columns(w), transfer._columns(idx), v)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_leading_eigendata_matches_dense_spectrum(dense_mesh):
    assert dense_mesh.size == 64
    for xi, alpha in ((0.0, 0.0), (-1.2, 0.0), (0.5, 0.3)):
        mat = dense_matrix(dense_mesh, np.exp(xi * (dense_mesh.pre_r - alpha)))
        want = math.log(np.abs(np.linalg.eigvals(mat)).max())
        log_lam, psi = transfer.leading_eigendata(dense_mesh, xi, alpha)
        assert log_lam == pytest.approx(want, abs=1e-10)
        assert np.max(np.abs(mat @ psi - math.exp(log_lam) * psi)) < 1e-9


def test_decay_probe_matches_dense_powers(dense_mesh):
    nop = transfer.normalize(dense_mesh, 0.4, 0.2)
    for b, k in ((5.0, 0), (0.0, 1), (3.0, 2)):
        phase = np.exp(1j * (b * (dense_mesh.pre_r - 0.2) + k * dense_mesh.pre_theta))
        mat = dense_matrix(dense_mesh, nop.u_weights * phase)
        phi = np.ones(dense_mesh.size, dtype=complex)
        want = []
        for _ in range(12):
            phi = mat @ phi
            want.append(np.abs(phi).max())
        got = transfer.decay_probe(nop, b, k, n_steps=12).sup_norms
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_leading_eigendata_pure_powers(circle_mesh, cubic):
    for t in (-0.5, 0.0, 0.7):
        log_lam, vec = transfer.leading_eigendata(circle_mesh, t)
        assert log_lam == pytest.approx((1.0 + t) * LOG2, abs=1e-10)
        assert np.max(vec) / np.min(vec) == pytest.approx(1.0, abs=1e-10)
        shifted, _ = transfer.leading_eigendata(circle_mesh, t, alpha=LOG2)
        assert shifted == pytest.approx(LOG2, abs=1e-10)
    cubic_mesh = transfer.build_mesh(cubic, 6)
    log_lam, _ = transfer.leading_eigendata(cubic_mesh, 0.4)
    assert log_lam == pytest.approx(1.4 * LOG3, abs=1e-10)


def test_leading_eigendata_matches_orbit_pressure(ctx, basilica_mesh, basilica_db, maxent_alpha):
    xi = 0.3
    log_lam, _ = transfer.leading_eigendata(basilica_mesh, xi, alpha=maxent_alpha)
    q = thermo.pressure_estimate(basilica_db, 12, xi, maxent_alpha)
    assert abs(log_lam - q) < 1e-2
    shallow = transfer.build_mesh(ctx.spec("basilica"), 8)
    log_shallow, _ = transfer.leading_eigendata(shallow, xi, alpha=maxent_alpha)
    assert abs(log_shallow - log_lam) < 5e-2


def test_leading_eigendata_nonconvergence(basilica_mesh):
    with pytest.raises(NonConvergenceError):
        transfer.leading_eigendata(basilica_mesh, 0.5, 0.3, max_iter=1)


def test_leading_eigendata_refuses_overflowing_weights(basilica_mesh):
    with pytest.raises(OverflowGuard):
        transfer.leading_eigendata(basilica_mesh, 1000.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_leading_eigendata_refuses_infinite_root(basilica_mesh):
    # the largest weight stays finite, but its image under L overflows
    alpha = float(basilica_mesh.pre_r.max()) - 709.7
    with pytest.raises(NonConvergenceError):
        transfer.leading_eigendata(basilica_mesh, 1.0, alpha)


def test_normalize_refuses_nan_residual(monkeypatch, circle_mesh):
    monkeypatch.setattr(
        transfer, "leading_eigendata", lambda mesh, xi, alpha: (math.nan, np.ones(mesh.size))
    )
    with pytest.raises(NormalizationError):
        transfer.normalize(circle_mesh, 0.0, LOG2)


def test_decay_probe_needs_two_fitted_points(circle_mesh):
    nop = transfer.normalize(circle_mesh, 0.0, LOG2)
    assert transfer.decay_probe(nop, 1.0, 1, n_steps=4).n_steps == 4
    for n_steps in (0, 1, 2, 3):
        with pytest.raises(ConfigError):
            transfer.decay_probe(nop, 1.0, 1, n_steps=n_steps)


def test_normalize_circle_exact(circle_mesh):
    nop = transfer.normalize(circle_mesh, 0.0, LOG2)
    assert nop.residual == 0.0
    assert np.max(np.abs(nop.u_weights - 0.5)) == 0.0
    assert nop.log_lambda == pytest.approx(LOG2, abs=1e-12)
    assert np.max(nop.psi) / np.min(nop.psi) == pytest.approx(1.0, abs=1e-12)
    # row sums of the normalized edge weights are exactly stochastic
    assert np.max(np.abs(nop.u_weights.sum(axis=1) - 1.0)) < 1e-12


def test_normalize_residual_guard(basilica_mesh):
    with pytest.raises(NormalizationError):
        transfer.normalize(basilica_mesh, 0.5, 0.3, residual_tol=1e-30)
    nop = transfer.normalize(basilica_mesh, 0.5, 0.3)
    assert np.max(np.abs(nop.u_weights.sum(axis=1) - 1.0)) <= nop.residual + 1e-15
    assert nop.residual < 1e-6


def test_decay_probe_constants_invariant(basilica_mesh, maxent_alpha):
    nop = transfer.normalize(basilica_mesh, 0.0, maxent_alpha)
    flat = transfer.decay_probe(nop, 0.0, 0, n_steps=10)
    assert flat.rate == pytest.approx(1.0, abs=1e-6)
    assert abs(flat.sup_norms[-1] - 1.0) < 1e-9


def test_decay_probe_contracts_observables(basilica_mesh, maxent_alpha):
    nop = transfer.normalize(basilica_mesh, 0.0, maxent_alpha)
    rates = {}
    for b, k in ((5.0, 0), (0.0, 1), (3.0, 2)):
        res = transfer.decay_probe(nop, b, k, n_steps=30)
        rates[(b, k)] = res.rate
        assert res.rate <= 1.0 + 1e-9
        assert res.sup_norms[-1] < res.sup_norms[0] or res.sup_norms[0] < 1e-12
    assert max(rates.values()) < 0.99


def test_dimension_from_mesh_circle(circle_mesh):
    res = transfer.dimension_from_mesh(circle_mesh)
    assert abs(res.value - 1.0) < 1e-6
    assert res.method == "transfer-op"
    with pytest.raises(BracketError):
        transfer.dimension_from_mesh(circle_mesh, bracket=(1e-9, 0.2))


def test_dimension_routes_agree(basilica_mesh, basilica_db):
    # level-12 orbit sums and a depth-10 mesh are both still converging, so
    # the cross-route gap is looser here than on the pure-power maps
    orbit = thermo.bowen_dimension(basilica_db, 12)
    operator = transfer.dimension_from_mesh(basilica_mesh)
    assert abs(orbit.value - operator.value) < 2e-2
    assert 1.2 < orbit.value < 1.3 and 1.2 < operator.value < 1.3


def test_dimension_roots_take_few_solves(monkeypatch, basilica_mesh, basilica_db):
    # the bounds sit well below what bisection to the same tolerances takes:
    # 47 eigen solves, and 100 pressure evaluations over both orbit levels
    calls = {"eigen": 0, "pressure": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(transfer, "leading_eigendata", counted(transfer.leading_eigendata, "eigen"))
    monkeypatch.setattr(thermo, "pressure_estimate", counted(thermo.pressure_estimate, "pressure"))
    operator = transfer.dimension_from_mesh(basilica_mesh)
    orbit = thermo.bowen_dimension(basilica_db, 12)
    assert calls["eigen"] == operator.iterations <= 12
    assert calls["pressure"] == orbit.iterations <= 40
