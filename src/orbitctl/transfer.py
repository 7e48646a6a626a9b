"""Discretized transfer operators on a backward-orbit collocation mesh.

The mesh is the full depth-k preimage tree of a repelling fixed point, so
it equidistributes toward the Julia set as the depth grows.  A function on
the mesh is pushed through

    (L_w phi)(x) = sum over f(y) = x of w(y) phi(y)

with the exact preimages y of each node computed once and phi(y) read off
by nearest-node lookup.  With the weight e^{xi (r - alpha)} the leading
eigendata (Perron root and positive eigenvector) normalize L into a
row-stochastic operator; twisting the normalized kernel by
e^{i (b (r - alpha) + k theta)} and watching sup norms decay gives an
empirical spectral-gap probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CriticalValueError,
    NonConvergenceError,
    NormalizationError,
    OverflowGuard,
)
from .maps import DERIV_FLOOR, RationalMapSpec, derivative_values
from .orbits import _fixed_point_seed, _nearest, preimages
from .thermo import DimensionResult, bracketed_root

COLLISION_TOL = 1e-9


@dataclass(frozen=True)
class CollocationMesh:
    points: np.ndarray        # (N,) complex mesh nodes
    pre_points: np.ndarray    # (N, d) exact preimages of each node
    pre_index: np.ndarray     # (N, d) nearest mesh node to each preimage
    pre_r: np.ndarray         # (N, d) log|f'| at the preimage
    pre_theta: np.ndarray     # (N, d) arg f' at the preimage, in [0, 2pi)
    depth: int
    seed: complex
    resolution: float         # worst preimage-to-node snap distance

    @property
    def size(self) -> int:
        return int(self.points.size)


def _preimages(map_spec: RationalMapSpec, y) -> np.ndarray:
    """All d solutions of f(z) = y for each node y, shape (N, d).

    Raises CriticalValueError when a node sits within roundoff of a
    critical value (its preimages collide or land on a critical point) or
    a preimage escapes to infinity.
    """
    pre = preimages(map_spec, y)
    nodes = np.asarray(y, dtype=complex).ravel()
    lost = np.isnan(pre).any(axis=1)
    if lost.any():
        raise CriticalValueError(
            f"a preimage of {nodes[lost][0]:.6g} escaped to infinity; move the seed"
        )
    critical = (np.abs(derivative_values(map_spec, pre)) < DERIV_FLOOR).any(axis=1)
    if critical.any():
        raise CriticalValueError(
            f"{nodes[critical][0]:.6g} is within roundoff of a critical value"
        )
    gaps = np.abs(pre[:, :, None] - pre[:, None, :])
    gaps[:, np.arange(pre.shape[1]), np.arange(pre.shape[1])] = np.inf
    collide = gaps.min(axis=(1, 2)) < COLLISION_TOL
    if collide.any():
        raise CriticalValueError(
            f"preimages of {nodes[collide][0]:.6g} collide within {COLLISION_TOL:.1e}; "
            "the node sits on a critical value"
        )
    return pre


def build_mesh(map_spec: RationalMapSpec, depth: int) -> CollocationMesh:
    """Depth-k preimage tree of the strongest repelling fixed point."""
    if depth < 1:
        raise ConfigError(f"mesh depth must be >= 1, got {depth}")
    seed = _fixed_point_seed(map_spec)
    points = np.asarray([seed], dtype=complex)
    for _ in range(depth):
        points = _preimages(map_spec, points).ravel()

    pre = _preimages(map_spec, points)
    fp = derivative_values(map_spec, pre)
    pre_r = np.log(np.abs(fp))
    pre_theta = np.mod(np.arctan2(fp.imag, fp.real), 2.0 * np.pi)

    idx, dist = _nearest(pre.ravel(), points)
    pre_index = idx.reshape(pre.shape)
    resolution = float(dist.max())
    return CollocationMesh(
        points=points,
        pre_points=pre,
        pre_index=pre_index,
        pre_r=pre_r,
        pre_theta=pre_theta,
        depth=depth,
        seed=complex(seed),
        resolution=resolution,
    )


def _columns(a: np.ndarray) -> np.ndarray:
    """(d, N) contiguous copy of an (N, d) mesh field, one row per preimage."""
    return np.ascontiguousarray(a.T)


def _apply(w: np.ndarray, idx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j w[j] * v[idx[j]] for (d, N) columns w and idx.

    The operator's action as d column gathers, which cost about a quarter
    of numpy's row-by-row reduction of the (N, d) products.  It equals
    np.sum(W * v[I], axis=1) bit for bit while a row holds fewer than 8
    reals (d < 8 real, d < 4 complex): numpy adds so short a contiguous
    axis from left to right, the order of this loop.
    """
    out = w[0] * v[idx[0]]
    for j in range(1, w.shape[0]):
        out += w[j] * v[idx[j]]
    return out


def leading_eigendata(
    mesh: CollocationMesh,
    xi: float,
    alpha: float = 0.0,
    max_iter: int = 5000,
):
    """(log Perron root, positive eigenvector with sup 1) by power iteration.

    Convergence is certified by the Collatz-Wielandt sandwich: the min and
    max of (L psi)/psi bracket the root at every step, and the iteration
    stops once they agree to 1e-12 relative.  Weights that overflow raise
    OverflowGuard, and a bound that is not positive and finite raises
    NonConvergenceError.
    """
    # weights that under- or overflow surface as the two errors below, not
    # as numpy warnings ahead of the error record
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(xi * (mesh.pre_r - alpha))
        if not np.isfinite(weights).all():
            raise OverflowGuard(
                f"operator weights e^(xi (r - alpha)) overflow at xi = {xi:g}, alpha = {alpha:g}"
            )
        weights = _columns(weights)
        index = _columns(mesh.pre_index)
        psi = np.ones(mesh.size, dtype=float)
        lam = None
        for _ in range(max_iter):
            nxt = _apply(weights, index, psi)
            ratios = nxt / psi
            lo, hi = float(ratios.min()), float(ratios.max())
            if not 0.0 < hi < np.inf:
                raise NonConvergenceError(
                    f"power iteration reached the Collatz-Wielandt upper bound {hi}"
                )
            if hi - lo <= 1e-12 * hi:
                lam = 0.5 * (lo + hi)
                psi = nxt
                break
            psi = nxt / nxt.max()
    if lam is None:
        raise NonConvergenceError(
            f"power iteration did not close the Collatz-Wielandt gap in {max_iter} steps"
        )
    psi = psi / psi.max()
    return float(np.log(lam)), psi


@dataclass(frozen=True)
class NormalizedOperator:
    mesh: CollocationMesh
    xi: float
    alpha: float
    log_lambda: float
    psi: np.ndarray
    u_weights: np.ndarray     # (N, d) row-stochastic kernel
    residual: float           # max |row sum - 1|


def normalize(
    mesh: CollocationMesh,
    xi: float,
    alpha: float = 0.0,
    residual_tol: float = 1e-6,
) -> NormalizedOperator:
    """Doob transform by the leading eigendata; rows must sum to 1."""
    log_lambda, psi = leading_eigendata(mesh, xi, alpha)
    u = (
        np.exp(xi * (mesh.pre_r - alpha) - log_lambda)
        * psi[mesh.pre_index]
        / psi[:, None]
    )
    rows = u.sum(axis=1)
    residual = float(np.abs(rows - 1.0).max())
    if not residual <= residual_tol:
        raise NormalizationError(
            f"normalized row sums off by {residual:.3e} (tol {residual_tol:.1e})"
        )
    return NormalizedOperator(
        mesh=mesh,
        xi=xi,
        alpha=alpha,
        log_lambda=log_lambda,
        psi=psi,
        u_weights=u,
        residual=residual,
    )


@dataclass(frozen=True)
class DecayResult:
    b: float
    k: int
    rate: float
    sup_norms: np.ndarray
    depth: int
    n_steps: int


def decay_probe(
    normop: NormalizedOperator,
    b: float,
    k: int,
    n_steps: int = 40,
) -> DecayResult:
    """Iterate the twisted normalized operator and fit the sup-norm decay.

    The twist multiplies the kernel by e^{i (b (r - alpha) + k theta)}.  The
    reported rate is exp of the least-squares slope of log sup norms over
    the last half of the trajectory, so transient behavior is discarded;
    that half must hold two points, so n_steps < 4 raises ConfigError.
    """
    if n_steps < 4:
        raise ConfigError(f"decay probe needs n_steps >= 4 to fit a slope, got {n_steps}")
    mesh = normop.mesh
    phase = np.exp(1j * (b * (mesh.pre_r - normop.alpha) + k * mesh.pre_theta))
    kernel = _columns(normop.u_weights * phase)
    index = _columns(mesh.pre_index)
    phi = np.ones(mesh.size, dtype=complex)
    sups = np.empty(n_steps, dtype=float)
    for m in range(n_steps):
        phi = _apply(kernel, index, phi)
        sups[m] = max(float(np.abs(phi).max()), 1e-300)
    half = n_steps // 2
    steps = np.arange(half, n_steps, dtype=float)
    slope = np.polyfit(steps, np.log(sups[half:]), 1)[0]
    return DecayResult(
        b=b, k=k, rate=float(np.exp(slope)), sup_norms=sups,
        depth=mesh.depth, n_steps=n_steps,
    )


def dimension_from_mesh(
    mesh: CollocationMesh,
    bracket: tuple[float, float] = (1e-9, 2.0),
) -> DimensionResult:
    """Root of t -> log Perron root of the weight e^{-t r}; iterations counts
    the eigen solves."""
    value, residual, iters = bracketed_root(
        lambda t: leading_eigendata(mesh, -t, 0.0)[0],
        bracket, 1e-13, 1e-9, "operator pressure",
    )
    return DimensionResult(
        value=value,
        residual=residual,
        iterations=iters,
        n_used=mesh.depth,
        method="transfer-op",
        bracket=bracket,
    )
