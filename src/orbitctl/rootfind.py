"""Simultaneous solution of the fixed-point equations f^n(z) = z.

F(z) = f^n(z) - z is a polynomial of known degree, but its expanded
coefficients overflow double precision already around n = 11 for quadratic
maps, so F and F' are evaluated by composition (forward iteration plus the
chain rule).  Aberth-Ehrlich only needs F/F' at the current points and the
root count, which makes the composition route exact enough.

Aberth starts from the caller's points, one per root.  The census starts
it from the preimages under f^n of one point outside the Julia set: they
equidistribute to the same measure as the fixed points of f^n, so each
start lies near a root and the sweeps go to the solve, not to the approach.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError
from .maps import RationalMapSpec, _map_and_derivative

_BIG = 1e150  # orbit magnitude beyond which the evaluation is abandoned

# Newton steps a polish allows per point on f^n(z) = z; a limit on a cycle
# with a large multiplier can need more than a handful
NEWTON_ITERS = 20

# Aberth sweeps allowed, and the relative correction at which a point freezes
ABERTH_SWEEPS = 400
ABERTH_TOL = 5e-14


def fn_shift(map_spec: RationalMapSpec, z: np.ndarray, n: int):
    """(F, dF, bad) with F = f^n(z) - z, dF = (f^n)'(z) - 1, vectorized.

    bad marks points whose orbit left the numeric range (escape toward
    infinity or a pole); their F/dF entries are unusable.  Orbits rarely
    leave, so each step first tests the largest |w| alone, and the per-point
    mask starts from the first step where one leaves.
    """
    w = np.array(z, dtype=complex)
    deriv = np.ones_like(w)
    bad = np.zeros(w.shape, dtype=bool)
    masked = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n):
            w, fp = _map_and_derivative(map_spec, w)
            deriv *= fp
            masked = masked or not np.abs(w).max(initial=0.0) <= _BIG  # nan fails too
            if masked:
                bad |= ~(np.abs(w) <= _BIG)
                w[bad] = 0.0
                deriv[bad] = 1.0
    return w - z, deriv - 1.0, bad


def newton_polish(map_spec: RationalMapSpec, z: np.ndarray, n: int) -> np.ndarray:
    """Newton iteration on f^n(z) - z, point by point.

    A point stops once its step is at most 1e-14 (1 + |z|) or its orbit
    leaves the numeric range, and after NEWTON_ITERS steps.  Callers judge
    convergence (orbits._newton_step).
    """
    z = np.array(z, dtype=complex).ravel()
    active = np.arange(z.size)
    for _ in range(NEWTON_ITERS):
        if active.size == 0:
            break
        f_val, df_val, bad = fn_shift(map_spec, z[active], n)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f_val / df_val
        step = np.where(bad | ~np.isfinite(step), 0.0, step)
        z[active] -= step
        done = bad | (np.abs(step) <= 1e-14 * (1.0 + np.abs(z[active])))
        active = active[~done]
    return z


def _repulsion(z_all: np.ndarray, rows: np.ndarray, chunk: int = 32) -> np.ndarray:
    """S_i = sum_j 1/(z_i - z_j) over all j != i, for the selected rows.

    Each term is conj(d)/|d|^2 in real arithmetic, which avoids complex
    division, over blocks of rows small enough to stay in cache.
    """
    x, y = z_all.real.copy(), z_all.imag.copy()
    out = np.empty(rows.size, dtype=complex)
    for start in range(0, rows.size, chunk):
        sel = rows[start:start + chunk]
        dx = np.subtract.outer(x[sel], x)
        dy = np.subtract.outer(y[sel], y)
        w = dx * dx
        w += dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, w, out=w)
        w[~np.isfinite(w)] = 0.0  # kills the self term
        dx *= w
        dy *= w
        out[start:start + chunk] = dx.sum(axis=1) - 1j * dy.sum(axis=1)
    return out


def aberth_fixed_points(map_spec: RationalMapSpec, n: int, start: np.ndarray) -> np.ndarray:
    """All roots of f^n(z) = z by Aberth-Ehrlich, one from each start point.

    The start must hold as many distinct points as f^n(z) = z has roots;
    the census passes f^{-n}(w0) for a w0 outside the Julia set
    (orbits._aberth_start), which already puts one start near each root.
    Points whose forward evaluation overflows are pulled back toward the
    origin deterministically; convergence is per-point on the Newton
    correction, and converged points are frozen (they keep repelling the
    active ones).  NonConvergenceError when points are still active after
    ABERTH_SWEEPS sweeps.
    """
    z = np.array(start, dtype=complex).ravel()
    count = z.size
    active = np.ones(count, dtype=bool)

    for _ in range(ABERTH_SWEEPS):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        f_val, df_val, bad = fn_shift(map_spec, z[rows], n)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f_val / df_val
        tiny = np.abs(df_val) < 1e-300
        newton = np.where(tiny | ~np.isfinite(newton), 1e-6, newton)
        s = _repulsion(z, rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = newton / (1.0 - newton * s)
        corr = np.where(np.isfinite(corr), corr, newton)
        # runaway points: shrink toward the origin a little, keeping the angle
        corr = np.where(bad, 0.03 * z[rows], corr)
        z[rows] = z[rows] - corr
        # freeze only where the raw Newton step is small too; a tiny Aberth
        # correction alone can come from crowding, not from being at a root
        done = (
            (np.abs(corr) <= ABERTH_TOL * (1.0 + np.abs(z[rows])))
            & (np.abs(newton) <= 1e3 * ABERTH_TOL * (1.0 + np.abs(z[rows])))
            & ~bad
        )
        active[rows[done]] = False
    else:
        leftover = int(active.sum())
        if leftover > 0:
            raise NonConvergenceError(
                f"Aberth left {leftover}/{count} points unconverged at n = {n}"
            )
    return newton_polish(map_spec, z, n)
