"""Pressure, entropy, and dimension from periodic-orbit sums.

Everything here is driven by the weighted level sums

    Z_n(s, k) = sum over repelling x with f^n(x) = x of
                exp(s * (r_n(x) - n*alpha) + i*k*theta_n(x))

where r_n, theta_n are the distortion and rotation sums along the orbit.
A primitive m-orbit with m | n contributes m points at level n; its level-n
data is reconstructed exactly from the stored cycle data as r_n = (n/m)*r_m
and theta_n = (n/m)*theta_m mod 2pi (the lift ambiguity cancels because n/m
is an integer).

The finite-n pressure estimate q(t) = (1/n) log Z_n(t, 0) and its softmax
derivatives q1, q2 feed a safeguarded Newton solve for the tilt xi(alpha)
with q1(xi) = 0, giving the entropy H(alpha) = q(xi) and variance
sigma^2(alpha) = q2(xi).  The Bowen parameter is the bisection root of
t -> q(-t) at alpha = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    BracketError,
    DegenerateError,
    IncompleteCensusError,
    NonConvergenceError,
    OverflowGuard,
)
from .orbits import OrbitDatabase, divisors

EXP_LIMIT = 705.0  # log of the largest double, with headroom


def level_terms(db: OrbitDatabase, n: int):
    """(r_n, theta_n, weight) arrays over repelling fixed points of f^n."""
    cached = db._term_cache.get(n)
    if cached is not None:
        return cached
    rs, ths, ws = [], [], []
    for m in divisors(n):
        ent = db.entries.get(m)
        if ent is None or not ent.complete:
            raise IncompleteCensusError(f"period {m} not enumerated; cannot form level {n}")
        k = n // m
        for orb in ent.orbits:
            rs.append(k * orb.log_abs_multiplier)
            ths.append((k * orb.holonomy_angle) % (2.0 * np.pi))
            ws.append(float(m))
    out = (np.asarray(rs, float), np.asarray(ths, float), np.asarray(ws, float))
    db._term_cache[n] = out
    return out


def log_zn(db: OrbitDatabase, n: int, s: complex, k: int = 0, alpha: float = 0.0) -> complex:
    """Principal log of Z_n(s, k), stable for any magnitude."""
    r, th, w = level_terms(db, n)
    expo = s * (r - n * alpha) + 1j * k * th
    shift = float(np.max(expo.real))
    total = np.sum(w * np.exp(expo - shift))
    if total == 0:
        raise OverflowGuard(f"level sum underflowed at n = {n}")
    return complex(np.log(total) + shift)


def zn_sum(db: OrbitDatabase, n: int, s: complex, k: int = 0, alpha: float = 0.0) -> complex:
    """Z_n(s, k) as a complex number; refuses magnitudes beyond double range."""
    lz = log_zn(db, n, s, k, alpha)
    if lz.real > EXP_LIMIT:
        raise OverflowGuard(
            f"Z_{n} magnitude exp({lz.real:.1f}) exceeds double range; use log_zn"
        )
    return complex(np.exp(lz))


def pressure_estimate(
    db: OrbitDatabase,
    n: int,
    t: float,
    alpha: float = 0.0,
    variant: str = "direct",
) -> float:
    """Finite-level pressure of t*(r - alpha).

    'direct' is (1/n) log Z_n; 'ratio' is log Z_n - log Z_{n-1}, which
    cancels the leading lag term when consecutive levels are available.
    """
    if variant == "direct":
        return log_zn(db, n, t, 0, alpha).real / n
    if variant == "ratio":
        if n < 2:
            raise ValueError("ratio variant needs n >= 2")
        return log_zn(db, n, t, 0, alpha).real - log_zn(db, n - 1, t, 0, alpha).real
    raise ValueError(f"unknown variant '{variant}'")


def pressure_derivatives(db: OrbitDatabase, n: int, t: float, alpha: float = 0.0):
    """(q1, q2): softmax mean and variance of (r_n - n*alpha)/n at tilt t."""
    r, _, w = level_terms(db, n)
    x = r - n * alpha
    expo = t * x
    shift = np.max(expo)
    p = w * np.exp(expo - shift)
    p /= p.sum()
    mean = float(np.sum(p * x))
    var = float(np.sum(p * (x - mean) ** 2))
    return mean / n, max(var / n, 0.0)


def alpha_range(db: OrbitDatabase, n: int, t_span: float = 40.0) -> tuple[float, float]:
    """Interval of alpha values reachable by finite tilts at this level."""
    lo, _ = pressure_derivatives(db, n, -t_span, 0.0)
    hi, _ = pressure_derivatives(db, n, t_span, 0.0)
    return lo, hi


@dataclass(frozen=True)
class ThermoProfile:
    alpha: float
    xi: float
    sigma2: float
    entropy: float
    residual: float
    n_used: int


@dataclass(frozen=True)
class PressureCurve:
    t: np.ndarray
    q: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    alpha: float
    variant: str
    n_used: int


@dataclass(frozen=True)
class DimensionResult:
    value: float
    residual: float
    iterations: int
    n_used: int
    method: str
    bracket: tuple[float, float]


def pressure_curve(
    db: OrbitDatabase,
    n: int,
    t_values,
    alpha: float = 0.0,
    variant: str = "direct",
) -> PressureCurve:
    t = np.asarray(t_values, dtype=float)
    q = np.array([pressure_estimate(db, n, tv, alpha, variant) for tv in t])
    pairs = [pressure_derivatives(db, n, tv, alpha) for tv in t]
    q1 = np.array([p[0] for p in pairs])
    q2 = np.array([p[1] for p in pairs])
    return PressureCurve(t=t, q=q, q1=q1, q2=q2, alpha=alpha, variant=variant, n_used=n)


def thermo_profile(
    db: OrbitDatabase,
    alpha: float,
    n: int,
    t_span: float = 40.0,
    residual_tol: float = 1e-8,
) -> ThermoProfile:
    """Tilt xi with q1(xi) = 0, plus variance and entropy at that tilt.

    Degenerate levels (all orbits share one expansion rate, q2 ~ 0) are
    rejected first; then alpha must lie strictly inside the reachable
    range before the safeguarded Newton iteration starts.
    """
    _, q2_at_zero = pressure_derivatives(db, n, 0.0, alpha)
    if q2_at_zero <= 1e-10:
        raise DegenerateError(
            f"distortion spectrum is degenerate at n = {n} (q2 = {q2_at_zero:.2e}); "
            "the profile is a point mass"
        )
    lo_a, hi_a = alpha_range(db, n, t_span)
    if not (lo_a < alpha < hi_a):
        raise AlphaOutOfRangeError(
            f"alpha = {alpha:.6g} outside the reachable range "
            f"({lo_a:.6g}, {hi_a:.6g}) at n = {n}"
        )

    # g(t) = q1(t) is increasing in t; bracket then Newton with bisection fallback
    lo, hi = -t_span, t_span
    g_lo, _ = pressure_derivatives(db, n, lo, alpha)
    g_hi, _ = pressure_derivatives(db, n, hi, alpha)
    if not (g_lo < 0.0 < g_hi):
        raise AlphaOutOfRangeError(
            f"alpha = {alpha:.6g} not bracketed by tilts +/-{t_span}"
        )
    t = 0.0
    g, dg = pressure_derivatives(db, n, t, alpha)
    for _ in range(200):
        if abs(g) < 1e-14:
            break
        if g > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        step = g / dg if dg > 0 else None
        if step is not None and lo < t - step < hi:
            t = t - step
        else:
            t = 0.5 * (lo + hi)
        g, dg = pressure_derivatives(db, n, t, alpha)
    if abs(g) > residual_tol:
        raise NonConvergenceError(
            f"tilt solve stalled at |q1| = {abs(g):.2e} for alpha = {alpha:.6g}"
        )
    entropy = pressure_estimate(db, n, t, alpha, "direct")
    return ThermoProfile(
        alpha=alpha, xi=t, sigma2=dg, entropy=entropy, residual=abs(g), n_used=n
    )


def bisect_root(
    press,
    bracket: tuple[float, float],
    rel_tol: float,
    residual_tol: float,
    label: str,
) -> tuple[float, float, int]:
    """Root of a function that falls through zero on the bracket, by bisection.

    press is probed at both ends, at every midpoint until the bracket is
    narrower than rel_tol * (1 + |mid|) (at most 200 halvings), and at the
    root.  Returns (root, |press(root)|, halvings).  BracketError when the
    ends do not straddle zero and NonConvergenceError when the residual
    exceeds residual_tol; both messages begin with label.
    """
    lo, hi = bracket
    p_lo, p_hi = press(lo), press(hi)
    if not (p_lo > 0.0 > p_hi):
        raise BracketError(
            f"{label} does not change sign on ({lo}, {hi}): "
            f"P({lo}) = {p_lo:.4g}, P({hi}) = {p_hi:.4g}"
        )
    iters = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        iters += 1
        if press(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < rel_tol * (1.0 + abs(mid)):
            break
    value = 0.5 * (lo + hi)
    residual = abs(press(value))
    if residual > residual_tol:
        raise NonConvergenceError(
            f"{label} residual {residual:.2e} above {residual_tol:.1e} at t = {value:.12g}"
        )
    return value, residual, iters


def _pressure_root(
    db: OrbitDatabase,
    n: int,
    variant: str,
    bracket: tuple[float, float],
    residual_tol: float,
) -> tuple[float, float, int]:
    return bisect_root(
        lambda t: pressure_estimate(db, n, -t, 0.0, variant),
        bracket, 1e-14, residual_tol, f"pressure at n = {n}",
    )


def bowen_dimension(
    db: OrbitDatabase,
    n: int,
    bracket: tuple[float, float] = (1e-9, 2.0),
    residual_tol: float = 1e-10,
    variant: str = "balanced",
) -> DimensionResult:
    """Root of the level-sum pressure t -> P_n(-t) on the bracket.

    'direct' bisects (1/n) log Z_n alone; 'ratio' uses consecutive levels.
    The default 'balanced' averages the direct roots at n-1 and n: level
    sums of renormalizable maps carry a genuinely 2-periodic prefactor
    (even and odd levels see the slow part of the spectrum differently),
    and the even/odd mean cancels its leading contribution to the root.
    """
    if variant in ("direct", "ratio"):
        value, residual, iters = _pressure_root(db, n, variant, bracket, residual_tol)
        return DimensionResult(
            value=value, residual=residual, iterations=iters,
            n_used=n, method="orbit-sum", bracket=bracket,
        )
    if variant != "balanced":
        raise ValueError(f"unknown variant '{variant}'")
    if n < 2:
        value, residual, iters = _pressure_root(db, n, "direct", bracket, residual_tol)
        return DimensionResult(
            value=value, residual=residual, iterations=iters,
            n_used=n, method="orbit-sum", bracket=bracket,
        )
    v_hi, r_hi, it_hi = _pressure_root(db, n, "direct", bracket, residual_tol)
    v_lo, r_lo, it_lo = _pressure_root(db, n - 1, "direct", bracket, residual_tol)
    return DimensionResult(
        value=0.5 * (v_hi + v_lo),
        residual=max(r_hi, r_lo),
        iterations=it_hi + it_lo,
        n_used=n,
        method="orbit-sum",
        bracket=bracket,
    )


@dataclass(frozen=True)
class ExpansionCheck:
    t: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    xi: float
    sigma2: float
    n_used: int


def expansion_check(
    db: OrbitDatabase,
    n: int,
    alpha: float,
    xi: float,
    sigma2: float,
    t_values,
) -> ExpansionCheck:
    """Compare exp(q(xi + it)) against the quadratic shoulder
    exp(q(xi)) * (1 - sigma2 t^2 / 2); the gap should shrink like t^3."""
    t = np.asarray(t_values, dtype=float)
    base = np.exp(log_zn(db, n, xi, 0, alpha) / n)
    lhs = np.array([np.exp(log_zn(db, n, complex(xi, tv), 0, alpha) / n) for tv in t])
    rhs = base * (1.0 - 0.5 * sigma2 * t**2)
    residual = np.abs(lhs - rhs)
    return ExpansionCheck(
        t=t, lhs=lhs, rhs=rhs, residual=residual, xi=xi, sigma2=sigma2, n_used=n
    )


def maximal_entropy_alpha(db: OrbitDatabase, n: int) -> float:
    """alpha at which the tilt vanishes: the untilted mean of r_n/n."""
    mean, _ = pressure_derivatives(db, n, 0.0, 0.0)
    return mean


__all__ = [
    "level_terms",
    "log_zn",
    "zn_sum",
    "pressure_estimate",
    "pressure_derivatives",
    "alpha_range",
    "pressure_curve",
    "thermo_profile",
    "bowen_dimension",
    "expansion_check",
    "maximal_entropy_alpha",
    "ThermoProfile",
    "PressureCurve",
    "DimensionResult",
    "ExpansionCheck",
]
