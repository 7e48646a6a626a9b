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
derivatives q1, q2 give the tilt xi(alpha), the root of q1 on a fixed span
of tilts, and from it the entropy H(alpha) = q(xi) and the variance
sigma^2(alpha) = q2(xi).  The Bowen parameter is the root of t -> q(-t) at
alpha = 0.  Every root here comes from bracketed_root, Brent's method on a
sign-changing bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    BracketError,
    DegenerateError,
    NonConvergenceError,
    OverflowGuard,
)
from .orbits import OrbitDatabase, divisors

T_SPAN = 40.0  # the profile looks for its tilt in (-T_SPAN, T_SPAN)
BRENT_STEPS = 100  # Brent's step budget, scipy.optimize.brentq's default maxiter


def level_terms(db: OrbitDatabase, n: int):
    """(r_n, theta_n, weight) arrays over repelling fixed points of f^n."""
    cached = db._term_cache.get(n)
    if cached is not None:
        return cached
    ents = [db.level(m) for m in divisors(n)]
    out = (
        np.concatenate([(n // e.period) * e.log_abs for e in ents]),
        np.concatenate([((n // e.period) * e.theta) % (2.0 * np.pi) for e in ents]),
        np.concatenate([np.full(e.z.size, float(e.period)) for e in ents]),
    )
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


def alpha_range(db: OrbitDatabase, n: int, t_span: float = T_SPAN) -> tuple[float, float]:
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


def bracketed_root(
    fn,
    bracket: tuple[float, float],
    rel_tol: float,
    residual_tol: float,
    label: str,
) -> tuple[float, float, int]:
    """Root of a function that changes sign on the bracket, by Brent's method.

    Brent stops once the root is pinned to rel_tol * (1 + |root|); an end
    where fn vanishes is the root.  Returns (root, |fn(root)|, function
    calls), each distinct point counted once.  BracketError when the ends
    do not straddle zero, NonConvergenceError
    when Brent does not converge or the residual exceeds residual_tol; both
    messages begin with label.
    """
    seen: dict[float, float] = {}

    def probe(t: float) -> float:
        if t not in seen:
            seen[t] = fn(t)
        return seen[t]

    lo, hi = bracket
    f_lo, f_hi = probe(lo), probe(hi)
    if not (min(f_lo, f_hi) <= 0.0 <= max(f_lo, f_hi)):
        raise BracketError(
            f"{label} does not change sign on ({lo}, {hi}): "
            f"f({lo}) = {f_lo:.4g}, f({hi}) = {f_hi:.4g}"
        )
    value = _brent(probe, lo, hi, f_lo, f_hi, rel_tol)
    if value is None:
        raise NonConvergenceError(f"{label}: Brent stopped unconverged after {BRENT_STEPS} steps")
    residual = abs(probe(value))
    if not residual <= residual_tol:
        raise NonConvergenceError(
            f"{label} residual {residual:.2e} above {residual_tol:.1e} at t = {value:.12g}"
        )
    return value, residual, len(seen)


def _brent(fn, xpre: float, xcur: float, fpre: float, fcur: float, tol: float) -> float | None:
    """Brent's method from the ends xpre, xcur, where fn takes fpre and fcur
    of opposite signs or 0, step for step as scipy.optimize.brentq runs it
    with xtol = rtol = tol: it stops once the root is pinned to
    tol (1 + |root|).  None after BRENT_STEPS steps without that."""
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_STEPS):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fn(xcur)
    return None


def thermo_profile(db: OrbitDatabase, alpha: float, n: int) -> ThermoProfile:
    """Tilt xi with q1(xi) = 0, plus variance and entropy at that tilt.

    Degenerate levels (all orbits share one expansion rate, q2 ~ 0) are
    rejected first; then alpha must lie strictly inside the reachable
    range, which makes q1, increasing in t, change sign on the tilt span.
    Its sign at t = 0 picks the half of the span that holds the root, so
    at the maximal-entropy alpha the root is found at 0 itself.
    """
    q1_at_zero, q2_at_zero = pressure_derivatives(db, n, 0.0, alpha)
    if q2_at_zero <= 1e-10:
        raise DegenerateError(
            f"distortion spectrum is degenerate at n = {n} (q2 = {q2_at_zero:.2e}); "
            "the profile is a point mass"
        )
    lo_a, hi_a = alpha_range(db, n)
    if not (lo_a < alpha < hi_a):
        raise AlphaOutOfRangeError(
            f"alpha = {alpha:.6g} outside the reachable range "
            f"({lo_a:.6g}, {hi_a:.6g}) at n = {n}"
        )
    xi, residual, _ = bracketed_root(
        lambda t: pressure_derivatives(db, n, t, alpha)[0],
        (-T_SPAN, 0.0) if q1_at_zero > 0.0 else (0.0, T_SPAN),
        1e-14, 1e-8, f"tilt for alpha = {alpha:.6g}",
    )
    _, sigma2 = pressure_derivatives(db, n, xi, alpha)
    entropy = pressure_estimate(db, n, xi, alpha, "direct")
    return ThermoProfile(
        alpha=alpha, xi=xi, sigma2=sigma2, entropy=entropy, residual=residual, n_used=n
    )


def bowen_dimension(
    db: OrbitDatabase,
    n: int,
    bracket: tuple[float, float] = (1e-9, 2.0),
) -> DimensionResult:
    """Root of the level-sum pressure t -> P_n(-t) on the bracket.

    The value averages the roots of (1/m) log Z_m at m = n-1 and m = n (at
    n alone when n = 1): level sums of renormalizable maps carry a genuinely
    2-periodic prefactor (even and odd levels see the slow part of the
    spectrum differently), and the even/odd mean cancels its leading
    contribution to the root.  iterations counts the pressure evaluations.
    """
    levels = (n,) if n < 2 else (n, n - 1)
    roots = [
        bracketed_root(
            lambda t, m=m: pressure_estimate(db, m, -t),
            bracket, 1e-14, 1e-10, f"pressure at n = {m}",
        )
        for m in levels
    ]
    return DimensionResult(
        value=sum(r[0] for r in roots) / len(roots),
        residual=max(r[1] for r in roots),
        iterations=sum(r[2] for r in roots),
        n_used=n,
        method="orbit-sum",
        bracket=bracket,
    )


def maximal_entropy_alpha(db: OrbitDatabase, n: int) -> float:
    """alpha at which the tilt vanishes: the untilted mean of r_n/n."""
    mean, _ = pressure_derivatives(db, n, 0.0, 0.0)
    return mean


__all__ = [
    "level_terms",
    "log_zn",
    "pressure_estimate",
    "pressure_derivatives",
    "alpha_range",
    "pressure_curve",
    "thermo_profile",
    "bracketed_root",
    "bowen_dimension",
    "maximal_entropy_alpha",
    "ThermoProfile",
    "PressureCurve",
    "DimensionResult",
]
