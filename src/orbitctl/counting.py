"""Orbit counts in multiplier windows, their predicted values, and
multiplier-threshold counts against the logarithmic integral.

Counts at level n run over primitive orbits only.  An orbit enters the
window when its centered distortion u = r_n(x) - n*alpha lies in the closed
interval and its holonomy angle falls in the closed arc.  The local-limit
prediction for such a count is

    nu(arc) * J(I) * e^{n H} / (sigma * sqrt(2 pi) * n^(3/2)),

with J(I) the integral of e^{-xi u} over the interval, nu the arc fraction,
and (xi, sigma^2, H) the tilt, variance, and entropy at the chosen alpha.
J is evaluated by series when xi is tiny so the formula is smooth through
the maximal-entropy point xi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .maps import RationalMapSpec
from .orbits import OrbitDatabase, multiplier_bounded_orbits
from .thermo import ThermoProfile
from .windows import TWO_PI, SmoothedWindow, WindowSchedule


@dataclass(frozen=True)
class CountQuery:
    n: int
    alpha: float
    interval: tuple[float, float]       # closed, on the u = r_n - n*alpha axis
    arc_center: float = 0.0             # radians
    arc_width: float = 1.0              # fraction of the circle; >= 1 means all


def wrapped_fraction(theta, center: float = 0.0):
    """Angular offset from center as a fraction of the circle, in [-1/2, 1/2)."""
    frac = (np.asarray(theta, dtype=float) - center) / TWO_PI
    return np.mod(frac + 0.5, 1.0) - 0.5


def _arc_mask(theta: np.ndarray, center: float, width: float) -> np.ndarray:
    if width >= 1.0:
        return np.ones(theta.shape, dtype=bool)
    return np.abs(wrapped_fraction(theta, center)) <= width / 2.0


def count_orbits(db: OrbitDatabase, query: CountQuery) -> int:
    """Sharp count of primitive level-n orbits in interval x arc."""
    ent = db.level(query.n)
    u = ent.log_abs - query.n * query.alpha
    a, b = query.interval
    inside = (u >= a) & (u <= b) & _arc_mask(ent.theta, query.arc_center, query.arc_width)
    return int(inside.sum())


def exp_window_integral(a: float, b: float, xi: float) -> float:
    """Integral of e^{-xi u} over [a, b], stable through xi = 0.

    Below 1e-12 the window length is returned outright; up to 1e-6 a
    four-term series avoids the catastrophic cancellation in the closed
    form.
    """
    if b < a:
        raise ValueError("empty interval")
    if abs(xi) < 1e-12:
        return b - a
    if abs(xi) < 1e-6:
        total = 0.0
        for k in range(4):
            total += (-xi) ** k * (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
        return total
    return (math.exp(-xi * a) - math.exp(-xi * b)) / xi


def predicted_count(profile: ThermoProfile, query: CountQuery) -> float:
    """Local-limit prediction for the sharp count of the same query."""
    a, b = query.interval
    j = exp_window_integral(a, b, profile.xi)
    nu = min(query.arc_width, 1.0)
    n = query.n
    sigma = math.sqrt(profile.sigma2)
    return nu * j * math.exp(n * profile.entropy) / (sigma * math.sqrt(2.0 * math.pi) * n**1.5)


def predicted_count_shrinking(
    profile: ThermoProfile,
    schedule: WindowSchedule,
    n: int,
    alpha: float,
) -> float:
    """Prediction for the schedule's level-n window.

    Uses the midpoint value length * e^{-xi * center} in place of the exact
    window integral; for a window of length l the two differ by a relative
    factor of at most xi^2 l^2 / 8 * e^{|xi| l / 2}, which vanishes as the
    schedule shrinks.
    """
    schedule.validate()
    a, b = schedule.interval_at(n)
    center, width = schedule.arc_at(n)
    p = 0.5 * (a + b)
    length = b - a
    nu = min(width, 1.0)
    sigma = math.sqrt(profile.sigma2)
    return (
        nu * length * math.exp(-profile.xi * p)
        * math.exp(n * profile.entropy)
        / (sigma * math.sqrt(2.0 * math.pi) * n**1.5)
    )


@dataclass(frozen=True)
class SmoothedCount:
    value: float              # sum of window products over primitive orbits
    n: int
    sample_size: int


def smoothed_count(
    db: OrbitDatabase,
    n: int,
    alpha: float,
    interval_window: SmoothedWindow | None = None,
    arc_window: SmoothedWindow | None = None,
) -> SmoothedCount:
    """Window-weighted sum over the primitive level-n orbits."""
    ent = db.level(n)
    weight = np.ones(ent.z.size)
    if interval_window is not None:
        weight = weight * interval_window(ent.log_abs - n * alpha)
    if arc_window is not None:
        weight = weight * arc_window(ent.theta)
    return SmoothedCount(value=float(np.sum(weight)), n=n, sample_size=int(ent.z.size))


@dataclass(frozen=True)
class WeylReport:
    n: int
    k_values: tuple[int, ...]
    magnitudes: tuple[float, ...]
    sample_size: int
    empty: bool

    @property
    def noise(self) -> float:
        """1/sqrt(N): the standard deviation of one real character sum over
        N uniform angles (conjugate pairs make each sum real)."""
        return 1.0 / math.sqrt(self.sample_size) if self.sample_size else math.inf


def weyl_sums(
    db: OrbitDatabase,
    n: int,
    k_values,
    alpha: float | None = None,
    interval: tuple[float, float] | None = None,
) -> WeylReport:
    """Normalized holonomy character sums |sum e^{i k theta}| / N at level n.

    With alpha and interval given, only orbits whose centered deviation
    log|lambda| - n*alpha lands in the closed interval contribute.
    """
    ent = db.level(n)
    th = ent.theta
    if interval is not None:
        if alpha is None:
            raise ValueError("an interval filter needs alpha")
        a, b = interval
        u = ent.log_abs - n * alpha
        th = th[(u >= a) & (u <= b)]
    ks = tuple(int(k) for k in k_values)
    if th.size == 0:
        return WeylReport(n=n, k_values=ks, magnitudes=(), sample_size=0, empty=True)
    mags = tuple(float(np.abs(np.exp(1j * k * th).mean())) for k in ks)
    return WeylReport(n=n, k_values=ks, magnitudes=mags, sample_size=int(th.size), empty=False)


EULER_GAMMA = 0.5772156649015329
LI_2 = 1.0451637801174928  # li(2)


def logarithmic_integral(x: float) -> float:
    """Li(x) = integral from 2 to x of du / log u = li(x) - li(2); defined
    for x >= 2.  li by Ramanujan's series

        li(x) = gamma + log log x + sqrt(x) sum_{n >= 1} (-1)^(n-1) (log x)^n
                / (n! 2^(n-1)) sum_{k = 0}^{floor((n-1)/2)} 1 / (2k + 1),

    summed until a term past the largest, near n = log x, leaves the sum
    unchanged."""
    if x < 2.0:
        raise DomainError(f"Li is defined from 2 upward, got {x:.6g}")
    if x == 2.0:
        return 0.0
    log_x = math.log(x)
    total, power, odd, n = 0.0, -2.0, 0.0, 0
    while True:
        n += 1
        power *= -log_x / (2 * n)  # (-1)^(n-1) (log x)^n / (n! 2^(n-1))
        if n % 2:
            odd += 1.0 / n
        if total + power * odd == total and n > log_x:
            break
        total += power * odd
    return EULER_GAMMA + math.log(log_x) + math.sqrt(x) * total - LI_2


@dataclass(frozen=True)
class LiRow:
    threshold: float
    count: int
    li_value: float
    ratio: float | None
    max_period: int  # deepest period the count covers


@dataclass(frozen=True)
class LiReport:
    rows: tuple[LiRow, ...]
    delta: float
    trend_ok: bool
    slack: float | None = None  # multiplier-walk slack; None when no threshold is given


def li_table(
    db: OrbitDatabase,
    thresholds,
    delta: float,
    map_spec: RationalMapSpec,
) -> LiReport:
    """Counts against Li(t^delta) across thresholds, with a trend flag.

    The counts come from one multiplier-bounded walk at the largest
    threshold, with its slack measured on the census and its per-period
    counts certified against it (IncompleteCensusError, exit code 4,
    otherwise); max_period is the longest period counted.  The
    certification covers the periods the census holds; counts at longer
    periods rest on the census-measured slack holding at every depth.

    trend_ok records whether |ratio - 1| is non-increasing over the top
    half of the usable rows, a crude monotonicity check on convergence.
    """
    ts = sorted(float(t) for t in thresholds)
    walk = None
    if ts:
        if ts[0] <= 0:
            raise DomainError("threshold must be positive")
        walk = multiplier_bounded_orbits(map_spec, db, ts[-1])
    rows = []
    for t in ts:
        count = walk.count(t)
        x = t**delta
        li = logarithmic_integral(x) if x >= 2.0 else 0.0
        rows.append(
            LiRow(
                threshold=t, count=count, li_value=li, ratio=count / li if li > 0 else None,
                max_period=walk.max_period(t),
            )
        )
    usable = [abs(r.ratio - 1.0) for r in rows if r.ratio is not None]
    top = usable[len(usable) // 2 :]
    trend_ok = all(b <= a + 1e-12 for a, b in zip(top, top[1:])) if len(top) >= 2 else True
    return LiReport(rows=tuple(rows), delta=delta, trend_ok=trend_ok,
                    slack=None if walk is None else walk.slack)
