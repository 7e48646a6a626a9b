"""Compactly supported smooth windows and shrinking-window schedules.

The mollifier is the polynomial bump Phi(x) = (693/512)(1 - x^2)^5 on
[-1, 1].  Its antiderivative is closed form, so window values and integrals
are exact (no quadrature):

    Psi(s) = (693 F(s) + 256) / 512,
    F(s)   = s - 5s^3/3 + 2s^5 - 10s^7/7 + 5s^9/9 - s^11/11,

clamped to 0 below -1 and 1 above +1.  Phi vanishes to order 5 at the
edges, so every window built here is C^5.

A window is a smoothed plateau: amp * (Psi((u + a)/eps) - Psi((u - a)/eps))
with u the (possibly wrapped) offset from the center.  The 'outer' variant
dominates the sharp indicator of [center - half, center + half] pointwise,
the 'inner' variant is dominated by it; together they sandwich sharp counts
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError

TWO_PI = 2.0 * np.pi


def mollifier_cdf(s):
    """Integral of the degree-10 polynomial bump from -1 to s, in [0, 1]."""
    s = np.asarray(s, dtype=float)
    c = np.clip(s, -1.0, 1.0)
    c2 = c * c
    f = c * (1.0 + c2 * (-5.0 / 3.0 + c2 * (2.0 + c2 * (-10.0 / 7.0 + c2 * (5.0 / 9.0 - c2 / 11.0)))))
    # rounding can carry the polynomial an ulp past 1 near s = 1
    return np.clip((693.0 * f + 256.0) / 512.0, 0.0, 1.0)


@dataclass(frozen=True)
class SmoothedWindow:
    """C^5 window on the line ('interval') or the circle ('arc').

    half is the half-width of the sharp set being smoothed; eta controls
    both the amplitude margin (1 +/- eta/2) and the edge-smoothing scale
    (eta/8).  Outer windows have support half + eta/4 beyond nothing --
    support radius half + eta/4 and plateau radius half; inner windows
    have support radius exactly half and plateau radius half - eta/4.
    """

    kind: str            # "interval" | "arc"
    side: str            # "outer" | "inner"
    center: float
    half: float
    eta: float

    def __post_init__(self):
        if self.kind not in ("interval", "arc"):
            raise ValueError(f"unknown window kind '{self.kind}'")
        if self.side not in ("outer", "inner"):
            raise ValueError(f"unknown window side '{self.side}'")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.half <= 0:
            raise ValueError("half-width must be positive")
        if self.side == "inner" and self.half <= self.eta / 8.0:
            raise ValueError(
                f"half-width {self.half:.4g} too narrow for an inner window "
                f"at eta = {self.eta:.4g} (needs > eta/8)"
            )
        if self.kind == "arc" and self._support_radius() > np.pi:
            raise ValueError("arc window support wraps past half the circle")

    @property
    def amp(self) -> float:
        return 1.0 + self.eta / 2.0 if self.side == "outer" else 1.0 - self.eta / 2.0

    @property
    def eps(self) -> float:
        return self.eta / 8.0

    @property
    def plateau_half(self) -> float:
        return self.half + self.eta / 8.0 if self.side == "outer" else self.half - self.eta / 8.0

    def _support_radius(self) -> float:
        return self.plateau_half + self.eps

    def _offset(self, x):
        u = np.asarray(x, dtype=float) - self.center
        if self.kind == "arc":
            u = np.mod(u + np.pi, TWO_PI) - np.pi
        return u

    def __call__(self, x):
        u = self._offset(x)
        a, e = self.plateau_half, self.eps
        vals = self.amp * (mollifier_cdf((u + a) / e) - mollifier_cdf((u - a) / e))
        if np.isscalar(x):
            return float(vals)
        return vals


def make_bump(
    kind: str,
    center: float,
    half: float,
    eta: float,
    side: str = "outer",
) -> SmoothedWindow:
    return SmoothedWindow(kind=kind, side=side, center=center, half=half, eta=eta)


@dataclass(frozen=True)
class WindowSchedule:
    """Per-level interval and arc targets for shrinking-window counts.

    Intervals live on the centered distortion axis u = r_n - n*alpha; arcs
    are (center radians, width as a fraction of the full circle).  The
    schedule must stay inside a fixed compact set and shrink at most
    sub-exponentially: max |log length| / n <= subexp_bound.
    """

    n_min: int
    n_max: int
    centers: tuple[float, ...]
    lengths: tuple[float, ...]
    arc_centers: tuple[float, ...]
    arc_widths: tuple[float, ...]
    compact_bound: float = 6.0
    subexp_bound: float = 0.2

    def __post_init__(self):
        self.validate()

    def validate(self):
        count = self.n_max - self.n_min + 1
        if self.n_min < 1 or count < 1:
            raise ScheduleError(f"bad level range [{self.n_min}, {self.n_max}]")
        for name, seq in (
            ("centers", self.centers),
            ("lengths", self.lengths),
            ("arc_centers", self.arc_centers),
            ("arc_widths", self.arc_widths),
        ):
            if len(seq) != count:
                raise ScheduleError(
                    f"{name} has {len(seq)} entries for {count} levels"
                )
        for n, (c, l) in zip(self.levels(), zip(self.centers, self.lengths)):
            if l <= 0:
                raise ScheduleError(f"non-positive window length at n = {n}")
            if abs(c) + l / 2.0 > self.compact_bound:
                raise ScheduleError(
                    f"window at n = {n} leaves the compact set |u| <= {self.compact_bound}"
                )
            if abs(np.log(l)) / n > self.subexp_bound:
                raise ScheduleError(
                    f"window length at n = {n} shrinks faster than "
                    f"exp({self.subexp_bound} n) allows"
                )
        for n, w in zip(self.levels(), self.arc_widths):
            if not (0.0 < w <= 1.0):
                raise ScheduleError(f"arc width at n = {n} must be in (0, 1]")

    def levels(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def _pos(self, n: int) -> int:
        if not (self.n_min <= n <= self.n_max):
            raise ScheduleError(f"level {n} outside schedule range")
        return n - self.n_min

    def interval_at(self, n: int) -> tuple[float, float]:
        i = self._pos(n)
        c, l = self.centers[i], self.lengths[i]
        return c - l / 2.0, c + l / 2.0

    def arc_at(self, n: int) -> tuple[float, float]:
        i = self._pos(n)
        return self.arc_centers[i], self.arc_widths[i]

    @classmethod
    def power_law(
        cls,
        n_min: int,
        n_max: int,
        center: float = 0.0,
        length_scale: float = 1.0,
        length_power: float = 0.5,
        arc_center: float = 0.0,
        arc_width: float = 1.0,
        compact_bound: float = 6.0,
        subexp_bound: float = 0.2,
    ) -> "WindowSchedule":
        """Lengths length_scale * n^(-length_power), everything else fixed.

        For maps with real coefficients, orbits pair into complex conjugates
        with opposite holonomy angles, so a strict sub-arc centered on the
        real axis collects the near-real cluster twice and its counts settle
        slowly; an arc transverse to the axis (center pi/2) splits every
        conjugate pair evenly.  Pass arc_center=pi/2 for such maps when
        arc_width < 1.
        """
        levels = range(n_min, n_max + 1)
        lengths = tuple(length_scale * n ** (-length_power) for n in levels)
        count = n_max - n_min + 1
        return cls(
            n_min=n_min,
            n_max=n_max,
            centers=(center,) * count,
            lengths=lengths,
            arc_centers=(arc_center,) * count,
            arc_widths=(arc_width,) * count,
            compact_bound=compact_bound,
            subexp_bound=subexp_bound,
        )
