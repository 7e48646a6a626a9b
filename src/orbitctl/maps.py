"""Rational maps on the complex plane and their orbit-wise log data.

A map f = P/Q is stored as two ascending complex coefficient lists.  The
quantities everything downstream consumes are the distortion r(z) = log|f'(z)|
and the rotation theta(z) = arg f'(z), which the census sums along cycles
into the multiplier's log-modulus and holonomy angle.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, PoleError

TWO_PI = 2.0 * math.pi

# floors below which a denominator / derivative counts as zero
POLE_FLOOR = 1e-12
DERIV_FLOOR = 1e-12

# minimal log-multiplier rate demanded before expansion evidence is reported;
# maps closer to a parabolic transition than this are left inconclusive
RATE_FLOOR = 0.05

# critical-orbit steps the hyperbolicity probe takes, and the periods whose
# repelling cycles give it the least log-multiplier rate
PROBE_ITERS = 400
PROBE_PERIODS = (1, 2, 3, 4, 5, 6)


def _trimmed(coeffs) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _horner(coeffs: tuple[complex, ...], z):
    """Evaluate an ascending-coefficient polynomial at z (scalar or array),
    never returning z itself.  It skips multiplying by a leading 1 and adding
    a 0, array passes that change no bit but the sign of a zero part."""
    acc = coeffs[-1]
    for i, c in enumerate(coeffs[-2::-1]):
        acc = z if i == 0 and acc == 1 else acc * z
        if c != 0:
            acc = acc + c
    return acc.copy() if acc is z and isinstance(z, np.ndarray) else acc


def _derivative_coeffs(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(coeffs) == 1:
        return (0j,)
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


@dataclass(frozen=True)
class RationalMapSpec:
    """A rational map f = P/Q, coefficients ascending, deg f >= 2.

    The denominator defaults to the constant 1 (polynomial case).  Leading
    coefficients must be nonzero and P, Q must not share a root; both are
    checked at construction.
    """

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...] = (1 + 0j,)

    def __post_init__(self):
        num = _trimmed(self.numerator)
        den = _trimmed(self.denominator)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)
        if num == (0j,):
            raise ValueError("numerator is identically zero")
        if den == (0j,):
            raise ValueError("denominator is identically zero")
        if self.degree < 2:
            raise ValueError(f"degree {self.degree} < 2; need an honest rational map")
        if len(den) > 1:
            proots = np.roots(np.asarray(num[::-1], dtype=complex))
            qroots = np.roots(np.asarray(den[::-1], dtype=complex))
            if len(proots) and len(qroots):
                gap = np.abs(proots[:, None] - qroots[None, :]).min()
                if gap < 1e-9:
                    raise ValueError("numerator and denominator share a root")

    @property
    def degree(self) -> int:
        return max(len(self.numerator), len(self.denominator)) - 1

    @property
    def is_polynomial(self) -> bool:
        return len(self.denominator) == 1

    @cached_property
    def _dnum(self) -> tuple[complex, ...]:
        return _derivative_coeffs(self.numerator)

    @cached_property
    def _dden(self) -> tuple[complex, ...]:
        return _derivative_coeffs(self.denominator)

    @cached_property
    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "numerator": [[c.real, c.imag] for c in self.numerator],
            "denominator": [[c.real, c.imag] for c in self.denominator],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RationalMapSpec":
        """The map of to_dict's form; ConfigError naming the field when
        data does not describe a rational map of degree >= 2."""
        if not isinstance(data, dict):
            raise ConfigError(f"a map must be an object, got {type(data).__name__}")
        coeffs = {}
        for key, default in (("numerator", None), ("denominator", [[1.0, 0.0]])):
            raw = data.get(key) or default
            try:
                coeffs[key] = tuple(complex(re, im) for re, im in raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"map field '{key}' must be a list of [re, im] pairs: {exc}") from None
            if not all(cmath.isfinite(c) for c in coeffs[key]):
                raise ConfigError(f"map field '{key}' holds a non-finite coefficient")
        try:
            return cls(coeffs["numerator"], coeffs["denominator"])
        except ValueError as exc:
            raise ConfigError(f"map fields 'numerator' and 'denominator': {exc}") from None


def load_map(path) -> RationalMapSpec:
    """Read a map from a JSON file with 'numerator'/'denominator' keys;
    ConfigError when the file is not JSON or not a map."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"map file {path} is not valid JSON: {exc}") from None
    return RationalMapSpec.from_dict(data)


# ---- pointwise evaluation ----------------------------------------------

def evaluate(map_spec: RationalMapSpec, z: complex) -> complex:
    """f(z) by Horner on both polynomials."""
    qv = _horner(map_spec.denominator, z)
    if abs(qv) < POLE_FLOOR:
        raise PoleError(f"|Q(z)| = {abs(qv):.3e} at z = {z}")
    return complex(_horner(map_spec.numerator, z)) / complex(qv)


def derivative(map_spec: RationalMapSpec, z: complex) -> complex:
    """f'(z) = (P'Q - PQ')/Q^2."""
    qv = _horner(map_spec.denominator, z)
    if abs(qv) < POLE_FLOOR:
        raise PoleError(f"|Q(z)| = {abs(qv):.3e} at z = {z}")
    pv = _horner(map_spec.numerator, z)
    dpv = _horner(map_spec._dnum, z)
    dqv = _horner(map_spec._dden, z)
    return complex(dpv * qv - pv * dqv) / complex(qv * qv)


def _map_and_derivative(map_spec: RationalMapSpec, z: np.ndarray):
    """(f(z), f'(z)) over an array z, nan at poles: the quotient rule's one
    vectorized home.  A polynomial (denominator exactly 1) skips Q, Q' and
    the division, which are exact there on finite values."""
    pv = _horner(map_spec.numerator, z)
    dpv = _horner(map_spec._dnum, z)
    if map_spec.denominator == (1,):
        return pv, dpv
    qv = _horner(map_spec.denominator, z)
    dqv = _horner(map_spec._dden, z)
    pole = np.abs(qv) < POLE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pole, np.nan + 0j, pv / qv)
        fp = np.where(pole, np.nan + 0j, (dpv * qv - pv * dqv) / (qv * qv))
    return f, fp


def map_values(map_spec: RationalMapSpec, z: np.ndarray) -> np.ndarray:
    """Vectorized f(z); poles become nan rather than raising.  The same
    arithmetic as _map_and_derivative's f, without f'."""
    z = np.asarray(z, dtype=complex)
    pv = _horner(map_spec.numerator, z)
    if map_spec.denominator == (1,):
        return pv
    qv = _horner(map_spec.denominator, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(qv) < POLE_FLOOR, np.nan + 0j, pv / qv)


def derivative_values(map_spec: RationalMapSpec, z: np.ndarray) -> np.ndarray:
    """Vectorized f'(z); poles become nan rather than raising."""
    return _map_and_derivative(map_spec, np.asarray(z, dtype=complex))[1]


# ---- hyperbolicity probe -------------------------------------------------

def critical_points(map_spec: RationalMapSpec) -> np.ndarray:
    """Finite critical points: roots of P'Q - PQ' (deduplicated)."""
    num = np.asarray(map_spec.numerator, dtype=complex)
    den = np.asarray(map_spec.denominator, dtype=complex)
    dnum = np.asarray(map_spec._dnum, dtype=complex)
    dden = np.asarray(map_spec._dden, dtype=complex)
    top = np.polysub(
        np.polymul(dnum[::-1], den[::-1]), np.polymul(num[::-1], dden[::-1])
    )
    top = np.trim_zeros(top, "f")
    if top.size <= 1:
        return np.empty(0, dtype=complex)
    roots = np.roots(top)
    keep: list[complex] = []
    for r in roots:
        if not any(abs(r - k) < 1e-9 for k in keep):
            keep.append(complex(r))
    return np.asarray(keep, dtype=complex)


def escape_radius(map_spec: RationalMapSpec) -> float | None:
    """Radius beyond which a polynomial orbit escapes; None for rational maps."""
    if not map_spec.is_polynomial:
        return None
    num = map_spec.numerator
    lead = abs(num[-1])
    tail = sum(abs(c) for c in num[:-1])
    return max(2.0, (2.0 + tail) / lead)


@dataclass(frozen=True)
class CriticalOrbitStatus:
    point: complex
    status: str  # attracting-cycle | escapes | neutral-cycle | repelling-cycle | undecided
    period: int | None = None
    multiplier_abs: float | None = None
    cycle_point: complex | None = None  # a point of the cycle the orbit settles on


@dataclass(frozen=True)
class HyperbolicityReport:
    """Numerical evidence for orbit-wise expansion; never a proof."""

    verdict: str  # hyperbolic-evidence | inconclusive | fails
    min_log_multiplier_rate: float | None
    critical_orbit_summary: tuple[CriticalOrbitStatus, ...]


def _critical_orbit_status(
    map_spec: RationalMapSpec,
    z0: complex,
    esc_radius: float | None,
) -> CriticalOrbitStatus:
    orbit = [complex(z0)]
    w = complex(z0)
    for _ in range(PROBE_ITERS):
        try:
            w = evaluate(map_spec, w)
        except PoleError:
            return CriticalOrbitStatus(z0, "undecided")
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            return CriticalOrbitStatus(z0, "undecided")
        if esc_radius is not None and abs(w) > esc_radius:
            return CriticalOrbitStatus(z0, "escapes")
        orbit.append(w)

    # scan the tail for a near-return and refine the candidate cycle
    p_max = min(64, PROBE_ITERS // 4)
    tail = orbit[-(p_max + 1):]
    period = None
    for p in range(1, len(tail)):
        if abs(tail[-1] - tail[-1 - p]) < 1e-6:
            period = p
            break
    if period is None:
        return CriticalOrbitStatus(z0, "undecided")

    # settle onto the cycle, then read its multiplier by the chain product
    w = tail[-1]
    for _ in range(20 * period):
        w = evaluate(map_spec, w)
    mult, c = 1.0 + 0j, np.asarray([w])
    for _ in range(period):
        c, fp = _map_and_derivative(map_spec, c)
        mult *= fp[0]
    if abs(c[0] - w) > 1e-5 * (1.0 + abs(w)):
        return CriticalOrbitStatus(z0, "undecided", period=period)
    mag = abs(mult)
    if mag < 1.0 - 1e-6:
        status = "attracting-cycle"
    elif mag <= 1.0 + 1e-6:
        status = "neutral-cycle"
    else:
        status = "repelling-cycle"
    return CriticalOrbitStatus(z0, status, period=period, multiplier_abs=mag, cycle_point=w)


def hyperbolicity_probe(map_spec: RationalMapSpec, rates: list[float]) -> HyperbolicityReport:
    """Iterate critical orbits and take the least of rates, the
    log-multiplier rates log|multiplier(tau)| / period(tau) of the repelling
    cycles of PROBE_PERIODS, which the caller reads off its census levels.

    The verdict is hyperbolic-evidence only when every critical orbit
    resolves to an attracting cycle or escapes and that rate clears
    RATE_FLOOR.
    """
    esc = escape_radius(map_spec)
    summary = tuple(
        _critical_orbit_status(map_spec, z0, esc)
        for z0 in critical_points(map_spec)
    )
    min_rate = min(rates, default=None)

    statuses = {s.status for s in summary}
    if {"neutral-cycle", "repelling-cycle"} & statuses:
        verdict = "fails"
    elif "undecided" in statuses or min_rate is None:
        verdict = "inconclusive"
    elif min_rate <= RATE_FLOOR:
        verdict = "inconclusive"
    else:
        verdict = "hyperbolic-evidence"
    return HyperbolicityReport(verdict, min_rate, summary)
