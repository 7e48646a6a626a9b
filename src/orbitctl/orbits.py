"""Periodic-orbit enumeration, cycle records, and the census database.

Two independent routes produce the fixed points of f^n:

* backward: the preimage tree of a repelling fixed point, walked once for
  any rational map.  Newton on f^k(z) = z from the depth-k nodes, each
  pulled back along its own path, lands on the primitive repelling
  k-cycles, and the tree emits them as cycles: one ring per cycle, its
  points polished on f^k in cycle order from the least point, from which
  the census reads each orbit's multiplier and holonomy directly.  Depth k
  holds d^k nodes.  Every census record comes off these rings.
* roots: all d^n solutions of f^n(z) = z at once via Aberth-Ehrlich,
  feasible for d^n <= 4096, started from the preimages under f^n of one
  point outside the Julia set.  Finds non-repelling points too.  It records
  nothing: method 'both' uses its points as a certificate, matching the
  repelling ones to the tree's ring points one to one and counting the
  rest against the non-repelling sidecar.

The census identity
    sum_{m | n} m * #(primitive repelling m-cycles) + #(non-repelling fixed
    points of f^n, with multiplicity) = d^n
is checked with exact integers before a period entry is marked complete.
Non-repelling cycles come from critical-orbit limits (every attracting cycle
of a rational map attracts a critical point).  The fixed point at infinity
of a polynomial is excluded throughout.

multiplier_bounded_orbits orders cycles by multiplier instead of period: it
finds every primitive repelling cycle with |multiplier| < T, whatever its
period, and is certified by reproducing the census's per-period counts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegreeOverflowError,
    FingerprintMismatchError,
    IncompleteCensusError,
    MathDomainError,
    OrbitMatchingError,
    VersionMismatchError,
)
from .maps import (
    DERIV_FLOOR,
    PROBE_PERIODS,
    TWO_PI,
    RationalMapSpec,
    _map_and_derivative,
    derivative_values,
    hyperbolicity_probe,
    map_values,
)
from .rootfind import aberth_fixed_points, fn_shift, newton_polish

PAIR_TOL = 1e-9
STEP_TOL = 1e-12  # Newton step on f^n over 1 + |z| below which a point is on its cycle
ROOTS_CAP = 4096
DB_VERSION = 2

# census methods: auto (an alias of backward), backward, and both, which
# certifies each backward level against the roots route
METHODS = ("auto", "backward", "both")


# ---- records -------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicOrbit:
    """One cycle, keyed by its least point (see _precedes for the order).

    log_abs_multiplier is -inf for superattracting cycles (multiplier 0),
    in which case the holonomy angle is stored as 0.0 and carries no
    information.
    """

    period: int
    representative: complex
    log_abs_multiplier: float
    holonomy_angle: float
    primitive: bool
    repelling: bool


def _orbit(n: int, z: complex, log_abs: float, theta: float) -> PeriodicOrbit:
    return PeriodicOrbit(n, complex(z), float(log_abs), float(theta), True, bool(log_abs > 0.0))


@dataclass(frozen=True, eq=False)
class PeriodEntry:
    """One period of the census.  Its primitive repelling cycles are held as
    read-only columns, one slot per cycle in order of least point: z (the
    least point), log_abs (log|multiplier|) and theta (the holonomy angle).
    distortion is the level's node-to-cycle gap that census_slack reads
    (_tree_cycles), -inf until the tree pass has measured it."""

    period: int
    z: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    log_abs: np.ndarray = field(default_factory=lambda: np.empty(0))
    theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    nonrepelling: tuple[PeriodicOrbit, ...] = ()  # primitive non-repelling
    complete: bool = False
    method: str | None = None
    distortion: float = -math.inf

    def __post_init__(self):
        for col in (self.z, self.log_abs, self.theta):
            col.flags.writeable = False

    @cached_property
    def orbits(self) -> tuple[PeriodicOrbit, ...]:
        """The repelling columns as records, built on first use and kept."""
        cols = (self.z.tolist(), self.log_abs.tolist(), self.theta.tolist())
        return tuple(_orbit(self.period, *row) for row in zip(*cols))


@dataclass
class OrbitDatabase:
    map_fingerprint: str
    hyperbolicity: str | None = None
    entries: dict[int, PeriodEntry] = field(default_factory=dict)
    _term_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _walk_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def for_map(cls, map_spec: RationalMapSpec) -> "OrbitDatabase":
        return cls(map_fingerprint=map_spec.fingerprint)

    def level(self, n: int) -> PeriodEntry:
        """Period n's entry, whose columns every census reader uses; raises
        IncompleteCensusError unless the period is complete."""
        ent = self.entries.get(n)
        if ent is None or not ent.complete:
            raise IncompleteCensusError(f"period {n} not enumerated to completion")
        return ent

    def max_complete_period(self) -> int:
        n = 0
        while True:
            ent = self.entries.get(n + 1)
            if ent is None or not ent.complete:
                return n
            n += 1

    def nonrepelling_level_count(self, n: int) -> int:
        """Non-repelling fixed points of f^n known to the sidecar."""
        return sum(m * len(self.entries[m].nonrepelling) for m in divisors(n) if m in self.entries)

    def _set_entry(self, ent: PeriodEntry):
        self.entries[ent.period] = ent
        self._term_cache.clear()
        self._walk_cache.clear()


def divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def expected_fixed_count(map_spec: RationalMapSpec, n: int) -> int:
    """Number of solutions of f^n(z) = z in the plane, with multiplicity.

    d^n for a polynomial (the fixed point at infinity is excluded); when the
    denominator degree reaches the numerator degree, infinity is not fixed
    and the plane carries one more solution.
    """
    d = map_spec.degree
    if map_spec.is_polynomial or len(map_spec.numerator) > len(map_spec.denominator):
        return d**n
    return d**n + 1


# ---- point sets ------------------------------------------------------------
#
# Exact proximity queries on a grid.  The plane around the points is cut
# into 2^31 x 2^31 cells and the nodes are sorted once by the Morton key of
# their cell, which interleaves the bits of its two coordinates, so every
# aligned square of 2^s x 2^s cells holds one run of the sorted keys.  A
# disc of radius r lies inside the 2 x 2 block of aligned squares of side at
# least 2r around its centre: the four runs of that block hold every node
# within r, and a distance test on them is exact.

GRID_BITS = 31
SMALL_PAIRS = 65536  # up to this many pairs, measuring every distance beats the grid
_DILATE = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
           (2, 0x3333333333333333), (1, 0x5555555555555555))
_X_BITS = 0x5555555555555555  # the bits of a key that hold the x cell
_Y_BITS = ~_X_BITS            # and the y cell (bit 63, the sign, among them)


def _dilate(v: np.ndarray) -> np.ndarray:
    """Each v < 2^31 with its bits moved to the even bit positions."""
    for shift, mask in _DILATE:
        v = (v | (v << shift)) & mask
    return v


class _Grid:
    """A grid over the bounding box of the finite nodes and the (finite)
    queries, not both empty.  keys holds the Morton keys of the nodes' cells
    in increasing order, order[p] the node at position p, and query_keys
    those of the queries."""

    def __init__(self, nodes: np.ndarray, queries: np.ndarray):
        finite = np.flatnonzero(np.isfinite(nodes))
        pts = np.concatenate([nodes[finite], queries])
        x0, y0 = pts.real.min(), pts.imag.min()
        span = max(pts.real.max() - x0, pts.imag.max() - y0)
        self.h = span / (2**GRID_BITS - 1) if span > 0 else 1.0
        cells = np.concatenate([pts.real - x0, pts.imag - y0]) / self.h
        cells = _dilate(np.minimum(cells.astype(np.int64), 2**GRID_BITS - 1))
        key = cells[: pts.size] | (cells[pts.size :] << 1)
        order = np.argsort(key[: finite.size])
        self.order, self.keys, self.query_keys = finite[order], key[order], key[finite.size :]

    def runs(self, key: np.ndarray, radius):
        """(lo, hi), each of shape (4, key.size): the positions lo <= p < hi
        of the nodes in the 2 x 2 block around each query cell whose squares
        have side at least 2 radius (a scalar or one per query), which holds
        every node within radius.  The margin of 1e-3 cells covers the
        rounding of cell coordinates."""
        scale = 2.0 * radius / self.h + 1e-3
        level = np.where(scale < 2.0**GRID_BITS, np.frexp(scale)[1], GRID_BITS)
        width = np.int64(1) << (2 * np.clip(level, 1, GRID_BITS).astype(np.int64))  # keys per square
        square = key & -width
        x, y = square & _X_BITS, square & _Y_BITS
        # the neighbouring square on the side of the half the query lies in:
        # a carry or borrow runs through the other coordinate's bits, and a
        # step off the grid sets bit 62 of x or bit 63 of y
        x_next = np.where(key & (width >> 2), (square | _Y_BITS) + width, x - width) & _X_BITS
        y_next = np.where(key & (width >> 1), (square | _X_BITS) + (width << 1), y - (width << 1)) & _Y_BITS
        start = np.stack([square, x_next | y, x | y_next, x_next | y_next])
        lo, hi = np.searchsorted(self.keys, [start, start + width])
        x_off, y_off = x_next >= 2**61, y_next < 0
        outside = np.stack([np.zeros_like(x_off), x_off, y_off, x_off | y_off])
        return lo, np.where(outside, lo, hi)


def _expand(lo: np.ndarray, hi: np.ndarray):
    """(column, p) for every position lo[r, column] <= p < hi[r, column],
    in order of column."""
    count = np.maximum(hi - lo, 0).T.ravel()
    column = np.repeat(np.arange(count.size) // lo.shape[0], count)
    return column, np.arange(column.size) + np.repeat(lo.T.ravel() - (np.cumsum(count) - count), count)


def _close_pairs(points: np.ndarray, r: float):
    """(i, j): every pair i < j of finite points at most r apart, once."""
    idx = np.flatnonzero(np.isfinite(points))
    z = points[idx]
    if z.size**2 <= SMALL_PAIRS:
        i, j = np.nonzero(np.triu(np.abs(z[:, None] - z) <= r, 1))
        return idx[i], idx[j]
    grid = _Grid(z, z[:0])
    z = z[grid.order]
    lo, hi = grid.runs(grid.keys, float(r))
    # each pair from the one of its points that comes first along the curve
    p, q = _expand(np.maximum(lo, np.arange(1, z.size + 1)), hi)
    near = np.abs(z[p] - z[q]) <= r
    i, j = idx[grid.order[p[near]]], idx[grid.order[q[near]]]
    return np.minimum(i, j), np.maximum(i, j)


def _nearest(q: np.ndarray, nodes: np.ndarray, skip: np.ndarray | None = None, bound=np.inf):
    """(index, distance) of the node nearest each query point, exactly; of
    nodes at one distance, one of them.  Query i passes over node skip[i]
    when skip is given.  A query with no node within its bound (a scalar or
    one per query), or non-finite, gets -1 and inf."""
    idx = np.full(q.size, -1, dtype=np.int64)
    dist = np.full(q.size, np.inf)
    fq = np.flatnonzero(np.isfinite(q))
    if fq.size and np.isfinite(nodes).any():
        bound = np.broadcast_to(bound, q.shape)[fq]
        skip = None if skip is None else skip[fq]
        if fq.size * nodes.size <= SMALL_PAIRS:
            found, d = _nearest_by_matrix(q[fq], nodes, skip)
        else:
            found, d = _nearest_on_grid(q[fq], nodes, skip, bound)
        idx[fq], dist[fq] = found, np.where(d > bound, np.inf, d)
    idx[np.isinf(dist)] = -1
    return idx, dist


def _nearest_by_matrix(z: np.ndarray, nodes: np.ndarray, skip):
    """_nearest for finite queries z by every query-node distance."""
    d = np.abs(z[:, None] - nodes)
    d[np.isnan(d)] = np.inf
    if skip is not None:
        d[np.arange(z.size), skip] = np.inf
    best = d.argmin(axis=1)
    return best, d[np.arange(z.size), best]


def _nearest_on_grid(z: np.ndarray, nodes: np.ndarray, skip, bound):
    """_nearest for finite queries z on a _Grid of the nodes.  The search
    around a query covers its bound, or if it has none, the distance to
    the nodes next to it along the curve."""
    grid = _Grid(nodes, z)
    rows = np.argsort(grid.query_keys)  # queries in key order search the sorted keys in order
    key = grid.query_keys[rows]
    found, dist = np.full(z.size, -1), np.full(z.size, np.inf)
    # a query without a bound takes one from the nodes next to it along the curve
    free = rows[np.isinf(bound[rows])]
    at = np.searchsorted(grid.keys, grid.query_keys[free])[:, None] + np.arange(-1, 1 + (skip is not None))
    near = grid.order[np.clip(at, 0, grid.keys.size - 1)]
    d = np.abs(z[free, None] - nodes[near])
    if skip is not None:
        d[near == skip[free, None]] = np.inf
    best = d.argmin(axis=1)
    found[free], dist[free] = near[np.arange(free.size), best], d[np.arange(free.size), best]
    # the exact nearest within the bound, where it is above 0
    open_ = dist[rows] > 0
    rows = rows[open_]
    i, p = _expand(*grid.runs(key[open_], np.minimum(dist[rows], bound[rows])))
    j = grid.order[p]
    d = np.abs(z[rows[i]] - nodes[j])
    if skip is not None:
        d[j == skip[rows[i]]] = np.inf
    if i.size:
        start = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
        hit = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, start), np.diff(np.r_[start, i.size])))
        hit = hit[np.r_[True, i[hit[1:]] != i[hit[:-1]]]]
        found[rows[i[hit]]], dist[rows[i[hit]]] = j[hit], d[hit]
    return found, dist


def _dedup(points: np.ndarray, tol: float = PAIR_TOL) -> np.ndarray:
    """Indices of the points left once the later point of every pair within
    tol is dropped, in order of real then imaginary part."""
    keep = np.ones(points.size, dtype=bool)
    keep[_close_pairs(points, tol)[1]] = False
    kept = np.flatnonzero(keep)
    return kept[np.lexsort((points[kept].imag, points[kept].real))]


def _gaps(pts: np.ndarray) -> np.ndarray:
    """Each point's distance to the nearest other point over 1 + |z|, exact
    for the least of them and for every one below STEP_TOL; inf where the
    nearest lies beyond both.  Neighbours in real part bound the least gap,
    and the search goes to twice that bound, so rounding cannot lose it."""
    scale = 1.0 + np.abs(pts)
    by_real = np.argsort(pts.real)
    least = (np.abs(np.diff(pts[by_real])) / scale[by_real][1:]).min(initial=np.inf)
    bound = 2.0 * max(least, STEP_TOL) * scale.max()
    return _nearest(pts, pts, skip=np.arange(pts.size), bound=bound)[1] / scale


def _match_counts(a: np.ndarray, b: np.ndarray, tol: float = PAIR_TOL) -> int:
    """Number of points of a within tol of a point of b."""
    return int(np.count_nonzero(_nearest(a, b, bound=tol)[1] <= tol))


def _finite_fixed_points(map_spec: RationalMapSpec) -> np.ndarray:
    """Roots of P(z) - z Q(z), the fixed points of f in the plane."""
    num = np.asarray(map_spec.numerator, dtype=complex)
    den = np.zeros(max(len(map_spec.numerator), len(map_spec.denominator) + 1), dtype=complex)
    den[1 : len(map_spec.denominator) + 1] = map_spec.denominator
    coeffs = np.zeros(max(num.size, den.size), dtype=complex)
    coeffs[: num.size] += num
    coeffs[: den.size] -= den
    coeffs = np.trim_zeros(coeffs[::-1], "f")
    return np.roots(coeffs) if coeffs.size > 1 else np.empty(0, complex)


def _fixed_point_seed(map_spec: RationalMapSpec) -> complex:
    """Repelling fixed point of largest multiplier modulus (deterministic)."""
    fps = _finite_fixed_points(map_spec)
    if fps.size == 0:
        raise MathDomainError("map has no finite fixed point to seed from")
    fps = newton_polish(map_spec, np.asarray(fps, complex), 1)
    mags = np.abs(derivative_values(map_spec, fps))
    best = int(np.argmax(np.nan_to_num(mags, nan=-1.0)))
    if not mags[best] > 1.0:
        raise MathDomainError("no repelling fixed point found for seeding")
    return complex(fps[best])


def _outer_point(map_spec: RationalMapSpec) -> complex:
    """w0 = 2 (1.05 max(1, |fixed points|) + 0.05) e^{0.378i}, beyond the
    escape radius of every polynomial the acceptance battery uses, so
    outside their Julia sets."""
    fps = _finite_fixed_points(map_spec)
    top = float(np.abs(fps).max()) if fps.size else 1.0
    return complex(2.0 * (1.05 * max(1.0, top) + 0.05) * np.exp(0.3779644730092272j))


def _require_map(map_spec: RationalMapSpec, db: OrbitDatabase):
    if db.map_fingerprint != map_spec.fingerprint:
        raise FingerprintMismatchError(
            f"database fingerprint {db.map_fingerprint} does not match map "
            f"{map_spec.fingerprint}"
        )


def _require_hyperbolic(verdict: str | None):
    if verdict != "hyperbolic-evidence":
        raise MathDomainError(
            f"hyperbolicity probe verdict is '{verdict}'; "
            "pass override_hyperbolicity=True to enumerate backward anyway"
        )


# ---- roots route ------------------------------------------------------------

def _aberth_start(map_spec: RationalMapSpec, n: int) -> np.ndarray:
    """The d^n preimages f^{-n}(w0) of _outer_point, plus w0 itself when f^n
    has d^n + 1 fixed points in the plane.  They equidistribute to the
    measure of maximal entropy (Brolin, Lyubich), as the fixed points of f^n
    do, so one start lies near each root."""
    w0 = _outer_point(map_spec)
    start = np.array([w0])
    for _ in range(n):
        start = preimages(map_spec, start).ravel()
    if expected_fixed_count(map_spec, n) > start.size:
        start = np.append(start, w0)
    return start


def _roots_route(map_spec: RationalMapSpec, n: int):
    """(roots, multipliers): every fixed point of f^n that Aberth finds, with
    no repair, and (f^n)' at each from the step test that accepts it.  A
    point it misses fails both's point match."""
    count = expected_fixed_count(map_spec, n)
    if count > ROOTS_CAP:
        raise DegreeOverflowError(f"d^n = {count} exceeds roots cap {ROOTS_CAP}")
    pts = aberth_fixed_points(map_spec, n, _aberth_start(map_spec, n))
    step, mult = _newton_step(map_spec, pts, n)
    on_cycle = np.flatnonzero(step < STEP_TOL)
    kept = on_cycle[_dedup(pts[on_cycle])]
    return pts[kept], mult[kept]


# ---- cycle records -------------------------------------------------------

def _precedes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: a names a cycle before b.  Least real part first; real
    parts within a few ulps of 1 + |z| tie, and the larger imaginary part
    wins, so the upper of two conjugate points names a self-conjugate cycle."""
    tol = 4 * np.finfo(float).eps * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    return (a.real < b.real - tol) | ((np.abs(a.real - b.real) <= tol) & (a.imag > b.imag))


def _least_first(ring: np.ndarray) -> np.ndarray:
    """A ring, whose row j holds the j-th points of its cycles, with every
    column rotated to start at its least point by _precedes."""
    k, cycles = ring.shape
    start = np.zeros(cycles, dtype=np.int64)
    for j in range(1, k):
        start[_precedes(ring[j], ring[start, np.arange(cycles)])] = j
    return ring[(start + np.arange(k)[:, None]) % k, np.arange(cycles)]


def _ring_orbits(map_spec: RationalMapSpec, ring: np.ndarray):
    """Columns (z, log_abs, theta) of a ring's cycles, keyed by its first row.

    log|multiplier| and the holonomy angle are the sums of log|f'| and
    arg f' down each column; a cycle through a critical point gets -inf and
    0.0.
    """
    fp = derivative_values(map_spec, ring)
    mag = np.abs(fp)
    with np.errstate(divide="ignore"):
        log_abs = np.where(mag < DERIV_FLOOR, -np.inf, np.log(mag)).sum(axis=0)
    theta = np.arctan2(fp.imag, fp.real).sum(axis=0) % TWO_PI
    return ring[0], log_abs, np.where(log_abs == -np.inf, 0.0, theta)


# ---- critical cycle registry ----------------------------------------------

def _register_critical_cycles(map_spec: RationalMapSpec, db: OrbitDatabase, rates: list[float]):
    """The probe's verdict, on the rates of the census's first levels, plus
    the non-repelling sidecar."""
    report = hyperbolicity_probe(map_spec, rates)
    db.hyperbolicity = report.verdict
    for status in report.critical_orbit_summary:
        if status.status != "attracting-cycle" or status.period is None:
            continue
        w = newton_polish(map_spec, np.asarray([status.cycle_point]), status.period)
        ring = _least_first(_forward_orbit(map_spec, w, status.period))
        for z, r, t in zip(*_ring_orbits(map_spec, ring)):
            if not r > 0.0:
                _merge_nonrepelling(db, _orbit(status.period, z, r, t))
    total_nonrep = sum(len(e.nonrepelling) for e in db.entries.values())
    bound = 2 * map_spec.degree - 2
    if total_nonrep > bound:
        raise IncompleteCensusError(
            f"{total_nonrep} non-repelling primitive cycles exceed the 2d-2 bound {bound}"
        )


def _merge_nonrepelling(db: OrbitDatabase, orb: PeriodicOrbit):
    ent = db.entries.get(orb.period) or PeriodEntry(period=orb.period)
    for have in ent.nonrepelling:
        if abs(have.representative - orb.representative) <= PAIR_TOL:
            return
    side = tuple(
        sorted(
            ent.nonrepelling + (orb,),
            key=lambda o: (o.representative.real, o.representative.imag),
        )
    )
    db._set_entry(replace(ent, nonrepelling=side))


# ---- enumeration ----------------------------------------------------------

def enumerate_primitive(
    map_spec: RationalMapSpec,
    n: int,
    db: OrbitDatabase,
    method: str = "auto",
    override_hyperbolicity: bool = False,
) -> PeriodEntry:
    """Complete every missing period 1..n; return period n's entry.

    The missing periods are read off one pass over the preimage tree, one
    record per emitted cycle.  A database without a hyperbolicity verdict
    takes it from the same pass: the probe reads its rates off the first
    PROBE_PERIODS levels, and its verdict gates the census before any level
    is recorded.  method='both' also solves each missing level by Aberth and
    certifies the tree's points against the roots before the level is
    recorded (_check_roots).  A period entry is marked complete only when
    the integer census identity holds; otherwise IncompleteCensusError is
    raised, the periods below stay complete, and nothing is recorded for the
    failing one.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    _require_map(map_spec, db)
    missing = [m for m in range(1, n + 1) if not (m in db.entries and db.entries[m].complete)]
    if missing:
        label = "backward" if method == "auto" else method
        # both checks a level against the rings of all its divisors
        depths = {m for k in missing for m in divisors(k)} if method == "both" else set(missing)
        if db.hyperbolicity is None:
            depths |= set(PROBE_PERIODS)
        levels = ((k, ring, distortion, _ring_orbits(map_spec, ring))
                  for k, ring, distortion in _tree_cycles(map_spec, sorted(depths)))
        if db.hyperbolicity is None:
            # the pass's first levels are PROBE_PERIODS: held until the verdict
            head = list(itertools.islice(levels, len(PROBE_PERIODS)))
            rates = [la / k for k, _, _, (_, log_abs, _) in head for la in log_abs.tolist()]
            _register_critical_cycles(map_spec, db, rates)
            levels = itertools.chain(head, levels)
        if not override_hyperbolicity:
            _require_hyperbolic(db.hyperbolicity)
        rings = {}
        for k, ring, distortion, cols in levels:
            if method == "both":
                rings[k] = ring
            if k not in missing:
                continue
            if method == "both":
                _check_roots(map_spec, db, k, rings)
            _complete_entry(map_spec, db, k, *cols, label, distortion)
    return db.level(n)


def _check_roots(map_spec: RationalMapSpec, db: OrbitDatabase, n: int, rings: dict):
    """Certify level n of the tree by an independent Aberth solve of f^n(z) = z.

    The repelling roots and the points of the rings of every period m | n
    must match one to one at the pairing tolerance (OrbitMatchingError),
    and the roots left over must number the sidecar's non-repelling fixed
    points of f^n (IncompleteCensusError).
    """
    tree_pts = np.concatenate([rings[m].ravel() for m in divisors(n)])
    roots, mult = _roots_route(map_spec, n)
    rep = roots[np.abs(mult) > 1.0]
    m_tr, m_rt = _match_counts(tree_pts, rep), _match_counts(rep, tree_pts)
    if m_tr != tree_pts.size or m_rt != rep.size:
        raise OrbitMatchingError(
            f"tree/roots repelling sets disagree at n = {n}: "
            f"{tree_pts.size} vs {rep.size} points, "
            f"{tree_pts.size - m_tr} and {rep.size - m_rt} unmatched"
        )
    left, want = roots.size - rep.size, db.nonrepelling_level_count(n)
    if left != want:
        raise IncompleteCensusError(
            f"roots route finds {left} non-repelling fixed points at n = {n}, "
            f"the sidecar has {want}"
        )


def _complete_entry(map_spec: RationalMapSpec, db: OrbitDatabase, n: int, z, log_abs, theta, method,
                    distortion):
    """Record period n's repelling cycles, the columns of _ring_orbits, and
    the level's distortion once the census identity holds."""
    rep_total = n * z.size + sum(m * db.level(m).z.size for m in divisors(n)[:-1])
    nonrep_total = db.nonrepelling_level_count(n)
    expected_total = expected_fixed_count(map_spec, n)
    if rep_total + nonrep_total != expected_total:
        raise IncompleteCensusError(
            f"census failed at n = {n}: {rep_total} repelling + {nonrep_total} "
            f"non-repelling != {expected_total}"
        )
    stub = db.entries.get(n) or PeriodEntry(period=n)
    order = np.lexsort((z.imag, z.real))
    db._set_entry(
        PeriodEntry(
            period=n, z=z[order], log_abs=log_abs[order], theta=theta[order],
            nonrepelling=stub.nonrepelling, complete=True, method=method, distortion=distortion,
        )
    )


def census_counts(map_spec: RationalMapSpec, db: OrbitDatabase, n: int) -> tuple[int, int, int]:
    """(repelling, non-repelling, expected) fixed-point counts at level n."""
    rep_total = sum(m * db.level(m).z.size for m in divisors(n))
    return rep_total, db.nonrepelling_level_count(n), expected_fixed_count(map_spec, n)


# ---- multiplier-bounded enumeration ------------------------------------------
#
# Orbits ordered by multiplier rather than by period.  The preimage tree of
# the seed fixed point carries at each node z of depth k the accumulated
# expansion log|(f^k)'(z)|; the node lies in the same depth-k cylinder as a
# period-k point whose log multiplier differs from it by a bounded
# distortion.  Branches whose expansion has passed log T plus a slack can
# therefore hold no cycle below T and are pruned.  The slack is read off the
# exhaustive census, and the walk is certified by reproducing the census's
# per-period counts exactly.

WALK_LEVEL_CAP = 2**20


def _quadratic(map_spec: RationalMapSpec, w: np.ndarray):
    """(c, b, a, r) for a z^2 + b z + c = P - w Q, a map of degree 2, for
    every w at once, with r the square root of b^2 - 4ac whose sign makes
    Re(conj(b) r) >= 0.

    The roots come from the quadratic formula without cancellation: with
    q = -(b + r)/2, so |q| >= |b|/2, they are q/a = (-b - r)/(2a) and
    c/q = (-b + r)/(2a).  q = 0 only where b = 0 = b^2 - 4ac, which is the
    double root 0 when a != 0.  A coefficient that does not depend on w
    stays a scalar.
    """
    num, den = (cs + (0j,) * (3 - len(cs)) for cs in (map_spec.numerator, map_spec.denominator))
    c, b, a = (num[j] - w * den[j] if den[j] else num[j] for j in range(3))
    r = np.sqrt(b * b - 4.0 * a * c)
    np.negative(r, out=r, where=(np.conj(b) * r).real < 0.0)
    return c, b, a, r


def _quadratic_roots(map_spec: RationalMapSpec, w: np.ndarray) -> np.ndarray:
    """Both roots of P - w Q = 0 for a map of degree 2 (_quadratic), shape
    (N, 2).  Where a vanishes, a root lies at infinity and the row comes
    back as nan, as the companion matrices' rows do for d > 2."""
    c, b, a, r = _quadratic(map_spec, w)
    q = -0.5 * (b + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.stack([q / a, c / q], axis=-1)
    z[q == 0.0, 1] = 0.0
    z[~(np.abs(a) > DERIV_FLOOR * (1.0 + np.abs(w)))] = np.nan
    return z


def _nearer_quadratic_root(map_spec: RationalMapSpec, w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The root of P - w Q = 0 nearer ref, for a map of degree 2.  Of the
    roots q/a and c/q (_quadratic), c/q = (-b + r)/(2a) is the nearer iff
    Re(conj(b + 2a ref) r) > 0; a tie, the double root included, takes q/a."""
    c, b, a, r = _quadratic(map_spec, w)
    q = -0.5 * (b + r)
    plus = (np.conj(b + 2.0 * a * ref) * r).real > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(plus, c, q) / np.where(plus, q, a)


def preimages(map_spec: RationalMapSpec, w) -> np.ndarray:
    """All d solutions of f(z) = w for every w at once, shape (N, d).

    For d = 2 the roots of P - w Q come in closed form (_quadratic_roots);
    for d > 2 they are the eigenvalues of a stack of companion matrices.
    Two vectorized Newton steps on f(z) = w polish them.  A preimage at
    infinity (possible only when deg Q = d) comes back as nan.
    """
    w = np.asarray(w, dtype=complex).ravel()
    d = map_spec.degree
    if d == 2:
        return _newton_on_f(map_spec, _quadratic_roots(map_spec, w), w[:, None], 2)
    num = np.zeros(d + 1, dtype=complex)
    num[: len(map_spec.numerator)] = map_spec.numerator
    den = np.zeros(d + 1, dtype=complex)
    den[: len(map_spec.denominator)] = map_spec.denominator
    coeffs = num[None, :] - w[:, None] * den[None, :]  # ascending, (N, d+1)
    lead = coeffs[:, d]
    finite = np.abs(lead) > DERIV_FLOOR * (1.0 + np.abs(w))
    comp = np.zeros((w.size, d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[finite, :, -1] = -coeffs[finite, :d] / lead[finite, None]
    z = np.linalg.eigvals(comp)
    z[~finite] = np.nan
    return _newton_on_f(map_spec, z, w[:, None], 2)


def _newton_on_f(map_spec: RationalMapSpec, z: np.ndarray, w, steps: int) -> np.ndarray:
    """steps Newton steps on f(z) = w from z; a non-finite step is skipped."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            f, fp = _map_and_derivative(map_spec, z)
            step = (f - w) / fp
            z = z - np.where(np.isfinite(step), step, 0.0)
    return z


def _tree_levels(map_spec: RationalMapSpec, bound: float):
    """Walk the preimage tree of the seed fixed point, one depth at a time.

    Yields (k, levels, parents, acc) for k = 1, 2, ...: levels[j] holds the
    kept depth-j nodes (levels[0] is the seed), parents[j][i] the index in
    levels[j - 1] of the parent of levels[j][i], and acc the values
    log|(f^k)'| at the depth-k nodes.  A node is dropped, with its subtree,
    once its acc exceeds bound; the walk ends when no node survives.
    """
    levels = [np.asarray([_fixed_point_seed(map_spec)], dtype=complex)]
    parents = [np.zeros(1, dtype=np.int64)]
    acc = np.zeros(1)
    while levels[-1].size:
        if levels[-1].size * map_spec.degree > WALK_LEVEL_CAP:
            raise DegreeOverflowError(
                f"preimage tree holds {levels[-1].size * map_spec.degree} nodes at "
                f"depth {len(levels)}, above the cap {WALK_LEVEL_CAP}"
            )
        pre = preimages(map_spec, levels[-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log(np.abs(derivative_values(map_spec, pre)))
        a = acc[:, None] + step
        keep = np.isfinite(a) & (a <= bound)
        levels.append(pre[keep])
        parents.append(np.nonzero(keep)[0])
        acc = a[keep]
        yield len(levels) - 1, levels, parents, acc


def _forward_orbit(map_spec: RationalMapSpec, z: np.ndarray, k: int) -> np.ndarray:
    """(k, N) array whose row j is f^j(z)."""
    ring = [z]
    for _ in range(k - 1):
        ring.append(map_values(map_spec, ring[-1]))
    return np.array(ring)


def _pull_back(map_spec: RationalMapSpec, levels, parents, k: int) -> np.ndarray:
    """Apply to every depth-k node the inverse branches on its own path.

    The path from the seed to a depth-k node picks one preimage per depth;
    pulling the node itself back the same way lands next to the period-k
    point of its cylinder, from which Newton on f^k(z) = z converges.  At
    depth j the branch is the root of f(u) = q nearest the path's depth-j
    node: exact for d = 2 (_nearer_quadratic_root), four Newton steps from
    that node for d > 2.
    """
    ancestors = [np.arange(levels[k].size)]
    for j in range(k, 1, -1):
        ancestors.append(parents[j][ancestors[-1]])
    q = levels[k]
    for j, node in enumerate(reversed(ancestors), 1):
        ref = levels[j][node]
        if map_spec.degree == 2:
            q = _nearer_quadratic_root(map_spec, q, ref)
        else:
            q = _newton_on_f(map_spec, ref, q, 4)
    return q


def _newton_step(map_spec: RationalMapSpec, z: np.ndarray, k: int):
    """(step, (f^k)'(z)): step is the Newton step |F/F'| on f^k(z) = z over
    1 + |z|, and inf where the orbit leaves the range.  A point lies on its
    cycle when its step is below STEP_TOL.  The raw residual |F| is the step
    times |(f^k)' - 1|, so on cycles with a large multiplier it would reject
    points on the cycle to roundoff."""
    f_val, df_val, bad = fn_shift(map_spec, z, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.abs(f_val / df_val) / (1.0 + np.abs(z))
    return np.where(bad | np.isnan(step), np.inf, step), df_val + 1.0


def _name_cycles(map_spec: RationalMapSpec, z: np.ndarray, k: int):
    """Sort primitive period-k points into cycles.

    Returns (cycle, reps): reps holds each distinct cycle's least point
    (_precedes) and cycle[i] the index in reps of the cycle through z[i].
    """
    # the least point of each forward orbit; of two that tie, the first
    least = w = z
    for _ in range(k - 1):
        w = map_values(map_spec, w)
        least = np.where(_precedes(w, least), w, least)
    # one Newton polish per cell of side PAIR_TOL / 2: least points read off
    # the raw forward orbit drift apart by more than the pairing tolerance
    _, first, cell = np.unique(np.round(least * 2 / PAIR_TOL), return_index=True, return_inverse=True)
    names = newton_polish(map_spec, least[first], k)
    # names within PAIR_TOL (as from cells a cycle straddles) are merged:
    # the chain of earliest partners ends at the name _dedup would keep
    root = np.arange(names.size)
    i, j = _close_pairs(names, PAIR_TOL)
    np.minimum.at(root, j, i)
    while np.any(root[root] != root):
        root = root[root]
    kept, cell_name = np.unique(root, return_inverse=True)
    reps = names[kept]
    # least points that tie in roundoff can name one cycle twice: keep the
    # least of the names each name's orbit passes (nan where it meets none)
    rep_ring = _forward_orbit(map_spec, reps, k).ravel()
    tol = 1e-8 * (1.0 + np.abs(rep_ring))
    # only a ring point with a name within tol in real part can meet one
    x = np.sort(reps.real)
    ask = np.flatnonzero(np.searchsorted(x, rep_ring.real - tol) < np.searchsorted(x, rep_ring.real + tol, "right"))
    # a ring point with no name within tol keeps -1, which picks the nan
    ring = np.full(rep_ring.size, -1)
    ring[ask] = _nearest(rep_ring[ask], reps, bound=tol[ask])[0]
    best = _least_first(np.append(reps, np.nan)[ring.reshape(k, reps.size)])[0]
    heads, slot = np.unique(best, return_inverse=True)
    return slot[cell_name[cell]], heads


def _level_cycles(map_spec: RationalMapSpec, levels, parents, k: int, log_bound: float = math.inf):
    """Primitive repelling period-k cycles with log|multiplier| below
    log_bound, from the depth-k nodes: each node is pulled back along its
    own path (_pull_back) and Newton polishes once from there.  A limit
    counts when it closes up (_newton_step), has least period k, repels,
    and falls below the bound.  Returns (hit, reps, multipliers): one entry
    of reps and multipliers per cycle found, and hit[i] the index of the
    cycle that node i led to, or -1.  OrbitMatchingError when a cycle is
    named that no node leads to, which would leave it without a multiplier.
    """
    z = newton_polish(map_spec, _pull_back(map_spec, levels, parents, k), k)
    step, mult = _newton_step(map_spec, z, k)
    ok = (step < STEP_TOL) & (np.abs(mult) > 1.0)
    closed = np.nonzero(ok)[0]
    w = start = z[closed]
    for m in range(1, max(divisors(k)[:-1], default=0) + 1):
        w = map_values(map_spec, w)
        if k % m == 0:
            ok[closed] &= np.abs(w - start) > PAIR_TOL * (1.0 + np.abs(start))
    ok[ok] = np.log(np.abs(mult[ok])) < log_bound
    hit = np.full(z.size, -1, dtype=np.int64)
    hit[ok], reps = _name_cycles(map_spec, z[ok], k)
    unreached = np.count_nonzero(np.bincount(hit[ok], minlength=reps.size) == 0)
    if unreached:
        raise OrbitMatchingError(f"{unreached} of the {reps.size} period-{k} cycles named are reached by no node")
    out = np.empty(reps.size, dtype=complex)
    out[hit[ok]] = mult[ok]
    return hit, reps, out


def _polished_ring(map_spec: RationalMapSpec, z: np.ndarray, k: int) -> np.ndarray:
    """The k-cycles through the points z as a ring of shape (k, z.size):
    row j holds f^j(z), every point polished on f^k.

    Plain forward iteration multiplies roundoff by the partial multipliers,
    which grow large along many cycles; polishing each point keeps the ring
    on its cycle.  The polished image of each ring's last point must come
    back to its first within the pairing tolerance, or OrbitMatchingError is
    raised.
    """
    rows = []
    for _ in range(k):
        z = newton_polish(map_spec, z, k)
        rows.append(z)
        z = map_values(map_spec, z)
    ring = np.array(rows)
    miss = np.abs(newton_polish(map_spec, z, k) - ring[0])
    worst = float(np.max(np.nan_to_num(miss, nan=np.inf), initial=0.0))
    if worst > PAIR_TOL:
        step, _ = _newton_step(map_spec, ring.ravel(), k)
        raise OrbitMatchingError(
            f"a period-{k} ring fails to close by {worst:.3e} (tol {PAIR_TOL:.1e});"
            f" {np.count_nonzero(step >= STEP_TOL)} of {step.size} ring points still have a Newton"
            " step above 1e-12 (1 + |z|)"
        )
    return ring


def _tree_cycles(map_spec: RationalMapSpec, depths):
    """Primitive repelling cycles of the given periods, from one pass over
    the unpruned preimage tree.

    Yields (k, ring, distortion) for each depth k in depths, in increasing
    order: ring is the _polished_ring of the level's cycles, of shape
    (k, cycles), with each column in cycle order from its least point.
    distortion, which the census keeps for census_slack, is the level's
    node-to-cycle gap: for each cycle the smallest
    log|(f^k)'(node)| - log|multiplier| over the nodes whose Newton limit
    lies on it, the largest of these over the cycles, and -inf for a level
    without one.
    """
    wanted = set(depths)
    top = max(wanted)
    for k, levels, parents, acc in _tree_levels(map_spec, math.inf):
        if k in wanted:
            hit, z, mult = _level_cycles(map_spec, levels, parents, k)
            gap, sel = np.full(mult.size, np.inf), hit >= 0
            np.minimum.at(gap, hit[sel], acc[sel] - np.log(np.abs(mult[hit[sel]])))
            yield k, _least_first(_polished_ring(map_spec, z, k)), float(gap.max(initial=-np.inf))
        if k == top:
            return


@dataclass(frozen=True)
class MultiplierWalk:
    """Primitive repelling cycles with log|multiplier| below log_bound.

    One array entry per cycle: its period, least point (as in
    PeriodicOrbit) and log|multiplier|.
    """

    log_bound: float
    slack: float
    periods: np.ndarray
    representatives: np.ndarray
    log_abs: np.ndarray
    nodes: int   # tree nodes kept over all levels

    def period_counts(self, t: float | None = None) -> dict[int, int]:
        """Cycles with multiplier modulus strictly below t (default: the
        walk's own bound), by period."""
        log_t = self.log_bound if t is None else math.log(t)
        if log_t > self.log_bound + 1e-12:
            raise ValueError(f"threshold {t:.6g} lies above the walk's bound")
        per, cnt = np.unique(self.periods[self.log_abs < log_t], return_counts=True)
        return {int(m): int(c) for m, c in zip(per, cnt)}

    def count(self, t: float) -> int:
        return sum(self.period_counts(t).values())

    def max_period(self, t: float) -> int:
        return max(self.period_counts(t), default=0)


def walk_multiplier_bounded(map_spec: RationalMapSpec, t: float, slack: float) -> MultiplierWalk:
    """Every primitive repelling cycle with |multiplier| < t, by tree search.

    A node survives while its accumulated log|(f^k)'| stays within
    log t + slack; every surviving node is pulled back along its own path
    and Newton on f^k(z) = z polishes once from there (_level_cycles), and
    only limits that close up with least period k, repel, and fall below t
    are named.  Completeness rests on the slack covering both
    the dips of partial multiplier sums and the node-to-cycle distortion,
    which census_slack reads off the census and certify_walk checks.
    """
    if not t > 1.0:
        raise MathDomainError(f"threshold must exceed 1, got {t:.6g}")
    if slack < 0.0:
        raise ValueError("slack must be non-negative")
    log_t = math.log(t)
    parts = []
    nodes = 0
    for k, levels, parents, _ in _tree_levels(map_spec, log_t + slack):
        nodes += levels[k].size
        _, reps, mult = _level_cycles(map_spec, levels, parents, k, log_t)
        parts.append((np.full(reps.size, k), reps, np.log(np.abs(mult))))
    periods, reps, log_abs = (np.concatenate(col) for col in zip(*parts))
    return MultiplierWalk(
        log_bound=log_t, slack=slack, periods=periods, representatives=reps,
        log_abs=log_abs, nodes=nodes,
    )


@dataclass(frozen=True)
class WalkSlack:
    """Slack of the multiplier walk and the two census measurements behind it."""

    value: float
    dip: float         # most negative partial log|f'| sum along a census cycle
    distortion: float  # worst node-to-cycle gap log|(f^k)'(node)| - log|multiplier|
    n_used: int


def census_slack(map_spec: RationalMapSpec, db: OrbitDatabase) -> WalkSlack:
    """Walk slack read off the census levels 1..M; no tree is walked.

    dip: the lowest partial sum of log|f'| over a proper stretch of any
    census cycle, started anywhere on it, from the stored columns.  A
    node's ancestor carries the node's accumulated expansion minus a
    partial sum along the node's forward orbit, which shadows the cycle, so
    ancestors exceed the node by at most about -dip.  distortion: the
    largest of the levels' stored distortions, each measured by the
    census's own tree pass (_tree_cycles).  A level with repelling
    cycles but no measured distortion raises IncompleteCensusError.
    The slack is max(0, -dip) + max(0, distortion).
    """
    _require_map(map_spec, db)
    n_max = db.max_complete_period()
    if n_max == 0:
        raise IncompleteCensusError("census is empty")
    dip = math.inf
    for m in range(2, n_max + 1):
        reps = db.level(m).z
        if reps.size == 0:
            continue
        ring = _forward_orbit(map_spec, reps, m)
        r = np.log(np.abs(derivative_values(map_spec, ring)))  # (m, cycles)
        prefix = np.concatenate([np.zeros((1, reps.size)), np.cumsum(np.tile(r, (2, 1)), axis=0)])
        for length in range(1, m):
            dip = min(dip, float((prefix[length : length + m] - prefix[:m]).min()))
    entries = [db.level(m) for m in range(1, n_max + 1)]
    unmeasured = next((e for e in entries if e.z.size and e.distortion == -math.inf), None)
    if unmeasured is not None:
        raise IncompleteCensusError(f"period {unmeasured.period} holds {unmeasured.z.size} repelling "
                                    "cycles but no measured distortion")
    distortion = max(ent.distortion for ent in entries)
    value = max(0.0, -dip) + max(0.0, distortion)
    return WalkSlack(value=value, dip=dip, distortion=distortion, n_used=n_max)


def certify_walk(walk: MultiplierWalk, db: OrbitDatabase):
    """Demand the walk's per-period counts equal the census through its depth.

    Raises IncompleteCensusError (exit code 4) on any mismatch: the walk
    then missed cycles the census proves exist, so its slack is too small.
    """
    n_max = db.max_complete_period()
    if n_max == 0:
        raise IncompleteCensusError("census is empty")
    got = walk.period_counts()
    for m in range(1, n_max + 1):
        want = int(np.count_nonzero(db.level(m).log_abs < walk.log_bound))
        if got.get(m, 0) != want:
            raise IncompleteCensusError(
                f"multiplier walk (slack {walk.slack:.4f}) found {got.get(m, 0)} "
                f"period-{m} cycles below the bound, the census has {want}"
            )


def multiplier_bounded_orbits(map_spec: RationalMapSpec, db: OrbitDatabase, t: float) -> MultiplierWalk:
    """Certified walk for threshold t, its slack read off the census.

    The walk is kept with the census, like its level terms, until an entry
    changes.
    """
    _require_map(map_spec, db)
    walk = db._walk_cache.get(t)
    if walk is None:
        walk = walk_multiplier_bounded(map_spec, t, census_slack(map_spec, db).value)
        certify_walk(walk, db)
        db._walk_cache[t] = walk
    return walk


# ---- persistence -----------------------------------------------------------

def _orbit_record(n: int, z: complex, log_abs: float, theta: float) -> str:
    repelling = log_abs > 0.0
    rec = {
        "n": n,
        "z": [z.real, z.imag],
        "log_abs": None if math.isinf(log_abs) else log_abs,
        "theta": theta,
        "primitive": True,
        "repelling": repelling,
    }
    if not repelling:
        rec["nonrepelling"] = True
    return json.dumps(rec, sort_keys=True)


def save_db(db: OrbitDatabase, path):
    """Write the census as JSON Lines: header, period summaries, orbits."""
    lines = [
        json.dumps(
            {
                "version": DB_VERSION,
                "fingerprint": db.map_fingerprint,
                "hyperbolicity": db.hyperbolicity,
            },
            sort_keys=True,
        )
    ]
    for n in sorted(db.entries):
        ent = db.entries[n]
        summary = {"period": n, "complete": ent.complete, "method": ent.method,
                   "distortion": None if ent.distortion == -math.inf else ent.distortion}
        lines.append(json.dumps(summary, sort_keys=True))
        cols = zip(ent.z.tolist(), ent.log_abs.tolist(), ent.theta.tolist())
        side = ((o.representative, o.log_abs_multiplier, o.holonomy_angle) for o in ent.nonrepelling)
        lines += [_orbit_record(n, *row) for row in (*cols, *side)]
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_db(path, map_spec: RationalMapSpec | None = None) -> OrbitDatabase:
    """Read a census written by save_db into its columns.  A line that is not
    one JSON object, or a period summary whose complete is not a boolean,
    whose method is not a string or null, or whose distortion is not a
    number or null, raises VersionMismatchError naming it; given the map, a
    complete period that fails the census identity or stores one point twice
    raises IncompleteCensusError."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    raw = [(i, text) for i, line in enumerate(lines, start=1) if (text := line.strip())]
    if not raw:
        raise VersionMismatchError(f"{path}: empty cache file")
    try:
        header = json.loads(raw[0][1])
    except json.JSONDecodeError as exc:
        raise VersionMismatchError(f"{path}: corrupted header ({exc})") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version != DB_VERSION:
        raise VersionMismatchError(f"{path}: cache version {version!r}, expected {DB_VERSION}")
    fingerprint = header.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise VersionMismatchError(f"{path}: cache header carries no map fingerprint")
    if map_spec is not None and fingerprint != map_spec.fingerprint:
        raise FingerprintMismatchError(
            f"{path}: cache fingerprint {fingerprint} does not match map {map_spec.fingerprint}"
        )
    decode = json.JSONDecoder().raw_decode
    meta: dict[int, dict] = {}
    rows = defaultdict(list)  # period -> (re z, im z, log_abs, theta) of each repelling record
    side = defaultdict(list)  # period -> its non-repelling records
    for lineno, text in raw[1:]:
        try:
            rec, end = decode(text)
            if end < len(text) or not isinstance(rec, dict):
                raise ValueError("the line is not one JSON object")
            if "period" in rec:
                distortion = rec["distortion"]
                if not (isinstance(rec["complete"], bool)
                        and (rec["method"] is None or isinstance(rec["method"], str))
                        and (distortion is None or type(distortion) in (int, float))):
                    raise ValueError("a period summary field has the wrong type")
                meta[int(rec["period"])] = rec
                continue
            n, z, log_abs = int(rec["n"]), rec["z"], rec["log_abs"]
            row = (float(z[0]), float(z[1]), -math.inf if log_abs is None else float(log_abs),
                   float(rec["theta"]))
            if not rec["primitive"]:
                raise ValueError("the record is not primitive")
            repelling = bool(rec["repelling"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise VersionMismatchError(
                f"{path}: corrupted line {lineno} ({type(exc).__name__}: {exc})"
            ) from None
        if repelling:
            rows[n].append(row)
        else:
            side[n].append(_orbit(n, complex(row[0], row[1]), row[2], row[3]))
    db = OrbitDatabase(map_fingerprint=fingerprint, hyperbolicity=header.get("hyperbolicity"))
    for n in sorted(meta.keys() | rows.keys() | side.keys()):
        cols = np.array(rows.get(n, ()), dtype=float).reshape(-1, 4)
        z = np.empty(len(cols), dtype=complex)
        z.real, z.imag = cols[:, 0], cols[:, 1]
        info = meta.get(n, {})
        distortion = info.get("distortion")
        db.entries[n] = PeriodEntry(
            period=n, z=z, log_abs=cols[:, 2], theta=cols[:, 3],
            nonrepelling=tuple(side.get(n, ())), complete=info.get("complete", False),
            method=info.get("method"), distortion=-math.inf if distortion is None else float(distortion),
        )
    for n, ent in db.entries.items():
        if map_spec is None or not ent.complete:
            continue
        rep, nonrep, expected = census_counts(map_spec, db, n)
        if rep + nonrep != expected:
            raise IncompleteCensusError(
                f"{path}: stored census fails at n = {n}: {rep} repelling + {nonrep} "
                f"non-repelling != {expected}"
            )
        z = np.sort(ent.z)  # an exact repeat sorts next to its copy
        repeats = np.count_nonzero(z[1:] == z[:-1])
        if repeats:
            raise IncompleteCensusError(
                f"{path}: stored census fails at n = {n}: {repeats} repelling records "
                "repeat a stored point"
            )
    return db


# ---- audit -----------------------------------------------------------------

def verify_census(map_spec: RationalMapSpec, db: OrbitDatabase) -> dict[str, float]:
    """Audit every stored period of a census of map_spec by the census's own
    tests, run over the period's records, the non-repelling sidecar included.

    In order, for each period n:

    * Newton step: every stored point has a Newton step on f^n below
      STEP_TOL (1 + |z|) (_newton_step);
    * least point: every stored point is row 0 of its own least-first
      _polished_ring;
    * multiplier: the stored log|multiplier| is the ring's (_ring_orbits)
      to 1e-12 relative, and the holonomy angle to 1e-12 after wrapping;
    * distinct cycles: no ring point lies within STEP_TOL (1 + |z|) of
      another, as it would for a cycle stored twice or one whose least
      period is a proper divisor of n.

    The first failure raises IncompleteCensusError naming the period and the
    test.  Returns the worst figures over all periods, each on its test's
    scale: the largest Newton step, relative log|multiplier| drift and
    holonomy drift, and the least distance between two ring points over
    1 + |z|.
    """
    worst, closest = np.zeros(3), math.inf

    def check(n, test, failed, what):
        if failed.any():
            raise IncompleteCensusError(
                f"period {n} fails the {test} test: {np.count_nonzero(failed)} of "
                f"{failed.size} {what}"
            )

    for n, ent in sorted(db.entries.items()):
        side = ent.nonrepelling
        z = np.append(ent.z, [o.representative for o in side])
        log_abs = np.append(ent.log_abs, [o.log_abs_multiplier for o in side])
        theta = np.append(ent.theta, [o.holonomy_angle for o in side])
        if z.size == 0:
            continue
        step, _ = _newton_step(map_spec, z, n)
        check(n, "Newton step", step >= STEP_TOL,
              f"stored points have a Newton step on f^{n} of at least {STEP_TOL:.0e} (1 + |z|)")
        ring = _polished_ring(map_spec, z, n)
        check(n, "least point", _least_first(ring)[0] != ring[0],
              "stored points are not the least point of their cycle")
        _, ring_abs, ring_theta = _ring_orbits(map_spec, ring)
        with np.errstate(divide="ignore", invalid="ignore"):
            d_abs = np.where(ring_abs == log_abs, 0.0, np.abs(ring_abs - log_abs) / np.abs(log_abs))
        d_theta = np.abs((ring_theta - theta + math.pi) % TWO_PI - math.pi)
        check(n, "multiplier", ~(d_abs <= 1e-12) | ~(d_theta <= 1e-12),
              "stored multipliers differ from their ring's by more than 1e-12")
        gap = _gaps(ring.ravel())
        check(n, "distinct cycles", gap < STEP_TOL,
              f"ring points lie within {STEP_TOL:.0e} (1 + |z|) of another ring point")
        worst = np.maximum(worst, [step.max(), d_abs.max(), d_theta.max()])
        closest = min(closest, float(gap.min()))
    return {
        "worst_newton_step": float(worst[0]), "worst_log_abs_drift": float(worst[1]),
        "worst_theta_drift": float(worst[2]), "closest_ring_points": closest,
    }
