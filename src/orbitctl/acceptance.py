"""End-to-end checks tying the whole pipeline together.

Each criterion function returns (id, name, passed, detail, elapsed_seconds)
and is deliberately self-contained: exact census identities, closed-form
degenerate cases, dual-route agreement, and trend checks at enumeration
depths a laptop handles.  The shared context caches censuses and meshes so
the suite builds each map once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import counting, orbits, thermo, transfer, windows
from .maps import RationalMapSpec

MAPS = {
    "square": RationalMapSpec(numerator=(0, 0, 1)),
    "square_plus": RationalMapSpec(numerator=(0.1, 0, 1)),
    "square_small": RationalMapSpec(numerator=(0.05, 0, 1)),
    "basilica": RationalMapSpec(numerator=(-1, 0, 1)),
    "cubic": RationalMapSpec(numerator=(0, 0, 0, 1)),
}


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float


class AcceptanceContext:
    """Caches one census per map and one mesh per (map, depth)."""

    def __init__(self):
        self._dbs: dict[str, orbits.OrbitDatabase] = {}
        self._meshes: dict[tuple[str, int], transfer.CollocationMesh] = {}

    def spec(self, key: str) -> RationalMapSpec:
        return MAPS[key]

    def db(self, key: str, n_max: int, method: str = "auto") -> orbits.OrbitDatabase:
        spec = self.spec(key)
        db = self._dbs.get(key)
        if db is None:
            db = orbits.OrbitDatabase.for_map(spec)
            self._dbs[key] = db
        orbits.enumerate_primitive(spec, n_max, db, method=method)
        return db

    def mesh(self, key: str, depth: int) -> transfer.CollocationMesh:
        got = self._meshes.get((key, depth))
        if got is None:
            got = transfer.build_mesh(self.spec(key), depth)
            self._meshes[(key, depth)] = got
        return got


def _result(cid, name, passed, detail, start) -> CriterionResult:
    return CriterionResult(cid, name, bool(passed), detail, time.perf_counter() - start)


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """Exact census identity and backward/roots point agreement, n <= 12."""
    start = time.perf_counter()
    details = []
    ok = True
    for key in ("square", "square_plus"):
        spec = ctx.spec(key)
        db = orbits.OrbitDatabase.for_map(spec)
        for n in range(1, 13):
            # method 'both' raises unless the two routes match point for point
            orbits.enumerate_primitive(spec, n, db, method="both")
            rep, nonrep, expected = orbits.census_counts(spec, db, n)
            if rep + nonrep != expected:
                ok = False
                details.append(f"{key} n={n}: {rep}+{nonrep} != {expected}")
        details.append(f"{key}: census exact through n=12, methods agree")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s exceeds 60s")
    return _result(1, "census exactness and dual-method agreement", ok, "; ".join(details), start)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Pure-power maps: pressure matches log d + t(log d - alpha) to 1e-3."""
    start = time.perf_counter()
    alpha = 0.25
    worst = 0.0
    for key, n in (("square", 10), ("cubic", 10)):
        db = ctx.db(key, n)
        d = ctx.spec(key).degree
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            q = thermo.pressure_estimate(db, n, t, alpha)
            closed = math.log(d) + t * (math.log(d) - alpha)
            worst = max(worst, abs(q - closed))
    ok = worst < 1e-3
    return _result(2, "degenerate pressure closed form", ok,
                   f"max |q - closed form| = {worst:.3e} (tol 1e-3)", start)


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """At the maximal-entropy mean the tilt vanishes and H is log 2."""
    start = time.perf_counter()
    db = ctx.db("basilica", 12)
    alpha = thermo.maximal_entropy_alpha(db, 12)
    prof = thermo.thermo_profile(db, alpha, 12)
    gap_h = abs(prof.entropy - math.log(2.0))
    ok = abs(prof.xi) < 1e-3 and gap_h < 1e-2
    return _result(3, "maximal-entropy anchor", ok,
                   f"|xi| = {abs(prof.xi):.2e} (tol 1e-3), "
                   f"|H - log 2| = {gap_h:.2e} (tol 1e-2)", start)


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """Dimension via orbit sums vs transfer operator, plus exact-circle maps."""
    start = time.perf_counter()
    details = []
    ok = True
    for key in ("square_small", "basilica"):
        db = ctx.db(key, 12)
        d_orbit = thermo.bowen_dimension(db, 12).value
        d_op = transfer.dimension_from_mesh(ctx.mesh(key, 12)).value
        gap = abs(d_orbit - d_op)
        details.append(f"{key}: orbit {d_orbit:.6f} vs operator {d_op:.6f} (gap {gap:.2e})")
        ok = ok and gap < 1e-2
    for key, n in (("square", 12), ("cubic", 8)):
        db = ctx.db(key, n)
        val = thermo.bowen_dimension(db, n).value
        details.append(f"{key}: delta = {val:.8f}")
        ok = ok and abs(val - 1.0) < 1e-4
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        ok = False
        details.append(f"runtime {elapsed:.1f}s exceeds 120s")
    return _result(4, "dimension dual-method agreement", ok, "; ".join(details), start)


def _count_ratios(db, prof, alpha, levels, interval, arc_center, arc_width):
    out = {}
    for n in levels:
        q = counting.CountQuery(n=n, alpha=alpha, interval=interval,
                                arc_center=arc_center, arc_width=arc_width)
        sharp = counting.count_orbits(db, q)
        pred = counting.predicted_count(prof, q)
        out[n] = sharp / pred
    return out


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Window counts track the local-limit prediction, improving with n."""
    start = time.perf_counter()
    db = ctx.db("basilica", 14)
    alpha = thermo.maximal_entropy_alpha(db, 12)
    prof = thermo.thermo_profile(db, alpha, 12)
    ratios = _count_ratios(db, prof, alpha, range(9, 15), (-1.0, 1.0), 0.0, 0.5)
    late = np.mean([abs(ratios[n] - 1.0) for n in (12, 13, 14)])
    early = np.mean([abs(ratios[n] - 1.0) for n in (9, 10, 11)])
    ok = 0.7 <= ratios[14] <= 1.3 and late < early
    elapsed = time.perf_counter() - start
    detail = (
        f"ratio@14 = {ratios[14]:.4f} (band [0.7, 1.3]); "
        f"mean|ratio-1|: late {late:.4f} vs early {early:.4f}"
    )
    if elapsed > 300.0:
        ok = False
        detail += f"; runtime {elapsed:.1f}s exceeds 300s"
    return _result(5, "local-limit window counts", ok, detail, start)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Shrinking windows l_n = n^(-1/2), half-circle arcs, ratio near 1."""
    start = time.perf_counter()
    db = ctx.db("basilica", 14)
    alpha = thermo.maximal_entropy_alpha(db, 12)
    prof = thermo.thermo_profile(db, alpha, 12)
    # real-coefficient map: orbits pair into conjugates, so the half circle
    # transverse to the real axis splits every pair evenly; the axis-centered
    # half circle double-counts the near-real cluster and is reported only
    sched = windows.WindowSchedule.power_law(
        8, 14, center=0.0, length_scale=1.0, length_power=0.5,
        arc_center=math.pi / 2.0, arc_width=0.5,
    )
    sched.validate()
    a, b = sched.interval_at(14)
    c, w = sched.arc_at(14)
    q = counting.CountQuery(n=14, alpha=alpha, interval=(a, b), arc_center=c, arc_width=w)
    sharp = counting.count_orbits(db, q)
    pred = counting.predicted_count_shrinking(prof, sched, 14, alpha)
    ratio = sharp / pred
    q_axis = counting.CountQuery(n=14, alpha=alpha, interval=(a, b),
                                 arc_center=0.0, arc_width=w)
    ratio_axis = counting.count_orbits(db, q_axis) / pred
    ok = 0.6 <= ratio <= 1.4
    return _result(6, "shrinking-window counts", ok,
                   f"schedule valid; ratio@14 = {ratio:.4f} (band [0.6, 1.4], "
                   f"count {sharp} vs {pred:.2f}; axis-centered arc would "
                   f"give {ratio_axis:.4f})", start)


def stuck_characters(late: counting.WeylReport, early: counting.WeylReport):
    """(k, |W_k| late, |W_k| early) for every k whose sum did not drop.

    Equidistribution says W_k -> 0, not that two single levels are
    ordered.  A later value within the sampling noise 1/sqrt(N) carries no
    ordering information, so only a k that did not drop and still sits
    above the noise at the later level counts as stuck.
    """
    return [
        (k, a, b)
        for k, a, b in zip(late.k_values, late.magnitudes, early.magnitudes)
        if a >= b and a > late.noise
    ]


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Holonomy Weyl sums shrink for the basilica, stay at 1 on the circle."""
    start = time.perf_counter()
    db = ctx.db("basilica", 14)
    alpha = thermo.maximal_entropy_alpha(db, 12)
    rep14 = counting.weyl_sums(db, 14, range(1, 6), alpha, (-1.0, 1.0))
    rep10 = counting.weyl_sums(db, 10, range(1, 6), alpha, (-1.0, 1.0))
    ok = all(m < 0.2 for m in rep14.magnitudes)
    stuck = stuck_characters(rep14, rep10)
    ok = ok and not stuck
    db_sq = ctx.db("square", 10)
    circle = counting.weyl_sums(db_sq, 10, range(1, 6))
    flat = max(abs(m - 1.0) for m in circle.magnitudes)
    ok = ok and flat < 1e-9
    detail = (
        "basilica |W_k|@14 = "
        + ", ".join(f"{m:.4f}" for m in rep14.magnitudes)
        + "; "
        + ", ".join(
            f"N@{r.n} = {r.sample_size} (1/sqrt(N) = {r.noise:.3f})"
            for r in (rep10, rep14)
        )
        + f"; circle max |W_k - 1| = {flat:.1e}"
    )
    if stuck:
        detail += "; no drop vs n=10 above noise at " + ", ".join(
            f"k={k} ({a:.4f} vs {b:.4f})" for k, a, b in stuck
        )
    return _result(7, "holonomy equidistribution", ok, detail, start)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Twisted normalized operators contract; the untwisted one does not."""
    start = time.perf_counter()
    normop = transfer.normalize(ctx.mesh("basilica", 12), 0.0, 0.0)
    rates = {}
    for b, k in ((5.0, 0), (0.0, 1), (3.0, 2)):
        rates[(b, k)] = transfer.decay_probe(normop, b, k).rate
    base = transfer.decay_probe(normop, 0.0, 0).rate
    ok = all(r < 0.99 for r in rates.values()) and abs(base - 1.0) < 1e-6
    detail = (
        ", ".join(f"rate({b:g},{k}) = {r:.4f}" for (b, k), r in rates.items())
        + f"; rate(0,0) = {base:.8f}"
    )
    return _result(8, "twisted-operator decay probe", ok, detail, start)


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Outer and inner smooth windows sandwich every sharp count."""
    start = time.perf_counter()
    db = ctx.db("basilica", 14)
    alpha = thermo.maximal_entropy_alpha(db, 12)
    eta = 0.1
    interval_specs = [(0.0, 1.0), (0.3, 0.6)]
    arc_specs = [(0.0, 0.5), (math.pi / 3.0, 0.25)]
    violations = 0
    checks = 0
    for n in range(10, 15):
        for ic, ih in interval_specs:
            for ac, aw in arc_specs:
                q = counting.CountQuery(
                    n=n, alpha=alpha, interval=(ic - ih, ic + ih),
                    arc_center=ac, arc_width=aw,
                )
                sharp = counting.count_orbits(db, q)
                parts = {}
                for side in ("outer", "inner"):
                    iw = windows.make_bump("interval", ic, ih, eta, side)
                    aw_win = windows.make_bump("arc", ac, math.pi * aw, eta, side)
                    parts[side] = counting.smoothed_count(db, n, alpha, iw, aw_win).value
                checks += 1
                if not (parts["outer"] >= sharp >= parts["inner"]):
                    violations += 1
    ok = violations == 0
    return _result(9, "smoothed sandwich", ok,
                   f"{checks} window checks, {violations} violations", start)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """Multiplier counts against Li(t^delta) stay within a factor 2 band.

    The counts come from the multiplier-bounded walk certified against the
    period-14 census, so each is complete at its threshold.
    """
    start = time.perf_counter()
    db = ctx.db("basilica", 14)
    chi = thermo.maximal_entropy_alpha(db, 12)
    delta = thermo.bowen_dimension(db, 12).value
    thresholds = [math.exp(chi * n) for n in range(8, 14)]
    report = counting.li_table(db, thresholds, delta, map_spec=ctx.spec("basilica"))
    ratios = [r.ratio for r in report.rows if r.ratio is not None]
    spread = max(ratios) / min(ratios) if ratios and min(ratios) > 0 else math.inf
    gaps = [abs(r - 1.0) for r in ratios]
    monotone_divergence = len(gaps) >= 2 and all(b > a for a, b in zip(gaps, gaps[1:]))
    ok = len(ratios) == 6 and spread < 2.0 and not monotone_divergence
    detail = (
        "ratios = [" + ", ".join(f"{r:.3f}" for r in ratios) + f"], spread = {spread:.3f}"
        + (", monotone divergence" if monotone_divergence else "")
        + "; count vs Li(T^delta) (deepest period): "
        + ", ".join(
            f"T={r.threshold:.0f}: {r.count} vs {r.li_value:.1f} ({r.max_period})"
            for r in report.rows
        )
        + f"; walk slack {report.slack:.4f}"
    )
    return _result(10, "multiplier-count trend vs Li", ok, detail, start)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)
