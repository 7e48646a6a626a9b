"""Workload definitions and the seeded inputs they run on.

A seed perturbs each map family's parameter c inside a disc of radius
RADIUS around the acceptance map's own c, small enough to stay in the same
hyperbolic component, so the closed-form orbit counts still hold.  Seed 0
gives the acceptance maps themselves (c = -1, 0.1, 0).  The same seed draws
the light-query parameters.
"""

from __future__ import annotations

import cmath
import math
import zlib
from dataclasses import dataclass

import numpy as np

RADIUS = 0.005
QUERY_GROUPS = 20          # five light queries each, so 100 per round
WARM_READS = 10            # cache-hit enumerate calls per round on a warm workload
STEPS = ("census", "walk", "queries", "operator")
DECAY_PAIRS = "5,0;0,1;3,2;0,0"   # criterion 8's probes plus the untwisted one


@dataclass(frozen=True)
class Family:
    name: str
    degree: int             # f(z) = z^degree + c
    c0: complex
    attracting_period: int  # period of the one attracting cycle near c0
    twisted_rate_max: float  # criterion 8 on the basilica; elsewhere a Markov operator cannot expand
    li_tol: float           # allowed |count / Li(T^delta) - 1|, see README


FAMILIES = {
    "basilica": Family("basilica", 2, -1 + 0j, 2, 0.99, 0.05),
    "square_plus": Family("square_plus", 2, 0.1 + 0j, 1, 1.0 + 1e-9, 0.2),
    "cubic": Family("cubic", 3, 0j, 1, 1.0 + 1e-9, 0.2),
}


@dataclass(frozen=True)
class CensusJob:
    family: str
    n_max: int
    method: str


@dataclass(frozen=True)
class Workload:
    """A round runs the steps of `schedule` in order.

    The steps interleave, so every timing is sampled at several points of a
    round and the host's drift during a run falls on all of them alike.
    `census` builds every census from empty on a cold workload, once a
    round; on a warm one it makes WARM_READS cache-hit reads, split evenly
    over its steps.  `walk` is one certified walk from a freshly loaded
    database.  `queries` sends the next share of the round's light queries,
    split evenly over its steps.  `operator` is one (dimension, decay) pair.
    """

    name: str
    censuses: tuple[CensusJob, ...]  # the first one also carries the walk, queries and operator
    warm: bool                 # censuses built in set-up; the timed part only reads them
    walk_levels: tuple[int, ...]     # thresholds T = e^(chi n)
    mesh_depth: int
    setup_reps: int
    schedule: tuple[str, ...]

    def __post_init__(self):
        assert set(self.schedule) == set(STEPS), self.schedule
        assert QUERY_GROUPS % self.schedule.count("queries") == 0
        assert self.warm or self.schedule.count("census") == 1
        assert not self.warm or WARM_READS % self.schedule.count("census") == 0

    @property
    def main(self) -> CensusJob:
        return self.censuses[0]


WORKLOADS = {
    "census": Workload(
        "census",
        (CensusJob("basilica", 11, "auto"), CensusJob("cubic", 7, "auto")),
        warm=False, walk_levels=(8, 9), mesh_depth=12, setup_reps=3,
        schedule=("census", "walk", "queries", "operator", "walk", "queries"),
    ),
    "dual-route": Workload(
        "dual-route",
        (CensusJob("square_plus", 10, "both"),),
        warm=False, walk_levels=(8, 9, 10, 11), mesh_depth=10, setup_reps=3,
        schedule=("census", "walk", "queries", "operator", "walk", "queries", "operator"),
    ),
    "queries": Workload(
        "queries",
        (CensusJob("basilica", 12, "auto"),),
        warm=True, walk_levels=(8, 9, 10, 11, 12, 13), mesh_depth=12, setup_reps=2,
        schedule=("census", "queries", "operator", "walk", "census", "queries", "operator"),
    ),
}


def draw_c(family: Family, seed: int) -> complex:
    if seed == 0:
        return family.c0
    rng = np.random.default_rng([seed, zlib.crc32(family.name.encode())])
    radius = RADIUS * math.sqrt(rng.uniform())
    return family.c0 + radius * cmath.exp(2j * math.pi * rng.uniform())


def map_json(family: Family, c: complex) -> dict:
    coeffs = [[c.real, c.imag]] + [[0.0, 0.0]] * (family.degree - 1) + [[1.0, 0.0]]
    return {"numerator": coeffs}


@dataclass(frozen=True)
class Query:
    kind: str      # pressure | profile | count_all | weyl | count_window
    n: int
    n_min: int
    argv: tuple[str, ...]


def light_queries(seed: int, n_max: int) -> list[Query]:
    """QUERY_GROUPS groups of five queries with seeded parameters.

    Every seed gets the same levels: each group takes its level n from the
    four top census levels, and its count's lowest level and weyl's k-max
    from fixed offsets, five groups a level; the seed draws the order of the
    groups and the continuous parameters.  So a round does the same work at
    every seed.  Each weyl query is followed by a count over the same
    window, whose count must equal the weyl sample size.
    """
    rng = np.random.default_rng([seed, 7])
    out = []
    for g in rng.permutation(QUERY_GROUPS):
        n = n_max - int(g % 4)
        n_min = n - int(g // 4 % 4)
        k_max = 3 + int(g // 4 % 4)
        alpha = float(rng.uniform(0.0, 1.0))
        t1, t2 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        a, b = -float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))
        window = f"--interval={a:.6f},{b:.6f}"
        out += [
            Query("pressure", n, n, ("pressure", "--n", str(n), "--alpha", f"{alpha:.6f}",
                                     f"--t-values=0,{t1:.6f},{t2:.6f}")),
            Query("profile", n, n, ("profile", "--n", str(n), "--maxent")),
            Query("count_all", n, n_min, ("count", "--n-min", str(n_min), "--n-max", str(n),
                                          "--profile-n", str(n), "--maxent", "--interval=-1000,1000")),
            Query("weyl", n, n, ("weyl", "--n", str(n), "--k-max", str(k_max), window, "--maxent")),
            Query("count_window", n, n, ("count", "--n-min", str(n), "--n-max", str(n),
                                         "--profile-n", str(n), "--maxent", window)),
        ]
    return out
