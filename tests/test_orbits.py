"""Fixed-point enumeration, cycle records, and census bookkeeping."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from orbitctl import cli, maps, orbits, rootfind
from orbitctl.errors import (
    DegreeOverflowError,
    FingerprintMismatchError,
    IncompleteCensusError,
    MathDomainError,
    OrbitMatchingError,
    VersionMismatchError,
)

LOG2 = math.log(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def as_set(points, ndigits=9):
    return {(round(p.real, ndigits), round(p.imag, ndigits)) for p in points}


def ring_points(spec, n):
    """The repelling fixed points of f^n: every point of the census rings of
    the periods dividing n, from one tree pass."""
    return np.concatenate([ring.ravel() for _, ring, _ in orbits._tree_cycles(spec, orbits.divisors(n))])


def test_fixed_point_set_square_n2(square):
    # the roots route returns the full algebraic set, superattracting 0 included
    pts, _ = orbits._roots_route(square, 2)
    expected = [0.0, 1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
    assert as_set(pts) == as_set(expected)
    # the tree's rings hold the repelling points only
    assert as_set(ring_points(square, 2)) == as_set(expected[1:])


def test_fixed_point_set_basilica_n2(basilica):
    pts, _ = orbits._roots_route(basilica, 2)
    expected = [0.0, -1.0, PHI, 1.0 - PHI]
    assert as_set(pts) == as_set(expected)


def test_methods_agree_point_for_point():
    # z^2 + 0.1, and z^3 + 0.1 z, whose inverse branches have no closed form
    for numerator, n in (((0.1, 0.0, 1.0), 6), ((0.0, 0.1, 0.0, 1.0), 5)):
        spec = maps.RationalMapSpec(numerator=numerator, denominator=(1.0,))
        via_roots, mult = orbits._roots_route(spec, n)
        assert len(via_roots) == spec.degree**n
        via_backward = ring_points(spec, n)
        # backward walks the repelling set only; every point must sit on a root
        assert 0 < len(via_backward) <= len(via_roots)
        tree = cKDTree(np.c_[via_roots.real, via_roots.imag])
        dist, idx = tree.query(np.c_[via_backward.real, via_backward.imag])
        assert dist.max() < 1e-9
        assert len(set(idx)) == len(via_backward)
        # the repelling roots are exactly the backward points, and the
        # non-repelling remainder is the attracting fixed point alone
        assert np.array_equal(mult, 1.0 + rootfind.fn_shift(spec, via_roots, n)[1])
        repelling = np.abs(mult) > 1.0
        assert np.count_nonzero(repelling) == len(via_backward)
        assert np.count_nonzero(~repelling) == 1


def test_backward_closes_deep_levels(basilica):
    # forward images of cycles that pass near the critical point drift by
    # far more than the pairing tolerance unless every point is polished
    pts = ring_points(basilica, 16)
    assert pts.size == 2**16 - 2  # all but the superattracting 2-cycle {0, -1}
    images = maps.map_values(basilica, pts)
    dist, nxt = cKDTree(np.c_[pts.real, pts.imag]).query(np.c_[images.real, images.imag])
    assert dist.max() <= orbits.PAIR_TOL
    assert np.unique(nxt).size == pts.size
    # points of least period 16 are the ones f^8 moves
    eighth = nxt
    for _ in range(7):
        eighth = nxt[eighth]
    primitive = np.count_nonzero(eighth != np.arange(pts.size))
    assert primitive / 16 == (2**16 - 2**8) // 16


def test_backward_census_walks_the_tree_once(basilica, monkeypatch):
    # a census makes one tree pass, which also serves the hyperbolicity
    # probe, and runs the cycle finder once per requested depth; a walk
    # reads its slack off the census and makes the one pass of its own
    calls = {"_tree_levels": 0, "_level_cycles": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(orbits, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(orbits, name, counted)
    db = orbits.OrbitDatabase.for_map(basilica)
    orbits.enumerate_primitive(basilica, 8, db)
    assert calls == {"_tree_levels": 1, "_level_cycles": 8}
    assert db.max_complete_period() == 8
    # completed periods are not searched again
    orbits.enumerate_primitive(basilica, 10, db)
    assert calls == {"_tree_levels": 2, "_level_cycles": 10}
    orbits.multiplier_bounded_orbits(basilica, db, 2.0**8)
    assert calls["_tree_levels"] == 3


def test_basilica_census_certifies_period_18(basilica, basilica_file, tmp_path, capsys):
    # a raw residual |F| below 1e-9 (1 + |z|) rejects every point of four
    # primitive 18-cycles with large multipliers; their Newton steps |F/F'|
    # are below 1e-12 (1 + |z|)
    db = orbits.OrbitDatabase.for_map(basilica)
    orbits.enumerate_primitive(basilica, 18, db)
    assert db.max_complete_period() == 18
    assert db.level(18).z.size == (2**18 - 2**9 - 2**6 + 2**3) // 18 == 14532
    # the stored census passes the census's own audit; a raw residual and an
    # unpolished forward multiplier both drift past 1e-8 at this depth
    path = tmp_path / "census.jsonl"
    orbits.save_db(db, path)
    assert cli.main(["verify", "--db", str(path), "--map", basilica_file]) == 0
    checks = json.loads(capsys.readouterr().out)
    assert checks["worst_newton_step"] < orbits.STEP_TOL
    assert checks["closest_ring_points"] > 1e3 * orbits.STEP_TOL


def test_audit_refuses_repeated_ring_points(basilica, basilica_db):
    # no two ring points of a level may coincide: a cycle stored twice
    # repeats its ring, and so does a fixed point stored as a 2-cycle, whose
    # Newton step, least point and multiplier all pass
    ent = basilica_db.level(10)
    twice = orbits.PeriodEntry(
        period=10, z=np.append(ent.z, ent.z[5]), log_abs=np.append(ent.log_abs, ent.log_abs[5]),
        theta=np.append(ent.theta, ent.theta[5]), complete=True,
    )
    fixed = orbits.PeriodEntry(
        period=2, z=np.array([PHI + 0j]), log_abs=np.array([2 * math.log(2 * PHI)]),
        theta=np.zeros(1), complete=True,
    )
    for entry, message in ((twice, "period 10 fails the distinct cycles test: 20 of 1000"),
                           (fixed, "period 2 fails the distinct cycles test: 2 of 2")):
        db = orbits.OrbitDatabase(basilica.fingerprint, entries={entry.period: entry})
        with pytest.raises(IncompleteCensusError, match=message):
            orbits.verify_census(basilica, db)


def test_backward_requires_hyperbolicity_evidence():
    # the screen reads its rates off the census's own first levels, and its
    # verdict gates the census before any level is recorded
    close = maps.RationalMapSpec(numerator=(0.26, 0.0, 1.0), denominator=(1.0,))
    db = orbits.OrbitDatabase.for_map(close)
    with pytest.raises(MathDomainError, match="inconclusive"):
        orbits.enumerate_primitive(close, 3, db)
    assert db.max_complete_period() == 0
    db = orbits.OrbitDatabase.for_map(close)
    orbits.enumerate_primitive(close, 3, db, override_hyperbolicity=True)
    assert (db.max_complete_period(), db.hyperbolicity) == (3, "inconclusive")


@pytest.mark.parametrize("depth", [1, 3])
def test_census_surfaces_a_tree_failure_below_the_screen(basilica, monkeypatch, depth):
    # a failure in the levels the screen reads is the census's own error:
    # neither an inconclusive verdict nor a verdict on the levels below it
    level_cycles = orbits._level_cycles

    def failing(map_spec, levels, parents, k, *rest):
        if k == depth:
            raise OrbitMatchingError(f"cycle finder failed at depth {k}")
        return level_cycles(map_spec, levels, parents, k, *rest)

    monkeypatch.setattr(orbits, "_level_cycles", failing)
    db = orbits.OrbitDatabase.for_map(basilica)
    with pytest.raises(OrbitMatchingError, match=f"depth {depth}"):
        orbits.enumerate_primitive(basilica, 8, db)
    assert (db.max_complete_period(), db.hyperbolicity) == (0, None)


def test_roots_method_degree_cap(square):
    with pytest.raises(DegreeOverflowError):
        orbits._roots_route(square, 20)


def test_classify_square_level2(square_db):
    ent1, ent2 = square_db.entries[1], square_db.entries[2]
    (zero,) = ent1.nonrepelling
    assert abs(zero.representative) < 1e-9
    assert zero.log_abs_multiplier == -math.inf and zero.holonomy_angle == 0.0
    (one,) = ent1.orbits
    assert abs(one.representative - 1.0) < 1e-9
    assert one.repelling and one.log_abs_multiplier == pytest.approx(LOG2, abs=1e-10)
    (two,) = ent2.orbits
    assert two.period == 2 and two.primitive and two.repelling
    assert two.log_abs_multiplier == pytest.approx(2 * LOG2, abs=1e-10)
    assert ent2.nonrepelling == ()


def test_classify_basilica_level2(basilica_db):
    (super_cycle,) = basilica_db.entries[2].nonrepelling
    # {0, -1} contains the critical point
    assert not super_cycle.repelling and super_cycle.log_abs_multiplier == -math.inf
    assert basilica_db.entries[2].orbits == ()
    fixed = sorted(basilica_db.entries[1].orbits, key=lambda o: o.representative.real)
    assert [o.repelling for o in fixed] == [True, True]
    assert fixed[0].log_abs_multiplier == pytest.approx(math.log(2 * (PHI - 1)), abs=1e-10)
    assert fixed[1].log_abs_multiplier == pytest.approx(math.log(2 * PHI), abs=1e-10)


@pytest.mark.parametrize("drop, error", [
    (slice(None, -1), OrbitMatchingError),     # z = 1, a repelling fixed point
    (slice(1, None), IncompleteCensusError),   # z = 0, the superattracting one
])
def test_both_checks_every_root(square, monkeypatch, drop, error):
    # 'both' records nothing unless Aberth's repelling roots match the
    # tree's ring points and the rest match the non-repelling sidecar
    roots_route = orbits._roots_route
    monkeypatch.setattr(orbits, "_roots_route",
                        lambda spec, n: tuple(col[drop] for col in roots_route(spec, n)))
    db = orbits.OrbitDatabase.for_map(square)
    with pytest.raises(error, match="at n = 1"):
        orbits.enumerate_primitive(square, 3, db, method="both")
    assert db.max_complete_period() == 0


def test_both_certifies_the_basilica_through_12(basilica):
    # Aberth from a circle left 717 of 2048 points unconverged at n = 11;
    # from the preimages of a point outside the Julia set every level closes
    db = orbits.OrbitDatabase.for_map(basilica)
    orbits.enumerate_primitive(basilica, 12, db, method="both")
    assert db.max_complete_period() == 12
    assert {db.level(n).method for n in range(1, 13)} == {"both"}


def test_unclosed_ring_counts_unpolished_points(basilica, monkeypatch):
    # the ring polish runs out of budget: the level's names sit 1e-6 off
    # their cycles and newton_polish then takes no step
    level_cycles = orbits._level_cycles

    def unpolished(*args):
        hit, reps, mult = level_cycles(*args)
        monkeypatch.setattr(rootfind, "NEWTON_ITERS", 0)
        return hit, reps + 1e-6, mult

    monkeypatch.setattr(orbits, "_level_cycles", unpolished)
    # the basilica's two 3-cycles hold 6 points
    with pytest.raises(OrbitMatchingError, match="6 of 6 ring points still have a Newton step"):
        list(orbits._tree_cycles(basilica, [3]))


def test_name_cycles_maps_duplicates_and_rotations_to_their_cycle(basilica, basilica_db):
    # every point of a few census 7-cycles, with a third of them repeated
    # exactly, in shuffled order: one name per cycle, each point to its own
    least = basilica_db.level(7).z[::4]
    points = orbits._forward_orbit(basilica, least, 7).ravel()
    origin = np.tile(np.arange(least.size), 7)
    points, origin = np.append(points, points[::3]), np.append(origin, origin[::3])
    order = np.random.default_rng(5).permutation(points.size)
    cycle, reps = orbits._name_cycles(basilica, points[order], 7)
    assert reps.size == least.size
    assert np.abs(reps[cycle] - least[origin[order]]).max() < 1e-14



def test_name_cycles_joins_least_points_across_a_cell_edge(basilica, basilica_db):
    # two points of one 7-cycle on either side of a cell edge, 2e-11 from it,
    # fall into two cells: their two names lie within PAIR_TOL and merge
    least = basilica_db.level(7).z[:3]
    cell = orbits.PAIR_TOL / 2
    edge = (np.round(least[0].real / cell) + 0.5) * cell
    straddle = np.array([edge - 2e-11, edge + 2e-11]) + 1j * least[0].imag
    assert np.unique(np.round(straddle * 2 / orbits.PAIR_TOL)).size == 2
    points = np.r_[straddle, orbits._forward_orbit(basilica, least, 7).ravel()]
    cycle, reps = orbits._name_cycles(basilica, points, 7)
    assert reps.size == 3
    assert cycle[0] == cycle[1] == cycle[2]
    assert np.abs(reps[cycle[:3]] - least[0]).max() < 1e-14


def test_name_cycles_searches_names_not_least_points(basilica, monkeypatch):
    # least points are grouped by cell; pair and nearest searches run over
    # the cells' names and their rings, never over all least points
    levels, parents = _tree_level(basilica, 12)
    sizes = []
    for name in ("_close_pairs", "_nearest"):
        search = getattr(orbits, name)

        def counted(points, *args, search=search, **kwargs):
            sizes.append(np.size(points))
            return search(points, *args, **kwargs)

        monkeypatch.setattr(orbits, name, counted)
    hit, reps, _ = orbits._level_cycles(basilica, levels, parents, 12)
    assert reps.size == 335 and sizes
    assert max(sizes) < np.count_nonzero(hit >= 0) / 4


# ---- point sets ----------------------------------------------------------------

def scattered(seed, size):
    """Points with moduli from 1e-3 to 1e12, a third of them with partners
    1e-10 away, and a few nan and inf entries."""
    rng = np.random.default_rng(seed)
    pts = 10.0 ** rng.uniform(-3, 12, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    partners = pts[: size // 3] + 1e-10 * np.exp(2j * np.pi * rng.uniform(size=size // 3))
    pts = np.concatenate([pts, partners, [np.nan, complex(np.inf, 0.0), complex(1.0, -np.inf)]])
    return pts[rng.permutation(pts.size)]


def finite_tree(pts):
    keep = np.flatnonzero(np.isfinite(pts))
    return keep, cKDTree(np.c_[pts[keep].real, pts[keep].imag])


# sizes on both sides of orbits.SMALL_PAIRS: all distances, and the grid
SIZES = st.sampled_from([12, 300])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIZES, st.sampled_from([1e-9, 1e-6, 1.0, 1e6]))
def test_close_pairs_match_kdtree(seed, size, r):
    pts = scattered(seed, size)
    i, j = orbits._close_pairs(pts, r)
    keep, tree = finite_tree(pts)
    want = keep[tree.query_pairs(r, output_type="ndarray")]
    assert np.all(i < j)
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(map(tuple, np.sort(want, axis=1).tolist()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIZES, st.sampled_from([np.inf, 1e-9, 1.0]))
def test_nearest_matches_kdtree(seed, size, bound):
    nodes = scattered(seed, size)
    queries = np.concatenate([scattered(seed + 1, size // 3), nodes[: size // 6] + 1e-10])
    idx, dist = orbits._nearest(queries, nodes, bound=bound)
    keep, tree = finite_tree(nodes)
    fq = np.isfinite(queries)
    want = np.full(queries.size, np.inf)
    want[fq] = tree.query(np.c_[queries[fq].real, queries[fq].imag])[0]
    want[want > bound] = np.inf
    np.testing.assert_allclose(dist, want, rtol=1e-15)
    found = idx >= 0
    assert np.array_equal(found, np.isfinite(want))
    np.testing.assert_allclose(np.abs(queries[found] - nodes[idx[found]]), want[found], rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), SIZES)
def test_nearest_other_point_matches_kdtree(seed, size):
    # a = b with the self-match excluded, as the census audit asks it
    pts = scattered(seed, size)
    idx, dist = orbits._nearest(pts, pts, skip=np.arange(pts.size))
    keep, tree = finite_tree(pts)
    want = np.full(pts.size, np.inf)
    want[keep] = tree.query(np.c_[pts[keep].real, pts[keep].imag], k=2)[0][:, 1]
    np.testing.assert_allclose(dist[keep], want[keep], rtol=1e-15)
    assert np.all(idx[keep] != keep) and np.all(idx[~np.isfinite(pts)] == -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_gaps_find_the_least_gap_and_every_one_below_the_test(seed, size):
    # the audit's per-point gap: the least one exact, so the closest pair
    # is never lost, and every gap below STEP_TOL found.  The closest pair
    # holds the point of largest modulus, where the bound on the least gap
    # meets that pair's own distance
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.5, 2.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    pts[: size // 4] = pts[size // 4 : 2 * (size // 4)] + 1e-13 * rng.normal(size=size // 4)
    top = pts[np.argmax(np.abs(pts))]
    pts = np.append(pts, top + 1e-7 * np.exp(2j * np.pi * rng.uniform()))
    gaps = orbits._gaps(pts)
    want = cKDTree(np.c_[pts.real, pts.imag]).query(np.c_[pts.real, pts.imag], k=2)[0][:, 1]
    want /= 1.0 + np.abs(pts)
    assert gaps.min() == pytest.approx(want.min(), rel=1e-15, abs=0.0)
    assert np.array_equal(gaps < orbits.STEP_TOL, want < orbits.STEP_TOL)


def test_dedup_keeps_the_first_of_each_cluster():
    rng = np.random.default_rng(3)
    base = rng.normal(size=200) + 1j * rng.normal(size=200)
    order = rng.permutation(600)
    points = np.concatenate([base, base + 3e-10, base - 4e-10j])[order]
    kept = orbits._dedup(points)
    # the three points of a cluster lie within the pairing tolerance of
    # each other: its first point alone stays, in order of real part
    first = np.unique(np.tile(np.arange(200), 3)[order], return_index=True)[1]
    assert sorted(kept) == sorted(first)
    assert np.array_equal(np.lexsort((points[kept].imag, points[kept].real)), np.arange(kept.size))


def test_level_cycles_names_only_cycles_below_the_bound(basilica):
    for k, levels, parents, _ in orbits._tree_levels(basilica, math.inf):
        if k == 9:
            break
    hit, reps, mult = orbits._level_cycles(basilica, levels, parents, 9)
    log_abs = np.log(np.abs(mult))
    # halfway between the middle two of the 56 cycles, 0.056 from either
    bound = float(np.median(log_abs))
    low_hit, low_reps, low_mult = orbits._level_cycles(basilica, levels, parents, 9, bound)
    below = (hit >= 0) & (log_abs[hit] < bound)
    assert np.array_equal(low_hit >= 0, below)
    assert low_reps.size == np.count_nonzero(log_abs < bound) == 28
    assert np.abs(low_reps[low_hit[below]] - reps[hit[below]]).max() < 1e-14
    assert np.array_equal(low_mult[low_hit[below]], mult[hit[below]])


@pytest.mark.parametrize("key", ["square", "square_plus"])
def test_self_conjugate_cycles_named_above_the_axis(ctx, key):
    # a real map's self-conjugate cycle has two least points, conjugate to
    # each other with real parts equal up to roundoff: the upper one names it
    spec, db = ctx.spec(key), ctx.db(key, 12)
    self_conjugate = 0
    for n in range(1, 13):
        for orb in db.entries[n].orbits:
            z = orb.representative
            ring = orbits._forward_orbit(spec, np.array([z]), n)[:, 0]
            if np.abs(ring - z.conjugate()).min() < 1e-9 * (1.0 + abs(z)):
                self_conjugate += 1
                assert z.imag >= 0.0, (n, z)
    assert self_conjugate == 14


def test_primitive_counts_square(square_db):
    # repelling primitive cycles of the doubling map: (1/n) sum_{m|n} mu(n/m) 2^m,
    # minus the superattracting fixed point at level 1
    assert square_db.level(1).z.size == 1
    assert square_db.level(3).z.size == 2
    assert square_db.level(4).z.size == 3
    assert square_db.level(6).z.size == 9


def test_primitive_count_basilica_n8(basilica_db):
    # (2^8 - 2^4) / 8; the only non-repelling primitive cycle has period 2
    assert basilica_db.level(8).z.size == 30


def test_census_identity_all_levels(ctx, square_db, basilica_db):
    for key, db in (("square", square_db), ("basilica", basilica_db)):
        spec = ctx.spec(key)
        for n in range(1, 13):
            rep, nonrep, expected = orbits.census_counts(spec, db, n)
            assert rep + nonrep == expected == 2**n, (key, n)


def test_nonrepelling_cycles_bounded(square_db, basilica_db, cubic_db):
    for db, degree in ((square_db, 2), (basilica_db, 2), (cubic_db, 3)):
        total = sum(len(ent.nonrepelling) for ent in db.entries.values())
        assert total <= 2 * degree - 2
    # and the known ones: z*z keeps 0, the basilica keeps {0, -1}
    assert len(square_db.entries[1].nonrepelling) == 1
    assert len(basilica_db.entries[2].nonrepelling) == 1


def test_expected_fixed_count_rules(square):
    assert orbits.expected_fixed_count(square, 5) == 32
    balanced = maps.RationalMapSpec(numerator=(1.0, 0.0, 1.0), denominator=(-1.0, 0.0, 1.0))
    assert orbits.expected_fixed_count(balanced, 3) == 2**3 + 1


def test_incomplete_census_raises(basilica):
    db = orbits.OrbitDatabase.for_map(basilica)
    assert db.max_complete_period() == 0
    with pytest.raises(IncompleteCensusError):
        db.level(3)


def test_max_complete_period(basilica_db):
    assert basilica_db.max_complete_period() >= 12
    ent = basilica_db.level(5)
    assert ent.complete and ent.method in ("roots", "backward", "both")


def _signed_zero_census():
    """A hand-made census whose records carry signed zeros and a
    superattracting sidecar cycle (log|multiplier| -inf, holonomy 0.0)."""
    entry = orbits.PeriodEntry(
        period=1,
        z=np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(0.5, 0.0)]),
        log_abs=np.array([0.25, 0.5, 0.75]),
        theta=np.array([-0.0, 0.0, 1.5]),
        nonrepelling=(orbits.PeriodicOrbit(1, complex(-0.0, 0.0), -math.inf, 0.0, True, False),),
        complete=True,
        method="backward",
        distortion=-0.0,
    )
    return orbits.OrbitDatabase(map_fingerprint="signed-zeros", entries={1: entry})


def test_save_load_roundtrip(tmp_path, basilica, basilica_db):
    # a reload holds every record bit for bit: saving it again writes the
    # same bytes, and every field of every entry is equal, down to the sign
    # of a zero; a field save_db does not write comes back as its default
    # and fails the comparison
    for db, spec in ((_signed_zero_census(), None), (basilica_db, basilica)):
        path, again = tmp_path / "census.jsonl", tmp_path / "again.jsonl"
        orbits.save_db(db, path)
        loaded = orbits.load_db(path, spec)
        orbits.save_db(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert (loaded.map_fingerprint, loaded.hyperbolicity) == (db.map_fingerprint, db.hyperbolicity)
        assert sorted(loaded.entries) == sorted(db.entries)
        for n, ent in db.entries.items():
            got = loaded.entries[n]
            for f in dataclasses.fields(orbits.PeriodEntry):
                want, have = getattr(ent, f.name), getattr(got, f.name)
                if isinstance(want, np.ndarray):
                    assert have.dtype == want.dtype, (n, f.name)
                    assert have.tobytes() == want.tobytes(), (n, f.name)
                else:
                    assert have == want and repr(have) == repr(want), (n, f.name)
            assert repr(got.orbits) == repr(ent.orbits)
        # the superattracting sidecar cycle is among the records compared
        side = [o for ent in db.entries.values() for o in ent.nonrepelling]
        assert any(o.log_abs_multiplier == -math.inf and o.holonomy_angle == 0.0 for o in side)
    # a level without a repelling cycle has no distortion, written as null
    assert basilica_db.level(2).distortion == -math.inf
    assert '"distortion": null, "method": "backward", "period": 2' in path.read_text()


def test_period_entry_columns_are_read_only(basilica_db):
    ent = basilica_db.level(8)
    with pytest.raises(ValueError):
        ent.log_abs[0] = 0.0
    # the records view is built once from the columns and kept
    assert ent.orbits is ent.orbits
    assert [o.representative for o in ent.orbits] == ent.z.tolist()


def test_load_rejects_foreign_map(tmp_path, square, basilica_db):
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    with pytest.raises(FingerprintMismatchError):
        orbits.load_db(path, square)


def test_load_accepts_header_with_tolerances(tmp_path, basilica, basilica_db):
    # caches written before the tolerances field was dropped still load
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["tolerances"] = {"pairing": 1e-9, "newton": 1e-13, "closure": 1e-9}
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert orbits.load_db(path, basilica).max_complete_period() == basilica_db.max_complete_period()


def _with_version(version):
    def corrupt(lines):
        header = json.loads(lines[0])
        header["version"] = version
        return [json.dumps(header)] + lines[1:]

    return corrupt


def _truncated_last_line(lines):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]


def _no_fingerprint(lines):
    header = json.loads(lines[0])
    del header["fingerprint"]
    return [json.dumps(header)] + lines[1:]


# the middle line a damage lands on, counted with the two blank lines that
# _damage_middle puts after the header: the error must name this number
MIDDLE_LINE = 381


# the line of period 11's summary, counted the same way
SUMMARY_LINE = 240


def _damage_line(lineno, kind, edit):
    def corrupt(lines):
        lines = lines[:1] + ["", "   "] + lines[1:]
        assert kind in lines[lineno - 1]  # the line is of the kind the case damages
        lines[lineno - 1] = edit(lines[lineno - 1])
        return lines

    return corrupt


def _damage_middle(edit):
    return _damage_line(MIDDLE_LINE, '"theta"', edit)


_MISSING = object()  # a summary field _damage_summary deletes


def _damage_summary(**fields):
    def edit(line):
        rec = json.loads(line)
        rec.update(fields)
        return json.dumps({k: v for k, v in rec.items() if v is not _MISSING})

    return _damage_line(SUMMARY_LINE, '"period": 11', edit)


def _without_theta(line):
    rec = json.loads(line)
    del rec["theta"]
    return json.dumps(rec)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_with_version(orbits.DB_VERSION + 99),
         f"cache version {orbits.DB_VERSION + 99}, expected {orbits.DB_VERSION}"),
        (_with_version(1), f"cache version 1, expected {orbits.DB_VERSION}"),
        (_truncated_last_line, "corrupted line"),
        (_no_fingerprint, "no map fingerprint"),
        (_damage_middle(lambda line: f"{line}, {line}"), rf"corrupted line {MIDDLE_LINE} \("),
        (_damage_middle(_without_theta), rf"corrupted line {MIDDLE_LINE} \(KeyError"),
        (_damage_middle(lambda line: json.dumps(list(json.loads(line).values()))),
         rf"corrupted line {MIDDLE_LINE} \("),
        # bool("false") is true: a period summary's fields are type-checked
        (_damage_summary(complete="false"), rf"corrupted line {SUMMARY_LINE} \(ValueError"),
        (_damage_summary(complete=1), rf"corrupted line {SUMMARY_LINE} \(ValueError"),
        (_damage_summary(method=3), rf"corrupted line {SUMMARY_LINE} \(ValueError"),
        (_damage_summary(distortion="1.5"), rf"corrupted line {SUMMARY_LINE} \(ValueError"),
        (_damage_summary(distortion=True), rf"corrupted line {SUMMARY_LINE} \(ValueError"),
        (_damage_summary(distortion=_MISSING), rf"corrupted line {SUMMARY_LINE} \(KeyError"),
    ],
    ids=["future-version", "version-1", "truncated-line", "no-fingerprint", "two-objects",
         "no-theta", "bare-array", "complete-string", "complete-int", "method-number",
         "distortion-string", "distortion-bool", "no-distortion"],
)
def test_load_rejects_corrupt_cache(tmp_path, basilica, basilica_db, corrupt, message):
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
    with pytest.raises(VersionMismatchError, match=message) as err:
        orbits.load_db(path, basilica)
    assert str(path) in str(err.value)


# ---- multiplier-bounded walk -------------------------------------------------

@pytest.fixture(scope="module")
def basilica_walk(basilica, basilica_db14, maxent_alpha):
    # one certified walk at the top criterion-10 threshold serves every
    # lower threshold (and is the one criterion 10 keeps with the census)
    return orbits.multiplier_bounded_orbits(basilica, basilica_db14, math.exp(maxent_alpha * 13))


def test_preimages_solve_rational_map():
    spec = maps.RationalMapSpec(numerator=(0.1, 0.0, 1.0), denominator=(1.0, 0.3))
    w = np.array([0.2 + 0.1j, -1.5, 3.0j, 0.7 - 2.0j])
    pre = orbits.preimages(spec, w)
    assert pre.shape == (4, 2)
    assert np.abs(maps.map_values(spec, pre) - w[:, None]).max() < 1e-12
    assert np.abs(pre[:, 0] - pre[:, 1]).min() > 1e-6


# z^2 - 1, a rational map, and one whose leading coefficient 1 - w depends on w
QUADRATICS = {
    "basilica": maps.RationalMapSpec(numerator=(-1.0, 0.0, 1.0)),
    "rational": maps.RationalMapSpec(numerator=(0.1, 0.0, 1.0), denominator=(1.0, 0.3)),
    "even": maps.RationalMapSpec(numerator=(1.0, 0.0, 1.0), denominator=(-1.0, 0.0, 1.0)),
}


def _numpy_roots(spec, w):
    """The roots of P - w Q by np.roots, nan for each root lost to infinity."""
    pad = lambda cs: np.array(cs + (0j,) * (3 - len(cs)))
    got = np.roots((pad(spec.numerator) - w * pad(spec.denominator))[::-1])
    return np.append(got, np.full(2 - got.size, np.nan))


def _same_roots(got, want, tol):
    err = min(np.abs(got - want).max(), np.abs(got[::-1] - want).max())
    return err <= tol * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("name", QUADRATICS)
def test_quadratic_roots_match_numpy(name):
    spec = QUADRATICS[name]
    w = np.array([0.2 + 0.1j, -1.5, 3.0j, 0.7 - 2.0j, 1e6 + 1e-3j, 1e-9])
    for got in (orbits._quadratic_roots(spec, w), orbits.preimages(spec, w)):
        assert got.shape == (w.size, 2)
        assert all(_same_roots(got[i], _numpy_roots(spec, wi), 1e-13) for i, wi in enumerate(w))
    # at a critical value a double root moves by the square root of a
    # perturbation; preimages' Newton steps are not tried there, where f' = 0
    critical = maps.map_values(spec, maps.critical_points(spec))
    got = orbits._quadratic_roots(spec, critical)
    assert all(_same_roots(got[i], _numpy_roots(spec, wi), 1e-7) for i, wi in enumerate(critical))
    if name != "rational":
        # the exact critical value -1 with the double root 0
        assert critical.tolist() == [-1.0]
        assert got.tolist() == orbits.preimages(spec, critical).tolist() == [[0j, 0j]]
    if name == "even":
        # P - Q = 2: both roots lie at infinity
        assert np.isnan(_numpy_roots(spec, 1.0)).all()
        assert np.isnan(orbits._quadratic_roots(spec, np.array([1.0, 1.0 + 1e-13]))).all()
        assert np.isnan(orbits.preimages(spec, 1.0)).all()


def test_quadratic_branches_call_no_eigvals(basilica, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvals solved a quadratic")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for spec in QUADRATICS.values():
        pre = orbits.preimages(spec, [0.2 + 0.1j, -1.5, 3.0j])
        assert np.abs(maps.map_values(spec, pre) - np.array([0.2 + 0.1j, -1.5, 3.0j])[:, None]).max() < 1e-12
    for k, levels, parents, _ in orbits._tree_levels(basilica, math.inf):
        pulled = orbits._pull_back(basilica, levels, parents, k)
        # k inverse branches undo k forward steps
        assert np.abs(orbits._forward_orbit(basilica, pulled, k + 1)[k] - levels[k]).max() < 1e-10
        if k == 6:
            break


def _tree_level(map_spec, depth):
    for k, levels, parents, _ in orbits._tree_levels(map_spec, math.inf):
        if k == depth:
            return levels, parents


@pytest.mark.parametrize("name", QUADRATICS)
def test_nearer_quadratic_root_matches_quadratic_roots(name):
    # a ref placed near one of the two roots picks that root, evaluated to
    # the rounding of _quadratic_roots' own formulas
    spec = QUADRATICS[name]
    rng = np.random.default_rng(11)
    w = np.r_[rng.standard_normal(500) + 1j * rng.standard_normal(500), 0.2 + 0.1j, -1.5, 3.0j, 1e6 + 1e-3j, 1e-9]
    both = orbits._quadratic_roots(spec, w)
    assert np.isfinite(both).all()
    for pick in (0, 1):
        ref = both[:, pick] + 0.3 * (both[:, 1 - pick] - both[:, pick]) * np.exp(2j * np.pi * rng.random(w.size))
        got = orbits._nearer_quadratic_root(spec, w, ref)
        assert (np.abs(got - both[:, pick]) <= 1e-15 * np.abs(both[:, pick])).all()


def test_exact_pull_back_leaves_one_node_rejected(basilica):
    # depth 13 of the unpruned tree: every one of the 8,192 nodes is pulled
    # back along its path by exact inverse branches, and all but one polish
    # onto a primitive repelling 13-cycle.  The one left is the node at the
    # seed fixed point beta itself, which Newton keeps on that 1-cycle.
    levels, parents = _tree_level(basilica, 13)
    hit, _, _ = orbits._level_cycles(basilica, levels, parents, 13)
    lost = hit < 0
    assert (np.count_nonzero(lost), hit.size) == (1, 8192)
    assert levels[13][lost] == pytest.approx([PHI], abs=1e-15)
    z = rootfind.newton_polish(basilica, orbits._pull_back(basilica, levels, parents, 13)[lost], 13)
    assert z == pytest.approx([PHI], abs=1e-15)


def test_level_cycles_polishes_each_node_once(basilica, monkeypatch):
    # one Newton pass over the pulled-back nodes and _name_cycles' own
    # polish of the names: a second solve of the nodes would add a call
    levels, parents = _tree_level(basilica, 9)
    calls = []
    polish = orbits.newton_polish

    def counted(map_spec, z, n, **kwargs):
        calls.append(np.size(z))
        return polish(map_spec, z, n, **kwargs)

    monkeypatch.setattr(orbits, "newton_polish", counted)
    hit, _, _ = orbits._level_cycles(basilica, levels, parents, 9)
    assert len(calls) == 2
    assert calls[0] == levels[9].size == hit.size


def test_walk_newton_work_is_pinned(basilica, monkeypatch):
    # point-steps of f^k in newton_polish over a small basilica walk: 230,620
    # when Newton searched from every node and polished again from the
    # pulled-back nodes it lost, 148,121 with one pass from the pull-back
    steps = [0]
    fn_shift = rootfind.fn_shift

    def counted(map_spec, z, n):
        steps[0] += np.size(z) * n
        return fn_shift(map_spec, z, n)

    monkeypatch.setattr(rootfind, "fn_shift", counted)
    walk = orbits.walk_multiplier_bounded(basilica, 300.0, 1.5)
    assert (walk.nodes, walk.periods.size) == (3278, 216)
    assert steps[0] == 148_121


def test_level_cycles_refuses_a_name_no_node_reaches(basilica, monkeypatch):
    # a cycle named by no node would be left without a multiplier (log 0)
    name_cycles = orbits._name_cycles

    def extra_name(map_spec, z, k):
        slot, heads = name_cycles(map_spec, z, k)
        return slot, np.append(heads, 5.0 + 5.0j)

    monkeypatch.setattr(orbits, "_name_cycles", extra_name)
    levels, parents = _tree_level(basilica, 6)
    with pytest.raises(OrbitMatchingError, match="1 of the 10 period-6 cycles named are reached by no node"):
        orbits._level_cycles(basilica, levels, parents, 6)


def test_walk_square_necklace_sums(square, square_db):
    # every period-m cycle of z^2 has multiplier 2^m, so counts below t are
    # partial sums of the repelling necklace numbers 1, 1, 2, 3, 6, 9
    walk = orbits.multiplier_bounded_orbits(square, square_db, 100.0)
    necklace = {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}
    for t in (3.0, 6.0, 20.0, 100.0):
        assert walk.count(t) == sum(c for m, c in necklace.items() if 2**m < t), t
    assert walk.period_counts() == necklace
    assert np.allclose(walk.log_abs, walk.periods * LOG2, atol=1e-9)


def test_walk_matches_census_per_period(basilica, basilica_walk, basilica_db14, maxent_alpha):
    for n in range(8, 14):
        t = math.exp(maxent_alpha * n)
        log_t = math.log(t)
        per = basilica_walk.period_counts(t)
        for m in range(1, 15):
            census = sorted(
                o.log_abs_multiplier
                for o in basilica_db14.level(m).orbits
                if o.log_abs_multiplier < log_t
            )
            assert per.get(m, 0) == len(census), (n, m)
            walked = np.sort(basilica_walk.log_abs[
                (basilica_walk.periods == m) & (basilica_walk.log_abs < log_t)
            ])
            assert np.allclose(walked, census, rtol=1e-12, atol=0.0)
        # orbits shadowing the alpha fixed point reach far past the census
        assert basilica_walk.max_period(t) > 14
    # below the top threshold every walked cycle is a distinct census cycle
    # (least points can differ where two points of a cycle tie in roundoff)
    for m in range(1, 15):
        ring = [np.array([
            o.representative for o in basilica_db14.level(m).orbits
            if o.log_abs_multiplier < basilica_walk.log_bound
        ])]
        for _ in range(m - 1):
            ring.append(maps.map_values(basilica, ring[-1]))
        points = np.concatenate(ring)
        walked = basilica_walk.representatives[basilica_walk.periods == m]
        if points.size == 0:
            assert walked.size == 0
            continue
        dist, idx = cKDTree(np.c_[points.real, points.imag]).query(np.c_[walked.real, walked.imag])
        assert dist.max() < 1e-9, m
        assert len(set(idx % ring[0].size)) == ring[0].size, m


def test_walk_names_each_cycle_once(basilica_walk):
    # each cycle is named by its polished least point; names read off the
    # raw forward orbit gave one period-23 cycle two names 1.09e-9 apart
    for m in np.unique(basilica_walk.periods):
        reps = basilica_walk.representatives[basilica_walk.periods == m]
        assert not cKDTree(np.c_[reps.real, reps.imag]).query_pairs(1e-8), m


def test_walk_slack_comes_from_census(basilica, basilica_db14, basilica_walk):
    slack = orbits.census_slack(basilica, basilica_db14)
    assert slack.n_used == 14
    # the weakest stretch of a census cycle loses 0.063
    assert slack.dip == pytest.approx(-0.0626, abs=1e-3)
    assert slack.value == pytest.approx(-slack.dip + slack.distortion, rel=1e-12)
    assert basilica_walk.slack == slack.value


def test_census_keeps_the_slack_it_measures(basilica, tmp_path, monkeypatch):
    # the census's own tree pass measures each level's distortion: a census
    # extended from 8 stores what one built from empty stores
    fresh, extended = orbits.OrbitDatabase.for_map(basilica), orbits.OrbitDatabase.for_map(basilica)
    orbits.enumerate_primitive(basilica, 14, fresh)
    orbits.enumerate_primitive(basilica, 8, extended)
    orbits.enumerate_primitive(basilica, 14, extended)
    for n in range(1, 15):
        assert repr(extended.level(n).distortion) == repr(fresh.level(n).distortion), n
    assert max(fresh.level(n).distortion for n in range(1, 15)) == 1.361907211728429
    # a reloaded census gives its slack without walking the tree again
    path = tmp_path / "census.jsonl"
    orbits.save_db(fresh, path)
    db = orbits.load_db(path, basilica)

    def no_tree(*args):
        raise AssertionError("census_slack walked the preimage tree")

    monkeypatch.setattr(orbits, "_tree_levels", no_tree)
    monkeypatch.setattr(orbits, "_level_cycles", no_tree)
    slack = orbits.census_slack(basilica, db)
    assert (slack.value, slack.distortion, slack.n_used) == (1.4244794347692276, 1.361907211728429, 14)


def test_census_slack_refuses_an_unmeasured_level(basilica, basilica_db):
    # period 2 holds no repelling cycle, so its -inf is no gap in the slack;
    # period 3 holds two, and a slack without their distortion is unfounded
    entries = {n: basilica_db.level(n) for n in range(1, 4)}
    assert entries[2].distortion == -math.inf and entries[2].z.size == 0
    entries[3] = dataclasses.replace(entries[3], distortion=-math.inf)
    db = orbits.OrbitDatabase(basilica.fingerprint, entries=entries)
    with pytest.raises(IncompleteCensusError, match="period 3 holds 2 repelling cycles but no measured"):
        orbits.census_slack(basilica, db)


def test_cached_walk_checks_the_map(square, basilica_db14, basilica_walk, maxent_alpha):
    t = math.exp(maxent_alpha * 13)
    assert basilica_db14._walk_cache[t] is basilica_walk
    with pytest.raises(FingerprintMismatchError):
        orbits.multiplier_bounded_orbits(square, basilica_db14, t)


def test_walk_slack_widening_changes_no_count(basilica, basilica_walk):
    t = 2.0**10
    wide = orbits.walk_multiplier_bounded(basilica, t, basilica_walk.slack + 1.0)
    assert wide.nodes > basilica_walk.nodes / 8
    assert wide.period_counts() == basilica_walk.period_counts(t)


def test_walk_without_slack_fails_certification(basilica, basilica_db14):
    # nodes sit up to 1.36 above their cycle's log multiplier, so a walk
    # pruned at log t itself loses cycles the census proves exist
    walk = orbits.walk_multiplier_bounded(basilica, 2.0**8, 0.0)
    with pytest.raises(IncompleteCensusError, match="multiplier walk"):
        orbits.certify_walk(walk, basilica_db14)
