"""orbitctl benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  --trace 0 prints the end-to-end metrics; --trace 1 traces
every round and prints the per-layer metrics (self time and work counts of
the program's public functions) and the tracing overhead, estimated as the
wrappers' measured cost per call times the traced calls in each phase.  The
last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# numpy and scipy each load their own OpenBLAS; one thread per pool keeps the
# whole process within the two cores of the reference box
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2   # two rounds of 100 light queries leave ten beyond the 95th percentile

for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import checks  # noqa: E402
import layertrace  # noqa: E402
from workloads import DECAY_PAIRS, FAMILIES, WARM_READS, WORKLOADS, draw_c, light_queries, map_json  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "census_s": "s", "walk_s": "s", "query_mean_ms": "ms",
    "query_p95_ms": "ms", "operator_s": "s", "peak_rss_mib": "MiB",
}
SELF_TIMES = (
    "orbits.fixed_points", "orbits.classify_orbits", "orbits.enumerate_primitive",
    "maps.hyperbolicity_probe", "rootfind.aberth_fixed_points", "rootfind.fn_shift",
    "rootfind.newton_polish", "orbits.save_db", "orbits.load_db", "cli.load_or_build_db",
    "cli.main", "thermo.level_terms", "thermo.thermo_profile", "thermo.bowen_dimension",
    "counting.count_orbits", "counting.weyl_sums", "counting.li_table",
    "counting.logarithmic_integral", "orbits.census_slack", "orbits.walk_multiplier_bounded",
    "orbits.certify_walk", "orbits.preimages", "transfer.build_mesh",
    "transfer.leading_eigendata", "transfer.decay_probe",
)
CALLS = ("rootfind.aberth_fixed_points", "thermo.pressure_derivatives", "transfer.leading_eigendata")
WORK_COUNTS = (
    "rootfind.aberth_fixed_points.points", "rootfind.fn_shift.point_steps",
    "rootfind.newton_polish.points", "orbits.cache_bytes", "orbits.walk.nodes",
    "orbits.walk.cycles", "orbits.preimages.points", "transfer.mesh_nodes",
)
OVERHEAD = {"census_s": "phase.census", "walk_s": "phase.walk", "operator_s": "phase.operator"}


def import_program():
    """Import orbitctl from this checkout's src/, or exit 2 when it is not there."""
    if not (SRC / "orbitctl" / "__init__.py").is_file():
        sys.stderr.write(f"no orbitctl sources under {SRC}; run from the root of a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import orbitctl.cli
    if Path(orbitctl.__file__).resolve().parent != SRC / "orbitctl":
        sys.stderr.write(f"imported orbitctl from {orbitctl.__file__}, not from {SRC}\n")
        sys.exit(2)
    return orbitctl


def call_cli(cli, argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


@dataclass
class Round:
    """One round's timing samples and the outputs the checks read."""

    census_s: list = field(default_factory=list)
    walk_s: list = field(default_factory=list)
    operator_s: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    enumerate_out: list = field(default_factory=list)  # (job, rc, stdout, stderr)
    cache_paths: dict = field(default_factory=dict)     # family -> cache file
    walks: list = field(default_factory=list)          # (rows, walk, delta) or an error string
    queries: list = field(default_factory=list)        # (query, rc, stdout, stderr)
    operator: list = field(default_factory=list)       # ((rc, stdout, stderr) of dimension, of decay)


class Bench:
    def __init__(self, program, workload, seed, workdir: Path):
        self.orbitctl = program
        self.wl = workload
        self.workdir = workdir
        self.c = {job.family: draw_c(FAMILIES[job.family], seed) for job in workload.censuses}
        self.map_paths = {name: workdir / f"{name}.json" for name in self.c}
        self.fingerprints = {
            name: program.maps.RationalMapSpec.from_dict(map_json(FAMILIES[name], c)).fingerprint
            for name, c in self.c.items()
        }
        self.queries = light_queries(seed, workload.main.n_max)
        self.warm_cache = None
        self.setups = 0

    def enumerate_argv(self, job, cache_dir):
        return ("enumerate", "--map", str(self.map_paths[job.family]), "--cache-dir", str(cache_dir),
                "--n-max", str(job.n_max), "--method", job.method)

    def setup(self) -> float:
        """Cold interpreter start with the program, inputs, and the warm cache if any."""
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import orbitctl.cli"], env=env, check=True, cwd=ROOT)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, path in self.map_paths.items():
            path.write_text(json.dumps(map_json(FAMILIES[name], self.c[name])))
        if self.wl.warm:
            cache = self.workdir / f"setup{self.setups}"
            for job in self.wl.censuses:
                rc, _, err, _ = call_cli(self.orbitctl.cli, self.enumerate_argv(job, cache))
                if rc != 0:
                    raise RuntimeError(f"set-up census failed: {err.strip()}")
            self.warm_cache = cache
        self.setups += 1
        return time.perf_counter() - start

    def run_round(self, index: int, tracer=None) -> Round:
        """One round: the workload's schedule of steps, each in its phase span."""
        r = Round()
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        cache = self.warm_cache if self.wl.warm else self.workdir / f"round{index}"
        r.cache_paths = {name: Path(cache) / f"{fp}.jsonl" for name, fp in self.fingerprints.items()}
        steps = {"census": self.census_step, "walk": self.walk_step,
                 "queries": self.queries_step, "operator": self.operator_step}
        for step in self.wl.schedule:
            with span(f"phase.{step}"):
                steps[step](r, cache)
        return r

    def census_step(self, r: Round, cache):
        cli = self.orbitctl.cli
        if self.wl.warm:
            for _ in range(WARM_READS // self.wl.schedule.count("census")):
                rc, out, err, sec = call_cli(cli, self.enumerate_argv(self.wl.main, cache))
                r.enumerate_out.append((self.wl.main, rc, out, err))
                r.census_s.append(sec)
        else:
            total = 0.0
            for job in self.wl.censuses:
                rc, out, err, sec = call_cli(cli, self.enumerate_argv(job, cache))
                r.enumerate_out.append((job, rc, out, err))
                total += sec
            r.census_s.append(total)

    def walk_step(self, r: Round, cache):
        from orbitctl import counting, maps, orbits, thermo

        main = self.wl.main
        start = time.perf_counter()
        try:
            spec = maps.load_map(str(self.map_paths[main.family]))
            db = orbits.load_db(r.cache_paths[main.family], spec)
            chi = thermo.maximal_entropy_alpha(db, main.n_max)
            delta = thermo.bowen_dimension(db, main.n_max).value
            thresholds = [math.exp(chi * n) for n in self.wl.walk_levels]
            report = counting.li_table(db, thresholds, delta, map_spec=spec)
            r.walk_s.append(time.perf_counter() - start)
            walk = orbits.multiplier_bounded_orbits(spec, db, max(thresholds))  # kept on db
            r.walks.append(([(row.threshold, row.count) for row in report.rows], walk, delta))
        except Exception as exc:  # the program failed this operation; it is counted
            r.walk_s.append(time.perf_counter() - start)
            r.walks.append(f"{type(exc).__name__}: {exc}")

    def queries_step(self, r: Round, cache):
        """The round's next share of the light queries, whole groups of five,
        so a weyl query stays with the count checked against it."""
        per = len(self.queries) // self.wl.schedule.count("queries")
        done = len(r.queries)
        common = ("--map", str(self.map_paths[self.wl.main.family]), "--cache-dir", str(cache))
        for q in self.queries[done:done + per]:
            rc, out, err, sec = call_cli(self.orbitctl.cli, q.argv[:1] + common + q.argv[1:])
            r.queries.append((q, rc, out, err))
            r.query_ms.append(1000.0 * sec)

    def operator_step(self, r: Round, cache):
        cli = self.orbitctl.cli
        main = self.wl.main
        map_path = str(self.map_paths[main.family])
        depth = str(self.wl.mesh_depth)
        dimension = ("dimension", "--map", map_path, "--cache-dir", str(cache),
                     "--route", "both", "--n", str(main.n_max), "--depth", depth)
        decay = ("decay", "--map", map_path, "--depth", depth, "--pairs", DECAY_PAIRS)
        rc_dim, dim_out, dim_err, dim_s = call_cli(cli, dimension)
        rc_dec, dec_out, dec_err, dec_s = call_cli(cli, decay)
        r.operator.append(((rc_dim, dim_out, dim_err), (rc_dec, dec_out, dec_err)))
        r.operator_s.append(dim_s + dec_s)

    # ---- checks, outside the timed part ----------------------------------------

    def check(self, rounds: list[Round]):
        """(attempted, failed, problems): every operation of every round, checked."""
        orbits = self.orbitctl.orbits
        attempted = failed = 0
        problems: list[str] = []
        # equal census files and equal walks are re-iterated once
        census_found: dict[tuple, dict] = {}
        walk_found: dict[tuple, list] = {}

        def charge(op: str, found: list[str]):
            nonlocal attempted, failed
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"{op}: {p}" for p in found[:3])

        for i, r in enumerate(rounds):
            # census: one operation per certified level
            for job, rc, out, err in r.enumerate_out:
                fam = FAMILIES[job.family]
                c = self.c[job.family]
                path = r.cache_paths[job.family]
                if rc != 0:
                    per_level = {n: [f"enumerate exit {rc}: {err.strip()}"] for n in range(1, job.n_max + 1)}
                else:
                    key = (job.family, path.read_bytes())
                    if key not in census_found:
                        found = checks.check_census_file(path, c, fam.degree, job.n_max, fam.attracting_period)
                        spec = self.orbitctl.maps.load_map(self.map_paths[job.family])
                        for n, p in checks.check_reload(path, orbits.load_db(path, spec)).items():
                            found.setdefault(n, []).extend(p)
                        census_found[key] = found
                    per_level = {n: list(p) for n, p in census_found[key].items()}
                    for n, p in checks.check_enumerate_csv(out, fam.degree, job.n_max, fam.attracting_period).items():
                        per_level.setdefault(n, []).extend(p)
                if self.wl.warm:
                    charge(f"round {i} warm read of {job.family}",
                           [p for ps in per_level.values() for p in ps])
                else:
                    for n in range(1, job.n_max + 1):
                        charge(f"round {i} {job.family} level {n}", per_level.get(n, []))

            main = self.wl.main
            fam = FAMILIES[main.family]
            c = self.c[main.family]
            for result in r.walks:
                if isinstance(result, str):
                    charge(f"round {i} walk", [result])
                    continue
                rows, walk, delta = result
                key = (tuple(rows), walk.periods.tobytes(), walk.representatives.tobytes(),
                       walk.log_abs.tobytes(), delta)
                if key not in walk_found:
                    _, _, records = checks.read_cache(r.cache_paths[main.family])
                    walk_found[key] = checks.check_walk(rows, walk, records, c, fam.degree, delta, fam.li_tol)
                charge(f"round {i} walk", walk_found[key])

            weyl_out = None   # output of the weyl query a count_window is checked against
            for q, rc, out, err in r.queries:
                if q.kind == "weyl":
                    weyl_out = out if rc == 0 else None
                if rc != 0:
                    charge(f"round {i} {q.kind}", [f"exit {rc}: {err.strip()}"])
                    continue
                d, p = fam.degree, fam.attracting_period
                if q.kind == "pressure":
                    found = checks.check_pressure(out, q.n, d, p)
                elif q.kind == "profile":
                    found = checks.check_profile(out, q.n, d, p)
                elif q.kind == "count_all":
                    found = checks.check_count_all(out, q.n_min, q.n, d, p)
                elif q.kind == "weyl":
                    found = []
                elif weyl_out is None:  # its weyl query failed and was charged already
                    found = [] if checks.count_of(out) >= 0 else ["count printed no single row"]
                else:  # count_window follows its weyl query
                    found = checks.check_weyl(weyl_out, checks.count_of(out))
                charge(f"round {i} {q.kind} n={q.n}", found)

            for (rc_dim, dim_out, dim_err), (rc_dec, dec_out, dec_err) in r.operator:
                charge(f"round {i} dimension",
                       checks.check_dimension(dim_out) if rc_dim == 0 else [f"exit {rc_dim}: {dim_err.strip()}"])
                charge(f"round {i} decay",
                       checks.check_decay(dec_out, fam.twisted_rate_max) if rc_dec == 0
                       else [f"exit {rc_dec}: {dec_err.strip()}"])
        return attempted, failed, problems


def pooled(rounds, name) -> list[float]:
    """Every sample of one timing over the given rounds."""
    return [v for r in rounds for v in getattr(r, name)]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    program = import_program()
    wl = WORKLOADS[args.workload]
    workdir = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    bench = Bench(program, wl, args.seed, workdir)
    tracer = layertrace.Tracer() if args.trace else None
    try:
        setup_s = statistics.median(bench.setup() for _ in range(wl.setup_reps))
        rounds: list[Round] = []
        start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                rounds.append(bench.run_round(len(rounds), tracer))
        finally:
            if tracer:
                tracer.remove()
        peak_rss_mib = _peak_rss_mib()
        attempted, failed, problems = bench.check(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer, rounds)
        write_trace(tracer, metrics, wl.name, args.seed)
    else:
        # Means, not medians: the host switches between a fast and a slow
        # state every few seconds, so a run's samples are a mix of two modes.
        # The median jumps from one mode to the other as the mix shifts
        # across one half; the mean moves only in proportion (README).
        queries = pooled(rounds, "query_ms")
        values = {
            "setup_s": setup_s,
            "census_s": statistics.fmean(pooled(rounds, "census_s")),
            "walk_s": statistics.fmean(pooled(rounds, "walk_s")),
            "query_mean_ms": statistics.fmean(queries),
            "query_p95_ms": percentile(queries, 0.95),
            "operator_s": statistics.fmean(pooled(rounds, "operator_s")),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    info = {
        "workload": wl.name, "seed": args.seed, "rounds": len(rounds),
        "traced": bool(args.trace),
        "light_queries": sum(len(r.query_ms) for r in rounds),
        "medians": {name: statistics.median(pooled(rounds, name))
                    for name in ("census_s", "walk_s", "query_ms", "operator_s")},
        "c": {k: [v.real, v.imag] for k, v in bench.c.items()},
        "threads": _thread_count(), "blas_threads": THREADS,
        "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__,
        "problems": problems[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, rounds):
    per = 1.0 / len(rounds)
    selfs = layertrace.self_times(tracer.spans)
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = {"value": selfs.get(name, (0.0, 0))[0] * per, "unit": "s"}
    for name in CALLS:
        out[f"{name}.calls"] = {"value": selfs.get(name, (0.0, 0))[1] * per, "unit": "count"}
    for name in WORK_COUNTS:
        out[name] = {"value": tracer.counts.get(name, 0.0) * per, "unit": "count"}
    nodes = tracer.counts.get("orbits.walk.nodes", 0.0)
    out["orbits.walk.cycles_per_node"] = {
        "value": tracer.counts.get("orbits.walk.cycles", 0.0) / nodes if nodes else 0.0, "unit": "ratio"}
    # a traced minus an untraced round is dominated by the host's drift, so
    # the overhead is the wrappers' own cost per call times the calls made
    per_call = layertrace.wrapper_cost()
    calls = layertrace.calls_per_root(tracer.spans)
    for name, phase in OVERHEAD.items():
        out[f"trace_overhead.{name}"] = {"value": per_call * calls.get(phase, 0) * per, "unit": "s"}
    return out


def write_trace(tracer, metrics, workload, seed):
    """Spans as JSON Lines, after a first line with the per-layer metrics."""
    OUT.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "metrics": metrics}) + "\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps([i, name, start - t0, end - t0, parent]) + "\n")


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


if __name__ == "__main__":
    sys.exit(main())
