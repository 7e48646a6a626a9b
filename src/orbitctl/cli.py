"""Command-line front end.

Every subcommand loads a map from a JSON file, pulls or builds the orbit
census (cached per map fingerprint as JSON Lines), runs one computation,
and emits CSV on stdout or to --out.  Errors surface as a single JSON
record on stderr and a process exit code: 2 for configuration problems,
3 for mathematical domain failures, 4 for census integrity failures,
1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import counting, maps, orbits, thermo, transfer
from .errors import ConfigError, OrbitctlError
from .maps import RationalMapSpec

DEFAULT_BUDGET = 2**17

CONFIG_KEYS = {
    "map": str,
    "cache_dir": str,
    "budget": int,
    "n_min": int,
    "n_max": int,
    "method": str,
    "override_hyperbolicity": bool,
}


def parse_config(data, path_prefix: str = "") -> dict:
    """Validate a config mapping; unknown keys fail with their full path."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    out = {}
    for key, value in data.items():
        full = f"{path_prefix}{key}"
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{full}'")
        want = CONFIG_KEYS[key]
        if want is int and isinstance(value, bool):
            raise ConfigError(f"config key '{full}' must be {want.__name__}")
        if not isinstance(value, want):
            raise ConfigError(f"config key '{full}' must be {want.__name__}")
        out[key] = value
    if out.get("method", "auto") not in orbits.METHODS:
        raise ConfigError(f"config key '{path_prefix}method' must be one of {', '.join(orbits.METHODS)}")
    n_min, n_max = out.get("n_min"), out.get("n_max")
    if n_min is not None and n_min < 1:
        raise ConfigError("n_min must be >= 1")
    if n_min is not None and n_max is not None and n_min > n_max:
        raise ConfigError(f"n_min = {n_min} exceeds n_max = {n_max}")
    return out


def _cache_dir(explicit: str | None) -> str:
    env = os.environ.get("ORBITCTL_CACHE")
    return explicit or env or ".orbitctl-cache"


def _cache_path(cache_dir: str, map_spec: RationalMapSpec) -> str:
    return os.path.join(cache_dir, f"{map_spec.fingerprint}.jsonl")


class _CacheLock:
    """Advisory lock file next to the cache; stale locks are a config error."""

    def __init__(self, path: str):
        self.path = path + ".lock"
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"cache lock {self.path} is held; remove it if no other run is active"
            ) from None
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def _check_budget(map_spec: RationalMapSpec, exponent: int, name: str, budget: int) -> None:
    """ConfigError when d^exponent, the work of a census through that period
    or of a mesh of that depth, exceeds the budget."""
    # d^e >= 2^e > budget from e = budget.bit_length() on, without forming d^e
    if exponent >= budget.bit_length() or map_spec.degree**exponent > budget:
        raise ConfigError(
            f"d^{name} = {map_spec.degree}^{exponent} exceeds the work budget {budget}; "
            "raise --budget explicitly to go deeper"
        )


def load_or_build_db(
    map_spec: RationalMapSpec,
    n_max: int,
    cache_dir: str,
    method: str = "auto",
    override_hyperbolicity: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> orbits.OrbitDatabase:
    """Census through period n_max, reusing any cached complete entries."""
    _check_budget(map_spec, n_max, "n_max", budget)
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, map_spec)
    if os.path.exists(path):
        db = orbits.load_db(path, map_spec)
    else:
        db = orbits.OrbitDatabase.for_map(map_spec)
    if db.max_complete_period() >= n_max:
        return db
    orbits.enumerate_primitive(
        map_spec, n_max, db, method=method, override_hyperbolicity=override_hyperbolicity
    )
    with _CacheLock(path):
        if os.path.exists(path):
            # merge: never drop entries another run completed meanwhile
            prior = orbits.load_db(path, map_spec)
            for n, ent in prior.entries.items():
                if ent.complete and not (db.entries.get(n) and db.entries[n].complete):
                    db.entries[n] = ent
        orbits.save_db(db, path)
    return db


# ---- output helpers --------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(header: list[str], rows: list[list], out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, finite: bool = True) -> list[float]:
    """The numbers of a comma list, each finite (or, unless finite, not nan)."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list '{text}': {exc}") from None
    if any(math.isnan(v) for v in vals):
        raise ConfigError(f"bad numeric list '{text}': nan")
    if finite and any(math.isinf(v) for v in vals):
        raise ConfigError(f"bad numeric list '{text}': not finite")
    return vals


def _parse_interval(text: str) -> tuple[float, float]:
    vals = _parse_floats(text, finite=False)
    if len(vals) != 2 or not -math.inf < vals[0] < vals[1] < math.inf:
        raise ConfigError(f"--interval needs two finite numbers a < b, got '{text}'")
    return vals[0], vals[1]


def _check_options(args):
    """Options that count periods, levels or harmonics must be at least 1,
    and every number option (--delta, --alpha, --xi, ...) finite."""
    for name in ("n", "n_min", "n_max", "profile_n", "k_max"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _resolve_alpha(args, db) -> float:
    if getattr(args, "maxent", False):
        return thermo.maximal_entropy_alpha(db, args.profile_n)
    if args.alpha is None:
        raise ConfigError("pass --alpha or --maxent")
    return args.alpha


# ---- subcommands -----------------------------------------------------------

def cmd_enumerate(args) -> int:
    map_spec = maps.load_map(args.map)
    db = load_or_build_db(
        map_spec, args.n_max, _cache_dir(args.cache_dir),
        method=args.method, override_hyperbolicity=args.override_hyperbolicity,
        budget=args.budget,
    )
    rows = []
    for n in range(1, args.n_max + 1):
        ent = db.level(n)
        rep, nonrep, expected = orbits.census_counts(map_spec, db, n)
        rows.append([n, ent.z.size, len(ent.nonrepelling), rep + nonrep, expected, ent.method])
    write_csv(
        ["n", "primitive_repelling", "primitive_nonrepelling", "level_total", "expected", "method"],
        rows, args.out,
    )
    return 0


def cmd_pressure(args) -> int:
    map_spec = maps.load_map(args.map)
    t_values = _parse_floats(args.t_values)
    db = load_or_build_db(map_spec, args.n, _cache_dir(args.cache_dir), budget=args.budget)
    curve = thermo.pressure_curve(db, args.n, t_values, alpha=args.alpha, variant=args.variant)
    rows = [
        [float(t), float(q), float(q1), float(q2), curve.n_used]
        for t, q, q1, q2 in zip(curve.t, curve.q, curve.q1, curve.q2)
    ]
    write_csv(["t", "q", "q1", "q2", "n_used"], rows, args.out)
    return 0


def cmd_profile(args) -> int:
    if not (args.maxent or args.alpha):
        raise ConfigError("pass --alpha (repeatable) or --maxent")
    alphas = [] if args.maxent else [v for a in args.alpha for v in _parse_floats(a)]
    map_spec = maps.load_map(args.map)
    db = load_or_build_db(map_spec, args.n, _cache_dir(args.cache_dir), budget=args.budget)
    if args.maxent:
        alphas = [thermo.maximal_entropy_alpha(db, args.n)]
    rows = []
    for alpha in alphas:
        prof = thermo.thermo_profile(db, alpha, args.n)
        rows.append([prof.alpha, prof.xi, prof.sigma2, prof.entropy, prof.residual, prof.n_used])
    write_csv(["alpha", "xi", "sigma2", "H", "residual", "n_used"], rows, args.out)
    return 0


def cmd_dimension(args) -> int:
    map_spec = maps.load_map(args.map)
    if args.route in ("transfer", "both"):
        _check_budget(map_spec, args.depth, "depth", args.budget)
    results = []
    if args.route in ("orbit", "both"):
        db = load_or_build_db(map_spec, args.n, _cache_dir(args.cache_dir), budget=args.budget)
        results.append(thermo.bowen_dimension(db, args.n))
    if args.route in ("transfer", "both"):
        mesh = transfer.build_mesh(map_spec, args.depth)
        results.append(transfer.dimension_from_mesh(mesh))
    payload = [
        {
            "value": r.value,
            "residual": r.residual,
            "iterations": r.iterations,
            "n_used": r.n_used,
            "method": r.method,
        }
        for r in results
    ]
    if len(payload) == 2:
        payload.append(
            {"method": "gap", "value": abs(results[0].value - results[1].value)}
        )
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    if args.length_power is None and args.interval is None:
        raise ConfigError("pass --interval a,b or a shrinking --length-power")
    interval = None if args.length_power is not None else _parse_interval(args.interval)
    if args.length_power is not None and not args.length_scale > 0:
        raise ConfigError(f"--length-scale must be > 0, got {args.length_scale}")
    map_spec = maps.load_map(args.map)
    db = load_or_build_db(map_spec, args.n_max, _cache_dir(args.cache_dir), budget=args.budget)
    alpha = _resolve_alpha(args, db)
    prof = thermo.thermo_profile(db, alpha, args.profile_n)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        if args.length_power is not None:
            length = args.length_scale * n ** (-args.length_power)
            interval = (args.center - length / 2.0, args.center + length / 2.0)
        query = counting.CountQuery(
            n=n, alpha=alpha, interval=interval,
            arc_center=args.arc_center, arc_width=args.arc_width,
        )
        sharp = counting.count_orbits(db, query)
        pred = counting.predicted_count(prof, query)
        ratio = sharp / pred if pred > 0 else None
        rows.append(
            [
                n, sharp, pred, ratio, alpha, prof.xi, prof.sigma2, prof.entropy,
                interval[0], interval[1], args.arc_center, args.arc_width,
            ]
        )
    write_csv(
        [
            "n", "count", "prediction", "ratio", "alpha", "xi", "sigma2", "H",
            "interval_a", "interval_b", "arc_center", "arc_width",
        ],
        rows, args.out,
    )
    return 0


def cmd_weyl(args) -> int:
    interval = None if args.interval is None else _parse_interval(args.interval)
    map_spec = maps.load_map(args.map)
    db = load_or_build_db(map_spec, args.n, _cache_dir(args.cache_dir), budget=args.budget)
    alpha = None
    if interval is not None:
        if args.profile_n is None:
            args.profile_n = args.n
        alpha = _resolve_alpha(args, db)
    report = counting.weyl_sums(db, args.n, range(1, args.k_max + 1), alpha, interval)
    rows = [
        [args.n, k, mag, report.sample_size]
        for k, mag in zip(report.k_values, report.magnitudes)
    ]
    write_csv(["n", "k", "magnitude", "sample_size"], rows, args.out)
    return 0


def cmd_owcount(args) -> int:
    thresholds = _parse_floats(args.thresholds)
    map_spec = maps.load_map(args.map)
    db = load_or_build_db(map_spec, args.n_max, _cache_dir(args.cache_dir), budget=args.budget)
    if args.delta is None:
        delta = thermo.bowen_dimension(db, args.n_max).value
    else:
        delta = args.delta
    report = counting.li_table(db, thresholds, delta, map_spec=map_spec)
    rows = [[r.threshold, r.count, r.li_value, r.ratio] for r in report.rows]
    write_csv(["threshold", "count", "li", "ratio"], rows, args.out)
    return 0


def cmd_decay(args) -> int:
    pairs = []
    for chunk in args.pairs.split(";"):
        vals = _parse_floats(chunk)
        if len(vals) != 2:
            raise ConfigError(f"bad frequency pair '{chunk}'; want 'b,k'")
        if not vals[1].is_integer():
            raise ConfigError(f"bad frequency pair '{chunk}'; the twist e^(i k theta) needs an integer k")
        pairs.append((vals[0], int(vals[1])))
    map_spec = maps.load_map(args.map)
    _check_budget(map_spec, args.depth, "depth", args.budget)
    mesh = transfer.build_mesh(map_spec, args.depth)
    normop = transfer.normalize(mesh, args.xi, args.alpha)
    rows = []
    for b, k in pairs:
        res = transfer.decay_probe(normop, b, k, n_steps=args.n_steps)
        rows.append([b, k, res.depth, res.n_steps, res.rate])
    write_csv(["b", "k", "depth", "n_steps", "rate"], rows, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.db is None:
        return _verify_suite(args)
    return _verify_db(args)


def _verify_suite(args) -> int:
    from . import acceptance

    if args.map:
        spec = maps.load_map(args.map)
        known = {m.fingerprint for m in acceptance.MAPS.values()}
        if spec.fingerprint not in known:
            raise ConfigError(
                "the verification suite runs on its own fixed maps; "
                f"map {args.map} (fingerprint {spec.fingerprint}) is not one of them"
            )
    wanted = None
    if args.criteria:
        try:
            wanted = {int(tok) for tok in args.criteria.split(",")}
        except ValueError:
            raise ConfigError(f"bad --criteria list '{args.criteria}'") from None
        known_ids = set(range(1, len(acceptance.CRITERIA) + 1))
        if not wanted <= known_ids:
            raise ConfigError(f"unknown criteria {sorted(wanted - known_ids)}")
    ctx = acceptance.AcceptanceContext()
    failures = 0
    for i, fn in enumerate(acceptance.CRITERIA, start=1):
        if wanted is not None and i not in wanted:
            continue
        res = fn(ctx)
        mark = "PASS" if res.passed else "FAIL"
        sys.stdout.write(
            f"[{mark}] criterion {res.cid}: {res.name} ({res.elapsed:.1f}s)\n"
            f"       {res.detail}\n"
        )
        sys.stdout.flush()
        failures += 0 if res.passed else 1
    sys.stdout.write(
        "all criteria passed\n" if failures == 0 else f"{failures} criteria failed\n"
    )
    return 0 if failures == 0 else 1


def _verify_db(args) -> int:
    map_spec = maps.load_map(args.map) if args.map else None
    db = orbits.load_db(args.db, map_spec)
    checks = {"entries": len(db.entries)}
    if map_spec is not None:
        checks.update(orbits.verify_census(map_spec, db))
    checks["ok"] = True
    sys.stdout.write(json.dumps(checks, sort_keys=True) + "\n")
    return 0


# ---- parser ----------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--map", default=None,
                     help="path to a map JSON file (or config key 'map')")
    sub.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sub.add_argument("--cache-dir", default=None, help="census cache directory")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="cap on d^n work per enumeration and d^depth per mesh")


@functools.cache  # parsing leaves it unchanged; building it costs a quarter of a cache hit
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitctl",
        description="periodic-orbit censuses, pressure curves, and multiplier counting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="build or extend the orbit census")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", default="auto", choices=orbits.METHODS)
    p.add_argument("--override-hyperbolicity", action="store_true")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("pressure", help="finite-level pressure curve")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--t-values", required=True, help="comma-separated tilts")
    p.add_argument("--variant", default="direct", choices=["direct", "ratio"])
    p.set_defaults(func=cmd_pressure)

    p = subs.add_parser("profile", help="tilt, variance, entropy at given alpha")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", action="append", default=None)
    p.add_argument("--maxent", action="store_true",
                   help="use the maximal-entropy alpha instead of --alpha")
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("dimension", help="dimension parameter by one or both routes")
    _add_common(p)
    p.add_argument("--route", default="orbit", choices=["orbit", "transfer", "both"])
    p.add_argument("--n", type=int, default=10, help="orbit-sum level")
    p.add_argument("--depth", type=int, default=10, help="collocation mesh depth")
    p.set_defaults(func=cmd_dimension)

    p = subs.add_parser("count", help="window counts against the local-limit prediction")
    _add_common(p)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--profile-n", type=int, required=True,
                   help="level used for the profile constants")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--maxent", action="store_true")
    p.add_argument("--interval", default=None, help="a,b on the centered axis")
    p.add_argument("--center", type=float, default=0.0,
                   help="window center for shrinking schedules")
    p.add_argument("--length-scale", type=float, default=1.0)
    p.add_argument("--length-power", type=float, default=None,
                   help="shrink lengths like scale * n^-power")
    p.add_argument("--arc-center", type=float, default=0.0)
    p.add_argument("--arc-width", type=float, default=1.0)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("weyl", help="holonomy character sums at one level")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--interval", default=None,
                   help="a,b filter on the centered multiplier axis")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--maxent", action="store_true")
    p.add_argument("--profile-n", type=int, default=None,
                   help="level used to resolve --maxent (defaults to --n)")
    p.set_defaults(func=cmd_weyl)

    p = subs.add_parser("owcount", help="multiplier-threshold counts against Li")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated thresholds")
    p.add_argument("--delta", type=float, default=None,
                   help="dimension exponent; computed from the census when omitted")
    p.set_defaults(func=cmd_owcount)

    p = subs.add_parser("decay", help="twisted-operator sup-norm decay rates")
    _add_common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--pairs", required=True, help="semicolon list of b,k pairs")
    p.add_argument("--n-steps", type=int, default=40)
    p.set_defaults(func=cmd_decay)

    p = subs.add_parser(
        "verify",
        help="run the acceptance suite (default) or integrity-check a stored census",
    )
    p.add_argument("--db", default=None,
                   help="census JSONL path; switches to the integrity recheck")
    p.add_argument("--map", default=None,
                   help="map JSON; with --db audits every stored cycle against the map")
    p.add_argument("--criteria", default=None,
                   help="comma list of criterion numbers to run (suite mode)")
    p.set_defaults(func=cmd_verify)
    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        cfg = parse_config(data)
        if "map" in cfg and args.map is None:
            args.map = cfg["map"]
        if "cache_dir" in cfg and args.cache_dir is None:
            args.cache_dir = cfg["cache_dir"]
        if "budget" in cfg and args.budget == DEFAULT_BUDGET:
            args.budget = cfg["budget"]
        if "n_max" in cfg and cfg["n_max"] < args.n_max:
            raise ConfigError(
                f"config n_max = {cfg['n_max']} below requested --n-max {args.n_max}"
            )
        if "method" in cfg and args.method == "auto":
            args.method = cfg["method"]
        if cfg.get("override_hyperbolicity"):
            args.override_hyperbolicity = True
    # verify runs its own fixed maps when --map is omitted; everything else
    # needs one from the flag or the config file
    if getattr(args, "map", None) is None and args.func is not cmd_verify:
        raise ConfigError("no map given; pass --map or a config with a 'map' key")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        _check_options(args)
        return args.func(args)
    except Exception as exc:  # anything but an OrbitctlError exits 1
        code = exc.exit_code if isinstance(exc, OrbitctlError) else 1
        record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
