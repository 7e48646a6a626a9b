"""Output checks made apart from the program.

Nothing here calls orbitctl; check_reload is handed the program's reload
of a cache file to compare with the file.  The census counts come from a
Moebius function of our own, the cache is parsed as plain JSON Lines, and
every cycle is re-iterated at 31 digits (fixed point on Python integers,
with mpmath for the Newton step, the logarithm and the argument).  Each
check returns a list of problems (empty when the output is right), so the
caller can charge them to the operation that produced the output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath

MP_DPS = 30
FIX_BITS = 104          # fractional bits of the fixed-point re-iteration
# A stored point must lie within the program's pairing tolerance of a true
# period-n point.  The distance is the Newton step |f^n(z) - z| / |(f^n)'(z) - 1|;
# the raw residual would also scale with the multiplier.
POINT_TOL = 1e-9        # Newton step / (1 + |z|)
PERIOD_SEP = 1e-7       # |f^m(z) - z| / (1 + |z|) must exceed this for m | n, m < n
MULT_TOL = 1e-7         # stored log|lambda| and holonomy against the re-iterated values
KEY_BITS = 27           # cycle keys round orbit points to 2^-27, about 7e-9
DIMENSION_GAP_TOL = 1e-2    # criterion 4
UNTWISTED_RATE_TOL = 1e-6   # criterion 8: rate(0, 0) = 1
TWISTED_RATE_MAX = 0.99     # criterion 8, basilica family only


def divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def mobius(n: int) -> int:
    """Moebius function by trial division."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def necklace(d: int, n: int) -> int:
    """Primitive period-n cycles of a degree-d polynomial: (1/n) sum mu(n/m) d^m."""
    total = sum(mobius(n // m) * d**m for m in divisors(n))
    if total % n:
        raise ArithmeticError(f"necklace sum {total} not divisible by {n}")
    return total // n


def repelling_cycles(d: int, n: int, attracting_period: int) -> int:
    """Primitive repelling period-n cycles when one cycle, of the given period, attracts."""
    return necklace(d, n) - (1 if n == attracting_period else 0)


def repelling_points(d: int, n: int, attracting_period: int) -> int:
    """Repelling fixed points of f^n: d^n less the attracting cycle's points."""
    return d**n - (attracting_period if n % attracting_period == 0 else 0)


# ---- high-precision re-iteration -------------------------------------------------

def _wrap(theta: float) -> float:
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def _fixed(x) -> int:
    return int(mpmath.ldexp(mpmath.mpf(x), FIX_BITS))


def _unfixed(re: int, im: int):
    return mpmath.mpc(mpmath.ldexp(re, -FIX_BITS), mpmath.ldexp(im, -FIX_BITS))


def _iterate(c, d: int, z, n: int, proper=()):
    """(f^n(z), (f^n)'(z), min |f^m(z) - z| over m in proper, cycle key) for f(z) = z^d + c.

    The loop runs in binary fixed point on Python integers (FIX_BITS
    fractional bits, about 31 digits), which is exact apart from one
    truncation per product and several times faster than mpmath objects;
    inputs and outputs are mpmath numbers.  The cycle key is the least
    orbit point f^k(z), k = 1..n, by (re, im), each rounded to KEY_BITS
    bits: the same for every point of one cycle, so a cycle stored twice
    shows as a repeated key.  Rounding before the comparison keeps the
    choice stable between conjugate points with equal real parts.
    """
    shift = FIX_BITS - KEY_BITS
    half = 1 << (shift - 1)
    cr, ci = _fixed(c.real), _fixed(c.imag)
    zr, zi = _fixed(z.real), _fixed(z.imag)
    wr, wi = zr, zi
    dr, di = 1 << FIX_BITS, 0
    nearest = math.inf
    key = None
    for k in range(1, n + 1):
        pr, pi = wr, wi                      # w^(d-1)
        for _ in range(d - 2):
            pr, pi = (pr * wr - pi * wi) >> FIX_BITS, (pr * wi + pi * wr) >> FIX_BITS
        dr, di = d * ((dr * pr - di * pi) >> FIX_BITS), d * ((dr * pi + di * pr) >> FIX_BITS)
        wr, wi = ((pr * wr - pi * wi) >> FIX_BITS) + cr, ((pr * wi + pi * wr) >> FIX_BITS) + ci
        if k in proper:
            nearest = min(nearest, math.hypot(wr - zr, wi - zi) / 2.0**FIX_BITS)
        point = ((wr + half) >> shift, (wi + half) >> shift)
        if key is None or point < key:
            key = point
    return _unfixed(wr, wi), _unfixed(dr, di), nearest, key


def reiterate(c: complex, d: int, z: complex, n: int):
    """Re-iterate f(z) = z^d + c from a stored period-n point at 31 digits.

    Returns (Newton step from z to the period-n point, nearest return
    f^m(z) for m | n, m < n, log|(f^n)'| and arg (f^n)' at the point,
    cycle key), the step and the returns relative to 1 + |z|.  The
    multiplier and the key are read after that one Newton step: a
    double-precision point can sit 1e-10 off the cycle, and near the
    critical point that moves log|(f^n)'| by 1e-6.
    """
    mpmath.mp.dps = MP_DPS
    z0 = mpmath.mpc(z.real, z.imag)
    scale = 1.0 + abs(z)
    w, deriv, _, _ = _iterate(c, d, z0, n)
    step = (w - z0) / (deriv - 1)
    z1 = z0 - step
    proper = set(divisors(n)[:-1])
    _, deriv, nearest, key = _iterate(c, d, z1, n, proper)
    nearest /= scale
    if deriv == 0:
        return float(abs(step)) / scale, nearest, -math.inf, 0.0, key
    return (float(abs(step)) / scale, nearest, float(mpmath.log(abs(deriv))),
            float(mpmath.arg(deriv)), key)


def check_cycle(c, d, n, z, log_abs=None, theta=None):
    """(problems, re-iterated log|lambda|, cycle key) for one stored period-n cycle point."""
    step, nearest, mp_log_abs, mp_theta, key = reiterate(c, d, z, n)
    out = []
    if step > POINT_TOL:
        out.append(f"period-{n} point {z:.6g} lies {step:.2e} from the period-{n} point")
    if nearest <= PERIOD_SEP:
        out.append(f"period-{n} point {z:.6g} returns before n (least period is smaller)")
    if log_abs is not None and abs(mp_log_abs - log_abs) > MULT_TOL * max(1.0, abs(log_abs)):
        out.append(f"period-{n} point {z:.6g}: log|lambda| {log_abs!r} vs re-iterated {mp_log_abs!r}")
    if theta is not None and math.isfinite(mp_log_abs) and abs(_wrap(mp_theta - theta)) > MULT_TOL:
        out.append(f"period-{n} point {z:.6g}: holonomy {theta!r} vs re-iterated {mp_theta!r}")
    return out, mp_log_abs, key


def repeated_cycles(cycles) -> list[str]:
    """Problems for cycles stored more than once; cycles: (period, point, cycle key)."""
    first: dict[tuple, complex] = {}
    out = []
    for n, z, key in cycles:
        if (n, key) in first:
            out.append(f"period-{n} point {z:.6g} is the cycle of {first[n, key]:.6g} stored again")
        else:
            first[n, key] = z
    return out


# ---- census cache --------------------------------------------------------------

def read_cache(path: str):
    """(header, {period: meta}, [orbit records]) from a census JSON Lines file."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    header, meta, records = lines[0], {}, []
    for rec in lines[1:]:
        if "period" in rec:
            meta[int(rec["period"])] = rec
        else:
            records.append(rec)
    return header, meta, records


def check_census_file(path, c, d, n_max, attracting_period) -> dict[int, list[str]]:
    """Problems per period level of a saved census of z^d + c."""
    _, meta, records = read_cache(path)
    by_level: dict[int, list[dict]] = {}
    for rec in records:
        by_level.setdefault(int(rec["n"]), []).append(rec)
    problems: dict[int, list[str]] = {}
    for n in range(1, n_max + 1):
        out = []
        if not meta.get(n, {}).get("complete"):
            out.append(f"period {n} not marked complete")
        recs = by_level.get(n, [])
        rep = [r for r in recs if r["repelling"]]
        non = [r for r in recs if not r["repelling"]]
        want = repelling_cycles(d, n, attracting_period)
        if len(rep) != want:
            out.append(f"period {n}: {len(rep)} repelling cycles, necklace count gives {want}")
        want_non = 1 if n == attracting_period else 0
        if len(non) != want_non:
            out.append(f"period {n}: {len(non)} non-repelling cycles, expected {want_non}")
        cycles = []
        for r in recs:
            z = complex(r["z"][0], r["z"][1])
            theta = r["theta"] if r["log_abs"] is not None else None
            found, _, key = check_cycle(c, d, n, z, r["log_abs"], theta)
            out += found
            cycles.append((n, z, key))
            if r["repelling"] != (r["log_abs"] is not None and r["log_abs"] > 0):
                out.append(f"period-{n} point {z:.6g}: repelling flag disagrees with log|lambda|")
        out += repeated_cycles(cycles)
        if out:
            problems[n] = out
    return problems


def check_reload(path, db) -> dict[int, list[str]]:
    """The program's reload of the cache must hold exactly the records on disk."""
    _, meta, records = read_cache(path)
    by_level: dict[int, set] = {}
    for r in records:
        key = (r["z"][0], r["z"][1], r["log_abs"], r["theta"], r["repelling"])
        by_level.setdefault(int(r["n"]), set()).add(key)
    problems: dict[int, list[str]] = {}
    for n in set(meta) | set(db.entries) | set(by_level):
        ent = db.entries.get(n)
        got = set()
        if ent is not None:
            for o in ent.orbits + ent.nonrepelling:
                la = None if math.isinf(o.log_abs_multiplier) else o.log_abs_multiplier
                got.add((o.representative.real, o.representative.imag, la, o.holonomy_angle, o.repelling))
        if got != by_level.get(n, set()) or bool(ent and ent.complete) != bool(meta.get(n, {}).get("complete")):
            problems[n] = [f"period {n}: reloaded entries differ from the cache file"]
    return problems


def check_enumerate_csv(text, d, n_max, attracting_period) -> dict[int, list[str]]:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems: dict[int, list[str]] = {}
    seen = set()
    for row in rows:
        n = int(row["n"])
        seen.add(n)
        out = []
        if int(row["primitive_repelling"]) != repelling_cycles(d, n, attracting_period):
            out.append(f"enumerate reports {row['primitive_repelling']} repelling cycles at n = {n}")
        if int(row["level_total"]) != d**n or int(row["expected"]) != d**n:
            out.append(f"enumerate reports level total {row['level_total']} at n = {n}")
        if out:
            problems[n] = out
    for n in range(1, n_max + 1):
        if n not in seen:
            problems.setdefault(n, []).append(f"enumerate printed no row for n = {n}")
    return problems


# ---- light queries -------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_pressure(text, n, d, attracting_period) -> list[str]:
    want = math.log(repelling_points(d, n, attracting_period)) / n
    rows = [r for r in parse_csv(text) if float(r["t"]) == 0.0]
    if len(rows) != 1:
        return ["pressure printed no t = 0 row"]
    q = float(rows[0]["q"])
    return [] if abs(q - want) <= 1e-9 else [f"pressure q(0) = {q!r} at n = {n}, expected {want!r}"]


def check_profile(text, n, d, attracting_period) -> list[str]:
    want = math.log(repelling_points(d, n, attracting_period)) / n
    rows = parse_csv(text)
    if len(rows) != 1:
        return ["profile --maxent printed no single row"]
    xi, h = float(rows[0]["xi"]), float(rows[0]["H"])
    out = []
    if abs(xi) > 1e-9:
        out.append(f"profile --maxent xi = {xi!r} at n = {n}")
    if abs(h - want) > 1e-9:
        out.append(f"profile --maxent H = {h!r} at n = {n}, expected {want!r}")
    return out


def check_count_all(text, n_min, n_max, d, attracting_period) -> list[str]:
    rows = parse_csv(text)
    got = {int(r["n"]): int(r["count"]) for r in rows}
    out = []
    for n in range(n_min, n_max + 1):
        want = repelling_cycles(d, n, attracting_period)
        if got.get(n) != want:
            out.append(f"count over every orbit at n = {n}: {got.get(n)} vs necklace {want}")
    return out


def count_of(text) -> int:
    rows = parse_csv(text)
    return int(rows[0]["count"]) if len(rows) == 1 else -1


def check_weyl(text, window_count: int) -> list[str]:
    rows = parse_csv(text)
    if not rows:
        return [] if window_count == 0 else [f"weyl is empty, the window count is {window_count}"]
    out = []
    sizes = {int(r["sample_size"]) for r in rows}
    if sizes != {window_count}:
        out.append(f"weyl sample size {sorted(sizes)} vs window count {window_count}")
    worst = max(float(r["magnitude"]) for r in rows)
    if worst > 1.0 + 1e-12:
        out.append(f"weyl magnitude {worst!r} exceeds 1")
    return out


# ---- walk ------------------------------------------------------------------------

def li(x: float) -> float:
    """Li(x) = integral from 2 to x of du / log u, in mpmath."""
    mpmath.mp.dps = MP_DPS
    return float(mpmath.li(x, offset=True))


def check_walk(rows, walk, census_records, c, d, delta, li_tol) -> list[str]:
    """rows: (threshold, count) from li_table; walk: the certified walk at the top threshold."""
    out = []
    counts = [cnt for _, cnt in rows]
    if any(b < a for a, b in zip(counts, counts[1:])):
        out.append(f"walk counts decrease as T grows: {counts}")
    periods = [int(p) for p in walk.periods]
    reps = [complex(z) for z in walk.representatives]
    logs = [float(v) for v in walk.log_abs]
    mp_logs, cycles = [], []
    for m, z, la in zip(periods, reps, logs):
        problems, mp_log, key = check_cycle(c, d, m, z, la)
        out += problems
        mp_logs.append(mp_log)
        cycles.append((m, z, key))
    out += repeated_cycles(cycles)
    top_log = math.log(rows[-1][0])
    if any(v >= top_log for v in mp_logs):
        out.append("walk holds a cycle whose multiplier reaches the top threshold")
    for t, cnt in rows:
        got = sum(1 for v in mp_logs if v < math.log(t))
        if got != cnt:
            out.append(f"T = {t:.6g}: li_table counts {cnt}, the walk's cycles give {got}")
        ratio = cnt / li(t**delta)
        if abs(ratio - 1.0) > li_tol:
            out.append(f"T = {t:.6g}: count / Li(T^delta) = {ratio:.4f}, outside 1 +/- {li_tol}")
    # below the census depth the walk must reproduce the census exactly
    depth = max((int(r["n"]) for r in census_records), default=0)
    for m in range(1, depth + 1):
        want = sum(1 for r in census_records if int(r["n"]) == m and r["repelling"]
                   and r["log_abs"] < top_log)
        got = sum(1 for p in periods if p == m)
        if got != want:
            out.append(f"walk finds {got} period-{m} cycles below T, the census has {want}")
    return out


# ---- operator --------------------------------------------------------------------

def check_dimension(text) -> list[str]:
    recs = json.loads(text)
    by_method = {r["method"]: r["value"] for r in recs}
    if not {"orbit-sum", "transfer-op"} <= set(by_method):
        return ["dimension --route both printed no value for one route"]
    gap = abs(by_method["orbit-sum"] - by_method["transfer-op"])
    if gap > DIMENSION_GAP_TOL:
        return [f"orbit and operator dimensions differ by {gap:.3e}"]
    return []


def check_decay(text, twisted_max: float) -> list[str]:
    out = []
    for r in parse_csv(text):
        b, k, rate = float(r["b"]), int(r["k"]), float(r["rate"])
        if b == 0.0 and k == 0:
            if abs(rate - 1.0) > UNTWISTED_RATE_TOL:
                out.append(f"untwisted rate {rate!r} is not 1")
        elif not rate < twisted_max:
            out.append(f"twisted rate({b:g},{k}) = {rate!r}, not below {twisted_max}")
    return out
