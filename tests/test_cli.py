"""Command-line surface: config handling, CSV outputs, exit codes, caching."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from orbitctl import cli, orbits, transfer
from orbitctl.errors import ConfigError

LOG2 = math.log(2.0)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# ---- config parsing ----------------------------------------------------------

def test_parse_config_minimal():
    cfg = cli.parse_config({"n_max": 10, "method": "both"})
    assert cfg == {"n_max": 10, "method": "both"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
        cli.parse_config({"frobnicate": 1})


@pytest.mark.parametrize("method", ["roots", "frobnicate"])
def test_parse_config_rejects_unknown_method(method):
    with pytest.raises(ConfigError, match="'method' must be one of auto, backward, both"):
        cli.parse_config({"method": method})


def test_unknown_method_exits_2(capsys, tmp_path, square_file):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": square_file, "method": "roots"}))
    code, _, err = run(capsys, "enumerate", "--n-max", "3", "--config", str(cfg),
                       "--cache-dir", str(tmp_path / "c"))
    assert code == 2 and json.loads(err)["error"] == "ConfigError"
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--map", square_file, "--n-max", "3", "--method", "roots"])
    assert exc.value.code == 2


def test_parse_config_rejects_bad_range():
    with pytest.raises(ConfigError, match="exceeds"):
        cli.parse_config({"n_min": 5, "n_max": 3})


def test_parse_config_rejects_bad_types():
    with pytest.raises(ConfigError):
        cli.parse_config({"budget": "large"})
    with pytest.raises(ConfigError):
        cli.parse_config({"budget": True})
    with pytest.raises(ConfigError):
        cli.parse_config(["not", "a", "dict"])


# ---- enumerate ---------------------------------------------------------------

def test_enumerate_census_csv(capsys, tmp_path, square_file):
    code, out, err = run(
        capsys, "enumerate", "--map", square_file, "--n-max", "6",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0 and err == ""
    table = rows_of(out)
    assert table[0] == ["n", "primitive_repelling", "primitive_nonrepelling",
                        "level_total", "expected", "method"]
    assert len(table) == 7
    for row in table[1:]:
        n = int(row[0])
        assert int(row[3]) == int(row[4]) == 2**n


def test_enumerate_deterministic_output(capsys, tmp_path, basilica_file):
    args = ["enumerate", "--map", basilica_file, "--n-max", "6",
            "--cache-dir", str(tmp_path / "cache")]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_enumerate_cache_extends_not_shrinks(capsys, tmp_path, basilica_file):
    cache = tmp_path / "cache"
    argv = ["enumerate", "--map", basilica_file, "--cache-dir", str(cache)]
    assert cli.main(argv + ["--n-max", "6"]) == 0
    assert cli.main(argv + ["--n-max", "4"]) == 0
    capsys.readouterr()
    (cache_file,) = cache.glob("*.jsonl")
    db = orbits.load_db(cache_file)
    assert db.max_complete_period() >= 6


def test_enumerate_budget_guard(capsys, tmp_path, square_file):
    code, out, err = run(
        capsys, "enumerate", "--map", square_file, "--n-max", "18",
        "--budget", "1000", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2


def test_map_from_config_file(capsys, tmp_path, basilica_file):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"map": basilica_file, "cache_dir": str(tmp_path / "c")}))
    code, out, err = run(capsys, "enumerate", "--n-max", "4", "--config", str(cfg))
    assert code == 0
    assert len(rows_of(out)) == 5


def test_missing_map_is_config_error(capsys, tmp_path):
    code, out, err = run(capsys, "enumerate", "--n-max", "4",
                         "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert "no map given" in json.loads(err)["message"]


def test_cache_env_var(capsys, tmp_path, monkeypatch, square_file):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("ORBITCTL_CACHE", str(env_cache))
    code, _, _ = run(capsys, "enumerate", "--map", square_file, "--n-max", "4")
    assert code == 0
    assert list(env_cache.glob("*.jsonl"))


def test_stale_cache_lock_is_config_error(capsys, tmp_path, square_file):
    from orbitctl import maps

    cache = tmp_path / "cache"
    cache.mkdir()
    fp = maps.load_map(square_file).fingerprint
    (cache / f"{fp}.jsonl.lock").touch()
    code, _, err = run(capsys, "enumerate", "--map", square_file, "--n-max", "4",
                       "--cache-dir", str(cache))
    assert code == 2
    assert "lock" in json.loads(err)["message"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---- analysis subcommands ------------------------------------------------------

def test_pressure_csv(capsys, tmp_path, square_file):
    code, out, _ = run(
        capsys, "pressure", "--map", square_file, "--n", "8",
        "--t-values=-0.5,0,0.5", "--alpha", "0.25",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["t", "q", "q1", "q2", "n_used"]
    assert len(table) == 4
    q_mid = float(table[2][1])
    assert q_mid == pytest.approx(LOG2 + math.log(1 - 2.0**-8) / 8, abs=1e-12)


def test_profile_degenerate_exit_code(capsys, tmp_path, square_file):
    code, out, err = run(
        capsys, "profile", "--map", square_file, "--n", "8",
        "--alpha", str(LOG2), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "DegenerateError"
    assert record["exit_code"] == 3


def test_profile_maxent_csv(capsys, tmp_path, basilica_file):
    code, out, _ = run(
        capsys, "profile", "--map", basilica_file, "--n", "8", "--maxent",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["alpha", "xi", "sigma2", "H", "residual", "n_used"]
    assert abs(float(table[1][1])) < 1e-6  # xi vanishes at the maxent alpha


def test_profile_bad_alpha_is_config_error(capsys, tmp_path, basilica_file):
    code, _, err = run(
        capsys, "profile", "--map", basilica_file, "--n", "6",
        "--alpha", "not-a-number", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_parser_serves_every_call_without_carrying_flags(capsys, tmp_path, basilica_file):
    assert cli.build_parser() is cli.build_parser()
    argv = ("profile", "--map", basilica_file, "--n", "6", "--cache-dir", str(tmp_path / "cache"))
    code, out, _ = run(capsys, *argv, "--alpha", "0.6", "--alpha", "0.7")
    assert code == 0 and len(rows_of(out)) == 3
    code, out, _ = run(capsys, *argv, "--alpha", "0.6")
    assert code == 0 and len(rows_of(out)) == 2
    code, _, err = run(capsys, *argv)
    assert code == 2 and "--maxent" in json.loads(err)["message"]


def test_unexpected_error_exits_1(capsys, monkeypatch, tmp_path, square_file):
    def boom(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "load_or_build_db", boom)
    code, _, err = run(capsys, "enumerate", "--map", square_file, "--n-max", "3",
                       "--cache-dir", str(tmp_path / "cache"))
    assert code == 1
    assert json.loads(err) == {"error": "RuntimeError", "message": "disk on fire", "exit_code": 1}

def test_dimension_both_routes(capsys, tmp_path, square_file):
    code, out, _ = run(
        capsys, "dimension", "--map", square_file, "--route", "both",
        "--n", "8", "--depth", "8", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["method"] for p in payload] == ["orbit-sum", "transfer-op", "gap"]
    assert abs(payload[0]["value"] - 1.0) < 5e-3
    assert abs(payload[1]["value"] - 1.0) < 1e-6
    assert payload[2]["value"] < 5e-3


def test_count_csv_against_prediction(capsys, tmp_path, basilica_file):
    code, out, _ = run(
        capsys, "count", "--map", basilica_file, "--n-min", "6", "--n-max", "8",
        "--profile-n", "8", "--maxent", "--interval=-1,1",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert table[0][:4] == ["n", "count", "prediction", "ratio"]
    assert [int(r[0]) for r in table[1:]] == [6, 7, 8]
    for row in table[1:]:
        assert float(row[2]) > 0
        assert float(row[3]) == pytest.approx(int(row[1]) / float(row[2]), rel=1e-9)


def test_count_shrinking_schedule(capsys, tmp_path, basilica_file):
    code, out, _ = run(
        capsys, "count", "--map", basilica_file, "--n-min", "6", "--n-max", "8",
        "--profile-n", "8", "--maxent", "--length-power", "0.5",
        "--length-scale", "2.0", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    lengths = [float(r[9]) - float(r[8]) for r in table[1:]]
    assert lengths == sorted(lengths, reverse=True)


def test_count_needs_window(capsys, tmp_path, basilica_file):
    code, _, err = run(
        capsys, "count", "--map", basilica_file, "--n-min", "6", "--n-max", "8",
        "--profile-n", "8", "--maxent", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 2
    assert "interval" in json.loads(err)["message"]


def test_weyl_circle_csv(capsys, tmp_path, square_file):
    code, out, _ = run(
        capsys, "weyl", "--map", square_file, "--n", "6", "--k-max", "3",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["n", "k", "magnitude", "sample_size"]
    assert [int(r[1]) for r in table[1:]] == [1, 2, 3]
    for row in table[1:]:
        assert float(row[2]) == pytest.approx(1.0, abs=1e-12)


def test_weyl_filtered_smoke(capsys, tmp_path, basilica_file):
    code, out, _ = run(
        capsys, "weyl", "--map", basilica_file, "--n", "8", "--k-max", "2",
        "--interval=-1,1", "--maxent", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert len(table) == 3
    assert int(table[1][3]) > 0


def test_owcount_csv(capsys, tmp_path, square_file):
    code, out, _ = run(
        capsys, "owcount", "--map", square_file, "--n-max", "8",
        "--thresholds", "3,6,20", "--delta", "1.0",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["threshold", "count", "li", "ratio"]
    assert [int(r[1]) for r in table[1:]] == [1, 2, 7]


def test_decay_csv(capsys, tmp_path, basilica_file):
    code, out, _ = run(
        capsys, "decay", "--map", basilica_file, "--depth", "6",
        "--pairs", "2,0;0,1", "--n-steps", "6", "--alpha", "0.69",
    )
    assert code == 0
    table = rows_of(out)
    assert table[0] == ["b", "k", "depth", "n_steps", "rate"]
    assert len(table) == 3
    assert all(float(r[4]) <= 1.0 + 1e-9 for r in table[1:])


@pytest.mark.parametrize("xi", ["700", "1000"])
def test_decay_overflowing_tilt_exits_3(capsys, basilica_file, xi):
    code, out, err = run(
        capsys, "decay", "--map", basilica_file, "--depth", "8", "--pairs", "0,0", "--xi", xi,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "OverflowGuard"


@pytest.mark.parametrize("xi", ["-1000", "604"])
def test_decay_failure_prints_only_its_record(basilica_file, xi):
    # weights that underflow to 0 (0/0 in the Collatz-Wielandt ratios) or
    # whose image overflows (in the operator's sum) raise numpy warnings
    # inside the power iteration; a fresh interpreter shows what a user sees
    src = str(Path(orbits.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "orbitctl.cli", "decay", "--map", basilica_file, "--depth", "8",
         "--pairs", "0,0", "--xi", xi],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 3
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "NonConvergenceError"


def test_decay_parses_pairs_before_building_the_mesh(capsys, basilica_file, monkeypatch):
    def no_mesh(*args):
        raise AssertionError("decay built its mesh before reading --pairs")

    monkeypatch.setattr(transfer, "build_mesh", no_mesh)
    code, out, err = run(capsys, "decay", "--map", basilica_file, "--depth", "16", "--pairs", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--depth", "40", "--pairs", "0,0"],
        ["decay", "--depth", "18", "--pairs", "0,0"],
        ["decay", "--depth", "10", "--pairs", "0,0", "--budget", "1000"],
        ["dimension", "--route", "transfer", "--depth", "40"],
        ["dimension", "--route", "both", "--depth", "40"],
        ["dimension", "--route", "both", "--n", "4", "--depth", "11", "--budget", "2000"],
    ],
    ids=["decay-depth-40", "decay-depth-18", "decay-budget-1000", "dimension-transfer-depth-40",
         "dimension-both-depth-40", "dimension-both-budget-2000"],
)
def test_mesh_over_budget_exits_2_before_building(capsys, tmp_path, basilica_file, monkeypatch, argv):
    def refused(*args, **kwargs):
        raise AssertionError("a mesh or census was built past the work budget")

    monkeypatch.setattr(transfer, "build_mesh", refused)
    monkeypatch.setattr(cli, "load_or_build_db", refused)
    code, out, err = run(capsys, *argv, "--map", basilica_file, "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and "exceeds the work budget" in record["message"]


@pytest.mark.parametrize("depth", [12, 14, 16, 17])
def test_default_budget_admits_quadratic_meshes_through_depth_17(basilica, depth):
    cli._check_budget(basilica, depth, "depth", cli.DEFAULT_BUDGET)


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--depth", "6", "--pairs", "0,0", "--n-steps", "0"],
        ["decay", "--depth", "6", "--pairs", "0,0", "--n-steps", "1"],
        ["decay", "--depth", "6", "--pairs", "0,0", "--n-steps", "2"],
        ["decay", "--depth", "0", "--pairs", "0,0"],
        ["dimension", "--route", "transfer", "--depth", "0"],
    ],
    ids=["decay-n-steps-0", "decay-n-steps-1", "decay-n-steps-2", "decay-depth-0", "dimension-depth-0"],
)
def test_bad_mesh_arguments_exit_2(capsys, basilica_file, argv):
    code, out, err = run(capsys, *argv, "--map", basilica_file)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"


QUERY = ["--n-min", "2", "--n-max", "4", "--profile-n", "4", "--maxent"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pressure", "--n", "0", "--t-values", "1"], "--n must be >= 1"),
        (["pressure", "--n", "4", "--t-values=nan"], "bad numeric list 'nan'"),
        (["pressure", "--n", "4", "--t-values=0,nan,1"], "bad numeric list"),
        (["dimension", "--n", "0"], "--n must be >= 1"),
        (["profile", "--n", "0", "--maxent"], "--n must be >= 1"),
        (["count", *QUERY, "--interval=1,0"], "two finite numbers a < b"),
        (["count", *QUERY, "--interval=nan,1"], "bad numeric list"),
        (["count", *QUERY, "--interval=-inf,1"], "two finite numbers a < b"),
        (["count", *QUERY, "--interval=1"], "two finite numbers a < b"),
        (["count", "--n-min", "0", "--n-max", "4", "--profile-n", "4", "--maxent", "--interval=0,1"],
         "--n-min must be >= 1"),
        (["weyl", "--n", "4", "--k-max", "-2"], "--k-max must be >= 1"),
        (["weyl", "--n", "4", "--k-max", "0"], "--k-max must be >= 1"),
        (["weyl", "--n", "4", "--interval=1,0", "--maxent"], "two finite numbers a < b"),
        (["owcount", "--n-max", "4", "--thresholds", "nan"], "bad numeric list"),
        (["enumerate", "--n-max", "0"], "--n-max must be >= 1"),
        (["owcount", "--n-max", "8", "--delta", "nan", "--thresholds", "10"], "--delta must be finite"),
        (["owcount", "--n-max", "8", "--thresholds=10,inf"], "bad numeric list"),
        (["owcount", "--n-max", "8", "--delta", "0", "--thresholds", "10"], "--delta must lie in (0, 2]"),
        (["owcount", "--n-max", "8", "--delta", "-1", "--thresholds", "10"], "--delta must lie in (0, 2]"),
        (["owcount", "--n-max", "8", "--delta", "5", "--thresholds", "10"], "--delta must lie in (0, 2]"),
        (["pressure", "--n", "8", "--alpha", "nan", "--t-values", "0"], "--alpha must be finite"),
        (["pressure", "--n", "8", "--t-values=inf"], "bad numeric list"),
        (["profile", "--n", "8", "--alpha=0.5,-inf"], "bad numeric list"),
        (["count", *QUERY, "--interval=0,1", "--arc-width", "inf"], "--arc-width must be finite"),
        (["weyl", "--n", "4", "--alpha", "inf"], "--alpha must be finite"),
        (["decay", "--depth", "6", "--pairs", "1,inf"], "bad numeric list"),
        (["decay", "--depth", "6", "--pairs", "1,0", "--xi", "nan"], "--xi must be finite"),
        (["decay", "--depth", "6", "--pairs", "0,1.5"], "bad frequency pair '0,1.5'"),
        (["decay", "--depth", "6", "--pairs", "1,0;3,-0.5"], "bad frequency pair '3,-0.5'"),
        (["count", *QUERY, "--length-power", "0.5", "--length-scale", "-1"], "--length-scale must be > 0"),
    ],
    ids=["pressure-n-0", "pressure-t-nan", "pressure-t-list-nan", "dimension-n-0", "profile-n-0",
         "count-interval-reversed", "count-interval-nan", "count-interval-inf", "count-interval-one",
         "count-n-min-0", "weyl-k-max-negative", "weyl-k-max-0",
         "weyl-interval-reversed", "owcount-nan", "enumerate-n-max-0",
         "owcount-delta-nan", "owcount-thresholds-inf", "owcount-delta-0", "owcount-delta-negative",
         "owcount-delta-5", "pressure-alpha-nan", "pressure-t-inf",
         "profile-alpha-inf", "count-arc-width-inf", "weyl-alpha-inf", "decay-pairs-inf", "decay-xi-nan",
         "decay-k-fraction", "decay-k-negative-fraction",
         "count-length-scale-negative"],
)
def test_bad_query_arguments_exit_2(capsys, tmp_path, basilica_file, monkeypatch, argv, message):
    # refused as parsed, before any census is read or built
    def no_census(*args, **kwargs):
        raise AssertionError("a census was built before the arguments were checked")

    monkeypatch.setattr(cli, "load_or_build_db", no_census)
    code, out, err = run(capsys, *argv, "--map", basilica_file, "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and message in record["message"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"numerator": [-1, 0, 1]}', "map field 'numerator' must be a list of [re, im] pairs"),
        ("numerator: z^2 - 1", "is not valid JSON"),
        ('{"numerator": [[1, 0], [1, 0]]}', "map fields 'numerator' and 'denominator': degree 1 < 2"),
        ('{"denominator": [[1, 0]]}', "map field 'numerator' must be a list"),
        ('{"numerator": [[-1, 0], [0, 0], [1, 0]], "denominator": [[1, 0, 0]]}',
         "map field 'denominator' must be a list of [re, im] pairs"),
        ('{"numerator": [[-1, 0], [0, 0], [1, NaN]]}', "map field 'numerator' holds a non-finite coefficient"),
        ('{"numerator": [[0, 0]], "denominator": [[1, 0]]}', "numerator is identically zero"),
        ('[[-1, 0], [0, 0], [1, 0]]', "a map must be an object"),
        ('{"numerator": [["-1", 0], [0, 0], [1, 0]]}', "map field 'numerator' must be a list of [re, im] pairs"),
        ('{"numerator": [[-1, 0], [0, 0], [1, 0]], "denominator": [[-1, 0], [1, 0]]}', "share a root"),
    ],
    ids=["flat-numbers", "not-json", "degree-1", "no-numerator", "triple", "nan", "zero", "list", "string",
         "shared-root"],
)
def test_malformed_map_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run(capsys, "pressure", "--map", str(path), "--n", "4", "--t-values", "0",
                         "--cache-dir", str(tmp_path / "cache"))
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and message in record["message"]


@pytest.mark.parametrize("t", ["1e308", "-1e308"])
def test_overflowing_pressure_tilt_exits_3(capsys, tmp_path, basilica_file, t):
    argv = ("--map", basilica_file, "--cache-dir", str(tmp_path))
    assert run(capsys, "enumerate", *argv, "--n-max", "6")[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would exit 1
        code, out, err = run(capsys, "pressure", *argv, "--n", "6", f"--t-values=0,{t}")
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "OverflowGuard" and "overflows" in record["message"]


def test_bad_paths_exit_2(capsys, tmp_path, basilica_file):
    missing = tmp_path / "missing.jsonl"
    plain = tmp_path / "plain"
    plain.write_text("")
    for argv, path in (
        (["verify", "--db", str(missing)], missing),
        (["verify", "--db", str(tmp_path)], tmp_path),
        (["pressure", "--n", "4", "--t-values", "0", "--cache-dir", str(plain / "cache")], plain / "cache"),
        (["pressure", "--n", "4", "--t-values", "0", "--cache-dir", str(plain)], plain),
    ):
        code, out, err = run(capsys, *argv, "--map", basilica_file)
        assert (code, out) == (2, ""), argv
        (line,) = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError" and str(path) in record["message"], argv


def test_light_queries_decode_the_cache_once(capsys, tmp_path, basilica_file):
    argv = ("--map", basilica_file, "--cache-dir", str(tmp_path))
    assert run(capsys, "enumerate", *argv, "--n-max", "8")[0] == 0
    queries = [
        ("pressure", "--n", "8", "--t-values", "0,0.5,1"),
        ("profile", "--n", "8", "--maxent"),
        ("count", *QUERY, "--interval=-1,1"),
        ("weyl", "--n", "8", "--k-max", "3"),
    ] * 5
    cold = []
    for q in queries:
        orbits._parse_db.cache_clear()
        cold.append(run(capsys, *q, *argv))
    orbits._parse_db.cache_clear()
    warm = [run(capsys, *q, *argv) for q in queries]
    assert orbits._parse_db.cache_info().misses == 1
    assert warm == cold and all(code == 0 for code, _, _ in warm)


# ---- verify -------------------------------------------------------------------

def test_verify_db_roundtrip(capsys, tmp_path, basilica, basilica_file, basilica_db):
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    code, out, _ = run(capsys, "verify", "--db", str(path), "--map", basilica_file)
    assert code == 0
    checks = json.loads(out)
    assert checks["ok"] is True and checks["entries"] == len(basilica_db.entries)
    assert checks["worst_newton_step"] < orbits.STEP_TOL
    assert checks["worst_log_abs_drift"] < 1e-12 and checks["worst_theta_drift"] < 1e-12
    assert checks["closest_ring_points"] > orbits.STEP_TOL


def test_verify_db_version_mismatch_exit_4(capsys, tmp_path, basilica_db):
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 999
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    code, _, err = run(capsys, "verify", "--db", str(path))
    assert code == 4
    assert json.loads(err)["error"] == "VersionMismatchError"


def test_cache_failing_census_identity_exits_4(capsys, tmp_path, basilica_file):
    # period 9 stays marked complete after its records are deleted: the
    # census identity, checked on every load, refuses the cache
    cache = tmp_path / "cache"
    argv = ("--map", basilica_file, "--cache-dir", str(cache))
    assert run(capsys, "enumerate", *argv, "--n-max", "9")[0] == 0
    (path,) = cache.glob("*.jsonl")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if json.loads(line).get("n") != 9) + "\n")
    code, out, err = run(capsys, "pressure", *argv, "--n", "9", "--t-values", "0")
    assert (code, out) == (4, "")
    record = json.loads(err)
    assert record["error"] == "IncompleteCensusError"
    assert "n = 9" in record["message"]
    code, _, err = run(capsys, "verify", "--db", str(path), "--map", basilica_file)
    assert code == 4
    assert json.loads(err)["error"] == "IncompleteCensusError"


def _copy_of_another(rec, other):
    return other


def _moved_to_image(rec, other):
    z = complex(*rec["z"])
    return {**rec, "z": [(z * z - 1.0).real, (z * z - 1.0).imag]}  # the basilica's f(z)


def _moved_off_cycle(rec, other):
    return {**rec, "z": [rec["z"][0] + 1e-9, rec["z"][1]]}


def _multiplier_nudged(rec, other):
    return {**rec, "log_abs": rec["log_abs"] * (1.0 + 1e-9)}


def _corrupt_period_10(path, corrupt):
    """Replace the first period-10 record by corrupt(it, the last one)."""
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if json.loads(line).get("n") == 10]
    first, last = json.loads(lines[rows[0]]), json.loads(lines[rows[-1]])
    lines[rows[0]] = json.dumps(corrupt(first, last), sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt, message", [
    (_copy_of_another, "n = 10: 1 repelling records repeat a stored point"),
    (_moved_off_cycle, "period 10 fails the Newton step test: 1 of 99"),
    (_moved_to_image, "period 10 fails the least point test: 1 of 99"),
    (_multiplier_nudged, "period 10 fails the multiplier test: 1 of 99"),
], ids=["duplicated", "off-cycle", "rotated", "multiplier"])
def test_verify_db_refuses_corrupted_census(capsys, tmp_path, basilica_file, basilica_db,
                                            corrupt, message):
    # each cache keeps the census identity, so only the audit can refuse it
    path = tmp_path / "census.jsonl"
    orbits.save_db(basilica_db, path)
    _corrupt_period_10(path, corrupt)
    assert orbits.load_db(path).max_complete_period() == basilica_db.max_complete_period()
    code, out, err = run(capsys, "verify", "--db", str(path), "--map", basilica_file)
    assert (code, out) == (4, "")
    record = json.loads(err)
    assert record["error"] == "IncompleteCensusError"
    assert message in record["message"]


def test_cache_storing_a_cycle_twice_exits_4(capsys, tmp_path, basilica_file):
    # a period-10 cycle stored in place of another passes the census
    # identity, which counts records; loading with the map refuses it
    cache = tmp_path / "cache"
    argv = ("--map", basilica_file, "--cache-dir", str(cache))
    assert run(capsys, "enumerate", *argv, "--n-max", "10")[0] == 0
    (path,) = cache.glob("*.jsonl")
    _corrupt_period_10(path, _copy_of_another)
    code, out, err = run(capsys, "pressure", *argv, "--n", "10", "--t-values", "1")
    assert (code, out) == (4, "")
    assert "n = 10" in json.loads(err)["message"]


def test_verify_rejects_unknown_criteria(capsys):
    code, _, err = run(capsys, "verify", "--criteria", "99")
    assert code == 2
    assert "unknown criteria" in json.loads(err)["message"]


def test_verify_rejects_foreign_map(capsys, map_file):
    foreign = map_file("foreign", ((0.3, 0.0), (0.0, 0.0), (1.0, 0.0)))
    code, _, err = run(capsys, "verify", "--map", foreign)
    assert code == 2
    assert "fixed maps" in json.loads(err)["message"]


def test_verify_single_criterion_live(capsys):
    code, out, _ = run(capsys, "verify", "--criteria", "2")
    assert code == 0
    assert "[PASS] criterion 2" in out
    assert "all criteria passed" in out
