import json
import math
import subprocess
import sys

from poisson_orlicz.cli import main, parse_atoms, parse_function_spec


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_CONFIG = {
    "scenario": "birkhoff_decay",
    "system": {"kind": "translation", "step": 1.0},
    "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0},
    "depths": [1, 2, 4],
    "replicates": 5000,
    "seed": 31,
}


# ---------------------------------------------------------------------------
# atom and shape parsing

def test_parse_atoms_basic():
    assert parse_atoms("(-1,0.5)") == ((-1.0, 0.5),)
    assert parse_atoms("(1, 2); (3, 4)") == ((1.0, 2.0), (3.0, 4.0))
    assert parse_atoms("(1,2),(3,4)") == ((1.0, 2.0), (3.0, 4.0))
    assert parse_atoms("") == ()
    assert parse_atoms("  ") == ()


def test_parse_atoms_reports_position():
    try:
        parse_atoms("(1,0.5);(2,")
    except Exception as exc:
        msg = str(exc)
    else:
        raise AssertionError("expected a parse error")
    assert "line 1" in msg
    assert "column 12" in msg


def test_parse_atoms_rejects_garbage():
    for bad in ["(1)", "1,2", "(1,2;", "(1,2) (3,4)", "(a,2)"]:
        try:
            parse_atoms(bad)
        except Exception:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_parse_function_spec_shapes():
    spec = parse_function_spec("indicator:0,2,0.5")
    assert spec == {"shape": "indicator", "lo": 0.0, "hi": 2.0, "scale": 0.5}
    spec = parse_function_spec("steps:0,1,2|3,4")
    assert spec["breaks"] == [0.0, 1.0, 2.0]
    assert spec["values"] == [3.0, 4.0]
    spec = parse_function_spec("atoms:(1,2)")
    assert spec == {"shape": "atoms", "atoms": [[1.0, 2.0]]}


# ---------------------------------------------------------------------------
# norm command

def test_norm_star_single_atom(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(-1,0.5)",
                                      "--which", "star"])
    assert code == 0
    name, value = out.split()
    assert name == "star"
    assert abs(float(value) - 2 * 0.5 * math.exp(-0.5)) < 1e-10


def test_norm_unit_atom_gauge_orlicz(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,1)",
                                      "--which", "gauge,orlicz"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("gauge ")
    assert lines[1].startswith("orlicz ")
    assert abs(float(lines[0].split()[1]) - 1.0) < 1e-9
    assert abs(float(lines[1].split()[1]) - 1.0) < 1e-9


def test_norm_empty_atoms_all_zero(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", ""])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    for line in lines:
        assert float(line.split()[1]) == 0.0


def test_norm_parse_error_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,0.5);(2,"])
    assert code == 1
    assert "line 1" in err
    assert "column 12" in err


def test_norm_unknown_which_rejected(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,1)",
                                      "--which", "star,bogus"])
    assert code == 1
    assert "bogus" in err


def test_norm_needs_exactly_one_source(capsys):
    assert run_cli(capsys, ["norm"])[0] == 1
    code, _, _ = run_cli(capsys, ["norm", "--atoms", "(1,1)",
                                  "--function", "indicator:0,1"])
    assert code == 1


def test_norm_named_shape(capsys):
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,2",
                                      "--which", "l1,l2,star"])
    assert code == 0
    vals = {ln.split()[0]: float(ln.split()[1]) for ln in out.splitlines()}
    assert abs(vals["l1"] - 2.0) < 1e-12
    assert abs(vals["l2"] - math.sqrt(2.0)) < 1e-12
    assert abs(vals["star"] - 2 * 2.0 ** 3 * math.exp(-2.0) / 2) < 1e-10


def test_norm_birkhoff_matches_closed_form(capsys):
    # average of two indicator translates: same law as Pois(2)/2 deviation
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff",
                                      "--system", "translation:1",
                                      "--depth", "2", "--which", "star"])
    assert code == 0
    got = float(out.split()[1])
    assert abs(got - 2 * 2.0 ** 2 * math.exp(-2.0) / math.factorial(2)) < 1e-9


def test_norm_bump_needs_seed_for_star(capsys):
    code, out, err = run_cli(capsys, ["norm", "--function", "bump:0,1",
                                      "--which", "star"])
    assert code == 1
    assert "seed" in err


def test_norm_bump_star_estimate(capsys):
    code, out, err = run_cli(capsys, ["norm", "--function", "bump:0,1",
                                      "--which", "star", "--seed", "3",
                                      "--replicates", "20000"])
    assert code == 0
    assert out.startswith("star ")
    assert "se=" in out


def test_norm_output_file(capsys, tmp_path):
    path = tmp_path / "norms.txt"
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,1)",
                                      "--which", "l1",
                                      "--output", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text() == "l1 1.0\n"


# ---------------------------------------------------------------------------
# sample command

def test_sample_requires_seed(capsys):
    code, out, err = run_cli(capsys, ["sample", "--window", "0,2"])
    assert code == 1
    assert "seed" in err


def test_sample_deterministic(capsys):
    argv = ["sample", "--window", "0,2;5,6", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    count = int(lines[0].split()[1])
    assert count == len(lines) - 1
    for line in lines[1:]:
        x = float(line)
        assert (0 <= x < 2) or (5 <= x < 6)


def test_sample_replicate_changes_draw(capsys):
    base = ["sample", "--window", "0,40", "--seed", "9"]
    _, out0, _ = run_cli(capsys, base)
    _, out1, _ = run_cli(capsys, base + ["--replicate", "1"])
    assert out0 != out1


def test_sample_json_format(capsys):
    code, out, err = run_cli(capsys, ["sample", "--window", "0,3",
                                      "--seed", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["window"] == [[0.0, 3.0]]
    assert doc["count"] == len(doc["points"])


def test_sample_bad_window(capsys):
    code, out, err = run_cli(capsys, ["sample", "--window", "2,1",
                                      "--seed", "5"])
    assert code == 1


# ---------------------------------------------------------------------------
# run command

def test_run_passing_config(capsys, tmp_path):
    path = write_config(tmp_path, "cfg.json", BASE_CONFIG)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,star_mean,star_se")
    assert len(lines) == 4


def test_run_low_replicates_is_config_error(capsys, tmp_path):
    doc = dict(BASE_CONFIG)
    doc["replicates"] = 10
    path = write_config(tmp_path, "low.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "replicates" in err


def test_run_null_replicates_is_config_error(capsys, tmp_path):
    doc = dict(BASE_CONFIG, replicates=None)
    path = write_config(tmp_path, "null_reps.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "replicates" in err


def test_run_fractional_depth_is_config_error(capsys, tmp_path):
    doc = dict(BASE_CONFIG, depths=[1.7])
    path = write_config(tmp_path, "frac_depth.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "depths" in err
    assert out == ""


def test_run_boolean_seed_is_config_error(capsys, tmp_path):
    doc = dict(BASE_CONFIG, seed=True)
    path = write_config(tmp_path, "bool_seed.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "seed" in err
    assert out == ""


def test_run_tampered_expectation_fails(capsys, tmp_path):
    doc = dict(BASE_CONFIG)
    doc["expected"] = {"star": {"1": 0.95}}
    path = write_config(tmp_path, "tampered.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 2
    assert "expected_star_pass" in out


def test_run_broken_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": "x",\n  "oops"')
    code, out, err = run_cli(capsys, ["run", "--config", str(path)])
    assert code == 1
    assert "line 2" in err
    assert "column" in err


def test_run_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["run", "--config",
                                      str(tmp_path / "absent.json")])
    assert code == 1


def test_run_json_output_to_file(capsys, tmp_path):
    path = write_config(tmp_path, "cfg.json", BASE_CONFIG)
    out_path = tmp_path / "result.json"
    code, out, err = run_cli(capsys, ["run", "--config", path,
                                      "--format", "json",
                                      "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["all_pass"] is True
    assert len(doc["rows"]) == 3


def test_run_missing_seed_in_config(capsys, tmp_path):
    doc = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
    path = write_config(tmp_path, "noseed.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "seed" in err


# ---------------------------------------------------------------------------
# suite command

def test_suite_requires_seed(capsys):
    code, out, err = run_cli(capsys, ["suite"])
    assert code == 1
    assert "seed" in err


def test_suite_passes_and_is_deterministic(capsys):
    argv = ["suite", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    for scenario in ("identity_suite", "birkhoff_decay", "blum_hanson",
                     "transfer_decay", "urbanik_scan", "starstar_ergodic",
                     "invariant_vector"):
        assert f"# scenario {scenario} " in out1
    assert "all_pass 0" not in out1


def test_suite_json_shape(capsys):
    code, out, err = run_cli(capsys, ["suite", "--seed", "7",
                                      "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert sorted(doc["scenarios"]) == sorted(
        ["identity_suite", "birkhoff_decay", "blum_hanson", "transfer_decay",
         "urbanik_scan", "starstar_ergodic", "invariant_vector"])


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_roundtrip(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "poisson_orlicz.cli", "norm",
         "--atoms", "(-1,0.5)", "--which", "star"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert abs(float(proc.stdout.split()[1]) - 0.6065306597126334) < 1e-10

    proc = subprocess.run(
        [sys.executable, "-m", "poisson_orlicz.cli", "suite"],
        capture_output=True, text=True)
    assert proc.returncode == 1
