import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_orlicz import cli, poisson
from poisson_orlicz.cli import (
    UsageError,
    main,
    parse_atoms,
    parse_function_spec,
    parse_system_spec,
)
from poisson_orlicz.experiments import ConfigError, ExperimentConfig
from poisson_orlicz.measure import SimpleFunction
from test_scripts import GOLDEN, golden


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


@pytest.mark.parametrize("parse, token, spec", [
    (parse_function_spec, "indicator:0,2", {"shape": "indicator", "lo": 0.0, "hi": 2.0}),
    (parse_function_spec, " indicator :0, 2 ,0.5",
     {"shape": "indicator", "lo": 0.0, "hi": 2.0, "scale": 0.5}),
    (parse_function_spec, "bump:0,1", {"shape": "bump", "center": 0.0, "halfwidth": 1.0}),
    (parse_function_spec, "bump:0,1,-2",
     {"shape": "bump", "center": 0.0, "halfwidth": 1.0, "height": -2.0}),
    (parse_function_spec, "steps:0,1|3", {"shape": "steps", "breaks": [0.0, 1.0],
                                          "values": [3.0]}),
    (parse_function_spec, "atoms:", {"shape": "atoms", "atoms": []}),
    (parse_system_spec, "translation", {"kind": "translation"}),
    (parse_system_spec, "translation:", {"kind": "translation"}),
    (parse_system_spec, "translation:2", {"kind": "translation", "step": 2.0}),
    (parse_system_spec, "boole", {"kind": "boole"}),
    (parse_system_spec, "boole:", {"kind": "boole"}),
    (parse_system_spec, "composite", {"kind": "composite"}),
    (parse_system_spec, "composite:2,0.5,1",
     {"kind": "composite", "circumference": 2.0, "angle": 0.5, "step": 1.0}),
])
def test_spec_parsers_read_fields_in_builder_order(parse, token, spec):
    assert parse(token) == spec


@pytest.mark.parametrize("parse, token, named", [
    (parse_system_spec, "translation:abc", ("translation step", "'abc'")),
    (parse_system_spec, "translation:1,2", ("translation:step",)),
    (parse_system_spec, "composite:1,2", ("composite:circumference,angle,step",)),
    (parse_system_spec, "boole:5", ("'boole:5'",)),
    (parse_system_spec, "rotation:1", ("'rotation'",)),
    (parse_function_spec, "indicator:0", ("indicator:lo,hi",)),
    (parse_function_spec, "bump:x,1", ("bump center", "'x'")),
    (parse_function_spec, "steps:0,1", ("steps:breaks|values",)),
    (parse_function_spec, "steps:0,1|y", ("steps values", "'y'")),
])
def test_spec_parsers_name_what_they_refuse(parse, token, named):
    with pytest.raises(UsageError) as info:
        parse(token)
    for text in named:
        assert text in str(info.value)


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


def test_norm_bad_system_value_names_kind(capsys):
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff", "--system", "translation:abc"])
    assert code == 1
    assert out == ""
    assert "translation step: 'abc' is not a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("system, message", [
    ("translation:1e999", "translation step must be finite, got inf"),
    ("translation:nan", "translation step must be finite, got nan"),
    ("composite:nan,0.5,1", "composite circumference must be finite, got nan"),
    ("composite:1,inf,1", "composite angle must be finite, got inf"),
    ("composite:1,0.5,-inf", "composite step must be finite, got -inf"),
])
def test_norm_non_finite_system_value_names_field(capsys, system, message):
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff", "--system", system,
                                      "--depth", "2"])
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


# f >= 0, so Birkhoff averaging and the transfer operator both keep its l1:
# the circle's circumference times its scale, plus the line piece's mass
@pytest.mark.parametrize("apply", ["birkhoff", "transfer"])
@pytest.mark.parametrize("function, l1", [
    ("circle", 1.0),
    ("circle:2.5", 2.5),
    ("circle_plus_indicator:1048575.5,1048576.5", 2.0),
    ("circle_plus_indicator:-1,1,0.5,3", 6.5),
])
def test_norm_circle_shapes_on_composite_system(capsys, apply, function, l1):
    code, out, err = run_cli(capsys, ["norm", "--function", function, "--apply", apply,
                                      "--system", "composite:1,0.3,1", "--depth", "3",
                                      "--which", "l1"])
    assert code == 0, err
    assert abs(float(out.split()[1]) - l1) < 1e-9


def test_norm_transfer_star_samples_near_the_origin(capsys):
    # the grown window of this iterate has measure about 8e4; the Monte Carlo
    # norm samples its part within 50 + depth of 0 and bounds the rest
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1,-2",
                                      "--apply", "transfer", "--system", "boole",
                                      "--depth", "3", "--seed", "5", "--replicates", "2000",
                                      "--which", "star"])
    assert code == 0, err
    name, mean, *fields = out.split()
    fields = dict(f.split("=") for f in fields)
    assert name == "star" and math.isfinite(float(mean))
    assert math.isfinite(float(fields["trunc"])) and float(fields["trunc"]) > 0.0
    assert 0.0 <= float(fields["fit_est"]) <= 1e-13


@pytest.mark.parametrize("extra", [[], ["--system", "translation:1"]])
def test_norm_circle_without_composite_system_names_it(capsys, extra):
    code, out, err = run_cli(capsys, ["norm", "--function", "circle", "--which", "l1", *extra])
    assert code == 1 and out == ""
    assert "circle_indicator needs a composite system" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["norm", "--atoms=--"],
    ["norm", "--function=--"],
    ["norm", "--function", "indicator:0,1", "--apply", "birkhoff", "--system=--"],
    ["norm", "--atoms", "(1,1)", "--which=--"],
    ["sample", "--window=--", "--seed", "1"],
])
def test_inline_double_dash_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert "expected one argument" in err


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


def test_norm_birkhoff_past_the_pullback_cap_exits_1_naming_it(capsys):
    # the Boole average's breakpoints double with each level; past the cap
    # its cells are unknown, and it used to print l1 0.0 with exit 0
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff", "--system", "boole",
                                      "--depth", "16", "--which", "l1"])
    assert code == 1
    assert out == ""
    assert "20000" in err


def test_norm_birkhoff_deep_translation_keeps_every_breakpoint(capsys):
    # 40002 breakpoints, past the cap; it used to print l1 1.00005
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff", "--system", "translation",
                                      "--depth", "20000", "--which", "l1"])
    assert code == 0, err
    assert abs(float(out.split()[1]) - 1.0) < 1e-12


def test_norm_birkhoff_past_the_pullback_limit_exits_1_at_once(capsys):
    # it used to build one window per exponent and was killed for memory
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "birkhoff", "--system", "translation",
                                      "--depth", "100000000", "--which", "l1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "depth 100000000" in err and "200000002" in err


@pytest.mark.parametrize("system", ["translation", "boole"])
def test_norm_transfer_past_the_orbit_limit_exits_1_at_once(capsys, system):
    # the forward orbit of the edges was built first, one point per edge and
    # level: 0.25 s at depth 10^5 on translation, about 10^9 floats at 10^9
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1",
                                      "--apply", "transfer", "--system", system,
                                      "--depth", "1000000000", "--which", "l1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "depth 1000000000" in err and "over the limit of 1000000" in err


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


def test_norm_non_finite_atom_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1e999,1)",
                                      "--which", "gauge"])
    assert code == 1
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("atoms, which", [("(1e160,1)", "l2"), ("(1e308,10)", "l1"),
                                          ("(1e308,10)", "l2")])
def test_norm_moment_overflow_is_usage_error(capsys, atoms, which):
    code, out, err = run_cli(capsys, ["norm", "--atoms", atoms, "--which", which])
    assert code == 1
    assert out == ""
    assert "float range" in err


def test_norm_huge_atom_star_is_finite(capsys):
    # E|N - 1| * 1e308 = 2e308/e for N ~ Poisson(1), within the float range
    code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1,1e308",
                                      "--which", "l1,star"])
    assert code == 0, err
    l1, star = out.splitlines()
    assert l1 == "l1 1e+308"
    assert float(star.split()[1]) == pytest.approx(2.0 * math.exp(-1.0) * 1e308, rel=1e-12)


# the quadrature of |f| for the Boole iterate of a near-float-max indicator
# overflows; the iterate is refused before any norm is taken (the l1 was once
# printed as 6.78e307, the true value being 1e308), without a numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_non_finite_value_is_usage_error(capsys):
    for which in ("l1", "l1,star", "star"):
        code, out, err = run_cli(capsys, ["norm", "--function", "indicator:0,1,1e308",
                                          "--apply", "transfer", "--system", "boole",
                                          "--depth", "3", "--which", which, "--seed", "1",
                                          "--replicates", "1000"])
        assert code == 1, which
        assert out == ""
        assert err.startswith("error: transfer:") and "float range" in err


# the Boole window's tolerances are relative to the mass once it exceeds 1:
# an absolute one grew the window until the quadrature lost the mass (l1
# 0.0103 at scale 1e4, exit 0) or the window's edge left the float range
# (scale 1e12, exit 1)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e4, 1e12])
def test_norm_transfer_of_a_large_scale_keeps_its_mass(capsys, scale):
    code, out, err = run_cli(capsys, ["norm", "--function", f"indicator:0,1,{scale!r}",
                                      "--apply", "transfer", "--system", "boole",
                                      "--depth", "3", "--which", "l1"])
    assert code == 0, err
    name, value = out.split()
    assert name == "l1" and float(value) == pytest.approx(scale, rel=1e-4)


@pytest.mark.parametrize("function, which", [("bump:3,1e154,1e154", "l2"),
                                             ("bump:0,4e237,4e237", "l1")])
def test_norm_quadrature_moment_overflow_is_usage_error(capsys, function, which):
    # refused with a message, and no numpy overflow warning on the way
    code, out, err = run_cli(capsys, ["norm", "--function", function, "--which", which])
    assert code == 1
    assert out == ""
    assert "float range" in err


@pytest.mark.parametrize("function, field", [
    ("bump:3,1,-inf", "triangular_bump height"),
    ("bump:3,1,nan", "triangular_bump height"),
    ("indicator:0,1,inf", "indicator scale"),
    ("steps:0,1,2|1,nan", "piecewise_constant values"),
])
def test_norm_non_finite_shape_value_names_field(capsys, function, field):
    # refused when the shape is built, before any norm could print nan
    code, out, err = run_cli(capsys, ["norm", "--function", function, "--which", "star,l1",
                                      "--seed", "1", "--replicates", "1000"])
    assert code == 1
    assert out == ""
    assert f"{field} must be finite" in err
    assert "Traceback" not in err


# seven atoms exceed the exact oracle, so star falls back to Hsu; a small
# scale keeps the fallback's tol 1e-8 within reach of the default panel cap
SMALL_SEVEN = ";".join(["(0.01,0.1)"] * 7)


def test_norm_star_fallback_matches_merged_atoms(capsys):
    code, out, err = run_cli(capsys, ["norm", "--atoms", SMALL_SEVEN, "--which", "star"])
    assert code == 0
    got = float(out.split()[1])
    assert abs(got - poisson.star_norm_exact(SimpleFunction(((0.01, 0.7),)))) <= 1e-8


def test_norm_star_fallback_failure_reports_estimate(capsys, monkeypatch):
    # a Hsu refusal ends the fallback: exit 1, naming its bound
    def failing_hsu(s, tol):
        raise poisson.QuadratureError(1e-3, "the proven error bound within 10 panels is 0.001")

    monkeypatch.setattr(cli, "star_norm_hsu", failing_hsu)
    code, out, err = run_cli(capsys, ["norm", "--atoms", SMALL_SEVEN, "--which", "star"])
    assert code == 1
    assert out == ""
    assert "no error bound below 0.001 (needs 1e-08)" in err
    assert "Traceback" not in err


def test_norm_star_fallback_refuses_up_front(capsys):
    # at this scale the panel cap cannot prove 1e-8: refused before any sweep
    atoms = ";".join(f"({k},1)" for k in range(1, 8))
    with pytest.raises(poisson.QuadratureError) as info:
        poisson.star_norm_hsu(SimpleFunction(parse_atoms(atoms)), tol=1e-8)
    floor = info.value.err_bound
    assert floor > 1e-8
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, ["norm", "--atoms", atoms, "--which", "star"])
    assert time.monotonic() - t0 < 2.0
    assert code == 1
    assert out == ""
    assert f"no error bound below {floor:g}" in err


def test_norm_output_file(capsys, tmp_path):
    path = tmp_path / "norms.txt"
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,1)",
                                      "--which", "l1",
                                      "--output", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text() == "l1 1.0\n"


_UNWRITABLE = "/nonexistent/dir/x.csv"


@pytest.mark.parametrize("argv", [
    ["norm", "--atoms", "(1,1)", "--which", "l1"],
    ["sample", "--window", "0,2", "--seed", "1"],
    ["run", "--config", "absent.json"],
    ["suite", "--seed", "42"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("output", [_UNWRITABLE, "."])
def test_unwritable_output_is_refused_before_any_work(capsys, monkeypatch, argv, output):
    # the command itself never runs: the path is checked first
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: pytest.fail("the command ran"))
    code, out, err = run_cli(capsys, argv + ["--output", output])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write --output {output!r}: ")
    assert ("no directory '/nonexistent/dir'" if output == _UNWRITABLE
            else "it is a directory") in err


def test_output_write_failure_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # a path that passes the check but cannot be opened when the result is
    # written still ends in exit 1 naming it
    path = str(tmp_path / "x.txt")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("builtins.open", refuse)
    code, out, err = run_cli(capsys, ["norm", "--atoms", "(1,1)", "--which", "l1",
                                      "--output", path])
    assert code == 1
    assert err == f"error: cannot write --output {path!r}: Permission denied\n"


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


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", "1", "--replicate", "-1"],
                                   ["--seed", str(2 ** 64)]])
def test_sample_key_word_out_of_range_is_refused(capsys, flags):
    code, out, err = run_cli(capsys, ["sample", "--window", "0,1", *flags])
    assert code == 1
    assert "outside [0, 2^64)" in err
    assert out == ""


def test_sample_json_format(capsys):
    code, out, err = run_cli(capsys, ["sample", "--window", "0,3",
                                      "--seed", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["window"] == [[0.0, 3.0]]
    assert doc["count"] == len(doc["points"])


@pytest.mark.parametrize("span", ["0,1e12", "-1e308,0;0,1e308"])
def test_sample_refuses_an_oversized_window_before_drawing(capsys, span):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["sample", f"--window={span}", "--seed", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert f"cap of {cli._MAX_SAMPLE_MEASURE:g}" in err
    assert ("1e+12" if span == "0,1e12" else "inf") in err


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


URBANIK_CONFIG = {
    "scenario": "urbanik_scan",
    "system": {"kind": "translation"},
    "function": {"shape": "random_atoms", "samples": 3},
    "seed": 31,
}
IDENTITY_CONFIG = {
    "scenario": "identity_suite",
    "system": {"kind": "translation"},
    "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0},
    "seed": 31,
}

INVARIANT_CONFIG = {
    "scenario": "invariant_vector",
    "system": {"kind": "composite"},
    "function": {"shape": "circle"},
    "seed": 31,
    "depths": [1, 2],
}


@pytest.mark.parametrize("base, change, field", [
    (BASE_CONFIG, {"replicates": None}, "replicates"),
    (BASE_CONFIG, {"depths": [1.7]}, "depths"),
    (BASE_CONFIG, {"seed": True}, "seed"),
    (BASE_CONFIG, {"system": {"kind": "translation", "step": None}}, "step"),
    (BASE_CONFIG, {"tolerances": {"sigma": None}}, "sigma"),
    (BASE_CONFIG, {"expected": {"star": {"1": None}}}, "star"),
    (BASE_CONFIG, {"expected": {"slope": 3}}, "slope"),
    (URBANIK_CONFIG, {"function": {"shape": "random_atoms", "value_range": 5}},
     "value_range"),
    (URBANIK_CONFIG, {"function": {"shape": "random_atoms", "samples": 0}},
     "samples"),
    (BASE_CONFIG, {"expected": {"slope": {"value": 7}}}, "expected.slope.min_depth"),
    (BASE_CONFIG, {"function": {"shape": "indicator", "lo": "0", "hi": 1.0}},
     "function.lo"),
    (BASE_CONFIG, {"system": {"kind": "translation", "stepp": 2.0}}, "system.stepp"),
    (BASE_CONFIG, {"system": {"kind": ["translation"]}}, "system.kind"),
    (BASE_CONFIG, {"function": {"shape": "indicator", "lo": 0.0, "hi": 1.0, "scal": 3.0}},
     "function.scal"),
    (BASE_CONFIG, {"tolerances": {"sigmaa": 9.0}}, "tolerances.sigmaa"),
    (BASE_CONFIG, {"tolerances": {"tail": 1e-3}}, "tolerances.tail"),
    (BASE_CONFIG, {"expected": {"stars": {"1": 0.9}}}, "expected.stars"),
    (BASE_CONFIG, {"expected": {"slope": {"value": -0.5, "mindepth": 1}}},
     "expected.slope.mindepth"),
    (URBANIK_CONFIG, {"function": {"shape": "random_atoms", "sample": 3}},
     "function.sample"),
    (BASE_CONFIG, {"depths": [1, 2], "expected": {"star": {"64": 0.1}}}, "64"),
    (BASE_CONFIG, {"depths": [1, 2], "expected": {"star": {"one": 0.1}}}, "one"),
    (URBANIK_CONFIG, {"function": {"shape": "random_atoms", "homogeneity_scale": -4.0}},
     "function.homogeneity_scale"),
    (URBANIK_CONFIG, {"function": {"shape": "random_atoms", "homogeneity_scale": 0.0}},
     "function.homogeneity_scale"),
    (URBANIK_CONFIG, {"system": {"kind": "boole"}, "depths": [1, 2, 3],
                      "expected": {"star": {"1": 99}}, "tolerances": {"sigma": 0.001},
                      "subsequence": "k"},
     ("urbanik_scan", "depths", "expected.star.1", "system.kind", "tolerances.sigma",
      "subsequence")),
    (IDENTITY_CONFIG, {"system": {"kind": "boole"}, "tolerances": {"sigma": 0.001}},
     ("identity_suite", "system.kind", "tolerances.sigma")),
    (BASE_CONFIG, {"subsequence": "2^k"}, ("birkhoff_decay", "subsequence")),
    (BASE_CONFIG, {"system": {"kind": "translation", "step": 1e999}},
     ("translation step must be finite", "inf")),
    (BASE_CONFIG, {"system": {"kind": "translation", "step": math.nan}},
     ("translation step must be finite", "nan")),
    (INVARIANT_CONFIG, {"system": {"kind": "composite", "circumference": math.inf}},
     ("composite circumference must be finite",)),
    (INVARIANT_CONFIG, {"system": {"kind": "composite", "angle": math.nan}},
     ("composite angle must be finite",)),
    (INVARIANT_CONFIG, {"system": {"kind": "composite", "step": -math.inf}},
     ("composite step must be finite",)),
    (BASE_CONFIG, {"seed": -1}, "seed must be nonnegative"),
    (BASE_CONFIG, {"function": {"shape": "indicator", "lo": 0.0, "hi": 1.0,
                                "scale": math.nan}},
     ("indicator scale must be finite", "nan")),
    (INVARIANT_CONFIG, {"function": {"shape": "circle", "scale": math.nan}},
     ("circle_indicator scale must be finite", "nan")),
], ids=["null_replicates", "fractional_depth", "boolean_seed", "null_step",
        "null_sigma", "null_expected_star", "scalar_slope", "scalar_value_range",
        "zero_samples", "unreachable_slope", "string_lo", "unknown_system_key",
        "list_kind", "unknown_function_key", "unknown_tolerance", "removed_tolerance",
        "unknown_expected_key", "unknown_slope_key", "unknown_generator_key",
        "star_depth_not_run", "star_key_not_a_depth", "negative_homogeneity_scale",
        "zero_homogeneity_scale", "urbanik_unread_fields", "identity_unread_fields",
        "birkhoff_unread_subsequence", "infinite_step", "nan_step",
        "infinite_circumference", "nan_angle", "infinite_composite_step", "negative_seed",
        "nan_scale", "nan_circle_scale"])
def test_run_bad_config_is_config_error(capsys, tmp_path, base, change, field):
    path = write_config(tmp_path, "bad.json", dict(base, **change))
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    for name in (field,) if isinstance(field, str) else field:
        assert name in err
    assert out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# parser fuzzing: arbitrary input either parses or is refused with a message

_SPEC_TEXT = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["", "indicator:", "bump:", "steps:", "atoms:",
                               "translation:", "boole", "composite:"]),
              st.text(alphabet="()0123456789.,;:|eE+-naif \t\n")).map("".join),
)


@pytest.mark.parametrize("parse", [parse_atoms, parse_function_spec, parse_system_spec,
                                   cli._parse_window])
@given(text=_SPEC_TEXT)
def test_spec_parsers_return_or_refuse(parse, text):
    try:
        parse(text)
    except (UsageError, ValueError):
        pass


# short spec strings: no example reaches a large array
_SHORT_SPEC = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(["", "(", "indicator:", "bump:", "steps:", "atoms:", "circle:",
                               "circle_plus_indicator:", "translation:", "boole",
                               "composite:"]),
              st.text(alphabet="()0123456789.,;:|eE+-naif ", max_size=14)).map("".join),
)


@given(source=st.sampled_from(["--atoms", "--function"]), text=_SHORT_SPEC)
@example(source="--function", text="--")
def test_norm_command_exits_0_or_1(source, text):
    assert main(["norm", f"{source}={text}", "--which", "l1,l2"]) in (0, 1)


@given(apply=st.sampled_from(["birkhoff", "transfer"]), text=_SHORT_SPEC)
@example(apply="birkhoff", text="--")
@example(apply="transfer", text="boole")
def test_norm_birkhoff_system_exits_0_or_1(apply, text):
    assert main(["norm", "--function", "indicator:0,1", "--apply", apply,
                 f"--system={text}", "--which", "l1,l2"]) in (0, 1)


# atoms over the whole float range, nan and infinities included; negative
# masses, refused at once, are left out so most examples reach the norms
_ANY_ATOMS = st.lists(st.tuples(st.floats(), st.floats(min_value=0.0)),
                      min_size=1, max_size=4).map(
    lambda atoms: ";".join(f"({v!r},{m!r})" for v, m in atoms))


@given(text=_ANY_ATOMS)
@example(text="(1.25,0.68)")  # the first Orlicz bracket has zero width
@example(text="(1e-200,1.0)")
@example(text="(1e160,1.0)")
def test_norm_atoms_norms_exit_0_or_1(text):
    assert main(["norm", "--atoms", text, "--which", "gauge,orlicz,amemiya"]) in (0, 1)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_FULL_CONFIG = dict(BASE_CONFIG, scenario="blum_hanson", subsequence="k",
                    tolerances={"sigma": 3.0},
                    expected={"star": {"1": 0.9},
                              "slope": {"value": -0.5, "tol": 0.1, "min_depth": 2}})


def _paths(doc, prefix=()):
    """Every key path of a nested dict, plus one unknown key per level."""
    yield prefix + ("bogus",)
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@given(st.sampled_from([_FULL_CONFIG, URBANIK_CONFIG]).flatmap(lambda base: st.tuples(
    st.just(base), st.lists(st.tuples(st.sampled_from(list(_paths(base))), _JSON),
                            min_size=1, max_size=3))))
def test_config_from_dict_returns_or_refuses(case):
    # a valid config with up to three fields, at any depth, replaced by
    # arbitrary JSON
    base, changes = case
    doc = json.loads(json.dumps(base))
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node[path[-1]] = value
    try:
        ExperimentConfig.from_dict(doc)
    except ConfigError:
        pass


def test_run_transfer_unreachable_slope_fails(capsys, tmp_path):
    doc = {"scenario": "transfer_decay", "system": {"kind": "boole"},
           "function": {"shape": "indicator", "lo": 1.0, "hi": 2.0},
           "depths": [0, 1, 2], "replicates": 1000, "seed": 31,
           "expected": {"slope": {"value": 5, "min_depth": 0}}}
    path = write_config(tmp_path, "slope.json", doc)
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 2
    assert "slope_pass" in out.splitlines()[0]


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


def test_run_refuses_a_seed_past_the_philox_key_range(capsys, tmp_path):
    path = write_config(tmp_path, "bigseed.json", dict(BASE_CONFIG, seed=2 ** 64))
    code, out, err = run_cli(capsys, ["run", "--config", path])
    assert code == 1
    assert "seed must be at most" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("hi, code", [(1e12, 0), (1e20, 1)])
def test_run_draws_a_huge_mass_or_refuses_it_by_name(capsys, tmp_path, hi, code):
    # one atom of mass 10^12 is drawn directly, 1000 counts; mass 10^20 is
    # past the largest Poisson mean numpy draws, and the error names both
    doc = dict(BASE_CONFIG, scenario="starstar_ergodic", depths=[1], replicates=1000,
               function={"shape": "indicator", "lo": 0.0, "hi": hi, "scale": 1.0})
    got, out, err = run_cli(capsys, ["run", "--config", write_config(tmp_path, "huge.json", doc)])
    assert got == code, err
    if code:
        assert "mass 1e+20" in err and "9.22337e+18" in err
        assert "Traceback" not in err
    else:
        assert out.splitlines()[1].startswith("1,")


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
# argv fuzz: run, suite and sample end in exit 0, 1 or 2, never a traceback

def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    assert code in (0, 1, 2), (argv, code)


_SEEDS = st.one_of(st.integers(-3, 40), st.integers(2**64 - 2_000_000, 2**64 + 2),
                   st.sampled_from(["", "x", "1.5", "1e3", " 7", "1_0", "--"]))
_OUTPUTS = st.sampled_from([None, "", "out.txt", ".", "nowhere/out.txt"])


def _with_output(argv, output, tmp):
    if output is None:
        return argv
    path = output if output in ("", ".") else os.path.join(tmp, output)
    return argv + ["--output", path]


def _argv(command, pairs, drop, stray):
    """``command`` with its flag pairs, pair ``drop`` left out (none when it
    is out of range), then the stray tokens."""
    return [command] + [x for i, pair in enumerate(pairs) if i != drop for x in pair] + stray


_DROP = st.integers(-1, 4)
_STRAY = st.lists(st.sampled_from(["--", "-h", "--bogus", "1", "--seed", "--output"]),
                  max_size=1)


@settings(max_examples=60)
@given(case=st.tuples(
    st.sampled_from(["0,1", "0,2;3,4", "0,1e-300", "1,0", "0,nan", "0,1e7", "-1e308,1e308",
                     "0,1;0.5,2", "", ";", "0,1,2", "a,b"])
    | st.text(alphabet="0123456789.,;eE+-naif ", max_size=10),
    _SEEDS, st.one_of(st.integers(-2, 3), st.just(2**64), st.just("r")),
    st.sampled_from(["text", "json", "xml"]), _OUTPUTS, _DROP, _STRAY))
@example(case=("0,1", 5, 2**64, "text", None, -1, []))
@example(case=("0,1", 5, 0, "json", "nowhere/out.txt", -1, []))
def test_sample_argv_exits_0_1_or_2(tmp_path_factory, case):
    window, seed, replicate, fmt, output, drop, stray = case
    pairs = [("--window", window), ("--seed", str(seed)), ("--replicate", str(replicate)),
             ("--format", fmt)]
    argv = _with_output(_argv("sample", pairs, drop, stray), output,
                        str(tmp_path_factory.mktemp("sample")))
    _exit_code(argv)


@settings(max_examples=12)
@given(seed=_SEEDS, fmt=st.sampled_from(["csv", "json", "tsv"]), output=_OUTPUTS,
       drop=_DROP, stray=_STRAY)
@example(seed=2**64 - 13, fmt="csv", output=None, drop=-1, stray=[])
@example(seed=1, fmt="csv", output="nowhere/out.txt", drop=-1, stray=[])
def test_suite_argv_exits_0_1_or_2(tmp_path_factory, seed, fmt, output, drop, stray):
    argv = _argv("suite", [("--seed", str(seed)), ("--format", fmt)], drop, stray)
    _exit_code(_with_output(argv, output, str(tmp_path_factory.mktemp("suite"))))


# `norm` over its sources, with every depth either at most 8 or refused at
# once and at most 3000 replicates, so no example runs long or allocates
# more than a few MB
_NORM_SOURCES = [
    ("--atoms", "(1,0.5);(-2,0.25)"),
    ("--function", "bump:0,1"),
    ("--function", "indicator:0,1", "--apply", "birkhoff", "--system", "translation:0.5"),
    ("--function", "bump:0.5,0.5", "--apply", "birkhoff", "--system", "translation"),
    ("--function", "indicator:0,1", "--apply", "birkhoff", "--system", "boole"),
    ("--function", "circle", "--apply", "birkhoff", "--system", "composite"),
    ("--function", "indicator:1,2", "--apply", "transfer", "--system", "boole"),
    ("--function", "bump:0,1", "--apply", "transfer", "--system", "translation"),
]
_DEPTHS = st.integers(-2, 8) | st.sampled_from([10 ** 6, 10 ** 9, 2 ** 63, "", "x", "1.5", "--"])
_REPLICATES = st.integers(-2, 3000) | st.sampled_from(["", "1e3", "x", "--"])
_WHICH = st.one_of(
    st.lists(st.sampled_from(cli.NORM_NAMES), min_size=1, max_size=3).map(",".join),
    st.lists(st.sampled_from(list(cli.NORM_NAMES) + ["bogus", "", " star"]),
             max_size=4).map(",".join),
    st.text(max_size=6))


@settings(max_examples=60)
@given(case=st.tuples(st.sampled_from(_NORM_SOURCES), _DEPTHS, _REPLICATES,
                      st.integers(0, 40) | _SEEDS, _WHICH, st.just(-1) | _DROP,
                      st.just([]) | _STRAY))
@example(case=(_NORM_SOURCES[6], 10 ** 9, 1000, 1, "star", -1, []))
@example(case=(_NORM_SOURCES[3], 8, 1000, 2 ** 64, "star", -1, []))
@example(case=(_NORM_SOURCES[1], 1, 999, 1, "starstar", -1, []))
def test_norm_argv_exits_0_1_or_2(case):
    source, depth, replicates, seed, which, drop, stray = case
    pairs = [source, ("--depth", str(depth)), ("--replicates", str(replicates)),
             ("--seed", str(seed)), ("--which", which)]
    _exit_code(_argv("norm", pairs, drop, stray))


# small JSON: no example reaches a long run
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_RUN_BASES = [
    dict(BASE_CONFIG, replicates=1000, depths=[1, 2]),
    dict(URBANIK_CONFIG),
    {"scenario": "transfer_decay", "system": {"kind": "boole"},
     "function": {"shape": "indicator", "lo": 1.0, "hi": 2.0},
     "depths": [0, 1], "replicates": 1000, "seed": 3},
]


@settings(max_examples=40)
@given(case=st.tuples(
    st.sampled_from(_RUN_BASES),
    st.lists(st.tuples(st.sampled_from(["scenario", "system", "function", "depths", "seed",
                                        "replicates", "tolerances", "expected", "bogus"]),
                       _SMALL_JSON | _SEEDS), max_size=2),
    st.sampled_from(["json", "nested", "bytes", "missing", "dir"]),
    st.sampled_from(["csv", "json", "yaml"]), _OUTPUTS, _DROP, _STRAY))
@example(case=(_RUN_BASES[0], [], "nested", "csv", None, -1, []))
@example(case=(_RUN_BASES[0], [], "bytes", "csv", None, -1, []))
@example(case=(_RUN_BASES[0], [("depths", [2**63])], "json", "json", "out.txt", -1, []))
def test_run_argv_exits_0_1_or_2(tmp_path_factory, case):
    base, changes, kind, fmt, output, drop, stray = case
    tmp = str(tmp_path_factory.mktemp("run"))
    path = os.path.join(tmp, "cfg.json")
    if kind == "json":
        with open(path, "w") as fh:
            json.dump(dict(base, **dict(changes)), fh)
    elif kind == "nested":  # JSON nested past the parser's recursion limit
        with open(path, "w") as fh:
            fh.write("[" * 100_000 + "]" * 100_000)
    elif kind == "bytes":
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe{")
    elif kind == "dir":
        path = tmp
    argv = _argv("run", [("--config", path), ("--format", fmt)], drop, stray)
    _exit_code(_with_output(argv, output, tmp))


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # the package needs numpy alone; importing scipy was about half of every
    # cold start
    code = ("import sys, io, contextlib, poisson_orlicz.cli as c\n"
            "def loaded():\n"
            "    return sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = c.main(['norm', '--atoms', '(1,0.5);(-2,0.25)', '--which', 'star'])\n"
            "print(code, loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]


def test_suite_runs_with_scipy_blocked():
    # sys.modules["scipy"] = None makes any scipy import raise ImportError
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from poisson_orlicz.cli import main\n"
            "sys.exit(main(['suite', '--seed', '42']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.text(GOLDEN["suite_csv"])


def test_suite_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 1.2 MB of RSS on top of numpy; the
    # Mecke checks find their point counts by np.bincount instead
    code = ("import contextlib, io, sys\n"
            "from poisson_orlicz.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['suite', '--seed', '42'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
