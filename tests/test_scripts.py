"""The repository scripts keep what the README states about them, and every
entry of the golden manifest reproduces."""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("golden")
GOLDEN = golden.load()
# the blum_hanson entries truncate their subsequence, with a UserWarning
_TRUNCATION = pytest.mark.filterwarnings("default:subsequence .* exceeds cap:UserWarning")


@functools.cache
def _rerun(name):
    """The manifest entry ``name`` as its run pins it today."""
    return golden.record(GOLDEN[name], *golden.run(GOLDEN[name]))


@pytest.fixture(scope="module")
def false_fail_scan():
    return _load("false_fail_scan")


def test_false_fail_scan_gives_the_readme_verdicts(false_fail_scan):
    # the README's list over seeds 1-200: seeds 25 and 112 fail once each
    assert false_fail_scan.failing_verdicts(1) == []
    assert false_fail_scan.failing_verdicts(25) == ["blum_hanson exact_oracle"]
    assert false_fail_scan.failing_verdicts(112) == ["invariant_vector at_invariant_level"]


def test_false_fail_scan_refuses_no_seeds(false_fail_scan, capsys):
    with pytest.raises(SystemExit) as exit_info:
        false_fail_scan.main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


# The entries of tests/golden.json, beside the suite as CSV and as JSON:
# - norm_atoms, norm_bump: `porlicz norm` on one simple input, through the
#   exact oracles, and one non-simple input, through quadrature and seeded
#   Monte Carlo;
# - run_decay, run_circle: deep Birkhoff averages whose rows are each one atom;
# - run_boole, run_bump: averages with no simple form, whose norm columns are
#   quadrature.  run_boole exits 2 because its depth-16 row misses
#   l1_constant (l1 0.99934...): past the breakpoint cap the average lists
#   none, its L1 quadrature stops at the segment cap and the error it
#   returns is dropped, an open fault kept visible here;
# - run_scan1, run_scan7: Urbanik scans whose every star value is the exact
#   oracle's;
# - run_mecke: an identity suite whose three Mecke checks take 2000 replicates;
# - blum_hanson_csv, blum_hanson_json: a blum_hanson run whose subsequence is
#   truncated at its cap.
@_TRUNCATION
@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_entry(name):
    # a moved entry names a numpy or Python version other than the pinned
    # one first: their Generator streams may move the bytes
    assert _rerun(name) == GOLDEN[name], "\n".join(
        golden.mismatch() + golden.diff(name, GOLDEN[name], _rerun(name)))


def test_golden_names_a_version_other_than_the_pinned_one(monkeypatch):
    pinned = json.loads(golden.MANIFEST.read_text())[golden.VERSIONS]
    monkeypatch.setattr(golden, "running", lambda: pinned)
    assert golden.mismatch() == []
    monkeypatch.setattr(golden, "running", lambda: {**pinned, "numpy": "0.0"})
    assert golden.mismatch() == [f"pinned with numpy {pinned['numpy']}, running 0.0"]


@_TRUNCATION
def test_golden_names_exactly_the_moved_cell_and_digest():
    mutated = golden.load()
    row = mutated["run_boole"]["lines"][3].split(",")
    old_cell, row[2] = row[2], "0.5"
    mutated["run_boole"]["lines"][3] = ",".join(row)
    old_digest = mutated["suite_json"]["sha256"]
    mutated["suite_json"]["sha256"] = "0" * 64
    assert [name for name in mutated if _rerun(name) != mutated[name]] == ["suite_json", "run_boole"]
    assert [line for name in mutated for line in golden.diff(name, mutated[name], _rerun(name))] == [
        f"suite_json: sha256 {'0' * 64} -> {old_digest}",
        f"run_boole: line 4, column 3: 0.5 -> {old_cell}",
    ]
