"""The repository scripts keep what the README states about them."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def false_fail_scan():
    return _load("false_fail_scan")


def test_false_fail_scan_gives_the_readme_verdicts(false_fail_scan):
    # the README's list over seeds 1-200: seed 13 fails once, seed 97 twice
    assert false_fail_scan.failing_verdicts(1) == []
    assert false_fail_scan.failing_verdicts(13) == ["invariant_vector at_invariant_level"]
    assert sorted(false_fail_scan.failing_verdicts(97)) == [
        "invariant_vector at_invariant_level", "transfer_decay exact_oracle"]


def test_false_fail_scan_refuses_no_seeds(false_fail_scan, capsys):
    with pytest.raises(SystemExit) as exit_info:
        false_fail_scan.main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
