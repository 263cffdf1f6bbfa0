"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that tracing changes no output byte, that the per-layer self
times add up to the traced wall time, that no patched name survives a traced
run, that each workload's named layer dominates its traced self time, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from poisson_orlicz import experiments, measure  # noqa: E402


class SmallOracles(workloads.Oracles):
    """The oracles unit on two small functions and a short scan."""

    def __init__(self, seed):
        super().__init__(seed)
        self.functions = [measure.SimpleFunction(((0.2, 0.5),)),
                          measure.SimpleFunction(((0.1, 0.4), (-0.05, 1.0)))]
        self.scan = experiments.default_config(
            "urbanik_scan", seed=seed,
            function={"shape": "random_atoms", "samples": 10, "max_atoms": 5,
                      "value_range": (0.05, 5.0), "mass_range": (0.01, 10.0)})


def traced_run(work):
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    with tracer, tracer.root():
        outcome = work.run()
    return outcome, tracer, time.perf_counter() - t0


@pytest.fixture(scope="module")
def suite_runs():
    work = workloads.Suite(1)
    plain = work.run()
    traced, tracer, wall = traced_run(work)
    return plain, traced, tracer, wall


def test_tracing_keeps_output_bytes(suite_runs):
    plain, traced, _, _ = suite_runs
    assert plain.failed == traced.failed == 0
    assert plain.output == traced.output
    small = SmallOracles(3)
    assert small.run().output == traced_run(small)[0].output


def test_self_times_sum_to_traced_wall(suite_runs):
    _, _, tracer, wall = suite_runs
    total = sum(tracer.layer_self_times().values())
    root = tracer.stats["bench"]["total_s"]
    assert total == pytest.approx(root, rel=1e-9, abs=1e-9)
    assert root <= wall


def test_no_patched_name_left_behind():
    before = spans.package_attributes()
    SmallOracles(2).run()
    traced_run(SmallOracles(2))
    assert spans.package_attributes() == before
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    assert spans.package_attributes() == before


def test_every_layer_is_reached(suite_runs):
    _, _, tracer, _ = suite_runs
    m = spans.per_layer_metrics(tracer)
    for key in ("measure.integrate.calls", "measure.function_moments.calls",
                "dynamics.transfer_apply.calls", "dynamics.birkhoff.eval_points",
                "poisson.estimate.calls", "poisson.exact.calls", "orlicz.modular.calls",
                "poisson.sample_process.calls", "experiments.rows"):
        assert m[key] > 0, key
    assert m["poisson.hsu.calls"] == 0
    _, small, _ = traced_run(SmallOracles(4))
    assert spans.per_layer_metrics(small)["poisson.hsu.calls"] == 2


@pytest.mark.parametrize("name, layers", [
    ("suite", ("poisson.mecke",)),
    ("transfer", ("dynamics.transfer", "measure.integrate")),
    ("mc_decay", ("dynamics.birkhoff", "poisson.estimate")),
    ("oracles", ("poisson.hsu",)),
])
def test_named_layer_dominates(name, layers):
    _, tracer, _ = traced_run(workloads.WORKLOADS[name](1))
    shares = tracer.layer_self_times()
    named = sum(shares.get(layer, 0.0) for layer in layers)
    others = [v for k, v in shares.items() if k not in layers]
    assert named > max(others)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
