"""Benchmark of the poisson_orlicz package, driven from outside.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Run from the root of a checkout.  One run is one fresh process: it times the
set-up (interpreter start, package import, inputs built) in child processes,
then repeats one unit of the workload until ``--seconds`` are used, timing a
fixed reference computation between units to calibrate the unit times.  With
``--trace 1`` units alternate between untraced and traced, and the per-layer
metrics come from the traced unit of median duration.  The last line of
standard output is one JSON object; the exit code is non-zero if any
correctness check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# pin BLAS/OpenMP pools before numpy is imported, in this process and its children
THREADS = str(min(2, os.cpu_count() or 1))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402

WORKLOAD_NAMES = ("suite", "transfer", "mc_decay", "oracles")
SETUP_PROBES = 3          # child processes timed for setup_s
MIN_UNITS = 3             # untraced units per run, even past --seconds
MIN_TRACED_UNITS = 2      # traced and untraced units each, with --trace 1
PROBE_TIMEOUT_S = 60
REF_NOMINAL_S = 0.1       # Reference.run() on the unloaded baseline machine

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _die(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _check_source():
    if not (SRC / "poisson_orlicz" / "__init__.py").is_file():
        _die(f"no package source at {SRC / 'poisson_orlicz'}; "
             "run from the root of a full checkout")


def _import_package():
    _check_source()
    sys.path.insert(0, str(SRC))
    import poisson_orlicz
    if Path(poisson_orlicz.__file__).resolve().parent != SRC / "poisson_orlicz":
        _die(f"imported poisson_orlicz from {poisson_orlicz.__file__}, not {SRC}")
    import workloads
    return workloads


def _probe_setup(workload: str, seed: int) -> None:
    """Child side of setup_s: import, build the inputs, say so, exit."""
    workloads = _import_package()
    workloads.WORKLOADS[workload](seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported the
    package and built the workload's inputs, once per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or rc != 0:
            _die(f"set-up probe failed with exit code {rc}", 1)
        out.append(elapsed)
    return out


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _baseline() -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


class Reference:
    """Fixed numpy and interpreter work that never touches the package.

    On a shared virtual machine the CPU speed a process gets drifts by tens
    of percent over tens of seconds, and the unit times drift with it.  The
    reference is timed before and after every unit; the unit time metrics
    are the measured times scaled by REF_NOMINAL_S / reference time, i.e.
    seconds at the speed at which the reference takes REF_NOMINAL_S.
    """

    def __init__(self):
        import numpy
        self._np = numpy
        rng = numpy.random.default_rng(0)
        # 2.4 MB, the size of one Hsu panel chunk, and 8 MB, the size of a
        # Birkhoff sample array: beyond L2, like the workloads' arrays
        self._x = rng.random(300_000)
        self._big = rng.random(1_000_000)

    def run(self) -> tuple[float, float]:
        t0, c0 = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(500_000):
            acc += i * i
        x = self._x
        for _ in range(4):
            float((self._np.sin(x * 7.0) * self._np.exp(-x)).sum())
        for _ in range(4):
            float(self._np.abs(self._big - 0.5).sum())
        return time.perf_counter() - t0, time.process_time() - c0


def calibrated(times, refs) -> float:
    """Sum of measured times over sum of their reference times, in seconds
    at nominal speed."""
    return sum(times) / sum(refs) * REF_NOMINAL_S


def run_units(work, seconds: float, trace: bool, ref: Reference):
    """Repeat the unit until ``seconds`` are used; returns per-unit records.

    Each record carries the mean reference time taken just before and just
    after the unit.
    """
    units = []
    start = time.perf_counter()
    before = ref.run()
    while True:
        traced = trace and len(units) % 2 == 1
        tracer = spans.Tracer() if traced else None
        t0 = time.perf_counter()
        c0 = time.process_time()
        if traced:
            with tracer, tracer.root():
                outcome = work.run()
        else:
            outcome = work.run()
        digest = hashlib.sha256(outcome.output).hexdigest()
        t1 = time.perf_counter()
        c1 = time.process_time()
        after = ref.run()
        units.append({"traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                      "ref_wall_s": 0.5 * (before[0] + after[0]),
                      "ref_cpu_s": 0.5 * (before[1] + after[1]),
                      "outcome": outcome, "sha256": digest, "tracer": tracer})
        before = after
        plain = [u for u in units if not u["traced"]]
        done = len(plain) >= (MIN_TRACED_UNITS if trace else MIN_UNITS)
        if trace:
            done = done and len(units) - len(plain) >= MIN_TRACED_UNITS
        typical = statistics.median(u["wall_s"] + u["ref_wall_s"] for u in units)
        if done and time.perf_counter() - start + typical > seconds:
            return units


def _calibrated_wall(units) -> float:
    return calibrated([u["wall_s"] for u in units], [u["ref_wall_s"] for u in units])


def _median_unit(units):
    ordered = sorted(units, key=lambda u: u["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def one_run(args) -> int:
    setups = measure_setup(args.workload, args.seed)
    ref = Reference()
    workloads = _import_package()
    env = environment()
    work = workloads.WORKLOADS[args.workload](args.seed)
    units = run_units(work, args.seconds, bool(args.trace), ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(u["outcome"].attempted for u in units)
    failed = sum(u["outcome"].failed for u in units)
    notes = [n for u in units for n in u["outcome"].notes]
    digests = {u["sha256"] for u in units}
    if len(digests) != 1:
        notes.append("output bytes differ between repeats"
                     + (" (traced vs untraced)" if args.trace else ""))
    correct = failed == 0 and len(digests) == 1
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]

    print("env " + json.dumps(env, sort_keys=True))
    print(f"units {len(units)} (traced {len(traced)}); wall_s "
          + " ".join(f"{u['wall_s']:.4f}{'T' if u['traced'] else ''}" for u in units))
    print("reference_s " + " ".join(f"{u['ref_wall_s']:.4f}" for u in units))
    print("setup_s probes " + " ".join(f"{s:.4f}" for s in setups))
    digest = sorted(digests)[0]
    recorded = _baseline().get("output_sha256", {}).get(args.workload, {}).get(str(args.seed))
    status = ("not recorded" if recorded is None
              else "same as baseline" if recorded == digest else "DIFFERS from baseline")
    print(f"output_sha256 {args.workload} seed {args.seed} {digest} ({status})")
    print(f"fail_ratio {failed}/{attempted} operations")
    for n in notes:
        print(f"FAILED: {n}")

    timed = plain[1:]  # the first unit is the warm-up
    if args.trace:
        tracer = _median_unit(traced)["tracer"]
        layers = tracer.layer_self_times()
        total = sum(layers.values())
        for name, val in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"self {name:28s} {val:9.4f} s {100.0 * val / total:6.2f} %")
        print(f"self sum {total:.6f} s vs traced wall {tracer.stats['bench']['total_s']:.6f} s")
        values = spans.per_layer_metrics(tracer)
        values["trace.wall_s"] = _calibrated_wall(traced)
        values["trace.untraced_wall_s"] = _calibrated_wall(timed)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units_of = {k: per_layer_unit(k) for k in values}
    else:
        values = {
            "wall_s": _calibrated_wall(timed),
            "cpu_s": calibrated([u["cpu_s"] for u in timed], [u["ref_cpu_s"] for u in timed]),
            "peak_rss_mb": peak_rss_mb,
            # not calibrated: spawning and importing does not track the
            # reference's speed, and calibrating it widened its spread
            "setup_s": statistics.median(setups),
        }
        print(f"raw wall_s median {statistics.median(u['wall_s'] for u in timed):.4f} "
              f"cpu_s median {statistics.median(u['cpu_s'] for u in timed):.4f}")
        units_of = END_TO_END_UNITS
    metrics = {k: {"value": float(v), "unit": units_of[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"metric {k} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("eval_points", "points"), ("replicates", "replicates")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, one table; fails if any fails."""
    bad = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            bad += 1
            continue
        ok = proc.returncode == 0 and result["correct"]
        bad += not ok
        print(f"{name}: correct {result['correct']} fail_ratio "
              f"{result['failed']}/{result['attempted']}")
        for key, m in result["metrics"].items():
            print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0
    _check_source()
    if args.workload == "all":
        return run_all(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
