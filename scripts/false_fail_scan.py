"""The suite's false-fail rate: ``porlicz suite`` over seeds 1..N.

Runs each scenario's suite config in-process at every seed from 1 to N (200
by default), prints each seed at which a verdict fails with the failing
``scenario verdict`` ids, then the number and share of failing seeds.  A
correct run misses a Monte Carlo band by chance, so this rate is what the
gate's bands cost; the README states it.

    PYTHONPATH=src python scripts/false_fail_scan.py [--seeds N]

Seeds 1..200 take about 40-50 s on one core.
"""

import argparse

from poisson_orlicz.experiments import _SCENARIOS, default_config, run_experiment


def failing_verdicts(seed: int) -> list[str]:
    """The ``scenario verdict`` id of every failed verdict of the suite at
    ``seed``, each once, in suite order."""
    failed = []
    for scenario, declared in _SCENARIOS.items():
        rows, _ = run_experiment(default_config(scenario, seed=seed, **declared.suite))
        for row in rows:
            for v in row.verdicts:
                name = f"{scenario} {v.id}"
                if not v.passed and name not in failed:
                    failed.append(name)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=200, help="scan seeds 1..N (default 200)")
    n = p.parse_args(argv).seeds
    if n < 1:
        p.error("--seeds must be at least 1")
    bad = 0
    for seed in range(1, n + 1):
        failed = failing_verdicts(seed)
        if failed:
            bad += 1
            print(f"seed {seed}: {'; '.join(failed)}", flush=True)
    print(f"{bad} of {n} seeds fail ({100.0 * bad / n:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
