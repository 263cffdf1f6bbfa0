"""Tests for the experiment drivers, verdicts, and canonical writers."""

import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from poisson_orlicz.experiments import (
    ConfigError,
    ExperimentConfig,
    default_config,
    result_to_csv,
    result_to_json,
    run_birkhoff_decay,
    run_blum_hanson,
    run_experiment,
    run_identity_suite,
    run_invariant_vector,
    run_starstar_ergodic,
    run_transfer_decay,
    run_urbanik_scan,
)


def poisson_mad(c):
    k = math.floor(c)
    return 2.0 * c ** (k + 1) * math.exp(-c) / math.factorial(k)


# ---------------------------------------------------------------------------
# configuration

def test_config_requires_seed():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "scenario": "birkhoff_decay",
            "system": {"kind": "translation", "step": 1.0},
            "function": {"shape": "indicator", "lo": 0, "hi": 1},
            "depths": [1, 2],
            "replicates": 2000,
            "seed": None,
        })


def test_config_validation_errors():
    base = default_config("birkhoff_decay", seed=1, replicates=2000)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, replicates=999).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, depths=(2, 2)).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, depths=(0, 1)).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, scenario="mystery").validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, subsequence="1").validate()
    # system parameters are checked by the builder at load, not at run
    with pytest.raises(ConfigError, match="translation step must be finite"):
        dataclasses.replace(base, system={"kind": "translation", "step": float("inf")})
    dataclasses.replace(base, scenario="transfer_decay", depths=(0, 1),
                        system={"kind": "boole"}, expected={}).validate()


# each: scenario, field overrides that make its stock config unrunnable, and
# what the refusal names
LOAD_REFUSALS = {
    "transfer_on_translation": ("transfer_decay", {"system": {"kind": "translation"}},
                                "transfer_decay runs on the boole system only"),
    "invariant_on_boole": ("invariant_vector",
                           {"system": {"kind": "boole"},
                            "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0}},
                           "invariant_vector runs on the composite system only"),
    "birkhoff_on_composite": ("birkhoff_decay", {"system": {"kind": "composite"}},
                              "birkhoff_decay runs on the translation or boole system"),
    "empty_indicator": ("birkhoff_decay",
                        {"function": {"shape": "indicator", "lo": 1.0, "hi": 1.0}},
                        "function spec for shape 'indicator'"),
    "circle_on_translation": ("birkhoff_decay", {"function": {"shape": "circle"}},
                              "function spec for shape 'circle'"),
    "steps_count_mismatch": ("birkhoff_decay",
                             {"function": {"shape": "steps", "breaks": [0.0, 1.0, 2.0],
                                           "values": [1.0]}},
                             "function spec for shape 'steps'"),
    "generator_as_function": ("birkhoff_decay", {"function": {"shape": "random_atoms"}},
                              "unknown function shape 'random_atoms'"),
    "function_as_generator": ("urbanik_scan",
                              {"function": {"shape": "indicator", "lo": 0.0, "hi": 1.0}},
                              "unknown function shape 'indicator'; use random_atoms"),
    "no_subsequence": ("blum_hanson", {"subsequence": None},
                       "blum_hanson needs a subsequence"),
    "every_depth_over_cap": ("blum_hanson",
                             {"depths": (3, 4), "subsequence": "2^k", "subsequence_cap": 4},
                             "subsequence 2^k exceeds subsequence_cap 4 at every depth"),
    "stray_expected_star": ("birkhoff_decay",
                            {"depths": (1, 2), "expected": {"star": {"99": 1.0}}},
                            "expected.star keys 99 name no depth"),
    "non_list_depths": ("birkhoff_decay", {"depths": 5}, "depths must be a JSON array, got 5"),
    "unreachable_slope": ("birkhoff_decay",
                          {"depths": (1, 2), "expected": {"slope": {"value": -0.5}}},
                          "expected.slope.min_depth 8 leaves fewer than two"),
}


@pytest.mark.parametrize("route", ["default_config", "replace", "from_dict"])
@pytest.mark.parametrize("case", sorted(LOAD_REFUSALS))
def test_unrunnable_config_is_refused_at_construction(case, route):
    scenario, change, names = LOAD_REFUSALS[case]
    stock = default_config(scenario, seed=1)
    with pytest.raises(ConfigError, match=re.escape(names)):
        if route == "default_config":
            default_config(scenario, seed=1, **change)
        elif route == "replace":
            dataclasses.replace(stock, **change)
        else:
            ExperimentConfig.from_dict(dict(stock.to_dict(), **change))


@pytest.mark.parametrize("seed, names", [(-1, "seed must be nonnegative, got -1"),
                                         (True, "seed must be an integer, got True"),
                                         (1.5, "seed must be an integer, got 1.5")])
def test_bad_seed_is_refused(seed, names):
    with pytest.raises(ConfigError, match=names):
        default_config("birkhoff_decay", seed=seed)


# the largest Philox key word a run derives from its seed is seed + 1_000_003
# (n + 1) for its deepest row n, seed + 12 in the identity suite, and the seed
# itself in the urbanik scan; the largest seed allowed still runs
@pytest.mark.parametrize("scenario, seed, overrides, largest", [
    ("birkhoff_decay", 2 ** 64 - 1, {"depths": (1,), "replicates": 1000},
     2 ** 64 - 1 - 2_000_006),
    ("identity_suite", 2 ** 64 - 5, {"replicates": 1000}, 2 ** 64 - 13),
    ("urbanik_scan", 2 ** 64, {}, 2 ** 64 - 1),
])
def test_seed_past_the_philox_key_range_is_refused_at_load(scenario, seed, overrides, largest):
    with pytest.raises(ConfigError, match=f"seed must be at most {largest} for {scenario}"):
        default_config(scenario, seed, **overrides)
    _, summary = run_experiment(default_config(scenario, largest, **overrides))
    assert summary["all_pass"] is True


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({
            "scenario": "birkhoff_decay",
            "system": {"kind": "translation"},
            "function": {"shape": "indicator", "lo": 0, "hi": 1},
            "seed": 5,
            "bogus": 1,
        })


def test_config_round_trip_and_hash():
    cfg = default_config("birkhoff_decay", seed=7, depths=(1, 2), replicates=2000)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    other = default_config("birkhoff_decay", seed=8, depths=(1, 2), replicates=2000)
    assert other.config_hash() != cfg.config_hash()


# ---------------------------------------------------------------------------
# birkhoff decay

def test_birkhoff_decay_matches_closed_form():
    cfg = default_config("birkhoff_decay", seed=31,
                         depths=(1, 2, 4, 8), replicates=20000)
    rows, summary = run_birkhoff_decay(cfg)
    assert summary["all_pass"]
    for r in rows:
        target = poisson_mad(r.n) / r.n
        assert abs(r.star.mean - target) <= 3.0 * r.star.std_error
        assert abs(r.l1 - 1.0) < 1e-12
        assert abs(r.gauge - r.n ** -0.5) < 1e-9
        assert r.norm_source == "simple"


def test_birkhoff_decay_rejects_composite():
    cfg = default_config("birkhoff_decay", seed=3, depths=(1, 2), replicates=2000)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, system={"kind": "composite"})


def test_birkhoff_rerun_is_bit_identical():
    cfg = default_config("birkhoff_decay", seed=11, depths=(1, 2), replicates=2000)
    rows1, summary1 = run_birkhoff_decay(cfg)
    rows2, summary2 = run_birkhoff_decay(cfg)
    assert result_to_json(cfg, rows1, summary1) == result_to_json(cfg, rows2, summary2)


def test_birkhoff_expected_star_tamper_fails():
    cfg = default_config("birkhoff_decay", seed=11, depths=(1,), replicates=2000,
                         expected={"star": {"1": 0.95}})
    rows, summary = run_birkhoff_decay(cfg)
    assert not summary["all_pass"]
    ids = {v.id: v for v in rows[0].verdicts}
    assert not ids["expected_star"].passed


def test_birkhoff_slope_verdict():
    cfg = default_config("birkhoff_decay", seed=5,
                         depths=(8, 16, 32), replicates=20000,
                         expected={"slope": {"value": -0.5, "tol": 0.1,
                                             "min_depth": 8}})
    rows, summary = run_birkhoff_decay(cfg)
    ids = {v.id: v for v in rows[-1].verdicts}
    assert ids["slope"].passed


# ---------------------------------------------------------------------------
# blum-hanson subsequences

def test_birkhoff_decay_past_the_pullback_cap_is_discretized():
    # at depth 16 the Boole average has more breakpoints than the cap; its
    # row once read l1 0.0 and gauge 0.0 from a one-cell spot check
    cfg = default_config("birkhoff_decay", seed=3, system={"kind": "boole"},
                         depths=(12, 16), replicates=2000)
    rows, _ = run_experiment(cfg)
    assert [r.norm_source for r in rows] == ["simple", "discretized"]
    deep = rows[1]
    assert "exact_oracle" not in {v.id for v in deep.verdicts}
    assert abs(deep.l1 - 1.0) < 1e-3
    assert deep.gauge > 0.0


def test_blum_hanson_identity_subsequence_reduces_to_birkhoff():
    kwargs = dict(depths=(1, 2, 3), replicates=2000)
    cfg_b = default_config("birkhoff_decay", seed=17, **kwargs)
    cfg_s = dataclasses.replace(cfg_b, scenario="blum_hanson", subsequence="k",
                                expected={})
    cfg_b = dataclasses.replace(cfg_b, expected={})
    rows_b, _ = run_birkhoff_decay(cfg_b)
    rows_s, _ = run_blum_hanson(cfg_s)
    for rb, rs in zip(rows_b, rows_s):
        assert rb.star.mean == rs.star.mean
        assert rb.gauge == rs.gauge


def test_blum_hanson_requires_subsequence():
    cfg = default_config("blum_hanson", seed=2, depths=(1, 2), replicates=2000)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, subsequence=None)


def test_blum_hanson_cap_truncates_with_warning():
    cfg = default_config("blum_hanson", seed=9, depths=(1, 2, 3, 4, 5),
                         replicates=2000, subsequence="2^k", subsequence_cap=8)
    with pytest.warns(UserWarning):
        rows, summary = run_blum_hanson(cfg)
    assert [r.n for r in rows] == [1, 2, 3]
    assert summary["all_pass"]


def test_blum_hanson_truncation_drops_expectations_at_dropped_depths():
    cfg = default_config("blum_hanson", seed=9, depths=(1, 2, 3, 4, 5), replicates=2000,
                         subsequence="2^k", subsequence_cap=8, expected={"star": {"5": 0.1}})
    with pytest.warns(UserWarning, match="truncating to"):
        rows, summary = run_blum_hanson(cfg)
    assert [r.n for r in rows] == [1, 2, 3]
    assert all(v.id != "expected_star" for r in rows for v in r.verdicts)
    assert summary["all_pass"]


def test_blum_hanson_truncated_run_is_the_run_of_the_kept_depths():
    # a truncated run is the run of the config that lists only the kept depths;
    # its CSV and JSON digest is the one the runner has always written
    kwargs = dict(replicates=2000, subsequence="2^k", subsequence_cap=8,
                  expected={"star": {"2": 0.5413}})
    cfg = default_config("blum_hanson", seed=9, depths=(1, 2, 3, 4, 5), **kwargs)
    with pytest.warns(UserWarning, match="at depths \\[4, 5\\]"):
        rows, summary = run_blum_hanson(cfg)
    kept = default_config("blum_hanson", seed=9, depths=(1, 2, 3), **kwargs)
    assert (rows, summary) == run_blum_hanson(kept)
    assert summary["config_hash"] == kept.config_hash() == "fcaa8825b44e0eb0"
    text = result_to_csv(rows, summary) + result_to_json(cfg, rows, summary)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ee28ebbead9840c9001854d3c4f2c9cddea2b9febce00cd2c33683ecb07ef647")


def test_blum_hanson_verdicts_pass():
    cfg = default_config("blum_hanson", seed=7, depths=(1, 2, 4),
                         replicates=5000, subsequence="k^2")
    rows, summary = run_blum_hanson(cfg)
    assert summary["all_pass"]
    for r in rows:
        target = poisson_mad(r.n) / r.n
        assert abs(r.star.mean - target) <= 3.0 * r.star.std_error


# ---------------------------------------------------------------------------
# transfer decay

def test_transfer_decay_rejects_translation():
    cfg = default_config("transfer_decay", seed=4, depths=(0, 1), replicates=1500)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, system={"kind": "translation", "step": 1.0})


def test_transfer_decay_small_depths():
    cfg = default_config("transfer_decay", seed=29, depths=(0, 1, 2, 3),
                         replicates=1500)
    rows, summary = run_transfer_decay(cfg)
    assert summary["all_pass"]
    r0 = rows[0]
    assert abs(r0.star.mean - 2.0 * math.exp(-1.0)) <= 3.0 * r0.star.std_error
    assert r0.norm_source == "simple"
    for r in rows:
        assert abs(r.l1 - 1.0) < 3e-4
    # each depth's interpolant reports its fit error estimate, f itself 0.0
    fit = summary["fit_error_estimate"]
    assert sorted(fit) == ["0", "1", "2", "3"] and fit["0"] == 0.0
    assert all(0.0 <= v <= 1e-13 for v in fit.values())
    assert rows[1].norm_source == "discretized"


# ---------------------------------------------------------------------------
# urbanik scan

def test_urbanik_scan_bounds_hold():
    cfg = default_config("urbanik_scan", seed=101)
    fn = dict(cfg.function)
    fn["samples"] = 60
    cfg = dataclasses.replace(cfg, function=fn)
    rows, summary = run_urbanik_scan(cfg)
    assert summary["all_pass"]
    assert len(rows) == 60
    rg = summary["ratio_star_over_gauge"]
    assert 0.125 <= rg["min"] <= rg["max"] <= 2.125
    ro = summary["ratio_star_over_orlicz"]
    assert ro["max"] <= 1.0 + 1e-12
    again, _ = run_urbanik_scan(cfg)
    assert [r.star.mean for r in again] == [r.star.mean for r in rows]


def test_urbanik_scan_requires_generator_spec():
    cfg = default_config("urbanik_scan", seed=1)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, function={"shape": "indicator", "lo": 0, "hi": 1})


# ---------------------------------------------------------------------------
# starstar ergodic

def test_starstar_ergodic_matches_scaled_mad():
    cfg = default_config("starstar_ergodic", seed=13, depths=(1, 2, 4),
                         replicates=20000)
    rows, summary = run_starstar_ergodic(cfg)
    assert summary["all_pass"]
    for r in rows:
        target = poisson_mad(r.n) / r.n
        assert abs(r.star.mean - target) <= 3.0 * r.star.std_error
    assert abs(rows[0].star.mean - 2.0 * math.exp(-1.0)) <= 3.0 * rows[0].star.std_error


# ---------------------------------------------------------------------------
# invariant vector

def test_invariant_vector_stays_at_circle_norm():
    cfg = default_config("invariant_vector", seed=37, depths=(1, 2, 4),
                         replicates=20000)
    rows, summary = run_invariant_vector(cfg)
    assert summary["all_pass"]
    target = 2.0 * math.exp(-1.0)
    for r in rows:
        assert abs(r.star.mean - target) <= 3.0 * r.star.std_error
        assert abs(r.gauge - 1.0) < 1e-9


def test_invariant_vector_with_transient_bump():
    cfg = default_config("invariant_vector", seed=41, depths=(1, 4, 16),
                         replicates=20000,
                         function={"shape": "circle_plus_indicator",
                                   "lo": 0.0, "hi": 1.0})
    rows, summary = run_invariant_vector(cfg)
    assert summary["all_pass"]


def test_invariant_vector_requires_composite():
    cfg = default_config("invariant_vector", seed=2, depths=(1,), replicates=2000)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, system={"kind": "boole"},
                            function={"shape": "indicator", "lo": 0, "hi": 1})


# ---------------------------------------------------------------------------
# identity suite

def test_identity_suite_passes_and_difference_margin_is_zero():
    cfg = default_config("identity_suite", seed=42)
    rows, summary = run_identity_suite(cfg)
    assert rows == []
    assert summary["all_pass"]
    by_id = {c["id"]: c for c in summary["checks"]}
    assert by_id["difference_exact"]["margin"] == 0.0
    assert len(summary["checks"]) == 13


# ---------------------------------------------------------------------------
# writers

def test_csv_writer_fixed_columns():
    cfg = default_config("birkhoff_decay", seed=3, depths=(1, 2), replicates=2000)
    rows, summary = run_experiment(cfg)
    text = result_to_csv(rows, summary)
    header = text.splitlines()[0].split(",")
    assert header[:8] == ["n", "star_mean", "star_se", "star_trunc",
                          "gauge", "orlicz_paper", "l1", "l2"]
    assert "l1_constant_pass" in header
    assert len(text.splitlines()) == 3


def test_csv_writer_identity_shape():
    cfg = default_config("identity_suite", seed=1)
    rows, summary = run_identity_suite(cfg)
    text = result_to_csv(rows, summary)
    lines = text.splitlines()
    assert lines[0] == "check,passed,margin"
    assert len(lines) == 14


def test_json_writer_round_trip_and_determinism():
    cfg = default_config("birkhoff_decay", seed=19, depths=(1, 2), replicates=2000)
    rows, summary = run_experiment(cfg)
    doc = json.loads(result_to_json(cfg, rows, summary))
    assert doc["config"] == cfg.to_dict()
    assert doc["config_hash"] == cfg.config_hash()
    assert len(doc["rows"]) == 2
    assert doc["summary"]["all_pass"] is True
    rows2, summary2 = run_experiment(cfg)
    assert result_to_json(cfg, rows2, summary2) == result_to_json(cfg, rows, summary)


def test_default_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        default_config("nope", seed=1)


# ---------------------------------------------------------------------------
# pinned config hashes: every stock config and every `porlicz suite` config

STOCK_HASHES = {
    "birkhoff_decay": "456e9014e54aa4d8",
    "blum_hanson": "287fe1809cd1e44a",
    "transfer_decay": "7df905e7808ff343",
    "urbanik_scan": "cdede08e7d40e403",
    "starstar_ergodic": "1b798774c8b99af1",
    "invariant_vector": "ec8c2280d81867a1",
    "identity_suite": "c5bdee13daad387e",
}
SUITE_HASHES = {
    "identity_suite": "c5bdee13daad387e",
    "birkhoff_decay": "a4316401ca018e9f",
    "blum_hanson": "0ecb43e22c1cb60b",
    "transfer_decay": "dbbd33fd6ffdbb65",
    "urbanik_scan": "fec973167cedaaa0",
    "starstar_ergodic": "8f14489224f41519",
    "invariant_vector": "fc4a444baf146a70",
}


def _assert_round_trip(cfg):
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("scenario", sorted(STOCK_HASHES))
def test_stock_config_hash_is_pinned(scenario):
    cfg = default_config(scenario, seed=42)
    assert cfg.config_hash() == STOCK_HASHES[scenario]
    _assert_round_trip(cfg)


# sha256 of `porlicz suite --seed 42 --format json`: every byte of the gate
SUITE_JSON_SHA256 = "82bf2bd3212c01dc5afd9e9973a5ac47f3297bda2e4ec5db649ff4fe14292081"


def test_suite_config_hashes_are_pinned(capsys):
    from poisson_orlicz.cli import main
    assert main(["suite", "--seed", "42", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_JSON_SHA256
    docs = json.loads(out)["scenarios"]
    assert sorted(docs) == sorted(SUITE_HASHES)
    for scenario, doc in docs.items():
        cfg = ExperimentConfig.from_dict(doc["config"])
        assert cfg.config_hash() == doc["config_hash"] == SUITE_HASHES[scenario]
        _assert_round_trip(cfg)
