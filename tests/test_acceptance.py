"""Acceptance suite.

Each test runs one acceptance criterion end to end through the same
experiment functions the CLI dispatches to, using the configs shipped in
``configs/`` (so every criterion is also runnable as ``adagibbs <cmd>
--config configs/<name>.json --check``).  One PASS/FAIL line per criterion
is printed with the measured numbers and runtime; run with ``pytest -s`` to
see them.
"""

import json
import math
import os
import time

import pytest

from adagibbs.experiments import (
    ExperimentConfig,
    bounds_experiment,
    counterexample_experiment,
    geometric_gap_experiment,
    lazy_variance_experiment,
    optimal_scan_experiment,
    truncated_ladder_experiment,
)
from adagibbs.ladder import _TOTAL_MASS, _mass, truncated_ladder_target

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load_config(name, **overrides):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        data = json.load(fh)
    data.pop("out", None)
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def report(number, label, result, elapsed, budget):
    status = "PASS" if (result.passed and elapsed < budget) else "FAIL"
    details = "; ".join(c["detail"] for c in result.checks.values())
    print(f"ACCEPTANCE {number} {label}: {status} ({details}; {elapsed:.1f}s of {budget:.0f}s)")
    assert result.passed, details
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def timed(fn, config):
    start = time.perf_counter()
    result = fn(config)
    return result, time.perf_counter() - start


def test_criterion_1_lazy_variance_identity():
    config = load_config("lazy_variance.json")
    assert config.params["n_chains"] == 100
    assert config.params["tolerance"] == 1e-10
    result, elapsed = timed(lazy_variance_experiment, config)
    report(1, "lazy-variance identity", result, elapsed, budget=5.0)


def test_criterion_2_tv_lipschitz_bound():
    config = load_config("bounds.json", families=["lipschitz"])
    assert config.params["n_targets"] == 100
    assert config.params["epsilon"] == 0.1
    result, elapsed = timed(bounds_experiment, config)
    report(2, "weight-TV Lipschitz bound", result, elapsed, budget=10.0)


def test_criterion_3_uniform_ergodicity_bound():
    config = load_config("bounds.json", families=["uniform"])
    assert config.params["n_alphas"] == 20
    assert config.params["horizon"] == 200
    result, elapsed = timed(bounds_experiment, config)
    report(3, "uniform ergodicity bound", result, elapsed, budget=30.0)


def test_criterion_4_counterexample_transience():
    config = load_config("counterexample.json", emit_traces=False)
    assert config.params["n_steps"] == 100_000
    assert config.params["n_runs"] == 20
    result, elapsed = timed(counterexample_experiment, config)
    report(4, "ladder transience vs control", result, elapsed, budget=60.0)


def test_control_check_false_failure_rate_under_the_stationary_tail():
    """The ``control_contained`` check fails when ``n_runs - min_successes + 1``
    or more control runs end above ``control_threshold``.  Taking each run's
    final height as an independent draw from the ladder target gives a
    binomial tail; the runs start on the bottom rung, so this is assumed,
    not proved, to be an upper estimate (see calibration/README.md)."""
    p = load_config("counterexample.json").params
    # the rungs with x_1 <= threshold are those of the ladder truncated there
    below = truncated_ladder_target(p["control_threshold"]).states
    tail = 1.0 - math.fsum(_mass(x) for x in below) / _TOTAL_MASS
    n, k = p["n_runs"], p["n_runs"] - p["min_successes"] + 1
    rate = math.fsum(math.comb(n, m) * tail**m * (1.0 - tail) ** (n - m) for m in range(k, n + 1))
    assert tail == pytest.approx(0.01216, abs=5e-6)
    assert rate == pytest.approx(3.54e-6, abs=5e-9)
    assert rate < 1e-5


def test_criterion_5_truncated_ladder_ergodicity():
    config = load_config("truncated_ladder.json")
    assert config.params["truncation"] == 20
    assert config.params["tv_target"] == 1e-3
    result, elapsed = timed(truncated_ladder_experiment, config)
    print(f"  truncated-ladder horizon: {result.summary['horizon']} steps")
    report(5, "truncated ladder ergodicity", result, elapsed, budget=60.0)


def test_criterion_6_geometric_gap():
    config = load_config("geometric_gap.json")
    assert config.params["kernel_band"] == (0.45, 0.5)
    result, elapsed = timed(geometric_gap_experiment, config)
    report(6, "proposal-vs-kernel gap example", result, elapsed, budget=5.0)


def test_criterion_7_strong_uniform_constants():
    config = load_config("bounds.json", families=["strong"])
    assert config.params["n_chains"] == 50
    result, elapsed = timed(bounds_experiment, config)
    report(7, "strong-uniform constants", result, elapsed, budget=10.0)


@pytest.fixture(scope="module")
def optimal_scan_result():
    config = load_config("optimal_scan.json")
    assert config.params["scales"] == (1.0, 2.0, 4.0, 8.0, 16.0)
    assert config.params["weight_tolerance"] == 0.05
    assert config.params["acceptance_band"] == (0.34, 0.54)
    return timed(optimal_scan_experiment, config)


def test_criterion_8_optimal_scan_weights_and_variance(optimal_scan_result):
    result, elapsed = optimal_scan_result
    partial = type(result)(
        summary=result.summary,
        checks={
            k: v
            for k, v in result.checks.items()
            if k in ("weights_near_ideal", "variance_ratio")
        },
    )
    report(8, "optimal scan weights + variance", partial, elapsed, budget=300.0)


def test_criterion_9_acceptance_rate_targeting(optimal_scan_result):
    result, elapsed = optimal_scan_result
    partial = type(result)(
        summary=result.summary,
        checks={k: v for k, v in result.checks.items() if k == "acceptance_targeted"},
    )
    report(9, "batch acceptance targeting", partial, elapsed, budget=300.0)
