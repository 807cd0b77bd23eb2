"""Acceptance suite.

Each test runs one acceptance criterion end to end through the same
experiment functions the CLI dispatches to, using the configs shipped in
``configs/`` (so every criterion is also runnable as ``adagibbs <cmd>
--config configs/<name>.json --check``).  One PASS/FAIL line per criterion
is printed with the measured numbers and runtime; run with ``pytest -s`` to
see them.

The shipped outputs are pinned, so that a change that moves one must edit
its pin and say why.  Tables computed without a BLAS or LAPACK call (the
``counterexample`` final heights and traces, the ``optimal-scan`` batches,
the ``geometric-gap`` gaps) are pinned by the SHA-256 of the bytes the
harness writes; every summary and the ``counterexample`` slopes (a
least-squares fit) are pinned to 1e-9 relative, or 1e-12 absolute near zero.
The other tables are pinned by their row count, the SHA-256 of their integer
and string columns, and each float column's ``math.fsum`` to the same 1e-9
(:func:`table_fingerprint`).  The pins were recorded with numpy 2.4 on x86-64
Linux.
"""

import hashlib
import json
import math
import os
import time
import tracemalloc

import pytest

from adagibbs import experiments
from adagibbs.bounds import strong_uniform_constants
from adagibbs.experiments import (
    ExperimentConfig,
    _write_table,
    bounds_experiment,
    counterexample_experiment,
    geometric_gap_experiment,
    lazy_variance_experiment,
    optimal_scan_experiment,
    truncated_ladder_experiment,
)
from adagibbs.ladder import _TOTAL_MASS
from oracles import assert_pinned, truncated_ladder_target

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


def table_sha256(tmp_path, tables):
    """SHA-256 of ``(header, rows)`` tables, in turn, as the harness writes
    each to its CSV file."""
    digest = hashlib.sha256()
    path = tmp_path / "table.csv"
    for header, rows in tables:
        _write_table(path, header, rows)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def table_fingerprint(tmp_path, table):
    """A table's row count, the SHA-256 of its integer and string columns as
    the harness writes them, and the ``math.fsum`` of each float column."""
    header, rows = table
    floats = [k for k, v in enumerate(rows[0]) if isinstance(v, float)]
    exact = [k for k in range(len(header)) if k not in floats]
    exact_table = ([header[k] for k in exact], [[row[k] for k in exact] for row in rows])
    return {
        "rows": len(rows),
        "exact_sha256": table_sha256(tmp_path, [exact_table]),
        **{f"fsum_{header[k]}": math.fsum(row[k] for row in rows) for k in floats},
    }


PINNED_SUMMARIES = {
    "lazy_variance": {"max_residual": 2.0961010704922955e-13, "tolerance": 1e-10},
    "lipschitz": {"lipschitz": "0 violations over 100 weight pairs"},
    "uniform": {"uniform": "0 violations over 2000 weight draws"},
    "strong": {"strong": "0 violations over 50 chains"},
    "counterexample": {"escapes": 20, "contained": 18, "n_runs": 20,
                       "final_threshold": 500, "control_threshold": 50},
    "truncated_ladder": {"horizon": 13498, "reached": True, "tv_target": 0.001,
                         "final_tv": 0.0009999875962802217, "schedule": "linear"},
    "geometric_gap": {"proposal_gap": 4.6566128714510893e-10,
                      "kernel_gap": 0.4999999888241289},
    "optimal_scan": {
        "weight_gap": 0.029370791664311002,
        "ideal_weights": [0.5161290322580645, 0.25806451612903225, 0.12903225806451613,
                          0.06451612903225806, 0.03225806451612903],
        "final_weights": [0.5301092813195495, 0.24966269508423877, 0.1266936281078864,
                          0.05920011953423869, 0.03433427595408665],
        "window_acceptance": [0.4416697726425643, 0.43532145623547636, 0.5158878504672897,
                              0.4318181818181818, 0.4028776978417266],
        "variance_ratio": 0.5536668440576099,
        "theory_ratio": 0.5636363636363636,
        "ratio_limit": 0.7045454545454545,
        "tau_adaptive": 13.797692353078432,
        "var_adaptive": 0.1745761939841597,
        "tau_uniform": 24.95818469585469,
        "var_uniform": 0.17431307617442796,
    },
}
# The runs table's arm, run, seed and final-height columns; every trace table.
PINNED_COUNTEREXAMPLE_HEIGHTS_SHA256 = (
    "748d6892a3f55255c9ca189689377fba5701a9b69617a43c73d136270ce309f5"
)
PINNED_COUNTEREXAMPLE_TRACES_SHA256 = (
    "98245b557a7f8948a6ba0e7c3462f4d719c0bd2aa49bcbd506e02c8e41de87a2"
)
# The runs table's last-half slopes: 20 adaptive runs, then 20 control runs.
PINNED_COUNTEREXAMPLE_SLOPES = [
    0.15148033089569812, 0.1480864464954132, 0.14912865239515347, 0.14955090116251357,
    0.15210364194876005, 0.15208008126977965, 0.15152187619312293, 0.15055535628774644,
    0.15230113376997284, 0.1530482628519663, 0.15094770905989818, 0.15382891343483476,
    0.14928508661844675, 0.15190812675829207, 0.1527727985663797, 0.15143261317918302,
    0.15040438820112043, 0.14911774193420577, 0.1535978962176847, 0.15012634759149146,
    5.275723615562487e-05, 1.2657101395790545e-05, -6.247645072297557e-05,
    -1.308914372890495e-05, -1.0636843476881927e-05, -3.824255021639776e-07,
    -4.308104102307348e-06, 2.306335154045657e-06, 0.0020107112856662915,
    6.517977140157179e-06, 0.0003797850888148431, 1.730650111608785e-05,
    -2.5089181253053483e-05, 0.0003689540710685726, -9.49805257324719e-06,
    8.934209188301333e-06, 3.527257414533324e-05, 1.3304093551743644e-05,
    -1.234137192381155e-05, -2.154230926821001e-05,
]
PINNED_OPTIMAL_SCAN_BATCHES_SHA256 = (
    "a84e1a626f00ea63abb91d606281fc1c68b0154654e2fb57f96ff7cd0041c666"
)
# The TV column is computed without BLAS, so it is the same bytes on any
# CPU count.
PINNED_TV_TRACE_SHA256 = (
    "c47dd110084be065642992f3c6f179bdf6fc8924892eef9ad4ed677b1e482896"
)
# The proposal gaps take the rest atom's difference in closed form.
PINNED_GEOMETRIC_GAPS_SHA256 = (
    "7795c03cf49bf33b84a51f1f84e01a28b394ffb0d299bfa7957605c69868e91b"
)
PINNED_TABLES = {
    "residuals": {
        "rows": 500,
        "exact_sha256": "e07f2d89ff37a1b0da4e2d9e3040d1c55fb52b85e33c366e3fcb3f1b8d3d1d57",
        "fsum_delta": 280.0,
        "fsum_lazy_spectral": 2238.1774602467426,
        "fsum_identity": 2238.177460246742,
        "fsum_residual": 3.6452707172229815e-12,
    },
    "lipschitz": {
        "rows": 100,
        "exact_sha256": "9353947d8280c999600127c4cd64792d8e71c4c9a3d6e94c936c88db0e681689",
        "fsum_exact_sup_tv": 31.024211447733155,
        "fsum_bound": 69.25568414026964,
    },
    "uniform": {
        "rows": 2000,
        "exact_sha256": "351d01ff5f5965c6468b2a616b1ff34382b068879f619effaa6213fea7baea63",
        "fsum_cert_s": 414.0367188960124,
        "fsum_exact_at_worst_n": 1523.7408091638365,
        "fsum_bound_at_worst_n": 1992.2319119084802,
        "fsum_min_margin": 468.4911027446438,
    },
    "strong": {
        "rows": 50,
        "exact_sha256": "95a12d958cde49d6d0fabd11dacbf90c8b21aeb3aedf0d222dd5e37baa0c1cd2",
        "fsum_cert_s": 30.950468588560497,
        "fsum_s_star": 2.4991350900670457,
        "fsum_min_margin": 4.219774382568463,
    },
    "tv_trace": {
        "rows": 13499,
        "exact_sha256": "ad637cf1d09db2f79f9c6a343d03c7db40316d82961fb0d3ebbd6b0d2155ec53",
        "fsum_tv": 73.25439498994128,
    },
}


def test_criterion_1_lazy_variance_identity(tmp_path):
    config = load_config("lazy_variance.json")
    assert config.params["n_chains"] == 100
    assert config.params["tolerance"] == 1e-10
    result, elapsed = timed(lazy_variance_experiment, config)
    report(1, "lazy-variance identity", result, elapsed, budget=5.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["lazy_variance"])
    assert_pinned(table_fingerprint(tmp_path, result.tables["residuals"]), PINNED_TABLES["residuals"])


def test_criterion_2_tv_lipschitz_bound(tmp_path):
    config = load_config("bounds.json", families=["lipschitz"])
    assert config.params["n_targets"] == 100
    assert config.params["epsilon"] == 0.1
    result, elapsed = timed(bounds_experiment, config)
    report(2, "weight-TV Lipschitz bound", result, elapsed, budget=10.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["lipschitz"])
    assert_pinned(table_fingerprint(tmp_path, result.tables["lipschitz"]), PINNED_TABLES["lipschitz"])


def test_criterion_3_uniform_ergodicity_bound(tmp_path):
    config = load_config("bounds.json", families=["uniform"])
    assert config.params["n_alphas"] == 20
    assert config.params["horizon"] == 200
    result, elapsed = timed(bounds_experiment, config)
    report(3, "uniform ergodicity bound", result, elapsed, budget=30.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["uniform"])
    assert_pinned(table_fingerprint(tmp_path, result.tables["uniform"]), PINNED_TABLES["uniform"])


@pytest.fixture(scope="module")
def counterexample_result():
    config = load_config("counterexample.json")
    assert config.params["n_steps"] == 100_000
    assert config.params["n_runs"] == 20
    assert config.params["emit_traces"]
    return timed(counterexample_experiment, config)


def test_criterion_4_counterexample_transience(counterexample_result):
    result, elapsed = counterexample_result
    report(4, "ladder transience vs control", result, elapsed, budget=60.0)


def test_shipped_counterexample_outputs_are_pinned(counterexample_result, tmp_path):
    result, _ = counterexample_result
    assert_pinned(result.summary, PINNED_SUMMARIES["counterexample"])
    header, rows = result.tables["runs"]
    assert header[4] == "last_half_slope"
    heights = (header[:4], [row[:4] for row in rows])
    assert table_sha256(tmp_path, [heights]) == PINNED_COUNTEREXAMPLE_HEIGHTS_SHA256
    assert_pinned([row[4] for row in rows], PINNED_COUNTEREXAMPLE_SLOPES)
    traces = sorted(name for name in result.tables if name != "runs")
    assert len(traces) == 41
    assert (
        table_sha256(tmp_path, [result.tables[name] for name in traces])
        == PINNED_COUNTEREXAMPLE_TRACES_SHA256
    )


def test_control_check_false_failure_rate_under_the_stationary_tail():
    """The ``control_contained`` check fails when ``n_runs - min_successes + 1``
    or more control runs end above ``control_threshold``.  Taking each run's
    final height as an independent draw from the ladder target gives a
    binomial tail; the runs start on the bottom rung, so this is assumed,
    not proved, to be an upper estimate (see calibration/README.md)."""
    p = load_config("counterexample.json").params
    # the rungs with x_1 <= threshold are those of the ladder truncated there
    below = truncated_ladder_target(p["control_threshold"])
    tail = 1.0 - math.fsum(below.mass(x) for x in below.states) / _TOTAL_MASS
    n, k = p["n_runs"], p["n_runs"] - p["min_successes"] + 1
    rate = math.fsum(math.comb(n, m) * tail**m * (1.0 - tail) ** (n - m) for m in range(k, n + 1))
    assert tail == pytest.approx(0.01216, abs=5e-6)
    assert rate == pytest.approx(3.54e-6, abs=5e-9)
    assert rate < 1e-5


def test_criterion_5_truncated_ladder_ergodicity(tmp_path):
    config = load_config("truncated_ladder.json")
    assert config.params["truncation"] == 20
    assert config.params["tv_target"] == 1e-3
    result, elapsed = timed(truncated_ladder_experiment, config)
    print(f"  truncated-ladder horizon: {result.summary['horizon']} steps")
    report(5, "truncated ladder ergodicity", result, elapsed, budget=60.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["truncated_ladder"])
    assert_pinned(table_fingerprint(tmp_path, result.tables["tv_trace"]), PINNED_TABLES["tv_trace"])
    assert table_sha256(tmp_path, [result.tables["tv_trace"]]) == PINNED_TV_TRACE_SHA256


def _traced_peak(function, config):
    tracemalloc.start()
    try:
        return function(config), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_truncated_ladder_memory_follows_its_horizon_not_its_cap(tmp_path):
    """A cap of 1e10 steps, which the config accepts, stops at the shipped
    horizon with the shipped bytes, and at the memory of a run capped at that
    horizon."""
    result, peak = _traced_peak(
        truncated_ladder_experiment, load_config("truncated_ladder.json", max_steps=10**10)
    )
    assert result.summary["horizon"] == 13498
    assert_pinned(result.summary, PINNED_SUMMARIES["truncated_ladder"])
    assert table_sha256(tmp_path, [result.tables["tv_trace"]]) == PINNED_TV_TRACE_SHA256
    _, peak_at_horizon = _traced_peak(
        truncated_ladder_experiment, load_config("truncated_ladder.json", max_steps=13498)
    )
    assert peak <= peak_at_horizon + 4096


def test_criterion_6_geometric_gap(tmp_path):
    config = load_config("geometric_gap.json")
    assert config.params["kernel_band"] == (0.45, 0.5)
    result, elapsed = timed(geometric_gap_experiment, config)
    report(6, "proposal-vs-kernel gap example", result, elapsed, budget=5.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["geometric_gap"])
    assert table_sha256(tmp_path, [result.tables["gaps"]]) == PINNED_GEOMETRIC_GAPS_SHA256


def test_criterion_7_strong_uniform_constants(tmp_path):
    config = load_config("bounds.json", families=["strong"])
    assert config.params["n_chains"] == 50
    result, elapsed = timed(bounds_experiment, config)
    report(7, "strong-uniform constants", result, elapsed, budget=10.0)
    assert_pinned(result.summary, PINNED_SUMMARIES["strong"])
    assert_pinned(table_fingerprint(tmp_path, result.tables["strong"]), PINNED_TABLES["strong"])


def _failed_bound_checks(monkeypatch, name, mutant):
    """The failed checks, by detail, of a 30-target ``bounds`` run (two weight
    draws per target, the shipped horizon and chains) with ``experiments.name``
    replaced by ``mutant``."""
    monkeypatch.setattr(experiments, name, mutant)
    result = bounds_experiment(load_config("bounds.json", n_targets=30, n_alphas=2))
    return {name: check["detail"] for name, check in result.checks.items() if not check["passed"]}


@pytest.mark.parametrize(
    "name, failed",
    [
        ("tv_lipschitz_bound", {"lipschitz": "10 violations over 30 weight pairs"}),
        ("uniform_ergodicity_bound", {"uniform": "56 violations over 60 weight draws"}),
    ],
)
def test_a_halved_bound_fails_its_check_alone(monkeypatch, name, failed):
    bound = getattr(experiments, name)
    assert _failed_bound_checks(monkeypatch, name, lambda *args: 0.5 * bound(*args)) == failed


def _strong_both_unchanged(m, s):
    return m, s


def _strong_mass_times_16(m, s):
    m_star, s_star = strong_uniform_constants(m, s)
    return m_star, 16.0 * s_star


@pytest.mark.parametrize(
    "mutant, failed",
    [
        (_strong_both_unchanged, {"strong": "50 violations over 50 chains"}),
        (_strong_mass_times_16, {"strong": "9 violations over 50 chains"}),
    ],
    ids=["m_and_s_unchanged", "s_star_times_16"],
)
def test_strong_check_catches_its_mutants(monkeypatch, mutant, failed):
    """``(m*, s*) = (m, s)``, or ``s*`` times 16, fails the ``strong`` check
    alone.  ``s* = s`` alone or ``m* = m`` alone passes it: see
    calibration/README.md."""
    assert _failed_bound_checks(monkeypatch, "strong_uniform_constants", mutant) == failed


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


def test_shipped_optimal_scan_outputs_are_pinned(optimal_scan_result, tmp_path):
    result, _ = optimal_scan_result
    assert_pinned(result.summary, PINNED_SUMMARIES["optimal_scan"])
    assert table_sha256(tmp_path, [result.tables["batches"]]) == PINNED_OPTIMAL_SCAN_BATCHES_SHA256
