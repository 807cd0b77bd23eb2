import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adagibbs import experiments, samplers
from adagibbs.cli import SUBCOMMAND_KINDS
from adagibbs.cli import main as cli_main
from adagibbs.experiments import (
    EXPERIMENT_FUNCTIONS,
    PARAM_SPECS,
    ConfigError,
    ExperimentConfig,
    counterexample_experiment,
    run_experiment,
)
from adagibbs.samplers import (
    adap_rs_adap_mwg_run,
    adap_rsg_run,
    gaussian_random_walk,
    keep_previous,
    rs_mwg_run,
    write_trajectory_csv,
)
from adagibbs.targets import ContinuousProductTarget, FiniteProductTarget
from adagibbs.variance import iact_estimate
from adagibbs.weights import SelectionWeights, make_selection_weights
from oracles import assert_pinned


SMALL_COUNTEREXAMPLE = {
    "n_steps": 3_000,
    "n_runs": 3,
    "final_threshold": 100,
    "control_threshold": 50,
    "min_successes": 3,
    "trace_stride": 50,
}


def test_config_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"kind": "nonsense", "seed": 1})
    with pytest.raises(ConfigError, match="params.n_steps"):
        ExperimentConfig.from_dict({"kind": "counterexample", "seed": 1, "n_steps": 0})
    with pytest.raises(ConfigError, match="params.bogus"):
        ExperimentConfig.from_dict({"kind": "counterexample", "seed": 1, "bogus": 2})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"kind": "counterexample", "seed": -3})


# Kind of the config each strict-caster case is checked in; the rest are
# counterexample parameters.
CASTER_FIELD_KINDS = {
    "a": "optimal-scan",
    "scales": "optimal-scan",
    "epsilon": "optimal-scan",
    "schedule_slope": "truncated-ladder",
    "tv_target": "truncated-ladder",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("emit_traces", "false"),
        ("emit_traces", []),
        ("emit_traces", 1),
        ("n_runs", 2.7),
        ("n_runs", "3"),
        ("n_steps", True),
        ("trace_stride", float("inf")),
        ("seed", True),
        ("a", "11111"),
        ("scales", "12"),
        ("scales", [True, 2, "4"]),
        ("epsilon", "0.1"),
        ("schedule_slope", True),
        ("tv_target", "0.001"),
        ("seed", "5"),
        ("seed", 2.5),
        ("seed", -3.0),
    ],
)
def test_config_casters_are_strict(field, value):
    kind = CASTER_FIELD_KINDS.get(field, "counterexample")
    data = {"kind": kind, "seed": 1, field: value}
    name = "seed" if field == "seed" else f"params.{field}"
    with pytest.raises(ConfigError, match=name):
        ExperimentConfig.from_dict(data)


def test_config_accepts_integral_floats():
    config = ExperimentConfig.from_dict(
        {"kind": "counterexample", "seed": 1e3, "n_steps": 1e5, "emit_traces": False}
    )
    assert config.params["n_steps"] == 100_000
    assert type(config.params["n_steps"]) is int
    assert config.params["emit_traces"] is False
    assert type(config.seed) is int
    assert config.digest() == ExperimentConfig.from_dict(
        {"kind": "counterexample", "seed": 1000, "n_steps": 100_000, "emit_traces": False}
    ).digest()


SHIPPED_DIGESTS = {
    "bounds.json": "8a1fad4b472111ff98c1a87548bb0e265643a5b1084542d53528871cbf7df61f",
    "counterexample.json": "141a21f3184bcc9209404ef98cb504866193bc7c7fc027837bc0dee6eabf26a2",
    "geometric_gap.json": "aa12643d15c9799c696cbab52495debfd7debaccebe5d4442a7596efe004889d",
    "lazy_variance.json": "a40df536c232354f158a255f1c36a4fbfa1d6dc1968b0043a9d2ee518c0b7018",
    "optimal_scan.json": "5226f8edae41c18275df10b7c0df418b3b2d4eff8028c48d68dba3b45c6c971b",
    "truncated_ladder.json": "113a757b8c771341023a28cf145a82d78a55e2b26ed1538712af2967129d87e8",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_digests_are_unchanged(name):
    path = Path(__file__).resolve().parents[1] / "configs" / name
    assert ExperimentConfig.from_file(path).digest() == SHIPPED_DIGESTS[name]


def test_config_defaults_and_digest_stability():
    a = ExperimentConfig.from_dict({"kind": "geometric-gap", "seed": 5})
    b = ExperimentConfig.from_dict(
        {"seed": 5, "kind": "geometric-gap", "p_values": [0.3, 0.5, 0.7]}
    )
    assert a.params["p_values"] == (0.3, 0.5, 0.7)
    assert a.digest() == b.digest()
    c = a.with_overrides(seed=6)
    assert c.digest() != a.digest()


def test_manifest_digest_recomputable(tmp_path):
    config = ExperimentConfig.from_dict(
        {"kind": "counterexample", "seed": 11, **SMALL_COUNTEREXAMPLE}
    )
    manifest, _ = run_experiment(config.with_overrides(out=str(tmp_path)))
    stored = json.loads((tmp_path / "manifest.json").read_text())
    rebuilt = ExperimentConfig.from_dict(
        {
            "kind": stored["config"]["kind"],
            "seed": stored["config"]["seed"],
            "params": stored["config"]["params"],
        }
    )
    assert manifest == stored
    assert rebuilt.digest() == stored["digest"]
    for name in stored["outputs"]:
        assert (tmp_path / name).exists()


def _data_files(path):
    return sorted(f for f in os.listdir(path) if f.endswith(".csv"))


def test_outputs_byte_identical_across_runs_and_workers(tmp_path):
    base = {"kind": "counterexample", "seed": 909, **SMALL_COUNTEREXAMPLE}
    dirs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 3)):
        config = ExperimentConfig.from_dict({**base, "workers": workers})
        out = tmp_path / tag
        run_experiment(config.with_overrides(out=str(out)))
        dirs.append(out)
    names = _data_files(dirs[0])
    assert names == _data_files(dirs[1]) == _data_files(dirs[2])
    for name in names:
        blob = (dirs[0] / name).read_bytes()
        assert blob == (dirs[1] / name).read_bytes()
        assert blob == (dirs[2] / name).read_bytes()


SMALL_OPTIMAL_SCAN = {
    "kind": "optimal-scan",
    "seed": 17,
    "params": {
        "scales": [1.0, 2.0, 4.0],
        "a": [1.0, 1.0, 1.0],
        "epsilon": 0.05,
        "n_batches": 60,
        "window_batches": 20,
        "eval_steps": 4_000,
        "eval_burn_in": 500,
    },
}


# Outputs of SMALL_OPTIMAL_SCAN, recorded with numpy 2.4 on x86-64 Linux.  A
# changed seed, random stream or summation order moves them; the IACT and
# variances go through numpy's FFT, so they are compared to 1e-9 relative.
PINNED_BATCHES_SHA256 = "25c3e6f54fcec230ccd1aa3bee54ba48429d6053589a0838be60111e8376d81e"
PINNED_OPTIMAL_SCAN_SUMMARY = {
    "tau_adaptive": 11.71624906912577,
    "var_adaptive": 0.16868205113666268,
    "tau_uniform": 13.428250541753924,
    "var_uniform": 0.169523182874852,
    "variance_ratio": 0.8681783176552953,
}


# The same run with coefficients unequal and of both signs, so that the
# observable's summary moves if ``a`` loses a sign, a coordinate or its order
# on the way into the evaluation arms; recorded like the pins above.
PINNED_SIGNED_OBSERVABLE_SUMMARY = {
    "tau_adaptive": 7.713791419571585,
    "var_adaptive": 0.5659125611982625,
    "tau_uniform": 16.231627892517828,
    "var_uniform": 0.5433693064154687,
    "variance_ratio": 0.4949485367180937,
}


def test_optimal_scan_outputs_are_pinned(tmp_path):
    out = tmp_path / "scan"
    config = ExperimentConfig.from_dict(SMALL_OPTIMAL_SCAN).with_overrides(out=str(out))
    _, result = run_experiment(config)
    digest = hashlib.sha256((out / "batches.csv").read_bytes()).hexdigest()
    assert digest == PINNED_BATCHES_SHA256
    for name, value in PINNED_OPTIMAL_SCAN_SUMMARY.items():
        assert result.summary[name] == pytest.approx(value, rel=1e-9, abs=0.0), name


def test_optimal_scan_observable_with_signed_coefficients_is_pinned():
    params = {**SMALL_OPTIMAL_SCAN["params"], "a": [2.0, -1.0, 0.5]}
    config = ExperimentConfig.from_dict({**SMALL_OPTIMAL_SCAN, "params": params})
    summary = experiments.optimal_scan_experiment(config).summary
    for name, value in PINNED_SIGNED_OBSERVABLE_SUMMARY.items():
        assert summary[name] == pytest.approx(value, rel=1e-9, abs=0.0), name


def test_in_processes_runs_the_later_calls_in_a_worker():
    first, second = experiments._in_processes(os.getpid, [(), ()])
    assert first == os.getpid() != second


def test_optimal_scan_result_is_the_same_with_and_without_a_worker(monkeypatch):
    """The uniform arm runs in a forked worker, or in turn where ``os.fork``
    does not exist; the result must not depend on which."""
    config = ExperimentConfig.from_dict(SMALL_OPTIMAL_SCAN)
    forked = experiments.optimal_scan_experiment(config)
    monkeypatch.delattr(os, "fork")
    assert experiments._in_processes(os.getpid, [(), ()]) == [os.getpid()] * 2
    in_turn = experiments.optimal_scan_experiment(config)
    assert forked.summary == in_turn.summary
    assert forked.checks == in_turn.checks
    assert forked.tables == in_turn.tables
    assert forked.summary["tau_adaptive"] != forked.summary["tau_uniform"]


def test_an_error_in_the_worker_arm_reaches_the_caller():
    """The second arm runs in the worker; weights over three coordinates on
    a two-coordinate target make it raise there."""
    good = make_selection_weights((0.5, 0.5), 0.1)
    bad = make_selection_weights((0.2, 0.2, 0.6), 0.1)
    target = ContinuousProductTarget((1.0, 2.0))
    with pytest.raises(ValueError, match="weights d=3, x0 d=2"):
        experiments._in_processes(
            experiments._evaluation_arm,
            [
                (target, alpha, (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), 2_000, 100, seed)
                for alpha, seed in ((good, 5), (bad, 6))
            ],
        )


FIVE_COORDINATE_ARM = (
    ContinuousProductTarget((1.0, 2.0, 3.0, 4.0, 5.0)),
    SelectionWeights((0.2,) * 5, 0.02),
    (1.0, 2.0, 3.0, 4.0, 5.0),
    (1.0, 4.0, 9.0, 16.0, 25.0),
    (0.0,) * 5,
)


def test_evaluation_arm_takes_the_observable_of_the_whole_states(monkeypatch):
    """With blocks of two rows and a one-row tail, the arm's IACT and
    variance are those of ``states[burn_in:] @ a`` from the same run."""
    target, alpha, a, gamma, x0 = FIVE_COORDINATE_ARM
    monkeypatch.setattr(samplers, "ROW_BLOCK", 2)
    steps, burn_in = 2_000, 100  # 1901 rows after burn-in
    run = samplers.rs_mwg_run(target, alpha, gamma, x0, steps, 11)
    trace = run.states[burn_in:] @ np.asarray(a)
    got = experiments._evaluation_arm(target, alpha, a, gamma, x0, steps, burn_in, 11)
    assert got == (iact_estimate(trace), float(np.var(trace)))


def test_evaluation_arm_has_the_per_step_loops_asymptotic_variance():
    """The arm draws its randomness in blocks, so its stream is not the
    per-step loop's; its law is.  Over ten seeds the mean of ``tau * var``
    agrees with the per-step loop's at the same parameters to within four
    standard errors of the difference of the two means."""
    target = ContinuousProductTarget((1.0, 2.0, 4.0))
    alpha = SelectionWeights((0.5, 0.3, 0.2), 0.05)
    a, gamma, x0 = (1.0, -1.0, 2.0), (0.75, 0.19, 0.05), (0.0, 0.0, 0.0)
    steps, burn_in, seeds = 20_000, 500, range(1, 11)
    blocked = [
        math.prod(experiments._evaluation_arm(target, alpha, a, gamma, x0, steps, burn_in, s))
        for s in seeds
    ]
    per_step = []
    for seed in seeds:
        run = adap_rs_adap_mwg_run(
            target, gaussian_random_walk, keep_previous, keep_previous,
            x0, alpha, gamma, steps, seed,
        )
        trace = run.states[burn_in:] @ np.asarray(a)
        per_step.append(iact_estimate(trace) * float(np.var(trace)))
    spread = math.sqrt((np.var(blocked, ddof=1) + np.var(per_step, ddof=1)) / len(seeds))
    assert abs(np.mean(blocked) - np.mean(per_step)) <= 4.0 * spread


def test_evaluation_arm_never_holds_the_states_matrix():
    """At 1e5 steps on five coordinates the arm's traced peak stays below the
    bytes of the ``(n + 1, d)`` states matrix plus the FFT buffers of its
    IACT (the observable trace and one spectrum).  The observable is taken
    block by block and the run's record is freed before the IACT; an arm that
    derives the whole states matrix holds it beside the record and the
    forward-fill temporaries, and goes above."""
    target, alpha, a, gamma, x0 = FIVE_COORDINATE_ARM
    experiments._evaluation_arm(target, alpha, a, gamma, x0, 2_000, 100, 7)  # imports, caches
    steps, burn_in, d = 100_000, 1_000, 5
    tracemalloc.start()
    try:
        experiments._evaluation_arm(target, alpha, a, gamma, x0, steps, burn_in, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_trace = steps + 1 - burn_in
    size = 1 << (2 * n_trace - 1).bit_length()  # the IACT's FFT length
    fft_buffers = 8 * n_trace + 16 * (size // 2 + 1)
    assert peak < 8 * (steps + 1) * d + fft_buffers


def test_optimal_scan_ideal_weights_follow_the_observable():
    """The ideal weights and the theory ratio use the spread of the observable
    ``sum_i a_i x_i`` along each coordinate, ``s_i = |a_i| / scale_i``: the
    square-root rule gives weights proportional to ``s_i`` and a variance
    ratio of ``(sum s)^2 / (d sum s^2)``.  With ``a`` unequal the adapted
    weights reach them and the run passes its checks."""
    config = ExperimentConfig.from_dict({
        "kind": "optimal-scan",
        "seed": 3,
        "params": {
            "scales": [1.0, 4.0], "a": [4.0, 1.0],
            "n_batches": 1500, "eval_steps": 60_000,
        },
    })
    result = experiments.optimal_scan_experiment(config)
    s = (4.0 / 1.0, 1.0 / 4.0)
    assert result.summary["ideal_weights"] == pytest.approx(
        [s[0] / sum(s), s[1] / sum(s)], rel=1e-12
    )
    assert result.summary["theory_ratio"] == pytest.approx(
        sum(s) ** 2 / (2 * (s[0] ** 2 + s[1] ** 2)), rel=1e-12
    )
    assert result.passed, result.checks


UNGUARDED_OPTIMAL_SCAN = f"""
import json, sys
from adagibbs.experiments import ExperimentConfig, optimal_scan_experiment
with open(sys.argv[1], "a") as fh:
    fh.write("ran\\n")
config = ExperimentConfig.from_dict({SMALL_OPTIMAL_SCAN!r})
print(optimal_scan_experiment(config).summary["variance_ratio"])
"""


def test_optimal_scan_runs_from_an_unguarded_script_and_from_stdin(tmp_path):
    """Module-level code with no ``__main__`` guard, in a file and on stdin,
    runs once: the worker does not re-run the caller's main module."""
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_OPTIMAL_SCAN)
    outputs = []
    for name, program, stdin in (
        ("file", str(script), None),
        ("stdin", "-", UNGUARDED_OPTIMAL_SCAN),
    ):
        log = tmp_path / f"{name}.log"
        proc = _run_python(program, str(log), stdin=stdin)
        assert proc.returncode == 0, proc.stderr
        assert log.read_text() == "ran\n"
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 1


def test_counterexample_small_run_passes_its_checks():
    config = ExperimentConfig.from_dict(
        {"kind": "counterexample", "seed": 101, **SMALL_COUNTEREXAMPLE,
         "emit_traces": False}
    )
    result = counterexample_experiment(config)
    assert result.passed
    assert result.summary["escapes"] == 3


def test_counterexample_trace_and_plot_outputs(tmp_path):
    base = {"kind": "counterexample", "seed": 17, **SMALL_COUNTEREXAMPLE}
    on = tmp_path / "on"
    manifest, _ = run_experiment(ExperimentConfig.from_dict(base).with_overrides(out=str(on)))
    runs = SMALL_COUNTEREXAMPLE["n_runs"]
    traces = [f"trace_{arm}_{r:02d}.csv" for arm in ("adaptive", "control") for r in range(runs)]
    assert set(traces + ["plot_adaptive_run0.csv"]) <= set(manifest["outputs"])
    assert (on / "plot_adaptive_run0.csv").read_bytes() == (
        on / "trace_adaptive_00.csv"
    ).read_bytes()
    stride = SMALL_COUNTEREXAMPLE["trace_stride"]
    n_steps = SMALL_COUNTEREXAMPLE["n_steps"]  # a multiple of the stride
    finals = {}
    for line in (on / "runs.csv").read_text().splitlines()[1:]:
        arm, run, _, final_height, _ = line.split(",")
        finals[f"trace_{arm}_{int(run):02d}.csv"] = float(final_height)
    for name in traces:
        lines = (on / name).read_text().splitlines()
        assert lines[0] == "step,x_1"
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == list(range(0, n_steps + 1, stride))
        assert float(lines[-1].split(",")[1]) == finals[name]

    off = tmp_path / "off"
    config = ExperimentConfig.from_dict({**base, "emit_traces": False})
    manifest, _ = run_experiment(config.with_overrides(out=str(off)))
    assert sorted(os.listdir(off)) == ["manifest.json", "runs.csv", "summary.json"]
    assert manifest["outputs"] == ["runs.csv", "summary.json"]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["geometric-gap"])  # argparse maps usage errors to exit 2
    assert exc.value.code == 2
    capsys.readouterr()
    missing = str(tmp_path / "absent.json")
    assert cli_main(["geometric-gap", "--config", missing, "--check"]) == 2
    capsys.readouterr()
    wrong_kind = write_config(tmp_path, "wrong.json", {"kind": "bounds", "seed": 1})
    assert cli_main(["geometric-gap", "--config", wrong_kind]) == 2
    capsys.readouterr()
    lazy = write_config(tmp_path, "lazy.json", {"kind": "lazy-variance", "seed": 3})
    with pytest.raises(SystemExit) as exc:
        cli_main(["variance", "--config", lazy, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# Configs that no run could finish, or whose checks would pass on nothing:
# each is refused at parse time, naming the field, so before any sampling and
# before an output directory exists.  The first four break a rule across
# fields or a per-field range; the rest are empty arrays, a repeated family,
# an all-zero ``a`` and non-finite numbers (Python's json reads NaN and
# Infinity).
UNFINISHABLE_CONFIGS = {
    "counterexample-one-step": (
        "counterexample", "n_steps", {**SMALL_COUNTEREXAMPLE, "n_steps": 1}
    ),
    "geometric-gap-empty-range": (
        "geometric-gap", "n_min", {"n_min": 20, "n_max": 10}
    ),
    "optimal-scan-short-evaluation": (
        "optimal-scan", "eval_burn_in", {"eval_steps": 900, "eval_burn_in": 0}
    ),
    "optimal-scan-burn-in-past-end": (
        "optimal-scan", "eval_burn_in", {"eval_steps": 4_000, "eval_burn_in": 5_000}
    ),
    "optimal-scan-a-length": (
        "optimal-scan", "a", {"scales": [1.0, 2.0], "a": [1.0, 1.0, 1.0]}
    ),
    "bounds-no-family": ("bounds", "families", {"families": []}),
    # a repeated family would run twice under another digest
    "bounds-repeated-family": ("bounds", "families", {"families": ["uniform", "uniform"]}),
    "lazy-variance-no-delta": ("lazy-variance", "deltas", {"deltas": []}),
    "geometric-gap-no-p": ("geometric-gap", "p_values", {"p_values": []}),
    "optimal-scan-no-coordinate": ("optimal-scan", "scales", {"scales": [], "a": []}),
    "optimal-scan-zero-a": ("optimal-scan", "a", {"scales": [1.0, 2.0], "a": [0.0, 0.0]}),
    "optimal-scan-nan-a": (
        "optimal-scan", "a", {"scales": [1.0, 2.0], "a": [float("nan"), 1.0]}
    ),
    "lazy-variance-infinite-tolerance": (
        "lazy-variance", "tolerance", {"tolerance": float("inf")}
    ),
    "optimal-scan-infinite-slack": (
        "optimal-scan", "variance_ratio_slack", {"variance_ratio_slack": float("inf")}
    ),
    # a weight floor above 1/d leaves no weight vector on d coordinates
    "optimal-scan-floor-above-one-over-d": ("optimal-scan", "epsilon", {"epsilon": 0.3}),
    "bounds-floor-above-one-half": ("bounds", "epsilon", {"epsilon": 0.6}),
    "bounds-floor-above-one-third": ("bounds", "epsilon", {"epsilon": 0.4}),
    # both checks need more successes than there are runs
    "counterexample-more-successes-than-runs": (
        "counterexample", "min_successes", {**SMALL_COUNTEREXAMPLE, "min_successes": 4}
    ),
    # the check window would take in the first, unadapted batches
    "optimal-scan-window-past-start": (
        "optimal-scan", "window_batches", {"n_batches": 50, "window_batches": 51}
    ),
    # the target mass p**n (1 - p) must be a normal float: 0.5**1100 underflows
    # to 0
    "geometric-gap-sweep-too-large": (
        "geometric-gap", "p_values", {"p_values": [0.5], "n_min": 1090, "n_max": 1100}
    ),
    # every p counts, not only the first or the largest
    "geometric-gap-long-sweep": (
        "geometric-gap", "p_values", {"p_values": [0.99, 0.5], "n_max": 1100}
    ),
    "geometric-gap-check-too-large": ("geometric-gap", "check_p", {"proposal_n": 1100}),
    "geometric-gap-late-kernel-point": ("geometric-gap", "check_p", {"kernel_n": 1100}),
}


@pytest.mark.parametrize(
    "kind, params",
    [
        ("optimal-scan", {"scales": [1.0, 2.0], "a": [1.0, 1.0], "epsilon": 0.5}),
        ("bounds", {"epsilon": 1.0 / 3.0}),
    ],
)
def test_a_weight_floor_of_exactly_one_over_d_is_accepted(kind, params):
    config = ExperimentConfig.from_dict({"kind": kind, "seed": 1, **params})
    assert config.params["epsilon"] == params["epsilon"]


@pytest.mark.parametrize(
    "kind, params",
    [
        ("counterexample", {**SMALL_COUNTEREXAMPLE, "min_successes": 3}),
        ("optimal-scan", {"n_batches": 50, "window_batches": 50}),
        # the last n whose target mass p**n (1 - p) is a normal float: for
        # the default p_values that of p = 0.3, and 1021 for check_p = 0.5
        ("geometric-gap", {"n_max": 588, "proposal_n": 1021, "kernel_n": 1021}),
    ],
    ids=["successes-equal-runs", "window-equals-batches", "geometric-gap-at-the-cap"],
)
def test_cross_field_rules_accept_their_edge(kind, params):
    config = ExperimentConfig.from_dict({"kind": kind, "seed": 1, **params})
    assert all(config.params[name] == value for name, value in params.items())


@pytest.mark.parametrize("case", sorted(UNFINISHABLE_CONFIGS))
def test_cli_rejects_configs_a_run_cannot_finish(case, tmp_path, capsys):
    kind, field, params = UNFINISHABLE_CONFIGS[case]
    data = {"kind": kind, "seed": 1, **params}
    with pytest.raises(ConfigError, match=rf"^params\.{field}: "):
        ExperimentConfig.from_dict(data)
    path = write_config(tmp_path, "bad.json", data)
    command = next(name for name, k in SUBCOMMAND_KINDS.items() if k == kind)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"params.{field}" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]  # no output directory


def test_geometric_gap_runs_at_its_edge_and_refuses_one_n_more(tmp_path, capsys):
    """The edge of ``test_cross_field_rules_accept_their_edge`` runs and
    passes its checks; one more ``n`` at any of the three is refused."""
    edge = {"kind": "geometric-gap", "seed": 1, "n_max": 588, "proposal_n": 1021,
            "kernel_n": 1021}
    path = write_config(tmp_path, "edge.json", edge)
    assert cli_main(["geometric-gap", "--config", path, "--out", str(tmp_path / "out"),
                     "--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for name, field in (("n_max", "p_values"), ("proposal_n", "check_p"),
                        ("kernel_n", "check_p")):
        with pytest.raises(ConfigError, match=rf"^params\.{field}: "):
            ExperimentConfig.from_dict({**edge, name: edge[name] + 1})


def test_geometric_gap_trend_reads_the_distance_left_at_n_max(tmp_path, capsys):
    """At p = 0.99 the kernel gap at n = 40 is still 0.0067 short of 1 - p,
    within its bound p**40 = 0.67: a correct run passes ``--check``."""
    path = write_config(tmp_path, "near-one.json",
                        {"kind": "geometric-gap", "seed": 1, "p_values": [0.5, 0.99]})
    assert cli_main(["geometric-gap", "--config", path, "--out", str(tmp_path / "out"),
                     "--check"]) == 0
    out = capsys.readouterr().out
    assert "PASS geometric-gap/kernel_gap_trend" in out
    assert "FAIL" not in out


SMALL_GAP = {
    "kind": "geometric-gap", "seed": 1, "n_min": 10, "n_max": 12, "p_values": [0.5]
}
SMALL_LAZY = {"kind": "lazy-variance", "seed": 3, "n_chains": 5, "max_states": 4}


@pytest.mark.parametrize(
    "field, value", [("params", "x"), ("params", 5), ("out", 7), ("out", ["a"])]
)
def test_cli_rejects_malformed_params_or_out(field, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a run without --out would write
    path = write_config(tmp_path, "bad.json", {**SMALL_GAP, field: value})
    assert cli_main(["geometric-gap", "--config", path]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]  # no output directory


SMALL_CONFIGS = {
    "bounds": {
        "kind": "bounds", "seed": 2, "n_targets": 3, "n_alphas": 2, "horizon": 20,
        "n_chains": 3,
    },
    "counterexample": {"kind": "counterexample", "seed": 4, **SMALL_COUNTEREXAMPLE},
    "geometric-gap": SMALL_GAP,
    "lazy-variance": SMALL_LAZY,
    "optimal-scan": SMALL_OPTIMAL_SCAN,
    "truncated-ladder": {
        "kind": "truncated-ladder", "seed": 0, "truncation": 6, "schedule_slope": 20.0,
        "max_steps": 20_000,
    },
}
# (file, column) pairs that hold text rather than numbers
TEXT_COLUMNS = {("runs.csv", "arm")}


def _is_plain_number(cell):
    try:
        float(cell)  # takes every string int() takes
    except ValueError:
        return False
    return True


def test_each_kind_has_a_schema_a_function_a_subcommand_and_a_small_config():
    kinds = set(PARAM_SPECS)
    assert kinds == set(EXPERIMENT_FUNCTIONS) == set(SUBCOMMAND_KINDS.values())
    assert kinds == set(SMALL_CONFIGS)
    assert len(SUBCOMMAND_KINDS) == len(kinds)


@pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
def test_every_data_file_cell_is_a_plain_number(kind, tmp_path):
    out = tmp_path / "run"
    manifest, _ = run_experiment(
        ExperimentConfig.from_dict(SMALL_CONFIGS[kind]).with_overrides(out=str(out))
    )
    tables = [name for name in manifest["outputs"] if name.endswith(".csv")]
    assert tables
    not_numbers = set()
    for name in tables:
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, name
        for row in rows:
            for column, cell in zip(header, row):
                if (name, column) not in TEXT_COLUMNS and not _is_plain_number(cell):
                    not_numbers.add((name, column, cell))
    assert not not_numbers, sorted(not_numbers)[:5]


# Summary and (first row, last row) of each table of the SMALL_CONFIGS runs not
# pinned by test_optimal_scan_outputs_are_pinned, recorded with numpy 2.4 on
# x86-64 Linux.  A changed seed, random stream, draw order or summation order
# moves them; floats are compared to 1e-9 relative, and to 1e-12 absolute for
# the rounding-noise residuals of lazy-variance.
PINNED_SMALL_RUNS = {
    "bounds": (
        {
            "lipschitz": "0 violations over 3 weight pairs",
            "strong": "0 violations over 3 chains",
            "uniform": "0 violations over 6 weight draws",
        },
        {
            "lipschitz": (
                [0, 3, 0.23596136661201128, 0.7045758762535486, 0],
                [2, 2, 0.1382332756102579, 0.5913472822217231, 0],
            ),
            "strong": (
                [0, 6, 0.5265976515050727, 4, 0.03466313582133224, 0.05962552666555118, 0],
                [2, 8, 0.6483592890592098, 3, 0.052546220963670495, 0.025730949866457343, 0],
            ),
            "uniform": (
                [0, 0, 3, 0.03877675298809555, 0.9423157075808706, 1.0,
                 0.057684292419129424, 0],
                [2, 1, 2, 0.2041232649222867, 0.6627970941101249, 1.0,
                 0.3372029058898751, 0],
            ),
        },
    ),
    "counterexample": (
        {"contained": 3, "control_threshold": 50, "escapes": 3, "final_threshold": 100,
         "n_runs": 3},
        {
            "plot_adaptive_run0": ([0, 1.0], [3000, 543.0]),
            "runs": (
                ["adaptive", 0, 7958955049054603978, 543, 0.1655174792481888],
                ["control", 2, 10451216379200822465, 7, 0.006379356505339092],
            ),
            "trace_adaptive_00": ([0, 1.0], [3000, 543.0]),
            "trace_adaptive_01": ([0, 1.0], [3000, 573.0]),
            "trace_adaptive_02": ([0, 1.0], [3000, 549.0]),
            "trace_control_00": ([0, 1.0], [3000, 3.0]),
            "trace_control_01": ([0, 1.0], [3000, 5.0]),
            "trace_control_02": ([0, 1.0], [3000, 7.0]),
        },
    ),
    "geometric-gap": (
        {"kernel_gap": 0.4999999888241289, "proposal_gap": 4.6566128714510893e-10},
        {
            "gaps": (
                [0.5, 10, 0.0004879233602894332, 0.4996335209363547],
                [0.5, 12, 0.00012204795666584397, 0.49990843050329725],
            ),
        },
    ),
    "lazy-variance": (
        {"max_residual": 6.217248937900877e-15, "tolerance": 1e-10},
        {
            "residuals": (
                [0, 3, 0.1, 5.773234397374657, 5.773234397374663, 6.217248937900877e-15],
                [4, 2, 1.0, 0.007278833343112336, 0.007278833343112336, 0.0],
            ),
        },
    ),
    "truncated-ladder": (
        {"final_tv": 0.0009987475289692793, "horizon": 692, "reached": True,
         "schedule": "linear", "tv_target": 0.001},
        {"tv_trace": ([0, 0.6615905245346868], [692, 0.0009987475289692793])},
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_SMALL_RUNS))
def test_small_run_outputs_are_pinned(kind):
    summary, tables = PINNED_SMALL_RUNS[kind]
    result = EXPERIMENT_FUNCTIONS[kind](ExperimentConfig.from_dict(SMALL_CONFIGS[kind]))
    assert_pinned(result.summary, summary)
    assert sorted(result.tables) == sorted(tables)
    for name, ends in tables.items():
        rows = result.tables[name][1]
        assert_pinned([rows[0], rows[-1]], list(ends), (name,))


def _snapshot(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_failed_run_leaves_earlier_output_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_dict(SMALL_GAP).with_overrides(out=str(out)))
    before = _snapshot(out)

    def crash(config):
        raise RuntimeError("experiment crashed")

    def write_then_crash(path, header, rows):
        open(path, "w").close()
        raise OSError("disk full")

    monkeypatch.setattr(experiments, "_write_table", write_then_crash)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(ExperimentConfig.from_dict(SMALL_LAZY).with_overrides(out=str(out)))
    monkeypatch.setitem(EXPERIMENT_FUNCTIONS, "lazy-variance", crash)
    with pytest.raises(RuntimeError, match="crashed"):
        run_experiment(ExperimentConfig.from_dict(SMALL_LAZY).with_overrides(out=str(out)))
    assert _snapshot(out) == before
    assert os.listdir(tmp_path) == ["out"]  # the temporary directory is gone


def test_rerun_replaces_the_earlier_run_whole(tmp_path):
    out = tmp_path / "out"
    run_experiment(ExperimentConfig.from_dict(SMALL_GAP).with_overrides(out=str(out)))
    manifest, _ = run_experiment(
        ExperimentConfig.from_dict(SMALL_LAZY).with_overrides(out=str(out))
    )
    assert sorted(os.listdir(out)) == sorted([*manifest["outputs"], "manifest.json"])
    assert os.listdir(tmp_path) == ["out"]


def test_cli_refuses_to_replace_a_directory_that_is_not_a_run(tmp_path, capsys):
    out = tmp_path / "notes"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    path = write_config(tmp_path, "gap.json", SMALL_GAP)
    assert cli_main(["geometric-gap", "--config", path, "--out", str(out)]) == 2
    assert "out:" in capsys.readouterr().err
    assert _snapshot(out) == {"keep.txt": b"mine"}


def test_cli_refuses_an_out_path_that_is_a_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "notes.txt"
    out.write_text("mine")
    path = write_config(tmp_path, "gap.json", SMALL_GAP)
    ran = []
    monkeypatch.setitem(EXPERIMENT_FUNCTIONS, "geometric-gap", ran.append)
    assert cli_main(["geometric-gap", "--config", path, "--out", str(out)]) == 2
    assert "out:" in capsys.readouterr().err
    assert ran == []  # refused before the experiment runs
    assert out.read_text() == "mine"
    assert sorted(os.listdir(tmp_path)) == ["gap.json", "notes.txt"]


@pytest.mark.parametrize("below", [["sub"], ["sub", "deeper"]], ids=["child", "grandchild"])
def test_cli_refuses_an_out_path_under_a_file(below, tmp_path, capsys, monkeypatch):
    """No directory can be made under a regular file: refused before the
    experiment runs, not after it in ``os.makedirs``."""
    notes = tmp_path / "notes.txt"
    notes.write_text("mine")
    out = notes.joinpath(*below)
    path = write_config(tmp_path, "gap.json", SMALL_GAP)
    ran = []
    monkeypatch.setitem(EXPERIMENT_FUNCTIONS, "geometric-gap", ran.append)
    assert cli_main(["geometric-gap", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"out: cannot create {out}: {notes} is not a directory" in captured.err
    assert ran == []
    assert notes.read_text() == "mine"
    assert sorted(os.listdir(tmp_path)) == ["gap.json", "notes.txt"]


REPO = Path(__file__).resolve().parents[1]


def _python(code, *args):
    return _run_python("-c", code, *args)


def _run_python(*argv, stdin=None):
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, *argv], input=stdin, env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_cli_import_leaves_scipy_unloaded():
    modules = ("scipy", "multiprocessing", "concurrent.futures", "numpy.polynomial")
    proc = _python(f"import sys, adagibbs.cli; print([m in sys.modules for m in {modules!r}])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False]"


def test_runs_without_scipy(tmp_path):
    code = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from adagibbs.targets import ContinuousProductTarget
ContinuousProductTarget((1.0, 2.0))
from adagibbs.cli import main
sys.exit(main(["geometric-gap", "--config", sys.argv[1], "--check", "--out", sys.argv[2]]))
"""
    config = REPO / "configs" / "geometric_gap.json"
    proc = _python(code, str(config), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr


def test_cli_check_pass_and_fail(tmp_path, capsys):
    ok = write_config(
        tmp_path,
        "gap.json",
        {"kind": "geometric-gap", "seed": 1, "n_min": 10, "n_max": 26,
         "p_values": [0.5]},
    )
    code = cli_main(
        ["geometric-gap", "--config", ok, "--out", str(tmp_path / "ok"), "--check"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS geometric-gap/kernel_gap_persists" in out

    bad = write_config(
        tmp_path,
        "gap_bad.json",
        {
            "kind": "geometric-gap",
            "seed": 1,
            "n_min": 10,
            "n_max": 26,
            "p_values": [0.5],
            "kernel_band": [0.97, 0.99],
        },
    )
    code = cli_main(
        ["geometric-gap", "--config", bad, "--out", str(tmp_path / "bad"), "--check"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL geometric-gap/kernel_gap_persists" in out


def test_cli_seed_override_changes_digest(tmp_path, capsys):
    path = write_config(
        tmp_path, "lazy.json",
        {"kind": "lazy-variance", "seed": 3, "n_chains": 5, "max_states": 4},
    )
    assert cli_main(["variance", "--config", path, "--out", str(tmp_path / "v1")]) == 0
    first = json.loads((tmp_path / "v1" / "manifest.json").read_text())
    capsys.readouterr()
    assert (
        cli_main(
            ["variance", "--config", path, "--seed", "4", "--out", str(tmp_path / "v2")]
        )
        == 0
    )
    second = json.loads((tmp_path / "v2" / "manifest.json").read_text())
    capsys.readouterr()
    assert first["digest"] != second["digest"]
    assert second["seed"] == 4


def test_cli_trajectory_analysis(tmp_path, capsys):
    target = FiniteProductTarget(((0, 1), (0, 1, 2)), mass=lambda x: 1.0 + x[0] + x[1])
    alpha = make_selection_weights((0.5, 0.5), 0.1)
    traj = adap_rsg_run(target, keep_previous, (0, 0), alpha, 5_000, seed=77)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert cli_main(["iact", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "coordinate,iact,asymptotic_variance"
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["1", "2", "total"]
    assert float(rows[-1][2]) == pytest.approx(
        float(rows[0][2]) + float(rows[1][2])
    )
    for row in rows[:-1]:
        assert float(row[1]) > 0.0
    with pytest.raises(SystemExit) as exc:
        cli_main(["iact", str(path), "--burn-in", "-2000"])
    assert exc.value.code == 2
    assert "--burn-in" in capsys.readouterr().err


@pytest.mark.parametrize("burn_in", [1002, 2001, 5000])
def test_cli_trajectory_refuses_a_burn_in_that_leaves_too_few_rows(burn_in, tmp_path, capsys):
    """2001 rows less the burn-in must leave the IACT's 1000 points; a
    shortfall is refused before the CSV header is printed."""
    path = _ci_trajectory(tmp_path)
    assert cli_main(["iact", str(path), "--burn-in", str(burn_in)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--burn-in {burn_in} leaves {max(2001 - burn_in, 0)} of 2001 rows" in captured.err
    assert cli_main(["iact", str(path), "--burn-in", "1001"]) == 0


# Each subcommand takes only its own flags: argparse refuses any other with
# exit 2 before any work, so nothing is printed on stdout and no output
# directory is made.
FOREIGN_FLAGS = {
    "variance-trajectory": ["variance", "--trajectory", "TRAJ", "--out", "OUT"],
    "variance-config-trajectory": [
        "variance", "--config", "CONFIG", "--trajectory", "TRAJ", "--out", "OUT"
    ],
    "variance-burn-in-0": ["variance", "--config", "CONFIG", "--burn-in", "0", "--out", "OUT"],
    "variance-burn-in-100": [
        "variance", "--config", "CONFIG", "--burn-in", "100", "--out", "OUT"
    ],
    "iact-seed": ["iact", "TRAJ", "--burn-in", "100", "--seed", "3"],
    "iact-out": ["iact", "TRAJ", "--burn-in", "100", "--out", "OUT"],
    "iact-check": ["iact", "TRAJ", "--burn-in", "100", "--check"],
    "iact-config": ["iact", "TRAJ", "--config", "CONFIG"],
    "variance-no-config": ["variance", "--out", "OUT", "--check"],
}


@pytest.mark.parametrize("case", sorted(FOREIGN_FLAGS))
def test_cli_refuses_a_foreign_flag(case, tmp_path, capsys):
    path = _ci_trajectory(tmp_path)
    out = tmp_path / "out"
    config = REPO / "configs" / "lazy_variance.json"
    names = {"TRAJ": str(path), "OUT": str(out), "CONFIG": str(config)}
    argv = [names.get(arg, arg) for arg in FOREIGN_FLAGS[case]]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: adagibbs" in captured.err
    if "--trajectory" in argv:
        # its old form points to the subcommand that analyses a trajectory
        assert "analyse a trajectory with 'adagibbs iact PATH'" in captured.err
    assert not out.exists()


IACT_OUTPUT = {
    "0": (
        "coordinate,iact,asymptotic_variance\n"
        "1,11.284247200839784,1.463755374588478\n"
        "2,13.4150515459898,0.46663747193815514\n"
        "total,,1.9303928465266331\n"
    ),
    "100": (
        "coordinate,iact,asymptotic_variance\n"
        "1,11.731364165395489,1.537495085107886\n"
        "2,12.89249330916408,0.45239993748246216\n"
        "total,,1.989895022590348\n"
    ),
}


@pytest.mark.parametrize("burn_in", sorted(IACT_OUTPUT))
def test_cli_iact_output_is_pinned(burn_in, tmp_path, capsys):
    """``iact`` on the CI trajectory prints the bytes that the analysis
    printed as ``variance --trajectory``, before it had its own subcommand."""
    path = _ci_trajectory(tmp_path)
    assert cli_main(["iact", str(path), "--burn-in", burn_in]) == 0
    assert capsys.readouterr().out == IACT_OUTPUT[burn_in]


def _ci_trajectory(tmp_path):
    """The trajectory of the CI workflow's console-script check, whose
    ``iact`` call takes ``--burn-in 100``: 2000 steps of a
    fixed-parameter Metropolis-within-Gibbs run, so 2001 rows."""
    path = tmp_path / "traj.csv"
    target = ContinuousProductTarget((1.0, 2.0))
    write_trajectory_csv(
        rs_mwg_run(target, SelectionWeights((0.5, 0.5), 0.25), (1.0, 1.0), (0.0, 0.0), 2000, 1),
        path,
    )
    return path


def _trajectory_lines(tmp_path):
    target = ContinuousProductTarget((1.0, 2.0))
    traj = adap_rs_adap_mwg_run(
        target, gaussian_random_walk, keep_previous, keep_previous, (0.0, 0.0),
        SelectionWeights((0.5, 0.5), 0.25), (1.0, 1.0), 200, 1,
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x_1", "x_2"])
def test_cli_trajectory_refuses_a_non_finite_value(column, value, tmp_path, capsys):
    lines = _trajectory_lines(tmp_path)
    k = lines[0].split(",").index(column)
    fields = lines[50].split(",")
    fields[k] = value
    lines[50] = ",".join(fields)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["iact", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"column {column} " in captured.err


@pytest.mark.parametrize(
    "line, ragged, message",
    [
        (50, lambda row: row + ",1.5", "row 50"),
        (50, lambda row: row.rsplit(",", 1)[0], "row 50"),
        (0, lambda header: header + ",x_3", "the header names 6"),
    ],
    ids=["extra-field", "missing-field", "extra-header-field"],
)
def test_cli_trajectory_refuses_a_ragged_row(line, ragged, message, tmp_path, capsys):
    lines = _trajectory_lines(tmp_path)
    lines[line] = ragged(lines[line])
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["iact", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_simulate_subcommand_runs_truncated_ladder(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "ladder.json",
        {
            "kind": "truncated-ladder",
            "seed": 0,
            "truncation": 6,
            "schedule_slope": 20.0,
            "max_steps": 20_000,
        },
    )
    code = cli_main(
        ["simulate", "--config", path, "--out", str(tmp_path / "sim"), "--check"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS truncated-ladder/tv_target_reached" in out
    trace = (tmp_path / "sim" / "tv_trace.csv").read_text().splitlines()
    assert trace[0] == "step,tv"
    assert len(trace) > 100
