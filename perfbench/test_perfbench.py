"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl

wl.use_checkout_source()

import adagibbs  # noqa: E402
import adagibbs.experiments  # noqa: E402
import adagibbs.ladder  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402


def _ladder_workload(workers, n_runs=4, n_steps=5_000):
    config = {
        **wl.workloads()["ladder-escape"].calls[0][1],
        "n_runs": n_runs,
        "n_steps": n_steps,
        "min_successes": wl.scaled_min_successes(n_runs),
        "workers": workers,
    }
    return wl.Workload("ladder-escape", "reduced", (("counterexample", config),))


def _run_once(workload, tmp_path, seed=11):
    workspace = tmp_path / f"ws-{workload.calls[0][1]['workers']}"
    workspace.mkdir()
    paths = wl.write_configs(workload, workspace)
    return wl.run_op(workload, paths, seed, workspace)


def test_ladder_outputs_identical_across_worker_counts(tmp_path):
    serial = _run_once(_ladder_workload(workers=1), tmp_path)
    pooled = _run_once(_ladder_workload(workers=max(2, wl.nproc())), tmp_path)
    assert serial.passed and pooled.passed
    assert serial.files == pooled.files > 2
    assert serial.digest == pooled.digest


def test_min_successes_keeps_shipped_ratio():
    assert wl.scaled_min_successes(20) == 16
    assert wl.scaled_min_successes(10) == 8
    assert wl.scaled_min_successes(6) == 5  # 4.8 rounds up, never looser
    config = wl.workloads()["ladder-escape"].calls[0][1]
    assert config["min_successes"] == wl.scaled_min_successes(config["n_runs"])
    assert (config["final_threshold"], config["control_threshold"]) == (500, 50)


def test_tracer_patches_every_lookup_site_and_restores_them():
    original = adagibbs.ladder.transience_experiment
    table_entry = adagibbs.experiments.EXPERIMENT_FUNCTIONS["bounds"]
    tracer = tr.Tracer().install()
    try:
        for site in (adagibbs.ladder, adagibbs.experiments, adagibbs):
            assert site.transience_experiment.__wrapped__ is original
        assert adagibbs.experiments.EXPERIMENT_FUNCTIONS["bounds"].__wrapped__ is table_entry
        assert "__wrapped__" in vars(adagibbs.ladder.LadderTarget.conditional_cdf)
    finally:
        tracer.uninstall()
    assert adagibbs.experiments.transience_experiment is original
    assert adagibbs.experiments.EXPERIMENT_FUNCTIONS["bounds"] is table_entry
    assert not hasattr(adagibbs.experiments, "open")


def test_traced_reduced_ladder_counts_layers(tmp_path):
    workload = _ladder_workload(workers=2, n_runs=2)
    tracer = tr.Tracer().install()
    try:
        op = _run_once(workload, tmp_path)
    finally:
        tracer.uninstall()
    calls, extra = tracer.snapshot()
    layers = tr.layer_metrics(calls, extra, tracer.spans, workers=2)
    assert op.passed
    assert layers["samplers.steps"] == 2 * 2 * 5_000
    assert layers["ladder.rule_calls"] == 2 * 5_000
    assert layers["targets.conditional_calls"] == 2 * 2 * 5_000
    assert 0.0 < layers["experiments.parallel_eff"] <= 1.0 + 1e-6
    assert layers["kernels.builds"] == layers["variance.iact_calls"] == 0
    replicate_parents = {sp[1] for sp in tracer.spans if sp[2].startswith("run/")}
    experiment_ids = {sp[0] for sp in tracer.spans if sp[2] == "experiment/counterexample"}
    assert replicate_parents == experiment_ids and len(experiment_ids) == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.workloads())
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.workloads().values()]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _child(failed=0, gaps=()):
    """A measuring process's result as ``run.run_workload`` returns it."""
    return {
        "attempted": 2, "failed": failed, "machine": {}, "setup_s": 0.5,
        "wall_s": 1.0, "op_wall_s": [1.0, 1.0], "peak_rss_mb": 50.0,
        "layers": {name: 1.0 for name in run.PER_LAYER},
        "completeness": {"zero_but_expected_work": list(gaps), "work_but_expected_zero": []},
        "trace_file": "trace.json",
    }


@pytest.mark.parametrize(
    "child, trace, code",
    [
        (_child(), 0, 0),
        (_child(), 1, 0),
        (_child(failed=1), 0, 1),
        (_child(gaps=["samplers.steps"]), 1, 1),
    ],
    ids=["correct", "correct-traced", "failed-op", "failed-completeness"],
)
def test_exit_code_follows_correctness(monkeypatch, capsys, child, trace, code):
    monkeypatch.setattr(run, "run_workload", lambda *args: child)
    argv = ["--workload", "exact-oracle", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (code == 0)


@pytest.mark.parametrize("name", ["ladder-escape", "mwg-optimal-scan", "exact-oracle"])
def test_completeness_expectations_are_disjoint_and_known(name):
    workload = wl.workloads()[name]
    assert not workload.acts & workload.idle
    assert workload.acts | workload.idle <= set(run.PER_LAYER)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the shipped optimal-scan checks fail by chance on a few seeds, "
    "which is why the mwg-optimal-scan workload does not run the shipped target",
)
def test_shipped_optimal_scan_acceptance_check_holds_on_seed_94():
    from adagibbs.experiments import ExperimentConfig, optimal_scan_experiment

    shipped = json.loads((wl.ROOT / "configs" / "optimal_scan.json").read_text())
    # The evaluation arms are shortened; the acceptance check does not read them.
    params = {k: v for k, v in shipped.items() if k not in ("kind", "seed", "out")}
    config = ExperimentConfig.from_dict(
        {"kind": "optimal-scan", "seed": 94, "params": {**params, "eval_steps": 3_000}}
    )
    result = optimal_scan_experiment(config)
    assert result.checks["acceptance_targeted"]["passed"], result.checks["acceptance_targeted"]
