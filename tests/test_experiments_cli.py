import json
import os

import pytest

from adagibbs.cli import main as cli_main
from adagibbs.experiments import (
    ConfigError,
    ExperimentConfig,
    counterexample_experiment,
    emit_plot_data,
    run_experiment,
)
from adagibbs.samplers import adap_rsg_run, keep_previous, write_trajectory_csv
from adagibbs.targets import FiniteProductTarget
from adagibbs.weights import make_selection_weights


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
    manifest, _ = run_experiment(config, out_dir=str(tmp_path))
    stored = json.loads((tmp_path / "manifest.json").read_text())
    rebuilt = ExperimentConfig.from_dict(
        {
            "kind": stored["config"]["kind"],
            "seed": stored["config"]["seed"],
            "params": stored["config"]["params"],
        }
    )
    assert rebuilt.digest() == stored["digest"] == manifest.digest
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
        run_experiment(config, out_dir=str(out))
        dirs.append(out)
    names = _data_files(dirs[0])
    assert names == _data_files(dirs[1]) == _data_files(dirs[2])
    for name in names:
        blob = (dirs[0] / name).read_bytes()
        assert blob == (dirs[1] / name).read_bytes()
        assert blob == (dirs[2] / name).read_bytes()


def test_counterexample_small_run_passes_its_checks():
    config = ExperimentConfig.from_dict(
        {"kind": "counterexample", "seed": 101, **SMALL_COUNTEREXAMPLE,
         "emit_traces": False}
    )
    result = counterexample_experiment(config)
    assert result.passed
    assert result.summary["escapes"] == 3


def test_emit_plot_data(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("step,x_1,x_2\n0,1,1\n1,2,1\n")
    out = emit_plot_data(trace, ("step", "x_1"), tmp_path / "plot.csv")
    lines = (tmp_path / "plot.csv").read_text().strip().splitlines()
    assert lines == ["step,x_1", "0,1", "1,2"]
    with pytest.raises(ValueError, match="column"):
        emit_plot_data(trace, ("step", "missing"), tmp_path / "plot2.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("step,x_1\n")
    with pytest.raises(ValueError, match="no data rows"):
        emit_plot_data(empty, ("step", "x_1"), tmp_path / "plot3.csv")
    headerless = tmp_path / "null.csv"
    headerless.write_text("")
    with pytest.raises(ValueError, match="empty"):
        emit_plot_data(headerless, ("step", "x_1"), tmp_path / "plot4.csv")


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
    assert cli_main(["variance", "--trajectory", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "coordinate,iact,asymptotic_variance"
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["1", "2", "total"]
    assert float(rows[-1][2]) == pytest.approx(
        float(rows[0][2]) + float(rows[1][2])
    )
    for row in rows[:-1]:
        assert float(row[1]) > 0.0


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
