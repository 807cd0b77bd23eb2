"""Workload definitions and the op that drives them through the CLI.

An op is one or more in-process ``adagibbs.cli.main([..., "--check"])``
calls on configs this module writes; the workload seed reaches the program
only through ``--seed``.  Outputs go to a temporary directory inside the
benchmark's own output directory, are hashed and measured, and the directory
is removed before the op returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def scaled_min_successes(n_runs: int) -> int:
    """``min_successes`` at the shipped ratio 16/20, rounded up so a resized
    run is never held to a looser standard than the shipped one."""
    return math.ceil(n_runs * 16 / 20)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple  # (subcommand, config dict) pairs, run in order
    # Per-layer metrics the trace must show nonzero / exactly zero.
    acts: frozenset = field(default_factory=frozenset)
    idle: frozenset = field(default_factory=frozenset)


def _ladder_config():
    n_runs = 10
    return {
        "kind": "counterexample",
        "n_steps": 6_000,
        "n_runs": n_runs,
        "final_threshold": 500,
        "control_threshold": 50,
        "min_successes": scaled_min_successes(n_runs),
        "workers": nproc(),
        "trace_stride": 100,
        "emit_traces": True,
    }


# The checks and their tolerances are the shipped ones; the target and the
# run lengths are not.  On the shipped scales 1..16 the checks fail by chance
# on about 3% of seeds (the last coordinate gets about 160 proposals in the
# check window), which a benchmark run on many seeds would report as failed
# ops.  Scales 1..5 give every coordinate at least 8.8% of the steps, 8000
# batches halve the per-batch adaptation step at the window, and 4e5
# evaluation steps, twice the shipped length, halve the variance of the
# variance-ratio estimate, which alone failed a seed at the shipped length.
MWG_CONFIG = {
    "kind": "optimal-scan",
    "scales": [1.0, 2.0, 3.0, 4.0, 5.0],
    "a": [1.0, 1.0, 1.0, 1.0, 1.0],
    "epsilon": 0.02,
    "n_batches": 8000,
    "window_batches": 100,
    "weight_tolerance": 0.05,
    "acceptance_band": [0.34, 0.54],
    "eval_steps": 400_000,
    "eval_burn_in": 2_000,
    "variance_ratio_slack": 1.25,
}

ORACLE_CALLS = (
    (
        "bounds",
        {
            "kind": "bounds",
            "families": ["lipschitz", "uniform", "strong"],
            # Many small targets rather than many weight draws per target:
            # target sizes are random, and the op time of a few large ones
            # would otherwise depend on the seed.
            "n_targets": 300,
            "epsilon": 0.1,
            "n_alphas": 1,
            "horizon": 100,
            "n_chains": 50,
        },
    ),
    (
        "geometric-gap",
        {
            "kind": "geometric-gap",
            "p_values": [0.3, 0.5, 0.7],
            "n_min": 10,
            "n_max": 40,
            "check_p": 0.5,
            "proposal_n": 30,
            "proposal_tolerance": 1e-08,
            "kernel_n": 25,
            "kernel_band": [0.45, 0.5],
        },
    ),
    (
        "simulate",
        {
            "kind": "truncated-ladder",
            "truncation": 20,
            "tv_target": 0.001,
            "max_steps": 200_000,
            "schedule": "linear",
            "schedule_offset": 10.0,
            "schedule_slope": 2.0,
            "tail_fraction": 0.1,
        },
    ),
    (
        "variance",
        {
            "kind": "lazy-variance",
            "n_chains": 100,
            "max_states": 8,
            "deltas": [0.1, 0.3, 0.5, 0.9, 1.0],
            "tolerance": 1e-10,
        },
    ),
)

_SAMPLING = {"samplers.steps", "samplers.self_s", "samplers.ns_per_step"}
_LADDER_RULE = {"ladder.rule_calls", "ladder.rule_self_s"}
_EVOLUTION = {"ladder.evolution_steps", "ladder.evolution_self_s"}
_KERNELS = {"kernels.builds", "kernels.self_s", "kernels.bytes_computed"}
_BOUNDS = {"bounds.calls", "bounds.self_s"}
_IACT = {"variance.iact_calls", "variance.iact_points"}
_VARIANCE = _IACT | {"variance.spectral_calls", "variance.self_s"}
_ADAPTATION = {"adaptation.batches", "adaptation.observer_calls", "adaptation.self_s"}
_HARNESS = {"experiments.self_s", "cli.self_s"}
_IO = {"experiments.io_s", "experiments.files_written", "experiments.bytes_written"}
_CACHE = {"targets.cond_cache_hit_ratio"}
_ACCEPT = {"samplers.accept_ratio"}
_POOL = {"experiments.parallel_eff"}
_TARGETS = {"targets.conditional_calls", "targets.self_s"}


def workloads() -> dict:
    """The benchmark's workloads, by name, with configs for this machine."""
    defined = (
        Workload(
            name="ladder-escape",
            why=(
                "the paper's headline transient adaptive ladder plus its fixed-weight "
                "control: exact-conditional Gibbs loop, weight rule every step, "
                "replicate thread pool, trace CSV writes"
            ),
            calls=(("counterexample", _ladder_config()),),
            acts=frozenset(
                _SAMPLING | _LADDER_RULE | _TARGETS | _HARNESS | _IO | _POOL
                | {"weights.constructions", "weights.self_s"}
            ),
            idle=frozenset(
                _KERNELS | _BOUNDS | _VARIANCE | _ADAPTATION | _EVOLUTION | _ACCEPT | _CACHE
            ),
        ),
        Workload(
            name="mwg-optimal-scan",
            why=(
                "doubly adaptive Metropolis-within-Gibbs with acceptance-rate tuning: "
                "proposal draws and accept/reject per step, adaptation rules, IACT of "
                "two evaluation arms"
            ),
            calls=(("optimal-scan", MWG_CONFIG),),
            acts=frozenset(
                _SAMPLING | _ACCEPT | _TARGETS | _IACT | {"variance.self_s"}
                | _ADAPTATION | _HARNESS
            ),
            idle=frozenset(
                _LADDER_RULE | _EVOLUTION | _KERNELS | _BOUNDS | _POOL | _CACHE
                | {"variance.spectral_calls"}
            ),
        ),
        Workload(
            name="exact-oracle",
            why=(
                "bounds, geometric-gap, truncated-ladder and lazy-variance oracles: "
                "dense kernels, matrix powers, spectra and exact law push-forward with "
                "no Monte Carlo sampling loop"
            ),
            calls=ORACLE_CALLS,
            acts=frozenset(
                _EVOLUTION | _CACHE | _KERNELS | _BOUNDS | _HARNESS
                | {"variance.spectral_calls", "variance.self_s"}
            ),
            idle=frozenset(_SAMPLING | _ACCEPT | _ADAPTATION | _LADDER_RULE | _IACT | _POOL),
        ),
    )
    return {w.name: w for w in defined}


def config_paths(workload: Workload, workspace: Path) -> list:
    return [workspace / f"{workload.name}-{k}.json" for k in range(len(workload.calls))]


def write_configs(workload: Workload, workspace: Path) -> list:
    paths = config_paths(workload, workspace)
    for path, (_, config) in zip(paths, workload.calls):
        path.write_text(json.dumps(config, indent=2) + "\n")
    return paths


def steps_per_op(workload: Workload):
    """Markov-chain steps one op completes; ``None`` for the oracle."""
    from adagibbs.adaptation import BATCH_SIZE

    sub, config = workload.calls[0]
    if sub == "counterexample":
        return 2 * config["n_runs"] * config["n_steps"]
    if sub == "optimal-scan":
        return config["n_batches"] * BATCH_SIZE + 2 * config["eval_steps"]
    return None


def effective_samples(workload: Workload, summaries: list):
    """(eval_steps - eval_burn_in) / tau_adaptive for the optimal-scan op,
    ``tau_adaptive`` taken from its printed summary; ``None`` otherwise."""
    sub, config = workload.calls[0]
    if sub != "optimal-scan":
        return None
    return (config["eval_steps"] - config["eval_burn_in"]) / summaries[0]["tau_adaptive"]


def use_checkout_source():
    """Import ``adagibbs`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "adagibbs" / "__init__.py").is_file():
        raise FileNotFoundError(f"no adagibbs sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adagibbs

    if Path(adagibbs.__file__).resolve().parent != (SRC / "adagibbs").resolve():
        raise ImportError(f"adagibbs imported from {adagibbs.__file__}, not {SRC}")
    return adagibbs


# Run by a fresh interpreter: argv[1] is the benchmark directory, argv[2] the
# workload's command lines.  Imports and parses as the CLI does.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import workloads
workloads.use_checkout_source()
import adagibbs.cli
from adagibbs.experiments import ExperimentConfig
for argv in json.loads(sys.argv[2]):
    adagibbs.cli.build_parser().parse_args(argv)
    ExperimentConfig.from_file(argv[2])
print(time.monotonic())
"""


def setup_sample(workload: Workload, paths: list, seed: int) -> float:
    """Time from starting an interpreter to having ``adagibbs`` imported and
    the workload's command lines and configs parsed."""
    argvs = [
        [sub, "--config", str(path), "--seed", str(seed), "--check"]
        for (sub, _), path in zip(workload.calls, paths)
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(BENCH_DIR), json.dumps(argvs)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


@dataclass
class OpResult:
    wall_s: float
    failures: list  # why CLI calls exited nonzero: their FAIL lines
    digest: str
    files: int
    bytes: int
    summaries: list

    @property
    def passed(self) -> bool:
        return not self.failures


def run_op(workload: Workload, paths: list, seed: int, scratch: Path) -> OpResult:
    """One op: every CLI call of the workload, timed, with its outputs hashed
    and counted before the temporary output directory is removed."""
    import adagibbs.cli

    out = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
    try:
        wall = 0.0
        failures = []
        summaries = []
        for k, ((sub, _), path) in enumerate(zip(workload.calls, paths)):
            argv = [sub, "--config", str(path), "--seed", str(seed),
                    "--out", str(out / f"{k}-{sub}"), "--check"]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = adagibbs.cli.main(argv)
            wall += time.perf_counter() - t0
            lines = buf.getvalue().splitlines()
            summaries.append(json.loads(lines[0]))
            if rc != 0:
                failures += [ln for ln in lines if ln.startswith("FAIL ")] or [f"{sub} exited {rc}"]
        digest, files, nbytes = hash_outputs(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return OpResult(wall, failures, digest, files, nbytes, summaries)


def hash_outputs(out: Path):
    """Digest of every data file (the manifest carries a creation time and is
    left out of the digest), plus the count and bytes of all files."""
    h = hashlib.sha256()
    files = 0
    nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        files += 1
        nbytes += path.stat().st_size
        if path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest(), files, nbytes


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    caches = {}
    if os.confstr("CS_GNU_LIBC_VERSION"):
        # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
        # which Python's os.sysconf_names does not list.
        for label, code in (("l1d", 188), ("l2", 191), ("l3", 194)):
            caches[label] = os.sysconf(code)
    return {
        "nproc": nproc(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
