"""Benchmark entry point for the adagibbs command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src``.  Each
workload runs in its own process (``measure.py``), which times its ops and
its set-up.  This prints every metric by name with its unit and ends with
one JSON result line per workload.  ``--trace 1`` reports the per-layer
metrics of a traced run instead of the end-to-end ones.  The exit code is 0
only when every result is correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed but not gated: each is defined on only some workloads, and at a fixed
# seed is a constant over wall_s, which is gated.  failed_ratio is printed too;
# the result line carries it as failed/attempted.
REPORTED = {"steps_per_s": "1/s", "ess_per_s": "1/s"}
PER_LAYER = {
    "samplers.steps": "count",
    "samplers.self_s": "s",
    "samplers.ns_per_step": "ns",
    "samplers.accept_ratio": "ratio",
    "ladder.rule_calls": "count",
    "ladder.rule_self_s": "s",
    "ladder.evolution_steps": "count",
    "ladder.evolution_self_s": "s",
    "weights.constructions": "count",
    "weights.self_s": "s",
    "targets.conditional_calls": "count",
    "targets.self_s": "s",
    "targets.cond_cache_hit_ratio": "ratio",
    "kernels.builds": "count",
    "kernels.self_s": "s",
    "kernels.bytes_computed": "bytes",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "variance.iact_calls": "count",
    "variance.iact_points": "count",
    "variance.spectral_calls": "count",
    "variance.self_s": "s",
    "adaptation.batches": "count",
    "adaptation.observer_calls": "count",
    "adaptation.self_s": "s",
    "experiments.self_s": "s",
    "experiments.io_s": "s",
    "experiments.files_written": "count",
    "experiments.bytes_written": "bytes",
    "experiments.parallel_eff": "ratio",
    "cli.self_s": "s",
    "tracing_overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    pass


def run_workload(workload, seed, seconds, trace):
    wl.OUT_DIR.mkdir(exist_ok=True)
    workspace = tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=wl.OUT_DIR)
    try:
        wl.write_configs(workload, Path(workspace))
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH_DIR / "measure.py"), workload.name,
             str(seed), str(seconds), "1" if trace else "0", workspace],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=seconds + 150,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(f"{workload.name}: measuring process exited {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    return child


def report(workload, seed, child, trace):
    """Print the human-readable lines and return the JSON result."""
    attempted, failed = child["attempted"], child["failed"]
    print(f"[{workload.name}] seed {seed}: {attempted} ops, {failed} failed; "
          f"machine {json.dumps(child['machine'], sort_keys=True)}")
    values = {name: child.get(name) for name in (*END_TO_END, *REPORTED)}
    for name, unit in {**END_TO_END, **REPORTED}.items():
        shown = "n/a" if values[name] is None else f"{values[name]:.6g}"
        print(f"  {name:<30} {shown} {unit}")
    print(f"  {'failed_ratio':<30} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if child["op_wall_s"]:
        ops = sorted(child["op_wall_s"])
        print(f"  op wall time over {len(ops)} untraced ops: min {ops[0]:.4g} s, "
              f"median {child['wall_s']:.4g} s, max {ops[-1]:.4g} s")
    correct = failed == 0
    if trace:
        layers = child.get("layers", {})
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {layers.get(name, float('nan')):.6g} {unit}")
        gaps = child["completeness"]
        complete = not any(gaps.values()) and set(PER_LAYER) <= set(layers)
        print(f"  trace completeness: {'PASS' if complete else 'FAIL ' + json.dumps(gaps)}"
              f" (spans in {child['trace_file']})")
        correct = correct and complete
        metrics = {n: {"value": layers.get(n), "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    known = wl.workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*known, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        wl.use_checkout_source()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(known) if args.workload == "all" else [args.workload]
    all_correct = True
    try:
        for name in names:
            child = run_workload(known[name], args.seed, args.seconds, args.trace)
            result = report(known[name], args.seed, child, args.trace)
            print(json.dumps(result), flush=True)
            all_correct = all_correct and result["correct"]
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
