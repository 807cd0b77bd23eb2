"""One workload in its own process: run ops for a fixed time, print one JSON line.

Started by ``run.py``; peak resident memory is therefore this workload's
alone.  Usage::

    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE WORKSPACE

Without tracing, ops run for SECONDS.  With tracing, the first half of the
time runs untraced ops and the second half traced ones, so the tracing
overhead is measured in the same process on the same inputs.  Set-up samples
(fresh interpreters, see ``workloads.setup_sample``) are taken between the
untraced ops, spread evenly over their time, so that a slow phase of the
host weighs on set-up and op times alike.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

SETUP_SAMPLES = 9


def _ops(workload, paths, seed, scratch, budget, reference,
         around=contextlib.nullcontext, setup=None, min_ops=2):
    """Run ops for ``budget`` seconds (at least ``min_ops`` ops), starting
    another op only while the median op still fits; an op fails on an
    exception, a failed embedded check, or outputs that differ from the first
    op of the same seed.  When ``setup`` is a list, set-up samples are appended to it
    after each op, keeping pace with the elapsed share of ``budget``, until it
    holds ``SETUP_SAMPLES``."""
    results = []
    failed = 0
    start = time.perf_counter()
    spent = []
    while len(results) < min_ops or time.perf_counter() - start + statistics.median(spent) <= budget:
        t0 = time.perf_counter()
        try:
            with around():
                op = wl.run_op(workload, paths, seed, scratch)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            failed += 1
            results.append(None)
            continue
        finally:
            spent.append(time.perf_counter() - t0)
        if reference.setdefault("digest", op.digest) != op.digest:
            print(f"op {len(results)}: outputs differ from the first op of this seed",
                  file=sys.stderr)
            failed += 1
        elif not op.passed:
            if not failed:
                print(f"op {len(results)}: " + "; ".join(op.failures), file=sys.stderr)
            failed += 1
        results.append(op)
        if setup is not None:
            due = SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / budget)
            while len(setup) < due:
                setup.append(wl.setup_sample(workload, paths, seed))
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(wl.setup_sample(workload, paths, seed))
    return results, failed


def main(argv):
    name, seed, seconds, trace, workspace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workspace = Path(workspace)
    wl.use_checkout_source()
    workload = wl.workloads()[name]
    paths = wl.config_paths(workload, workspace)

    reference = {}
    setup = []
    # A traced run compares its untraced and traced ops, so one of each is
    # enough; a traced op of mwg-optimal-scan takes about 30 s.
    untraced, failed = _ops(
        workload, paths, seed, workspace, seconds / 2 if trace else seconds, reference,
        setup=setup, min_ops=1 if trace else 2,
    )
    done = [op for op in untraced if op is not None]
    wall = statistics.median(op.wall_s for op in done) if done else None
    result = {
        "attempted": len(untraced),
        "failed": failed,
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "op_wall_s": [op.wall_s for op in done],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": wl.machine_info(),
    }
    steps = wl.steps_per_op(workload)
    if steps is not None and wall:
        result["steps_per_s"] = steps / wall
    effective = wl.effective_samples(workload, done[0].summaries) if done else None
    if effective is not None:
        result["ess_per_s"] = effective / wall

    if trace:
        traced, attempted, traced_failed = _traced(
            workload, paths, seed, workspace, seconds / 2, reference, wall
        )
        result.update(traced)
        result["attempted"] += attempted
        result["failed"] += traced_failed
    print(json.dumps(result))


def _traced(workload, paths, seed, workspace, budget, reference, untraced_wall):
    from tracer import Tracer, diff, layer_metrics

    tracer = Tracer().install()
    per_op = []

    @contextlib.contextmanager
    def traced_op():
        snap, n_spans, token = tracer.snapshot(), len(tracer.spans), tracer.open_span()
        try:
            yield
        finally:
            tracer.close_span(token, f"op/{workload.name}")
            calls, extra = diff(tracer.snapshot(), snap)
            per_op.append((calls, extra, tracer.spans[n_spans:]))

    try:
        ops, failed = _ops(workload, paths, seed, workspace, budget, reference, traced_op,
                           min_ops=1)
    finally:
        tracer.uninstall()

    workers = workload.calls[0][1].get("workers", 1)
    rows = []
    for op, (calls, extra, spans) in zip(ops, per_op):
        if op is None:
            continue
        row = layer_metrics(calls, extra, spans, workers)
        row["experiments.files_written"] = op.files
        row["experiments.bytes_written"] = op.bytes
        rows.append(row)
    layers = {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
    traced_wall = statistics.median(op.wall_s for op in ops if op is not None) if rows else None
    if traced_wall is not None and untraced_wall is not None:
        layers["tracing_overhead_s"] = traced_wall - untraced_wall

    missing = sorted(k for k in workload.acts if not layers.get(k))
    stray = sorted(k for k in workload.idle if layers.get(k))
    trace_file = wl.OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "machine": wl.machine_info(),
                   "layers": layers, "spans": tracer.spans}, fh)
    traced = {
        "layers": layers,
        "completeness": {"zero_but_expected_work": missing, "work_but_expected_zero": stray},
        "trace_file": str(trace_file),
    }
    return traced, len(ops), failed

if __name__ == "__main__":
    main(sys.argv[1:])
