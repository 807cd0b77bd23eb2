"""Command line entry point.

Seven subcommands.  Six run an experiment config: ``simulate`` (exact
chain-law simulation of the truncated ladder), ``counterexample``,
``bounds``, ``variance`` (the lazy-variance identity), ``optimal-scan`` and
``geometric-gap``.  Each takes exactly ``--config PATH`` plus optional
``--seed`` and ``--out`` overrides and ``--check``, with which the exit
status is 0 when every embedded acceptance check passed and 1 otherwise.
The seventh, ``iact PATH [--burn-in N]``, prints the per-coordinate
autocorrelation analysis of an existing trajectory CSV.  Usage errors,
among them a flag the subcommand does not take, exit with 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import ConfigError, ExperimentConfig, run_experiment
from .samplers import read_trajectory_csv
from .variance import IACT_MIN_POINTS, iact_estimate

# The config kind each subcommand accepts.
SUBCOMMAND_KINDS = {
    "simulate": "truncated-ladder",
    "counterexample": "counterexample",
    "bounds": "bounds",
    "variance": "lazy-variance",
    "optimal-scan": "optimal-scan",
    "geometric-gap": "geometric-gap",
}


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _TrajectoryMovedToIact(argparse.Action):
    """``variance --trajectory``, the analysis's old form, refused with a
    pointer to its subcommand instead of a missing ``--config``."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} is not a variance flag; analyse a trajectory "
                     f"with 'adagibbs iact PATH'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adagibbs",
        description="Adaptive random scan Gibbs samplers: experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in SUBCOMMAND_KINDS.items():
        p = sub.add_parser(name, help=f"run a {kind} config")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument(
            "--seed", type=_nonnegative_int, default=None, help="override the config seed"
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--check",
            action="store_true",
            help="exit 1 unless every embedded acceptance check passes",
        )
        if name == "variance":
            p.add_argument("--trajectory", action=_TrajectoryMovedToIact, help=argparse.SUPPRESS)
    p = sub.add_parser("iact", help="IACT and asymptotic variance of a trajectory CSV")
    p.add_argument("trajectory", help="trajectory CSV to analyse")
    p.add_argument(
        "--burn-in", type=_nonnegative_int, default=0, help="samples to drop before analysis"
    )
    return parser


def _analyse_trajectory(path, burn_in):
    """Print each coordinate's IACT and asymptotic variance, and their total,
    once all are computed, so a refused trajectory prints nothing."""
    columns = read_trajectory_csv(path)
    coords = sorted(
        int(name[2:]) for name in columns if name.startswith("x_") and name[2:].isdigit()
    )
    if not coords:
        raise ValueError(f"{path} holds no x_i columns")
    rows = len(columns[f"x_{coords[0]}"])
    if burn_in and rows - burn_in < IACT_MIN_POINTS:
        raise ValueError(
            f"--burn-in {burn_in} leaves {max(rows - burn_in, 0)} of {rows} rows; "
            f"an IACT estimate needs {IACT_MIN_POINTS}"
        )
    lines = ["coordinate,iact,asymptotic_variance"]
    total = 0.0
    for k in coords:
        trace = columns[f"x_{k}"][burn_in:]
        tau = iact_estimate(trace)
        sigma2 = tau * float(np.var(trace))
        total += sigma2
        lines.append(f"{k},{tau!r},{sigma2!r}")
    lines.append(f"total,,{total!r}")
    print("\n".join(lines))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "iact":
        try:
            _analyse_trajectory(args.trajectory, args.burn_in)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        config = ExperimentConfig.from_file(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.kind != SUBCOMMAND_KINDS[args.command]:
        print(
            f"error: subcommand {args.command!r} expects a config of kind "
            f"{SUBCOMMAND_KINDS[args.command]!r}, got {config.kind!r}",
            file=sys.stderr,
        )
        return 2
    config = config.with_overrides(seed=args.seed, out=args.out)
    try:
        manifest, result = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"digest": manifest["digest"], "passed": result.passed, **result.summary},
                     sort_keys=True))
    for name, check in result.checks.items():
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {config.kind}/{name}: {check['detail']}")
    if args.check and not result.passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
