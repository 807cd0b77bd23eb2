"""Reproducible experiment harness.

Every experiment the CLI can run lives here as a pure function taking a
validated :class:`ExperimentConfig` and returning rows, a summary and named
checks, whose conjunction is the verdict; :func:`run_experiment` adds the
filesystem side (CSV outputs plus a manifest recording the canonical config
digest and seed).
Identical config and seed produce byte-identical data files.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .adaptation import BATCH_SIZE, ComponentwiseAdaptation, acceptance_fractions
from .bounds import (
    _weight_family_rows,
    geometric_counterexample_gap,
    geometric_mass_is_normal,
    minorization_search,
    strong_uniform_constants,
)
from .kernels import (
    TransitionMatrix,
    random_reversible_chain,
)
from .ladder import (
    linear_schedule,
    schedule_a,
    transience_experiment,
    truncated_ladder_evolution,
)
from .samplers import _generator, adap_rs_adap_mwg_run, gaussian_random_walk, rs_mwg_run
from .targets import ContinuousProductTarget, FiniteProductTarget
from .variance import (
    IACT_MIN_POINTS,
    ReversibleChain,
    center_observable,
    iact_estimate,
    lazy_variance,
    spectral_asymptotic_variance,
    stationary_variance,
)
from .weights import SelectionWeights, make_selection_weights, sup_distance


class ConfigError(ValueError):
    """Raised for malformed experiment configurations, naming the field."""


def _strict_int(v) -> int:
    """An integer from a config: JSON integers and integral floats (``1e5``),
    never booleans, strings or fractional floats."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {type(v).__name__}")
    return int(v)


def _strict_bool(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, got {type(v).__name__}")
    return v


def _strict_float(v) -> float:
    """A finite float from a config: JSON numbers, never booleans, strings,
    NaN or infinities (Python's ``json`` reads ``NaN`` and ``Infinity``)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _array_of(caster):
    """A non-empty tuple from a config array (JSON list; tuples for the
    defaults), each item through ``caster``; a string is not taken as a list
    of characters.  A check over an empty array would pass on nothing."""

    def cast(v) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"expected an array, got {type(v).__name__}")
        if not v:
            raise ValueError("expected a non-empty array")
        return tuple(caster(x) for x in v)

    return cast


# Per-kind parameter schemas: name -> (caster, predicate, default).
_POSITIVE_INT = (_strict_int, lambda v: v >= 1)
_UNIT_OPEN = (_strict_float, lambda v: 0.0 < v < 1.0)
_FLOATS = _array_of(_strict_float)

PARAM_SPECS: dict = {
    "lazy-variance": {
        "n_chains": (*_POSITIVE_INT, 100),
        "max_states": (_strict_int, lambda v: 2 <= v <= 32, 8),
        "deltas": (
            _FLOATS,
            lambda v: all(0.0 < x <= 1.0 for x in v),
            (0.1, 0.3, 0.5, 0.9, 1.0),
        ),
        "tolerance": (_strict_float, lambda v: v > 0.0, 1e-10),
    },
    "bounds": {
        "families": (
            _array_of(str),
            lambda v: all(x in ("lipschitz", "uniform", "strong") for x in v),
            ("lipschitz", "uniform", "strong"),
        ),
        "n_targets": (*_POSITIVE_INT, 100),
        "epsilon": (_UNIT_OPEN[0], _UNIT_OPEN[1], 0.1),
        "n_alphas": (*_POSITIVE_INT, 20),
        "horizon": (*_POSITIVE_INT, 200),
        "n_chains": (*_POSITIVE_INT, 50),
    },
    "counterexample": {
        # The last-half slope of a height trace needs two points.
        "n_steps": (_strict_int, lambda v: v >= 2, 100_000),
        "n_runs": (*_POSITIVE_INT, 20),
        "final_threshold": (*_POSITIVE_INT, 500),
        "control_threshold": (*_POSITIVE_INT, 50),
        "min_successes": (*_POSITIVE_INT, 16),
        # Accepted and validated so existing configs (and their digests) keep
        # working; replicates run serially, so it changes neither results nor
        # speed.
        "workers": (*_POSITIVE_INT, 1),
        "trace_stride": (*_POSITIVE_INT, 100),
        "emit_traces": (_strict_bool, lambda v: True, True),
    },
    "truncated-ladder": {
        "truncation": (_strict_int, lambda v: v >= 2, 20),
        "tv_target": (_strict_float, lambda v: 0.0 < v < 1.0, 1e-3),
        "max_steps": (*_POSITIVE_INT, 200_000),
        "schedule": (str, lambda v: v in ("linear", "block"), "linear"),
        "schedule_offset": (_strict_float, lambda v: v > 8.0, 10.0),
        "schedule_slope": (_strict_float, lambda v: v > 0.0, 2.0),
        "tail_fraction": (_strict_float, lambda v: 0.0 < v <= 0.5, 0.1),
    },
    "geometric-gap": {
        "p_values": (
            _FLOATS,
            lambda v: all(0.0 < x < 1.0 for x in v),
            (0.3, 0.5, 0.7),
        ),
        "n_min": (*_POSITIVE_INT, 10),
        "n_max": (*_POSITIVE_INT, 40),
        "check_p": (_UNIT_OPEN[0], _UNIT_OPEN[1], 0.5),
        "proposal_n": (*_POSITIVE_INT, 30),
        "proposal_tolerance": (_strict_float, lambda v: v > 0.0, 1e-8),
        "kernel_n": (*_POSITIVE_INT, 25),
        "kernel_band": (
            _FLOATS,
            lambda v: len(v) == 2 and v[0] < v[1],
            (0.45, 0.5),
        ),
    },
    "optimal-scan": {
        "scales": (
            _FLOATS,
            lambda v: all(x > 0.0 for x in v),
            (1.0, 2.0, 4.0, 8.0, 16.0),
        ),
        "a": (
            _FLOATS,
            lambda v: any(x != 0.0 for x in v),
            (1.0, 1.0, 1.0, 1.0, 1.0),
        ),
        "epsilon": (_UNIT_OPEN[0], _UNIT_OPEN[1], 0.02),
        "n_batches": (*_POSITIVE_INT, 2000),
        "window_batches": (*_POSITIVE_INT, 100),
        "weight_tolerance": (_strict_float, lambda v: v > 0.0, 0.05),
        "acceptance_band": (
            _FLOATS,
            lambda v: len(v) == 2 and 0.0 < v[0] < v[1] < 1.0,
            (0.34, 0.54),
        ),
        "eval_steps": (*_POSITIVE_INT, 200_000),
        "eval_burn_in": (_strict_int, lambda v: v >= 0, 2_000),
        "variance_ratio_slack": (_strict_float, lambda v: v >= 1.0, 1.25),
    },
}

# bounds draws its random targets with 2 to BOUNDS_MAX_D coordinates.
BOUNDS_MAX_D = 3

# Rules across the fields of one kind: kind -> (field named in the error,
# predicate on the cleaned parameters, message).  A weight floor above 1/d
# leaves no weight vector on d coordinates.
CROSS_FIELD: dict = {
    "bounds": (
        ("families", lambda p: len(set(p["families"])) == len(p["families"]),
         "must not name a family twice"),
        ("epsilon", lambda p: p["epsilon"] <= 1.0 / BOUNDS_MAX_D,
         f"must not exceed 1/{BOUNDS_MAX_D}, for the largest random target"),
    ),
    "counterexample": (
        ("min_successes", lambda p: p["min_successes"] <= p["n_runs"],
         "must not exceed params.n_runs"),
    ),
    "geometric-gap": (
        ("n_min", lambda p: p["n_min"] <= p["n_max"], "must not exceed params.n_max"),
        # the target mass p**n (1 - p) falls with n
        ("p_values",
         lambda p: all(geometric_mass_is_normal(pv, p["n_max"]) for pv in p["p_values"]),
         "at params.n_max gives a target mass below the least normal float"),
        ("check_p",
         lambda p: geometric_mass_is_normal(p["check_p"], max(p["proposal_n"], p["kernel_n"])),
         "at params.proposal_n or params.kernel_n gives a target mass below the least "
         "normal float"),
    ),
    "optimal-scan": (
        # the check window would take in the first, unadapted batches
        ("window_batches", lambda p: p["window_batches"] <= p["n_batches"],
         "must not exceed params.n_batches"),
        ("a", lambda p: len(p["a"]) == len(p["scales"]),
         "must match the length of params.scales"),
        ("epsilon", lambda p: p["epsilon"] <= 1.0 / len(p["scales"]),
         "must not exceed 1/len(params.scales)"),
        # iact_estimate's points come from the eval_steps + 1 states.
        ("eval_burn_in", lambda p: p["eval_steps"] + 1 - p["eval_burn_in"] >= IACT_MIN_POINTS,
         f"must leave at least {IACT_MIN_POINTS} evaluation states"),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    The canonical digest covers kind, seed and parameters (not the output
    directory), so relocating results does not change their identity.
    """

    kind: str
    seed: int
    params: dict
    out: Optional[str] = None

    def __post_init__(self):
        if self.kind not in PARAM_SPECS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        try:
            seed = _strict_int(self.seed)
            if seed < 0:
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(f"seed: must be a nonnegative integer, got {self.seed!r}") from None
        object.__setattr__(self, "seed", seed)
        spec = PARAM_SPECS[self.kind]
        cleaned = {}
        for name, value in self.params.items():
            if name not in spec:
                raise ConfigError(f"params.{name}: unknown parameter for kind {self.kind!r}")
        for name, (caster, predicate, default) in spec.items():
            raw = self.params.get(name, default)
            try:
                value = caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"params.{name}: cannot parse {raw!r} ({exc})") from exc
            if not predicate(value):
                raise ConfigError(f"params.{name}: value {value!r} out of range")
            cleaned[name] = value
        for name, holds, message in CROSS_FIELD.get(self.kind, ()):
            if not holds(cleaned):
                raise ConfigError(f"params.{name}: {message}")
        object.__setattr__(self, "params", cleaned)

    def canonical_json(self) -> str:
        payload = {"kind": self.kind, "seed": self.seed, "params": self.params}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise ConfigError("kind: missing")
        seed = data.pop("seed", 0)
        out = data.pop("out", None)
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out: expected a string, got {type(out).__name__}")
        params = data.pop("params", None)
        if params is None:
            params = data
        elif not isinstance(params, dict):
            raise ConfigError(f"params: expected an object, got {type(params).__name__}")
        elif data:
            extra = ", ".join(sorted(data))
            raise ConfigError(f"unexpected top-level keys next to 'params': {extra}")
        return cls(kind=str(kind), seed=seed, params=dict(params), out=out)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: expected an object at top level")
        return cls.from_dict(data)

    def with_overrides(self, seed: Optional[int] = None, out: Optional[str] = None):
        return ExperimentConfig(
            kind=self.kind,
            seed=self.seed if seed is None else seed,
            params=dict(self.params),
            out=self.out if out is None else out,
        )


@dataclass
class ExperimentResult:
    """Rows, summary and checks produced by one experiment function."""

    summary: dict
    tables: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The verdict: every check passed."""
        return all(check["passed"] for check in self.checks.values())


def _record_check(result: ExperimentResult, name: str, ok: bool, detail: str):
    result.checks[name] = {"passed": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# shared random generators


def random_finite_product_target(rng: np.random.Generator, d: int):
    """Random strictly positive product-space target with 2..4 values per
    coordinate and log-normal masses."""
    sizes = [int(rng.integers(2, 5)) for _ in range(d)]
    coordinate_states = [tuple(range(s)) for s in sizes]
    n_total = int(np.prod(sizes))
    masses = np.exp(rng.normal(0.0, 1.0, size=n_total))
    strides = np.ones(d, dtype=int)
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    def mass(x):
        flat = int(sum(strides[i] * x[i] for i in range(d)))
        return float(masses[flat])

    return FiniteProductTarget(coordinate_states, mass)


# ---------------------------------------------------------------------------
# lazy-variance


def lazy_variance_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Check the exact lazy-variance identity on random reversible chains."""
    p = config.params
    rng = _generator(config.seed)
    rows = []
    worst = 0.0
    for chain_id in range(p["n_chains"]):
        n_states = int(rng.integers(2, p["max_states"] + 1))
        kernel, pi = random_reversible_chain(rng, n_states)
        chain = ReversibleChain(kernel, pi)
        h = center_observable(chain, rng.normal(size=n_states))
        sigma2 = spectral_asymptotic_variance(chain, h)
        pi_h2 = stationary_variance(chain, h)
        for delta in p["deltas"]:
            mixed = TransitionMatrix(
                kernel.states,
                (1.0 - delta) * np.eye(n_states) + delta * kernel.matrix,
            )
            direct = spectral_asymptotic_variance(ReversibleChain(mixed, pi), h)
            via_identity = lazy_variance(sigma2, delta, pi_h2)
            residual = abs(direct - via_identity)
            worst = max(worst, residual)
            rows.append([chain_id, n_states, delta, direct, via_identity, residual])
    result = ExperimentResult(
        summary={"max_residual": worst, "tolerance": p["tolerance"]},
        tables={"residuals": (["chain", "n_states", "delta", "lazy_spectral", "identity", "residual"], rows)},
    )
    _record_check(
        result,
        "lazy_identity",
        worst <= p["tolerance"],
        f"max residual {worst:.3e} vs tolerance {p['tolerance']:.1e}",
    )
    return result


# ---------------------------------------------------------------------------
# bounds (three families)


# An exact quantity above its bound by more than this is a violation.
BOUND_SLACK = 1e-12


def _record_bound_family(result, name, header, rows, margins, unit):
    """Record one bound family: its table, each row of which gains a last
    ``violation`` column flagging a margin (bound minus exact quantity) below
    ``-BOUND_SLACK``, in place, and a check that no row is flagged."""
    flags = [int(margin < -BOUND_SLACK) for margin in margins]
    for row, flag in zip(rows, flags):
        row.append(flag)
    result.tables[name] = ([*header, "violation"], rows)
    violations = sum(flags)
    detail = f"{violations} violations over {len(rows)} {unit}"
    _record_check(result, name, violations == 0, detail)


def _weight_draws(rng: np.random.Generator, targets: list, count: int) -> np.ndarray:
    """``count`` raw weight vectors per target, drawn in target order: row
    ``t * count + a`` is target ``t``'s draw ``a``, zero beyond its ``d``."""
    draws = np.zeros((len(targets) * count, BOUNDS_MAX_D))
    for k, raw in enumerate(draws):
        d = targets[k // count].d
        raw[:d] = rng.dirichlet(np.ones(d))
    return draws


def bounds_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dominance checks: every closed-form bound against its exact quantity.

    Every weight vector is drawn before any kernel is built: the lipschitz
    pairs, then the uniform draws, each in target order, which is the stream
    of one family's target-by-target loop after the other's.  The targets
    are then visited in groups of one state count, and a group's uniform
    draws run their horizon in stacks capped at ``bounds.STACK_BYTES`` per
    stacked array (see ``bounds._weight_family_rows``).
    """
    p = config.params
    rng = _generator(config.seed)
    result = ExperimentResult(summary={})
    targets = [
        random_finite_product_target(rng, int(rng.integers(2, BOUNDS_MAX_D + 1)))
        for _ in range(p["n_targets"])
    ]
    pairs = _weight_draws(rng, targets, 2) if "lipschitz" in p["families"] else None
    draws = _weight_draws(rng, targets, p["n_alphas"]) if "uniform" in p["families"] else None
    lipschitz, uniform = _weight_family_rows(targets, pairs, draws, p)  # empties targets

    if lipschitz is not None:
        header = ["target", "d", "exact_sup_tv", "bound"]
        margins = [bound - exact for *_, exact, bound in lipschitz]
        _record_bound_family(result, "lipschitz", header, lipschitz, margins, "weight pairs")

    if uniform is not None:
        header = ["target", "alpha", "cert_m", "cert_s", "exact_at_worst_n", "bound_at_worst_n",
                  "min_margin"]
        margins = [row[-1] for row in uniform]
        _record_bound_family(result, "uniform", header, uniform, margins, "weight draws")

    if "strong" in p["families"]:
        rows = []
        for c_id in range(p["n_chains"]):
            n_states = int(rng.integers(3, 9))
            kernel, pi = random_reversible_chain(rng, n_states)
            cert = minorization_search(kernel, 1)
            m_star, s_star = strong_uniform_constants(cert.m, cert.s)
            power = np.linalg.matrix_power(kernel.matrix, m_star)
            margin = float((power - s_star * pi.probs[np.newaxis, :]).min())
            rows.append([c_id, n_states, cert.s, m_star, s_star, margin])
        header = ["chain", "n_states", "cert_s", "m_star", "s_star", "min_margin"]
        margins = [row[-1] for row in rows]
        _record_bound_family(result, "strong", header, rows, margins, "chains")

    result.summary = {name: check["detail"] for name, check in result.checks.items()}
    return result


# ---------------------------------------------------------------------------
# counterexample


def counterexample_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Transience of the adaptive ladder against its fixed-weight control.

    With ``emit_traces`` every replicate's height trace, taken every
    ``trace_stride`` steps, becomes a table ``trace_{arm}_{run:02d}``
    (``step,x_1``), and ``plot_adaptive_run0`` repeats the first adaptive one
    as the plot file of the runaway chain.
    """
    p = config.params
    stride = p["trace_stride"]
    records = transience_experiment(p["n_steps"], p["n_runs"], config.seed, stride)
    tables = {
        "runs": (
            ["arm", "run", "seed", "final_height", "last_half_slope"],
            [[r.arm, r.run, r.seed, r.final_height, r.slope] for r in records],
        ),
    }
    if p["emit_traces"]:
        for r in records:
            tables[f"trace_{r.arm}_{r.run:02d}"] = (
                ["step", "x_1"], [[k * stride, float(h)] for k, h in enumerate(r.trace)]
            )
        tables["plot_adaptive_run0"] = tables["trace_adaptive_00"]
    escapes = sum(
        r.arm == "adaptive" and r.final_height > p["final_threshold"] and r.slope > 0.0
        for r in records
    )
    contained = sum(
        r.arm == "control" and r.final_height <= p["control_threshold"] for r in records
    )
    result = ExperimentResult(
        summary={
            "escapes": escapes,
            "contained": contained,
            "n_runs": p["n_runs"],
            "final_threshold": p["final_threshold"],
            "control_threshold": p["control_threshold"],
        },
        tables=tables,
    )
    _record_check(
        result,
        "adaptive_escapes",
        escapes >= p["min_successes"],
        f"{escapes}/{p['n_runs']} runs ended above {p['final_threshold']} with positive slope "
        f"(need {p['min_successes']})",
    )
    _record_check(
        result,
        "control_contained",
        contained >= p["min_successes"],
        f"{contained}/{p['n_runs']} control runs ended at or below {p['control_threshold']} "
        f"(need {p['min_successes']})",
    )
    return result


# ---------------------------------------------------------------------------
# truncated ladder


def truncated_ladder_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Exact chain-law convergence of the truncated adaptive ladder."""
    p = config.params
    if p["schedule"] == "linear":
        a_of_n = linear_schedule(p["schedule_offset"], p["schedule_slope"])
    else:
        a_of_n = schedule_a
    evolution = truncated_ladder_evolution(
        p["truncation"], a_of_n, tv_target=p["tv_target"], max_steps=p["max_steps"]
    )
    tv = evolution.tv
    monotone = True
    if evolution.reached:
        tail_start = int(len(tv) * (1.0 - p["tail_fraction"]))
        tail = tv[tail_start:]
        monotone = bool(np.all(np.diff(tail) <= 1e-12))
    rows = [[n, float(v)] for n, v in enumerate(tv)]
    result = ExperimentResult(
        summary={
            "horizon": evolution.horizon,
            "reached": evolution.reached,
            "tv_target": p["tv_target"],
            "final_tv": float(tv[-1]),
            "schedule": p["schedule"],
        },
        tables={"tv_trace": (["step", "tv"], rows)},
    )
    _record_check(
        result,
        "tv_target_reached",
        evolution.reached,
        f"horizon {evolution.horizon} within cap {p['max_steps']} (final TV {tv[-1]:.3e})",
    )
    _record_check(
        result,
        "tv_tail_monotone",
        monotone,
        f"TV nonincreasing over the final {p['tail_fraction']:.0%} of the horizon",
    )
    return result


# ---------------------------------------------------------------------------
# geometric gap


def geometric_gap_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Proposal-TV versus kernel-TV gaps for the geometric-target example."""
    p = config.params
    rows = []
    by_p = {}
    for pv in p["p_values"]:
        gaps = []
        for n in range(p["n_min"], p["n_max"] + 1):
            g = geometric_counterexample_gap(pv, n)
            gaps.append(g)
            rows.append([pv, n, g.proposal_gap, g.kernel_gap])
        by_p[pv] = gaps
    result = ExperimentResult(
        summary={},
        tables={"gaps": (["p", "n", "proposal_gap", "kernel_gap"], rows)},
    )

    check_p = p["check_p"]
    proposal_point = geometric_counterexample_gap(check_p, p["proposal_n"]).proposal_gap
    _record_check(
        result,
        "proposal_gap_vanishes",
        proposal_point < p["proposal_tolerance"],
        f"proposal gap {proposal_point:.3e} at n={p['proposal_n']}, p={check_p}",
    )
    kernel_point = geometric_counterexample_gap(check_p, p["kernel_n"]).kernel_gap
    lo, hi = p["kernel_band"]
    _record_check(
        result,
        "kernel_gap_persists",
        lo <= kernel_point <= hi,
        f"kernel gap {kernel_point:.6f} at n={p['kernel_n']} vs band [{lo}, {hi}]",
    )
    trend_ok = True
    for pv, gaps in by_p.items():
        series = [g.kernel_gap for g in gaps]
        diffs = np.diff(series)
        limit = 1.0 - pv
        # (1 - p) - gap(n) lies in [0, p**n] up to rounding
        if np.any(diffs < -1e-12) or abs(series[-1] - limit) > pv ** p["n_max"] + 1e-12:
            trend_ok = False
    _record_check(
        result,
        "kernel_gap_trend",
        trend_ok,
        f"kernel gaps nondecreasing toward 1-p for p in {tuple(by_p)}",
    )
    result.summary = {
        "proposal_gap": proposal_point,
        "kernel_gap": kernel_point,
    }
    return result


# ---------------------------------------------------------------------------
# optimal scan (acceptance-targeting adaptation on a scaled product target)


def optimal_scan_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the acceptance-targeting doubly adaptive sampler and verify that
    the weights land on the square-root rule and that it pays off in
    asymptotic variance."""
    p = config.params
    scales = p["scales"]
    a = p["a"]
    d = len(scales)
    epsilon = p["epsilon"]
    target = ContinuousProductTarget(scales)
    adaptation = ComponentwiseAdaptation(a, epsilon)
    n_steps = p["n_batches"] * BATCH_SIZE
    x0 = (0.0,) * d

    # Only the final state is used: the run's history is released at once.
    x_eval = adap_rs_adap_mwg_run(
        target,
        gaussian_random_walk,
        adaptation.weight_rule,
        adaptation.proposal_rule,
        x0,
        adaptation.weights,
        adaptation.proposal_variances,
        n_steps,
        config.seed,
        observer=adaptation.observer,
    ).final_state

    # the observable sum_i a_i x_i spreads by |a_i| / scale_i along coordinate i
    spread = [abs(ai) / c for ai, c in zip(a, scales)]
    ideal = make_selection_weights(spread, epsilon)
    window = adaptation.batch_log[-p["window_batches"]:]
    weight_gap = max(sup_distance(entry["weights"], ideal.weights) for entry in window)
    rows = [
        [entry["batch"], *entry["weights"], *entry["variances"], *entry["acceptance"]]
        for entry in adaptation.batch_log
    ]
    header = (
        ["batch"]
        + [f"alpha_{k}" for k in range(1, d + 1)]
        + [f"variance_{k}" for k in range(1, d + 1)]
        + [f"acceptance_{k}" for k in range(1, d + 1)]
    )

    window_fractions = acceptance_fractions(
        [sum(column) for column in zip(*(entry["accepts"] for entry in window))],
        [sum(column) for column in zip(*(entry["proposals"] for entry in window))],
    )
    lo, hi = p["acceptance_band"]
    acceptance_ok = all(lo <= frac <= hi for frac in window_fractions)

    # Variance arms: freeze the adapted proposal scales, compare the adapted
    # weights against the uniform scan on the same kernels.  The uniform arm
    # runs in a worker process while this process runs the adaptive arm; each
    # arm has its own seed, so the result does not depend on where it ran.
    final_weights = adaptation.weights
    uniform_alpha = SelectionWeights((1.0 / d,) * d, epsilon)
    gamma = adaptation.proposal_variances
    eval_steps, burn_in = p["eval_steps"], p["eval_burn_in"]
    (tau_a, var_a), (tau_u, var_u) = _in_processes(
        _evaluation_arm,
        [
            (target, alpha, a, gamma, x_eval, eval_steps, burn_in, config.seed ^ key)
            for alpha, key in ((final_weights, 0x5CA1AB1E), (uniform_alpha, 0x0DDBA11))
        ],
    )
    ratio = (tau_a * var_a) / (tau_u * var_u)
    theory_ratio = math.fsum(spread) ** 2 / (d * math.fsum(s * s for s in spread))
    ratio_limit = p["variance_ratio_slack"] * theory_ratio

    result = ExperimentResult(
        summary={
            "weight_gap": weight_gap,
            "ideal_weights": list(ideal.weights),
            "final_weights": list(final_weights.weights),
            "window_acceptance": list(window_fractions),
            "variance_ratio": ratio,
            "theory_ratio": theory_ratio,
            "ratio_limit": ratio_limit,
            "tau_adaptive": tau_a,
            "var_adaptive": var_a,
            "tau_uniform": tau_u,
            "var_uniform": var_u,
        },
        tables={"batches": (header, rows)},
    )
    _record_check(
        result,
        "weights_near_ideal",
        weight_gap < p["weight_tolerance"],
        f"sup weight gap {weight_gap:.4f} over last {len(window)} batches "
        f"vs {p['weight_tolerance']}",
    )
    _record_check(
        result,
        "acceptance_targeted",
        acceptance_ok,
        f"window acceptance fractions {['%.3f' % f for f in window_fractions]} within [{lo}, {hi}]",
    )
    _record_check(
        result,
        "variance_ratio",
        ratio <= ratio_limit,
        f"asymptotic variance ratio {ratio:.4f} vs limit {ratio_limit:.4f} "
        f"(theory {theory_ratio:.4f})",
    )
    return result


def _evaluation_arm(target, alpha, a, gamma, x0, eval_steps, burn_in, seed):
    """One arm of the variance comparison, from picklable arguments so that
    it can run in another process: a fixed-parameter run of
    :func:`~adagibbs.samplers.rs_mwg_run` (weights ``alpha``, Gaussian
    random-walk variances ``gamma``), which draws its randomness in blocks.
    Returns the IACT and the variance of the observable ``sum_i a_i x_i``
    after burn-in."""
    # The observable is taken block by block, so the (n + 1, d) states are
    # never built whole, and the run's record is freed before the IACT,
    # whose FFT spans only the window of lags its rule reads.
    run = rs_mwg_run(target, alpha, gamma, x0, eval_steps, seed)
    a = np.asarray(a)
    trace = np.concatenate([block @ a for block in run.row_blocks(burn_in)])
    del run
    return iact_estimate(trace), float(np.var(trace))


def _in_processes(fn, calls):
    """``[fn(*args) for args in calls]``, the calls after the first in one
    forked worker process while this process makes the first.

    Each call must depend on its arguments alone, so the results are those of
    the calls in turn, and an exception in the worker is raised here.  A
    forked worker, unlike a spawned one, does not re-run the caller's main
    module, so neither a script without an ``if __name__ == "__main__":``
    guard nor a program read from stdin runs twice.  Where ``os.fork`` does
    not exist the calls run in turn.
    """
    if not hasattr(os, "fork"):
        return [fn(*args) for args in calls]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        pending = [pool.submit(fn, *args) for args in calls[1:]]
        first = fn(*calls[0])
        return [first, *(job.result() for job in pending)]


EXPERIMENT_FUNCTIONS = {
    "lazy-variance": lazy_variance_experiment,
    "bounds": bounds_experiment,
    "counterexample": counterexample_experiment,
    "truncated-ladder": truncated_ladder_experiment,
    "geometric-gap": geometric_gap_experiment,
    "optimal-scan": optimal_scan_experiment,
}


# ---------------------------------------------------------------------------
# filesystem side


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig):
    """Execute one experiment and persist tables, summary and manifest.

    Outputs go to ``config.out`` (default ``runs/<kind>-<digest prefix>``)
    through a temporary directory beside it, renamed into place after the
    manifest: a failed run leaves no directory and an existing target
    untouched.  A file, or a non-empty directory without ``manifest.json``,
    or a path under a file, is refused with :class:`ConfigError` before the
    experiment runs.

    Returns ``(manifest, result)``, the manifest as the dict written.
    """
    digest = config.digest()
    out = config.out or os.path.join("runs", f"{config.kind}-{digest[:8]}")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out: cannot create {out}: {existing} is not a directory")
    if os.path.isdir(out) and os.listdir(out) and "manifest.json" not in os.listdir(out):
        raise ConfigError(f"out: {out} is neither empty nor an earlier run's directory")
    result = EXPERIMENT_FUNCTIONS[config.kind](config)
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".adagibbs-", dir=parent) as scratch:
        tmp = os.path.join(scratch, "run")
        os.mkdir(tmp)
        for name, (header, rows) in result.tables.items():
            _write_table(os.path.join(tmp, f"{name}.csv"), header, rows)
        _write_json(
            os.path.join(tmp, "summary.json"),
            {"summary": result.summary, "checks": result.checks, "passed": result.passed},
        )
        manifest = {
            "digest": digest,
            "kind": config.kind,
            "seed": config.seed,
            "version": __version__,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": json.loads(config.canonical_json()),
            "outputs": sorted([*(f"{name}.csv" for name in result.tables), "summary.json"]),
        }
        _write_json(os.path.join(tmp, "manifest.json"), manifest)
        if os.path.isdir(out):
            os.rename(out, os.path.join(scratch, "old"))
        os.rename(tmp, out)
    return manifest, result
