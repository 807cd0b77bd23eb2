"""Seeded Monte Carlo loops for random scan Gibbs and Metropolis-within-Gibbs.

Two run functions cover every sampler: :func:`adap_rsg_run` (random scan
Gibbs with adaptive weights) and :func:`adap_rs_adap_mwg_run` (random scan
Metropolis-within-Gibbs with adaptive weights and proposals).  Update rules
are called once per step as ``rule(n, prev, x_prev)`` and return the step's
weights (or proposal parameters); a rule that needs history keeps it on
itself.  Immutable return values (a :class:`SelectionWeights` on the run's
floor, a tuple of Python floats) are checked when they first appear and
reused without further checks while the rule keeps returning them; lists and
arrays are copied and checked on every step.  The non-adaptive special cases
are these loops driven by :func:`keep_previous`: fixed weights RSG(alpha) as
the weight rule, fixed proposals as the proposal rule.  All runs are driven
by a Philox counter-based generator keyed by a 64-bit seed, so identical
inputs produce bit-identical trajectories; replicate seeds come from :func:`derive_seed`, a
splitmix-style mix of the base seed and the replicate index, so replicates
never share a stream.

RNG consumption contracts (relied on by the straight-line oracles in the
tests): exact-conditional runs pre-draw ``2 * n_steps`` uniforms, consuming
one for the coordinate choice and one for the conditional inverse-CDF draw
per step.  Metropolis runs draw, per step and in this order: one uniform for
the coordinate, the proposal sampler's own draws, one uniform for the
accept decision.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .weights import SelectionWeights, make_selection_weights

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Per-replicate stream key: splitmix64 finaliser of ``base ^ index``."""
    z = (int(base_seed) ^ int(index)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator for one run."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class Trajectory:
    """Record of one seeded run.

    ``states`` has ``n_steps + 1`` entries (the initial state first);
    ``coordinates`` (0-based), ``accepted``, and ``alphas`` have one entry per
    step.  ``gammas`` tracks per-coordinate proposal parameters for the
    Metropolis-within-Gibbs runs (fixed or adapted) and is ``None`` for the
    exact-conditional Gibbs runs.
    """

    states: tuple
    coordinates: tuple
    accepted: tuple
    alphas: tuple
    seed: int
    gammas: Optional[tuple] = None

    def __post_init__(self):
        n = len(self.coordinates)
        if len(self.states) != n + 1:
            raise ValueError("states must have one more entry than steps")
        if len(self.accepted) != n or len(self.alphas) != n:
            raise ValueError("per-step records must share the step count")
        if self.gammas is not None and len(self.gammas) != n:
            raise ValueError("gamma history must share the step count")
        for prev, cur in zip(self.states, self.states[1:]):
            if cur is prev:
                continue
            diffs = sum(1 for a, b in zip(prev, cur) if a != b)
            if diffs > 1:
                raise ValueError(f"states {prev!r} -> {cur!r} differ in {diffs} coordinates")

    @property
    def n_steps(self) -> int:
        return len(self.coordinates)

    @property
    def d(self) -> int:
        return len(self.states[0])

    def coordinate_trace(self, i: int) -> np.ndarray:
        return np.asarray([s[i] for s in self.states], dtype=np.float64)


@dataclass(frozen=True)
class ProposalFamily:
    """Per-coordinate parametrised proposal: a sampler and its density.

    ``sample(rng, i, x_i, gamma_i)`` draws a proposed value; ``density(i,
    x_i, y_i, gamma_i)`` evaluates the transition density used in the
    acceptance ratio.  ``validate_gamma`` may reject inadmissible parameters.
    """

    sample: Callable
    density: Callable
    validate_gamma: Optional[Callable] = None

    def check_gamma(self, gamma: Sequence[float]):
        for i, g in enumerate(gamma):
            if not math.isfinite(g):
                raise ValueError(f"proposal parameter {i} is not finite: {g!r}")
            if self.validate_gamma is not None and not self.validate_gamma(i, g):
                raise ValueError(f"proposal parameter {i} inadmissible: {g!r}")


def gaussian_random_walk_family() -> ProposalFamily:
    """Normal increments; the parameter is the proposal variance."""

    def sample(rng, i, x, gamma):
        return x + math.sqrt(gamma) * rng.standard_normal()

    def density(i, x, y, gamma):
        return math.exp(-0.5 * (y - x) ** 2 / gamma) / math.sqrt(2.0 * math.pi * gamma)

    return ProposalFamily(sample, density, validate_gamma=lambda i, g: g > 0.0)


def _check_initial_state(target, x0) -> tuple:
    x0 = tuple(x0)
    if hasattr(target, "contains") and not target.contains(x0):
        raise ValueError(f"initial state {x0!r} is outside the target support")
    return x0


def _check_n_steps(n_steps: int):
    if n_steps < 1:
        raise ValueError(f"need at least one step, got n_steps={n_steps!r}")


def _coerce_weights(out, epsilon: float) -> SelectionWeights:
    """Force a rule's output into the floored simplex."""
    if isinstance(out, SelectionWeights) and out.epsilon == epsilon:
        return out
    values = out.weights if isinstance(out, SelectionWeights) else tuple(out)
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"weight rule returned a non-finite value: {values!r}")
    return make_selection_weights(values, epsilon)


def _coerce_gamma(out, proposals: ProposalFamily) -> tuple:
    """Validate a rule's proposal parameters.  A tuple of Python floats is
    immutable and kept as it is; anything else (a list, an array, a tuple of
    other numbers) is first copied into one."""
    if type(out) is not tuple or any(type(g) is not float for g in out):
        out = tuple(float(g) for g in out)
    proposals.check_gamma(out)
    return out


def keep_previous(n, prev, x_prev):
    """Update rule that never adapts: ``keep_previous(n, prev, x_prev)``
    hands back ``prev``, the value the loop used at the previous step.

    As the weight rule it turns :func:`adap_rsg_run` into the fixed-weight
    sampler RSG(alpha0); as the proposal rule it fixes the proposals of
    :func:`adap_rs_adap_mwg_run`.  The loops recognise their own object coming
    back and skip re-coercing and re-validating it.
    """
    return prev


def adap_rsg_run(
    target,
    rule: Callable,
    x0,
    alpha0: SelectionWeights,
    n_steps: int,
    seed: int,
) -> Trajectory:
    """Adaptive random scan Gibbs sampler.

    Per step, in this order: set ``alpha_n = rule(n, alpha_prev, x_prev)``
    (coerced into the floored simplex), choose the coordinate from
    ``alpha_n``, redraw it from its exact conditional, record the new state.
    History-dependent rules keep their accumulated statistics on themselves
    (as :class:`~adagibbs.adaptation.ComponentwiseAdaptation` does).  A rule
    that returns ``alpha_prev`` itself (such as :func:`keep_previous`) costs
    no coercion: the weights are an immutable :class:`SelectionWeights`, so
    its cumulative sums carry over.
    """
    _check_n_steps(n_steps)
    x = _check_initial_state(target, x0)
    rng = generator(seed)
    u = rng.random(2 * n_steps)
    alpha = alpha0
    epsilon = alpha0.epsilon
    cum_alpha = alpha0.cumulative()
    states = [x]
    coords = []
    alphas = []
    for n in range(1, n_steps + 1):
        out = rule(n, alpha, x)
        if out is not alpha:
            alpha = _coerce_weights(out, epsilon)
            cum_alpha = alpha.cumulative()
        i = bisect_right(cum_alpha, u[2 * n - 2])
        values, cum = target.conditional_cdf(i, x)
        y = values[bisect_right(cum, u[2 * n - 1])] if len(values) > 1 else values[0]
        if y != x[i]:
            x = x[:i] + (y,) + x[i + 1:]
        states.append(x)
        coords.append(i)
        alphas.append(alpha.weights)
    return Trajectory(
        tuple(states), tuple(coords), (True,) * n_steps, tuple(alphas), seed
    )


def _metropolis_coordinate_step(
    rng, conditional_density, proposals, x, i, gamma_i
):
    """One Metropolis update of coordinate ``i``; returns (new value, accepted)."""
    xi = x[i]
    current = conditional_density(i, x, xi)
    if current <= 0.0:
        raise ValueError(f"zero conditional density at the current state {x!r}")
    y = proposals.sample(rng, i, xi, gamma_i)
    proposed = conditional_density(i, x, y)
    u = rng.random()
    if proposed <= 0.0:
        return xi, False
    ratio = (proposed * proposals.density(i, y, xi, gamma_i)) / (
        current * proposals.density(i, xi, y, gamma_i)
    )
    if u < min(1.0, ratio):
        return y, True
    return xi, False


def adap_rs_adap_mwg_run(
    conditional_density: Callable,
    proposals: ProposalFamily,
    weight_rule: Callable,
    proposal_rule: Callable,
    x0,
    alpha0: SelectionWeights,
    gamma0: Sequence[float],
    n_steps: int,
    seed: int,
    observer: Optional[Callable] = None,
) -> Trajectory:
    """Doubly adaptive sampler: weights and proposal parameters both adapt.

    Step order: set ``alpha_n``, set ``gamma_n``, choose the coordinate from
    ``alpha_n``, then propose and accept using the *previous* parameters
    ``gamma_{n-1}`` (the new parameters take effect from the next step).  If
    given, ``observer(n, x, i, accepted)`` is invoked once with
    ``(0, x0, None, None)`` before the loop and again after every step;
    adaptation rules use it to accumulate statistics.

    ``conditional_density(i, x, y)`` evaluates the target conditional of
    coordinate ``i`` at value ``y`` up to normalisation (the acceptance ratio
    only needs unnormalised values).  Rejected steps repeat the state and are
    recorded with ``accepted=False``.  As in :func:`adap_rsg_run`, a rule that
    returns the object it was given (``alpha_prev`` or ``gamma_prev``) is
    taken as is.  A new tuple of Python floats is validated once and then
    kept, so a rule that returns the same tuple until it next adapts (as
    :class:`~adagibbs.adaptation.ComponentwiseAdaptation` does between batch
    boundaries) is checked once per change; lists, arrays and other tuples
    are copied and validated on every return.
    """
    _check_n_steps(n_steps)
    x = tuple(x0)
    rng = generator(seed)
    gamma_prev = _coerce_gamma(gamma0, proposals)
    alpha = alpha0
    epsilon = alpha0.epsilon
    cum_alpha = alpha0.cumulative()
    states = [x]
    coords = []
    accepted = []
    alphas = []
    gammas = []
    if observer is not None:
        observer(0, x, None, None)
    for n in range(1, n_steps + 1):
        out = weight_rule(n, alpha, x)
        if out is not alpha:
            alpha = _coerce_weights(out, epsilon)
            cum_alpha = alpha.cumulative()
        gamma_n = proposal_rule(n, gamma_prev, x)
        if gamma_n is not gamma_prev:
            gamma_n = _coerce_gamma(gamma_n, proposals)
        i = bisect_right(cum_alpha, rng.random())
        y, ok = _metropolis_coordinate_step(
            rng, conditional_density, proposals, x, i, gamma_prev[i]
        )
        if ok and y != x[i]:
            x = x[:i] + (y,) + x[i + 1:]
        states.append(x)
        coords.append(i)
        accepted.append(ok)
        alphas.append(alpha.weights)
        gammas.append(gamma_n)
        gamma_prev = gamma_n
        if observer is not None:
            observer(n, x, i, ok)
    return Trajectory(
        tuple(states),
        tuple(coords),
        tuple(accepted),
        tuple(alphas),
        seed,
        gammas=tuple(gammas),
    )


def write_trajectory_csv(trajectory: Trajectory, path):
    """Serialise a run: step, coordinate, accepted, x_1..x_d, alpha_1..alpha_d.

    Row 0 carries the initial state with coordinate 0 and accepted 1 as
    placeholders; real steps use 1-based coordinate labels to match the
    ``x_i`` / ``alpha_i`` column names.  Metropolis-within-Gibbs runs append
    ``gamma_1..gamma_d`` columns (constant ones when the proposals are fixed).
    """
    d = trajectory.d
    with_gamma = trajectory.gammas is not None
    header = ["step", "coordinate", "accepted"]
    header += [f"x_{k}" for k in range(1, d + 1)]
    header += [f"alpha_{k}" for k in range(1, d + 1)]
    if with_gamma:
        header += [f"gamma_{k}" for k in range(1, d + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        first = list(trajectory.states[0])
        row0 = [0, 0, 1] + [repr(float(v)) for v in first]
        row0 += [repr(float(v)) for v in trajectory.alphas[0]] if trajectory.alphas else []
        if with_gamma:
            row0 += [repr(float(v)) for v in trajectory.gammas[0]]
        writer.writerow(row0)
        for n in range(trajectory.n_steps):
            row = [
                n + 1,
                trajectory.coordinates[n] + 1,
                int(trajectory.accepted[n]),
            ]
            row += [repr(float(v)) for v in trajectory.states[n + 1]]
            row += [repr(float(v)) for v in trajectory.alphas[n]]
            if with_gamma:
                row += [repr(float(v)) for v in trajectory.gammas[n]]
            writer.writerow(row)


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into arrays keyed by column name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    if not rows:
        raise ValueError(f"trajectory file {path} holds no rows")
    columns = {}
    data = np.asarray(rows, dtype=np.float64)
    for k, name in enumerate(header):
        columns[name] = data[:, k]
    return columns
