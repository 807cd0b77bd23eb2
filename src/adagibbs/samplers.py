"""Seeded Monte Carlo loops for random scan Gibbs and Metropolis-within-Gibbs.

Three run functions cover every sampler: :func:`adap_rsg_run` (random scan
Gibbs with adaptive weights), :func:`adap_rs_adap_mwg_run` (random scan
Metropolis-within-Gibbs with adaptive weights and proposals) and
:func:`rs_mwg_run` (random scan Metropolis-within-Gibbs with fixed weights and
fixed Gaussian random-walk variances).  The two adaptive ones run one loop,
:func:`_random_scan`, and differ only in the coordinate update.  Per
step, in this order: the weight rule sets ``alpha_n``, one uniform chooses
coordinate ``i``, the update moves it (the Metropolis update first sets
``gamma_n`` from its proposal rule, then proposes and accepts with
``gamma_{n-1}``), the step's move is written into three numpy columns
preallocated at ``n_steps``, which a :class:`Trajectory` takes as they are,
and an observer, if given, sees the step: once after every step, never
before the first.  States are never kept: any range of rows is derived from
the columns by forward fill.  Update rules are called as
``rule(n, prev, x_prev)``; a rule that needs history keeps it on itself.

The one contract for what a rule returns: a weight rule returns a
:class:`SelectionWeights` with ``d`` entries on the run's floor
(``alpha0.epsilon``); a proposal rule, like ``gamma0``, returns a tuple of
``d`` finite, positive Python floats.  The loop remembers the last two
objects it used for each rule and takes either back as it is; an object
other than the last two the loop used is checked once and then taken as is,
never projected or copied.  An output outside the contract raises at the
step that returns it.  The non-adaptive special cases are these loops driven
by :func:`keep_previous`; the fixed-parameter Metropolis sampler with
Gaussian proposals is also :func:`rs_mwg_run`, which needs no rules.

All runs are driven by a Philox counter-based generator keyed by a 64-bit
seed, so identical inputs produce bit-identical trajectories; replicate seeds
come from :func:`derive_seed`, a splitmix-style mix of the base seed and the
replicate index, so replicates never share a stream.

The Metropolis runs evaluate ``target.conditional_density`` at every
coordinate of ``x0`` before the first draw, and then once per step at the
proposal.  The current-state density is recomputed every step, unless the
target declares ``INDEPENDENT_COORDINATES`` (a product target, whose
coordinate ``i`` conditional depends on ``x_i`` alone): then the value
stored when coordinate ``i`` last moved is reused.  Proposals are
symmetric, so the acceptance ratio is the ratio of the two target densities
alone.

RNG consumption contracts (relied on by the straight-line oracles in the
tests): exact-conditional runs pre-draw ``2 * n_steps`` uniforms, consuming
one for the coordinate choice and one for the conditional inverse-CDF draw
per step; the loop reads them as Python floats, converted ``UNIFORM_CHUNK``
at a time.  Adaptive Metropolis runs draw, per step and in this order: one
uniform for the coordinate, the proposal's own draws, one uniform for the
accept decision (drawn also when the proposal has zero density).  Update
rules draw nothing.  :func:`rs_mwg_run` draws in blocks of ``DRAW_BLOCK``
steps (the last block holds the remaining steps), per block and in this
order: the coordinate uniforms, the standard normals of the increments, the
accept uniforms.  With fixed parameters only the accept decision depends on
the past, so its stream differs from the adaptive loop's at the same seed
but its law is the same.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .weights import SelectionWeights

_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """Per-replicate stream key: splitmix64 finaliser of ``base ^ index``."""
    z = (int(base_seed) ^ int(index)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _generator(seed: int) -> np.random.Generator:
    """Counter-based generator for one run."""
    return np.random.Generator(np.random.Philox(seed))


ROW_BLOCK = 2**15

# Steps whose coordinate, increment and accept uniforms rs_mwg_run draws at once.
DRAW_BLOCK = 2**10

# Pre-drawn uniforms adap_rsg_run turns into Python floats at once.
UNIFORM_CHUNK = 2**12


@dataclass(frozen=True)
class Trajectory:
    """Record of one seeded run: the initial state and what each step did.

    Per step, the numpy columns ``coordinates`` (0-based), ``values`` (the
    chosen coordinate's value after the step) and ``accepted``; the sampler
    loop preallocates them at ``n_steps`` and they are taken as they are.
    Row ``r`` is the state after ``r`` steps.  States are never kept:
    :meth:`rows` derives a range of rows by forward fill from each
    coordinate's last move before it, and :attr:`states`,
    :meth:`coordinate_trace`, :meth:`row_blocks` and :attr:`final_state`
    all read from that one derivation.
    """

    x0: tuple
    coordinates: np.ndarray
    values: np.ndarray
    accepted: np.ndarray
    seed: int

    def __post_init__(self):
        for name, dtype in (("coordinates", np.intp), ("values", np.float64), ("accepted", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.coordinates)
        if len(self.values) != n or len(self.accepted) != n:
            raise ValueError("per-step records must share the step count")
        if n and not (0 <= self.coordinates.min() and self.coordinates.max() < self.d):
            raise ValueError(f"coordinates must lie in 0..{self.d - 1}")

    @property
    def n_steps(self) -> int:
        return len(self.coordinates)

    @property
    def d(self) -> int:
        return len(self.x0)

    def _last_moves(self, row: int) -> list:
        """Each coordinate at row ``row``: the value of its last move among
        the first ``row`` steps, or its initial value if none chose it."""
        state = list(self.x0)
        for i in range(self.d):
            hits = np.flatnonzero(self.coordinates[:row] == i)
            if len(hits):
                state[i] = self.values[hits[-1]]
        return state

    def _column(self, i: int, start: int, stop: int, first) -> np.ndarray:
        """Coordinate ``i`` at rows ``start..stop - 1``, ``first`` at row
        ``start``: each later row takes the value of the last step in the
        range that chose ``i``."""
        filled = np.concatenate(([first], self.values[start:stop - 1]))
        last = np.arange(stop - start)
        last[1:][self.coordinates[start:stop - 1] != i] = 0
        np.maximum.accumulate(last, out=last)
        return filled[last]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The states at rows ``start..stop - 1`` as a ``(stop - start, d)``
        float64 array."""
        if not 0 <= start < stop <= self.n_steps + 1:
            last = self.n_steps + 1
            raise ValueError(f"row range {start}..{stop}: need 0 <= start < stop <= {last}")
        out = np.empty((stop - start, self.d))
        for i, first in enumerate(self._last_moves(start)):
            out[:, i] = self._column(i, start, stop, first)
        return out

    def row_blocks(self, start: int):
        """The states from row ``start`` to the last, as consecutive
        :meth:`rows` blocks of ``ROW_BLOCK`` rows.  A last block of one row
        is joined to the block before it: numpy takes a one-row matrix
        product as a dot product, which rounds differently, so ``block @ a``
        over the blocks equals ``states[start:] @ a`` bit for bit."""
        stop = self.n_steps + 1
        bounds = [*range(start, stop, ROW_BLOCK), stop]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        for lo, hi in zip(bounds, bounds[1:]):
            yield self.rows(lo, hi)

    def coordinate_trace(self, i: int) -> np.ndarray:
        """Coordinate ``i`` at steps ``0..n_steps``: the value of the last step
        that chose it, or its initial value before any did."""
        return self._column(i, 0, self.n_steps + 1, self.x0[i])

    @property
    def states(self) -> np.ndarray:
        """Every state, initial one first, as an ``(n_steps + 1, d)`` array."""
        return self.rows(0, self.n_steps + 1)

    @property
    def final_state(self) -> tuple:
        """The last state, each coordinate's last move, as a tuple of Python
        floats."""
        return tuple(float(v) for v in self._last_moves(self.n_steps))


def gaussian_random_walk(rng, i: int, x: float, gamma: float) -> float:
    """Symmetric proposal: ``x`` plus a normal increment of variance ``gamma``."""
    return x + math.sqrt(gamma) * rng.standard_normal()


def _check_initial_state(target, x0) -> tuple:
    x0 = tuple(x0)
    if hasattr(target, "contains") and not target.contains(x0):
        raise ValueError(f"initial state {x0!r} is outside the target support")
    return x0


def _check_n_steps(n_steps: int):
    if n_steps < 1:
        raise ValueError(f"need at least one step, got n_steps={n_steps!r}")


def _check_dimension(what: str, n: int, d: int):
    if n != d:
        raise ValueError(f"dimension mismatch: {what} d={n}, x0 d={d}")


def _checked_weights(out, epsilon: float, d: int) -> SelectionWeights:
    """A weight rule's output, refused unless it is a :class:`SelectionWeights`
    on the floor ``epsilon`` over ``d`` coordinates."""
    if not isinstance(out, SelectionWeights):
        raise TypeError(f"a weight rule must return SelectionWeights, got {out!r}")
    if out.epsilon != epsilon:
        raise ValueError(f"weights on floor {out.epsilon!r}, run floor {epsilon!r}")
    _check_dimension("weights", out.d, d)
    return out


def _checked_gamma(out, d: int) -> tuple:
    """Proposal parameters, refused unless they are a tuple of ``d`` finite,
    positive Python floats."""
    if type(out) is not tuple or any(type(g) is not float for g in out):
        raise TypeError(f"proposal parameters must be a tuple of Python floats, got {out!r}")
    _check_dimension("proposal parameters", len(out), d)
    for i, g in enumerate(out):
        if not 0.0 < g < math.inf:
            raise ValueError(f"proposal parameter {i} must be finite and positive: {g!r}")
    return out


def _initial_densities(conditional_density, x0: tuple) -> list:
    """Each coordinate's conditional density at ``x0``, refused if one is
    zero: the current-state densities a Metropolis run starts from."""
    densities = []
    for i, xi in enumerate(x0):
        value = conditional_density(i, x0, xi)
        if value <= 0.0:
            raise ValueError(f"zero conditional density for coordinate {i} at x0={x0!r}")
        densities.append(value)
    return densities


def keep_previous(n, prev, x_prev):
    """Update rule that never adapts: ``keep_previous(n, prev, x_prev)``
    hands back ``prev``, the value the loop used at the previous step.

    As the weight rule it turns :func:`adap_rsg_run` into the fixed-weight
    sampler RSG(alpha0); as the proposal rule it fixes the proposals of
    :func:`adap_rs_adap_mwg_run`.  The loops recognise their own object coming
    back and take it without a check.
    """
    return prev


def _random_scan(weight_rule, move, x0, alpha0, n_steps, draw, observer=None):
    """The loop both samplers run, in the step order of the module docstring:
    ``draw()`` gives the uniform that picks the coordinate, ``move(n, x, i)``
    returns its ``(new value, accepted)``, and ``observer(n, x, i, ok)``, if
    given, runs after the step is written.  A weight object is taken under
    the module docstring's contract (the last two used are taken back
    unchecked), and its cumulative sums are read once per change of object.
    Returns the per-step records ``(coordinates, values, accepted)``, numpy
    columns preallocated at ``n_steps`` and written through memoryviews,
    which set an element faster than numpy indexing does."""
    d = len(x0)
    _check_dimension("weights", alpha0.d, d)
    x = x0
    alpha, other = alpha0, None
    cumulative = alpha0.cumulative
    epsilon = alpha0.epsilon
    records = (np.empty(n_steps, np.intp), np.empty(n_steps), np.empty(n_steps, bool))
    coords, values, accepted = map(memoryview, records)
    for k in range(n_steps):
        n = k + 1
        out = weight_rule(n, alpha, x)
        if out is not alpha:
            alpha, other = (out if out is other else _checked_weights(out, epsilon, d)), alpha
            cumulative = alpha.cumulative
        i = bisect_right(cumulative, draw())
        y, ok = move(n, x, i)
        if y != x[i]:
            x = x[:i] + (y,) + x[i + 1:]
        coords[k] = i
        values[k] = y
        accepted[k] = ok
        if observer is not None:
            observer(n, x, i, ok)
    return records


def adap_rsg_run(
    target,
    rule: Callable,
    x0,
    alpha0: SelectionWeights,
    n_steps: int,
    seed: int,
) -> Trajectory:
    """Adaptive random scan Gibbs sampler.

    Per step, in this order: set ``alpha_n = rule(n, alpha_prev, x_prev)``,
    choose the coordinate from ``alpha_n``, redraw it from its exact
    conditional by inverting ``target.conditional_cdf``.  The rule returns
    weights under the contract of the module docstring, so a rule handing out
    two objects in turn, as the ladder rule does within a block, has each
    checked once.  The ``2 * n_steps`` uniforms are drawn at once and handed
    to the loop as Python floats, ``UNIFORM_CHUNK`` at a time, so inverse-CDF
    lookups compare float to float and no list of all of them is built.
    """
    _check_n_steps(n_steps)
    x0 = _check_initial_state(target, x0)
    uniforms = _generator(seed).random(2 * n_steps)
    chunks = range(0, 2 * n_steps, UNIFORM_CHUNK)
    draw = chain.from_iterable(uniforms[k:k + UNIFORM_CHUNK].tolist() for k in chunks).__next__

    def move(n, x, i):
        values, cum = target.conditional_cdf(i, x)
        return values[bisect_right(cum, draw())], True

    return Trajectory(x0, *_random_scan(rule, move, x0, alpha0, n_steps, draw), seed)


def adap_rs_adap_mwg_run(
    target,
    propose: Callable,
    weight_rule: Callable,
    proposal_rule: Callable,
    x0,
    alpha0: SelectionWeights,
    gamma0: tuple,
    n_steps: int,
    seed: int,
    observer: Optional[Callable] = None,
) -> Trajectory:
    """Doubly adaptive sampler: weights and proposal parameters both adapt.

    Step order: set ``alpha_n``, choose the coordinate from ``alpha_n``, set
    ``gamma_n = proposal_rule(n, gamma_prev, x_prev)``, then propose
    ``y = propose(rng, i, x_i, gamma_{n-1}_i)`` with the *previous*
    parameters and accept when a uniform falls below the density ratio.  The
    proposal must be symmetric, as :func:`gaussian_random_walk` is; its
    parameters must be finite and positive, one per coordinate.  If given,
    ``observer(n, x, i, accepted)`` is invoked after every step, and only
    then, with the step's state, coordinate and accept decision; adaptation
    rules use it to accumulate statistics.

    ``target.conditional_density(i, x, y)`` evaluates the conditional of
    coordinate ``i`` at value ``y`` up to normalisation (the acceptance ratio
    only needs unnormalised values).  Every coordinate's density at ``x0`` is
    evaluated before the first draw; a zero one raises ``ValueError`` naming
    the coordinate.  The current-state density of the chosen coordinate is
    recomputed on every step, unless the target declares
    ``INDEPENDENT_COORDINATES``: then it is the one stored when that
    coordinate last moved.  Rejected steps keep the state and are recorded
    with ``accepted=False``.  Both rules return under the contract of the
    module docstring, so a rule that returns the same object until it next
    adapts (as :class:`~adagibbs.adaptation.ComponentwiseAdaptation` does
    between batch boundaries) has each new object checked once.
    """
    _check_n_steps(n_steps)
    x0 = tuple(x0)
    conditional_density = target.conditional_density
    densities = _initial_densities(conditional_density, x0)
    reuse = getattr(target, "INDEPENDENT_COORDINATES", False)
    rng = _generator(seed)
    draw = rng.random
    d = len(x0)
    gamma, other = _checked_gamma(gamma0, d), None

    def move(n, x, i):
        nonlocal gamma, other
        gamma_i = gamma[i]
        gamma_n = proposal_rule(n, gamma, x)
        if gamma_n is not gamma:
            gamma, other = (gamma_n if gamma_n is other else _checked_gamma(gamma_n, d)), gamma
        xi = x[i]
        current = densities[i] if reuse else conditional_density(i, x, xi)
        y = propose(rng, i, xi, gamma_i)
        proposed = conditional_density(i, x, y)
        if draw() < proposed / current:
            densities[i] = proposed
            return y, True
        return xi, False

    records = _random_scan(weight_rule, move, x0, alpha0, n_steps, draw, observer)
    return Trajectory(x0, *records, seed)


def rs_mwg_run(
    target,
    alpha: SelectionWeights,
    gamma: tuple,
    x0,
    n_steps: int,
    seed: int,
) -> Trajectory:
    """Random scan Metropolis-within-Gibbs with fixed weights ``alpha`` and
    fixed Gaussian random-walk variances ``gamma``.

    The law of :func:`adap_rs_adap_mwg_run` driven by
    :func:`gaussian_random_walk` and :func:`keep_previous`, with the same
    refusals, density calls and :class:`Trajectory`.  With no parameter
    adapting, a step's coordinate and increment do not depend on the past,
    so they are drawn for ``DRAW_BLOCK`` steps at once, in the order of the
    module docstring; each coordinate uniform ``u`` picks
    ``searchsorted(alpha.cumulative, u, side="right")``, the index
    ``bisect_right`` gives.  Only the accept decisions run step by step, on
    Python floats.
    """
    _check_n_steps(n_steps)
    x0 = tuple(x0)
    conditional_density = target.conditional_density
    densities = _initial_densities(conditional_density, x0)
    reuse = getattr(target, "INDEPENDENT_COORDINATES", False)
    d = len(x0)
    sd = np.sqrt(_checked_gamma(gamma, d))
    _check_dimension("weights", alpha.d, d)
    cumulative = np.asarray(alpha.cumulative)
    rng = _generator(seed)
    records = (np.empty(n_steps, np.intp), np.empty(n_steps), np.empty(n_steps, bool))
    coordinates = records[0]
    # Per-step writes go through memoryviews, as in _random_scan: a block's
    # moves gathered in lists leave a long-lived process's heap about 8 MB
    # higher after a few runs.
    values, accepted = map(memoryview, records[1:])
    x = x0
    for start in range(0, n_steps, DRAW_BLOCK):
        size = min(DRAW_BLOCK, n_steps - start)
        chosen = np.searchsorted(cumulative, rng.random(size), side="right")
        increments = sd[chosen] * rng.standard_normal(size)
        uniforms = rng.random(size)
        coordinates[start:start + size] = chosen
        steps = zip(chosen.tolist(), increments.tolist(), uniforms.tolist())
        for k, (i, step, u) in enumerate(steps, start):
            xi = x[i]
            current = densities[i] if reuse else conditional_density(i, x, xi)
            y = xi + step
            proposed = conditional_density(i, x, y)
            if u < proposed / current:
                densities[i] = proposed
                x = x[:i] + (y,) + x[i + 1:]
                values[k] = y
                accepted[k] = True
            else:
                values[k] = xi
                accepted[k] = False
    return Trajectory(x0, *records, seed)


def write_trajectory_csv(trajectory: Trajectory, path):
    """Serialise a run: step, coordinate, accepted, x_1..x_d.

    Row 0 carries the initial state with coordinate 0 and accepted 1 as
    placeholders; real steps use 1-based coordinate labels to match the
    ``x_i`` column names.
    """
    header = ["step", "coordinate", "accepted", *(f"x_{k}" for k in range(1, trajectory.d + 1))]
    steps = zip((trajectory.coordinates + 1).tolist(), trajectory.accepted.tolist())
    steps = chain([(0, True)], steps)
    states = chain.from_iterable(block.tolist() for block in trajectory.row_blocks(0))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n, (state, (coordinate, accepted)) in enumerate(zip(states, steps)):
            writer.writerow([n, coordinate, int(accepted)] + [repr(v) for v in state])


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into arrays keyed by column name.

    ``ValueError`` for a file without rows, a row whose field count differs
    from the first row's (naming the row) or from the header's, and a
    non-finite value (naming the column).
    """
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"trajectory file {path} holds no rows")
        data = np.loadtxt(chain([first], fh), delimiter=",", ndmin=2, comments=None)
    if data.shape[1] != len(header):
        raise ValueError(
            f"trajectory file {path}: rows hold {data.shape[1]} fields, "
            f"the header names {len(header)}"
        )
    columns = dict(zip(header, data.T))
    for name, column in columns.items():
        if not np.isfinite(column).all():
            raise ValueError(f"trajectory file {path}: column {name} holds a non-finite value")
    return columns
