"""The ladder chain: a state-coupled weight rule that can defeat ergodicity.

State space ``{(i, j) : i = j or i = j + 1}`` with target mass ``j**-2``.
The adaptive rule tilts the coordinate-selection weights by ``4 / a_n``
towards whichever coordinate can climb, with a tuning sequence ``a_n`` that
grows so slowly (``10 + log k`` on geometrically stretching blocks) that the
accumulated upward drift never dies out: started at (1, 1) the chain is
transient with positive probability even though the weights converge to
(1/2, 1/2) and every fixed-weight sampler is ergodic.

Everything computable around that construction lives here: the block
schedule, the two-point conditionals, the exact one-step increment law of
``X_1 + X_2 - 2``, the dominating three-point walk with its stochastic-order
certificate, the Hoeffding tail budget showing the escape event has positive
probability, and the seeded transience experiment (the adaptive arm's
sampler rule is :func:`ladder_update_rule`, against a fixed-weight control
arm), which returns one plain :class:`RunRecord` per replicate: seed, final
height, last-half slope and strided height trace.  A truncated variant of
the space is ergodic again.  The exact chain laws run on the rungs ``s = i +
j - 2``: a step moves at most one rung, so it is three diagonals, affine in
the tilt ``4 / a_n``; the truncated law builds a chunk of steps' moves at once.

Within a block the rule has only two weight vectors, one for diagonal and
one for off-diagonal states; each is built once per block and handed out on
every step of that block, and the weight floor is the constant
:data:`LADDER_EPSILON`.  The block itself is found once per block: the
schedule answers from the block it found last while the step stays inside
it.  Ladder membership is checked in one place, ``_ij``, which every
conditional and rule call goes through: a state is a pair of integral
entries on a rung, and anything else, a state of another length included, is
refused.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import tv
from .samplers import adap_rsg_run, derive_seed, keep_previous
from .weights import SelectionWeights


def _ij(x) -> tuple:
    """``(i, j)`` of a rung of the ladder, either (j, j) or (j + 1, j) with
    ``j >= 1``, as Python ints; ``ValueError`` for anything else, a state
    that is not a pair or an entry that is not a real number included."""
    try:
        i, j = x
        if type(i) is not int:
            i = int(i)
        if type(j) is not int:
            j = int(j)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{x!r} is not on the ladder") from None
    if j < 1 or (i != j and i != j + 1):
        raise ValueError(f"{(i, j)} is not on the ladder")
    return i, j


# Both rungs of level j carry j**-2, so the masses sum to 2 * pi**2 / 6.
_TOTAL_MASS = math.pi**2 / 3.0

# Every run and every exact law starts on the bottom rung.
LADDER_START = (1, 1)


def _block_a(k: int) -> float:
    """Tuning value ``10 + log k`` on the k-th block."""
    return 10.0 + math.log(k)


class Schedule:
    """Block tuning sequence: a_n = 10 + log(k) on the k-th block.

    Block lengths start at ``b_1 = 1000`` and stretch by the factor
    ``1 + 1/(10 + log n)``; block boundaries are the partial sums ``c_n``.
    Lengths are kept as reals (they are not integers) and looked up by
    binary search over the memoised boundaries, unless the block found last
    holds the step.
    """

    def __init__(self):
        self._b = [0.0, 1000.0]
        self._c = [0.0, 1000.0]
        self._last = 1

    def _extend_to_block(self, k: int):
        while len(self._b) <= k:
            n = len(self._b)
            b = self._b[-1] * (1.0 + 1.0 / _block_a(n))
            self._b.append(b)
            self._c.append(self._c[-1] + b)

    def block_length(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"block index must be >= 1, got {k}")
        self._extend_to_block(k)
        return self._b[k]

    def block_boundary(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"block index must be >= 0, got {k}")
        self._extend_to_block(k)
        return self._c[k]

    def block_of(self, n: int) -> int:
        """The unique k with c_{k-1} < n <= c_k: the block found last if it
        holds ``n``, else a binary search."""
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        k = self._last
        c = self._c
        if c[k - 1] < n <= c[k]:
            return k
        while c[-1] < n:
            self._extend_to_block(len(self._b))
        self._last = k = bisect_left(c, n)
        return k

    def a(self, n: int) -> float:
        return _block_a(self.block_of(n))


_DEFAULT_SCHEDULE = Schedule()


def schedule_a(n: int) -> float:
    """Tuning value a_n for step ``n`` under the block schedule."""
    return _DEFAULT_SCHEDULE.a(n)


# Weight floor valid for the whole run: the first block has the smallest
# tuning value, a_1 = 10, hence the most lopsided weights.
LADDER_EPSILON = 0.5 - 4 / 10


@functools.cache
def _block_weights(k: int) -> tuple:
    """The rule's two weight vectors on block ``k``: (diagonal, off-diagonal)."""
    tilt = 4.0 / _block_a(k)
    return (
        SelectionWeights((0.5 + tilt, 0.5 - tilt), LADDER_EPSILON),
        SelectionWeights((0.5 - tilt, 0.5 + tilt), LADDER_EPSILON),
    )


def ladder_update_rule(n: int, alpha_prev, x_prev) -> SelectionWeights:
    """Weight rule of the counter-example, ``alpha_n`` from ``x_prev``.

    Returns ``(1/2 + 4/a_n, 1/2 - 4/a_n)`` on diagonal states (i = j) and the
    swap on off-diagonal states; both entries stay inside (0, 1) because the
    schedule keeps ``a_n > 8``.  ``alpha_prev`` is not read.  Within a block
    the same two objects are returned every time.
    """
    i, j = _ij(x_prev)
    diagonal, off_diagonal = _block_weights(_DEFAULT_SCHEDULE.block_of(n))
    return diagonal if i == j else off_diagonal


class LadderTarget:
    """Sampler-facing view of the unbounded ladder target.

    Exposes the ``conditional`` / ``conditional_cdf`` / ``contains`` interface
    the run loops expect, using the closed-form conditionals so the unbounded
    space needs no enumeration.
    """

    @property
    def d(self) -> int:
        return 2

    def contains(self, x) -> bool:
        """Whether ``x`` is a rung: ``(1.5, 1)`` is not, ``(3.0, 3.0)`` is."""
        try:
            i, j = _ij(x)
        except ValueError:
            return False
        return (i, j) == (x[0], x[1])

    def conditional(self, coord: int, x):
        """Exact full conditional ``(values, probs)`` of one coordinate.

        The first coordinate given ``j`` is uniform on {j, j+1} (both rungs
        carry mass ``j**-2``); the second given ``i`` has masses proportional
        to ``(i**2, (i-1)**2)`` on ``(i-1, i)``, a point mass at 1 when
        ``i = 1``.
        """
        i, j = _ij(x)
        if coord == 0:
            return (j, j + 1), (0.5, 0.5)
        if i == 1:
            return (1,), (1.0,)
        denom = float(i * i + (i - 1) * (i - 1))
        return (i - 1, i), (i * i / denom, (i - 1) * (i - 1) / denom)

    def conditional_cdf(self, coord: int, x):
        """The cumulative form of :meth:`conditional`, its last entry 1.0."""
        i, j = _ij(x)
        if coord == 0:
            return (j, j + 1), (0.5, 1.0)
        if i == 1:
            return (1,), (1.0,)
        return (i - 1, i), (i * i / float(i * i + (i - 1) * (i - 1)), 1.0)


def _rung_moves(rungs: np.ndarray) -> tuple:
    """``(base, slope)``, rows (up, down), of the ``rungs``: at tilt ``4 /
    a_n`` a rung moves with probability ``base + tilt * slope``.  Rung ``2j -
    2`` is (j, j) and rung ``2j - 1`` is (j + 1, j).  The rule weighs the
    coordinate that can climb by ``1/2 + tilt``, the other by ``1/2 - tilt``.
    On (j, j) the first climbs with 1/2 and the second falls with the split
    ``i**2 / (i**2 + (i - 1)**2)``, except on the bottom rung; on (j + 1, j)
    the second climbs with the rest of the split and the first falls with 1/2.
    """
    j = rungs // 2 + 1
    off_diagonal = rungs % 2 == 1
    i = j + off_diagonal
    split = i * i / (i * i + (i - 1) ** 2)
    climb = np.where(off_diagonal, 1.0 - split, 0.5)
    fall = np.where(off_diagonal, 0.5, np.where(rungs > 0, split, 0.0))
    moves = np.stack([climb, fall])
    return 0.5 * moves, moves * [[1.0], [-1.0]]


def ladder_step_law(x, n: int) -> dict:
    """Exact one-step law of the increment of ``X_1 + X_2 - 2``, read from
    the rung table, which stays valid on the degenerate bottom rung where the
    naive closed form would assign mass to a missing state."""
    if not LadderTarget().contains(x):
        raise ValueError(f"{x!r} is not on the ladder")
    base, slope = _rung_moves(np.array([int(x[0] + x[1]) - 2]))
    up, down = (base + (4.0 / schedule_a(n)) * slope)[:, 0].tolist()
    return {-1: down, 0: 1.0 - up - down, 1: up}


def dominating_walk_law(n: int) -> dict:
    """Three-point increment law of the comparison walk.

    ``{1/4 - 1/a_n, 1/2, 1/4 + 1/a_n}`` on {-1, 0, +1}; its mean is
    ``2 / a_n``, the drift the ladder inherits once it is high enough.
    """
    a = schedule_a(n)
    return {-1: 0.25 - 1.0 / a, 0: 0.5, 1: 0.25 + 1.0 / a}


def ladder_increment_floor(i: int, n: int) -> dict:
    """Three-point law dominated by the ladder increment at height ``i``.

    The down mass is inflated by ``(1 + 2/i)`` and the up mass deflated by
    ``(1 - 2/max(4, i))`` relative to (1/4 -+ 2/a_n), which wipes out the
    height dependence of the exact increment law.
    """
    if i < 1:
        raise ValueError(f"height must be >= 1, got {i}")
    a = schedule_a(n)
    down = (0.25 - 2.0 / a) * (1.0 + 2.0 / i)
    up = (0.25 + 2.0 / a) * (1.0 - 2.0 / max(4, i))
    return {-1: down, 0: 1.0 - down - up, 1: up}


_DOMINANCE_TOL = 1e-12


def stochastically_dominates(law_hi: dict, law_lo: dict) -> bool:
    """CDF comparison on {-1, 0, +1}: every CDF value of ``law_hi`` is below
    (up to ``_DOMINANCE_TOL``) the matching CDF value of ``law_lo``."""
    cdf_hi = law_hi[-1]
    cdf_lo = law_lo[-1]
    if cdf_hi > cdf_lo + _DOMINANCE_TOL:
        return False
    cdf_hi += law_hi[0]
    cdf_lo += law_lo[0]
    return cdf_hi <= cdf_lo + _DOMINANCE_TOL


def dominance_holds(i: int, n: int) -> bool:
    """Whether the floor law at height ``i`` dominates the comparison walk.

    Decided by direct CDF comparison; it coincides with the analytic
    criterion ``2 i - 8 >= a_n`` (checked property-wise in the tests).
    """
    return stochastically_dominates(ladder_increment_floor(i, n), dominating_walk_law(n))


def hoeffding_tail(n_terms: int, t: float) -> float:
    """Hoeffding bound ``exp(-n t^2 / 2)`` for a mean-zero sum of ``n_terms``
    increments confined to [-1, 1], evaluated at deviation ``n_terms * t``."""
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    return math.exp(-0.5 * n_terms * t * t)


@dataclass(frozen=True)
class FailureBudget:
    """Per-block failure probabilities and the survival product.

    ``p[k-1]`` bounds the probability that the comparison walk loses half its
    expected progress on block ``k``; ``log_p`` carries the same information
    without underflow; ``product`` is ``prod_{k=2..K} (1 - p_k)``.
    """

    p: np.ndarray
    log_p: np.ndarray
    product: float


def failure_probability_budget(n_max: int) -> FailureBudget:
    """Hoeffding failure budget over the first ``n_max`` blocks.

    Block ``k`` fails with probability at most
    ``exp(-b_k / (2 (10 + log k)^2))``; the budget is summable, so the
    product of survival probabilities stays away from zero.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    log_p = np.empty(n_max)
    for k in range(1, n_max + 1):
        b_k = _DEFAULT_SCHEDULE.block_length(k)
        log_p[k - 1] = -0.5 * b_k / _block_a(k) ** 2
    p = np.exp(log_p)
    survival = math.fsum(math.log1p(-v) for v in p[1:] if v > 0.0)
    return FailureBudget(p=p, log_p=log_p, product=math.exp(survival))


def last_half_slope(values: Sequence[float]) -> float:
    """Least-squares slope of the last half of a trace (burn-in ignored)."""
    arr = np.asarray(values, dtype=np.float64)
    half = arr[len(arr) // 2:]
    if len(half) < 2:
        raise ValueError("trace too short for a slope")
    ns = np.arange(len(half), dtype=np.float64)
    return float(np.polyfit(ns, half, 1)[0])


@dataclass(frozen=True)
class RunRecord:
    """One replicate of the escape experiment: its arm (``"adaptive"`` or
    ``"control"``), its index within the arm, its seed, the final height
    ``X_{n,1}``, the last-half slope of the height trace, and that trace at
    steps ``0, stride, 2 * stride, ...`` as an array of its own."""

    arm: str
    run: int
    seed: int
    final_height: int
    slope: float
    trace: np.ndarray


def transience_experiment(n_steps: int, n_runs: int, base_seed: int, stride: int) -> tuple:
    """Escape experiment: adaptive ladder runs against a fixed-weight control.

    Each replicate starts at :data:`LADDER_START`.  The adaptive arm follows
    the tilt rule; the control arm fixes the weights at (1/2, 1/2), which is
    positive recurrent.  Returns one :class:`RunRecord` per replicate, the
    adaptive arm's ``n_runs`` first; the strided trace is copied, so no
    replicate's full height trace outlives its record.
    """
    target = LadderTarget()
    arms = (
        ("adaptive", ladder_update_rule, SelectionWeights((0.5, 0.5), LADDER_EPSILON), 0),
        ("control", keep_previous, SelectionWeights((0.5, 0.5), 0.5), n_runs),
    )
    records = []
    for arm, arm_rule, alpha0, offset in arms:
        for r in range(n_runs):
            seed = derive_seed(base_seed, offset + r)
            heights = adap_rsg_run(
                target, arm_rule, LADDER_START, alpha0, n_steps, seed
            ).coordinate_trace(0)
            records.append(RunRecord(
                arm, r, seed, int(heights[-1]), last_half_slope(heights),
                heights[::stride].copy(),
            ))
    return tuple(records)


def linear_schedule(offset: float, slope: float) -> Callable[[int], float]:
    """Admissible fast tuning sequence ``a_n = offset + slope * n``.

    Still of the rule's required form (bigger than 8 and increasing to
    infinity), but fast enough that the truncated chain's ergodicity is
    visible at desk scale; the block schedule needs astronomically many steps
    for that because its weights stay tilted by ~0.3 for any feasible horizon.
    """
    if offset <= 8.0 or slope <= 0.0:
        raise ValueError("need offset > 8 and slope > 0 for an admissible sequence")
    return lambda n: offset + slope * n


@dataclass(frozen=True)
class TruncatedLadderEvolution:
    """Exact chain-law trace on the truncated ladder."""

    tv: np.ndarray
    horizon: Optional[int]

    @property
    def reached(self) -> bool:
        return self.horizon is not None


def _law_setup(truncation: int) -> tuple:
    """``(base, slope, v0, mass)`` on the ladder capped at ``truncation``,
    whose rungs run up to (truncation, truncation): the rows (up, down, stay)
    of the exact adaptive chain's moves along the three diagonals of
    :func:`_rung_moves`, ``base + (4.0 / a_n) * slope`` at step ``n``, with no
    climb from the top rung (see :func:`_push`); the point mass at
    :data:`LADDER_START`, rung 0; the target masses ``j**-2``.
    """
    rungs = np.arange(2 * truncation - 1)
    (up, down), (up_slope, down_slope) = _rung_moves(rungs)
    up[-1] = up_slope[-1] = 0.0
    base = np.stack([up, down, 1.0 - up - down])
    slope = np.stack([up_slope, down_slope, -up_slope - down_slope])
    v0 = np.where(rungs == 0, 1.0, 0.0)
    return base, slope, v0, (rungs // 2 + 1) ** -2.0


def _push(moves: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The law ``v`` one step on, into ``out``: each rung keeps the mass that
    stays, plus what climbs from the rung below, then gains what falls from
    the rung above, with ``moves`` the step's rows of :func:`_law_setup`."""
    moved = moves * v  # rows (up, down, stay)
    np.add(moved[2, 1:], moved[0, :-1], out=out[1:])
    out[0] = moved[2, 0]
    out[:-1] += moved[1, 1:]
    return out


# truncated_ladder_evolution pushes the law this many steps between two
# readings of their total variation distances.
LAW_CHUNK = 64


def truncated_ladder_evolution(
    truncation: int,
    a_of_n: Callable[[int], float],
    tv_target: float,
    max_steps: int,
) -> TruncatedLadderEvolution:
    """Exact evolution of the adaptive chain law on the truncated ladder,
    started at :data:`LADDER_START`.

    The law is pushed forward (see :func:`_push`) until the total variation
    distance to the target drops below ``tv_target`` (the horizon) or
    ``max_steps`` is hit.  The moves of :data:`LAW_CHUNK` steps at a time are
    built in one expression, their laws go to one buffer, and their distances
    are read in one call; the trace ends at the first step below
    ``tv_target``, and holds only the steps taken.
    """
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    base, slope, v, mass = _law_setup(truncation)
    pi = mass / mass.sum()

    chunks = [np.array([tv(v, pi)])]
    laws = np.empty((min(LAW_CHUNK, max_steps), len(v)))
    for done in range(0, max_steps, LAW_CHUNK):
        size = min(LAW_CHUNK, max_steps - done)
        a_n = np.array([a_of_n(done + k + 1) for k in range(size)])
        moves = base + (4.0 / a_n)[:, np.newaxis, np.newaxis] * slope
        for k in range(size):
            v = _push(moves[k], v, laws[k])
        chunk = tv(laws[:size], pi)
        below = np.flatnonzero(chunk < tv_target)
        chunks.append(chunk[: below[0] + 1] if below.size else chunk)
        if below.size:
            return TruncatedLadderEvolution(np.concatenate(chunks), done + 1 + int(below[0]))
    return TruncatedLadderEvolution(np.concatenate(chunks), None)


@dataclass(frozen=True)
class UnboundedLadderLaw:
    """Exact law of the unbounded adaptive chain at a finite horizon.

    ``tv_to_target`` is the exact total variation distance to the unbounded
    target (the rungs kept plus the target's mass beyond the horizon's
    reachable support).
    """

    states: tuple
    probs: np.ndarray
    n_steps: int
    tv_to_target: float


def unbounded_ladder_law(n_steps: int) -> UnboundedLadderLaw:
    """Exact chain law of the unbounded adaptive ladder after ``n_steps``,
    started at :data:`LADDER_START` and run on the block schedule.

    The chain moves at most one rung per step, so on the ladder capped at
    ``n_steps + 2`` the law never reaches the top rung, and the cap is never
    felt: no truncation bias.  The total variation distance to the unbounded
    target is then exact, the rungs above contributing their full mass.
    """
    base, slope, v, mass = _law_setup(n_steps + 2)
    for n in range(1, n_steps + 1):
        v = _push(base + (4.0 / schedule_a(n)) * slope, v, np.empty_like(v))

    pi_enum = mass / _TOTAL_MASS
    tail = 1.0 - pi_enum.sum()
    return UnboundedLadderLaw(
        states=tuple((s // 2 + 1 + s % 2, s // 2 + 1) for s in range(len(v))),
        probs=v,
        n_steps=n_steps,
        tv_to_target=tv(np.append(v, 0.0), np.append(pi_enum, tail)),
    )

