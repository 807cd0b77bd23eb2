"""Concrete adaptation rules for the doubly adaptive sampler.

Two proposal-variance tuners are provided: the running-moments rule
``5.76 * (sample_variance + 0.05)`` ("hst") and the batched acceptance-rate
rule that nudges a clamped log-scale up or down by ``min(0.1, b^{-1/2})``
per 50-iteration batch depending on whether the batch acceptance fraction
beat 0.44 ("rr").  Both feed the same square-root weight rule.  Updates are
applied at batch boundaries only, so the per-step weight change is bounded by
the per-batch change and adaptation provably dies out.

A small monitor summarises how fast adaptation is dying out along a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .weights import SelectionWeights, sup_distance
from .variance import optimal_selection_weights

BATCH_SIZE = 50
TARGET_ACCEPTANCE = 0.44
HST_SCALE = 2.4**2
HST_FLOOR = 0.05


class BatchBoundaryError(RuntimeError):
    """Raised when a batch-boundary update is requested off-boundary."""


@dataclass
class AdaptState:
    """All adaptation bookkeeping owned by a single run.

    Running count/mean/second-moment per coordinate (single-pass, stable),
    clamped log-scales, per-coordinate batch proposal/acceptance counters,
    and the current weights and proposal variances.
    """

    d: int
    epsilon: float
    batch_size: int = BATCH_SIZE
    clamp: float = 10.0
    counts: int = 0
    means: np.ndarray = field(default=None)
    m2: np.ndarray = field(default=None)
    log_scales: np.ndarray = field(default=None)
    batch_proposals: np.ndarray = field(default=None)
    batch_accepts: np.ndarray = field(default=None)
    steps_in_batch: int = 0
    completed_batches: int = 0
    burn_in_exclude: int = 0
    weights: SelectionWeights = None
    proposal_variances: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.means is None:
            self.means = np.zeros(self.d)
        if self.m2 is None:
            self.m2 = np.zeros(self.d)
        if self.log_scales is None:
            self.log_scales = np.zeros(self.d)
        if self.batch_proposals is None:
            self.batch_proposals = np.zeros(self.d, dtype=np.int64)
        if self.batch_accepts is None:
            self.batch_accepts = np.zeros(self.d, dtype=np.int64)
        if self.weights is None:
            self.weights = SelectionWeights((1.0 / self.d,) * self.d, self.epsilon)
        if self.proposal_variances is None:
            self.proposal_variances = np.exp(self.log_scales)
        self._observed = 0

    def observe_state(self, x: Sequence[float]):
        """Fold a full state vector into the running moments (Welford)."""
        self._observed += 1
        if self._observed <= self.burn_in_exclude:
            return
        self.counts += 1
        arr = np.asarray(x, dtype=np.float64)
        delta = arr - self.means
        self.means += delta / self.counts
        self.m2 += delta * (arr - self.means)

    def record_proposal(self, i: int, accepted: bool):
        self.batch_proposals[i] += 1
        if accepted:
            self.batch_accepts[i] += 1
        self.steps_in_batch += 1

    @property
    def at_batch_boundary(self) -> bool:
        return self.steps_in_batch == self.batch_size

    def start_new_batch(self):
        if not self.at_batch_boundary:
            raise BatchBoundaryError(
                f"batch has {self.steps_in_batch} of {self.batch_size} steps"
            )
        self.completed_batches += 1
        self.batch_proposals[:] = 0
        self.batch_accepts[:] = 0
        self.steps_in_batch = 0

    def sample_variance(self, i: int) -> float:
        """Unbiased sample variance of coordinate ``i``; zero below 2 points."""
        if self.counts < 2:
            return 0.0
        return float(self.m2[i] / (self.counts - 1))


def hst_variance(state: AdaptState, i: int) -> float:
    """Moment-tracking proposal variance ``5.76 * (s^2 + 0.05)``."""
    return HST_SCALE * (state.sample_variance(i) + HST_FLOOR)


def adaptation_step_size(batch_index: int) -> float:
    """Per-batch log-scale increment ``min(0.1, b^{-1/2})``: of the required
    square-root order, capped to avoid violent early swings."""
    if batch_index < 1:
        raise ValueError(f"batch index must be >= 1, got {batch_index}")
    return min(0.1, batch_index**-0.5)


def rr_scale_update(state: AdaptState, i: int, batch_index: int) -> float:
    """Acceptance-targeting log-scale update for coordinate ``i``.

    Must be called exactly at a batch boundary.  The log-scale moves up when
    the batch acceptance fraction exceeds 0.44 and down otherwise, then is
    clamped to ``[-clamp, clamp]``; a coordinate that was never proposed in
    the batch keeps its scale (its fraction is undefined).  Returns the new
    log-scale and refreshes the stored proposal variance ``exp(ls_i)``.
    """
    if not state.at_batch_boundary:
        raise BatchBoundaryError(
            f"scale update off-boundary: {state.steps_in_batch} of {state.batch_size}"
        )
    proposals = int(state.batch_proposals[i])
    if proposals > 0:
        fraction = state.batch_accepts[i] / proposals
        step = adaptation_step_size(batch_index)
        ls = state.log_scales[i] + (step if fraction > TARGET_ACCEPTANCE else -step)
        state.log_scales[i] = min(max(ls, -state.clamp), state.clamp)
    state.proposal_variances[i] = math.exp(state.log_scales[i])
    return float(state.log_scales[i])


def weight_update(
    state: AdaptState, variant: str, a: Sequence[float], epsilon: float
) -> SelectionWeights:
    """Square-root weight rule fed by the variant's proposal variances.

    ``alpha_i`` is proportional to ``sqrt(sigma2_i * a_i^2)`` with
    ``sigma2_i`` the hst moment rule or the rr log-scale rule, then projected
    onto the floored simplex.  The projection preserves the coordinate
    ordering of the raw scores.
    """
    if variant == "hst":
        sigma2 = [hst_variance(state, i) for i in range(state.d)]
    elif variant == "rr":
        sigma2 = [float(v) for v in state.proposal_variances]
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'hst' or 'rr'")
    weights = optimal_selection_weights(a, sigma2, epsilon)
    state.weights = weights
    return weights


class ComponentwiseAdaptation:
    """Weight rule, proposal rule and observer for the doubly adaptive runs.

    Wires one :class:`AdaptState` into the ``adap_rs_adap_mwg_run`` loop:
    the observer accumulates moments and batch acceptance counts, and at
    every batch boundary refreshes the proposal variances and the selection
    weights, which the two rules then hand to the sampler unchanged until
    the next boundary.
    """

    def __init__(
        self,
        variant: str,
        a: Sequence[float],
        epsilon: float,
        batch_size: int = BATCH_SIZE,
        clamp: float = 10.0,
        initial_log_scales: Optional[Sequence[float]] = None,
        burn_in_exclude: int = 0,
    ):
        if variant not in ("hst", "rr"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.a = tuple(float(v) for v in a)
        self.epsilon = float(epsilon)
        self.state = AdaptState(
            d=len(self.a),
            epsilon=self.epsilon,
            batch_size=batch_size,
            clamp=clamp,
            burn_in_exclude=burn_in_exclude,
        )
        if initial_log_scales is not None:
            self.state.log_scales = np.asarray(initial_log_scales, dtype=np.float64)
            self.state.proposal_variances = np.exp(self.state.log_scales)
        if variant == "hst":
            self.state.proposal_variances = np.asarray(
                [hst_variance(self.state, i) for i in range(self.state.d)]
            )
        self.batch_log: list = []

    def weight_rule(self, n, alpha_prev, x_prev) -> SelectionWeights:
        return self.state.weights

    def proposal_rule(self, n, gamma_prev, x_prev) -> tuple:
        return tuple(float(v) for v in self.state.proposal_variances)

    def observer(self, n, x, i, accepted):
        if i is None:
            self.state.observe_state(x)
            return
        self.state.observe_state(x)
        self.state.record_proposal(i, accepted)
        if self.state.at_batch_boundary:
            self._refresh_at_boundary()

    def _refresh_at_boundary(self):
        batch_index = self.state.completed_batches + 1
        proposals = tuple(int(v) for v in self.state.batch_proposals)
        accepts = tuple(int(v) for v in self.state.batch_accepts)
        fractions = tuple(
            (a / p) if p > 0 else math.nan for a, p in zip(accepts, proposals)
        )
        if self.variant == "rr":
            for i in range(self.state.d):
                rr_scale_update(self.state, i, batch_index)
        else:
            self.state.proposal_variances = np.asarray(
                [hst_variance(self.state, i) for i in range(self.state.d)]
            )
        weights = weight_update(self.state, self.variant, self.a, self.epsilon)
        self.batch_log.append(
            {
                "batch": batch_index,
                "weights": weights.weights,
                "variances": tuple(float(v) for v in self.state.proposal_variances),
                "acceptance": fractions,
                "proposals": proposals,
                "accepts": accepts,
            }
        )
        self.state.start_new_batch()


@dataclass(frozen=True)
class DiminishingReport:
    """Summary of how fast adaptation is dying out along one run.

    ``gaps[k]`` is the sup-norm weight change at step ``k+1``; window maxima
    split the gap sequence into equal contiguous windows.  The tail is
    flagged when the final window's maximum fails to improve on the first
    window's (while any adaptation is still happening at all).
    """

    gaps: np.ndarray
    tail_max: np.ndarray
    window_max: tuple
    kernel_gaps: Optional[np.ndarray]
    nondecreasing_tail: bool


def diminishing_monitor(
    weight_history: Sequence,
    kernel_gap_history: Optional[Sequence[float]] = None,
    n_windows: int = 8,
) -> DiminishingReport:
    """Fold a weight history into diminishing-adaptation diagnostics."""
    vectors = [
        w.weights if isinstance(w, SelectionWeights) else tuple(w)
        for w in weight_history
    ]
    if len(vectors) < 2:
        raise ValueError("need at least two weight vectors to monitor adaptation")
    gaps = np.asarray(
        [sup_distance(a, b) for a, b in zip(vectors, vectors[1:])], dtype=np.float64
    )
    tail_max = np.maximum.accumulate(gaps[::-1])[::-1]
    bounds = np.linspace(0, len(gaps), min(n_windows, len(gaps)) + 1, dtype=int)
    window_max = tuple(
        float(gaps[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    )
    flagged = bool(
        len(window_max) >= 2
        and window_max[-1] > 0.0
        and window_max[-1] >= window_max[0]
    )
    kernel_gaps = (
        np.asarray(kernel_gap_history, dtype=np.float64)
        if kernel_gap_history is not None
        else None
    )
    return DiminishingReport(
        gaps=gaps,
        tail_max=tail_max,
        window_max=window_max,
        kernel_gaps=kernel_gaps,
        nondecreasing_tail=flagged,
    )
