"""Concrete adaptation rules for the doubly adaptive sampler.

:class:`ComponentwiseAdaptation` is the one adaptation object: its observer
keeps per-batch proposal and acceptance counts, and every ``BATCH_SIZE``
steps it refreshes the proposal variances and the selection weights.  The
proposal variances follow the batched acceptance-rate rule of Roberts &
Rosenthal: each coordinate's log-scale, clamped to ``[-10, 10]``, moves up
or down by ``min(0.1, b^{-1/2})`` per 50-iteration batch depending on
whether the batch acceptance fraction beat 0.44.  The weights follow the
square-root rule, :func:`weight_update`.  Updates are applied at batch
boundaries only, so the per-step weight change is bounded by the per-batch
change and adaptation provably dies out; between boundaries the rules hand
the sampler the same two immutable objects.

A small monitor summarises how fast adaptation is dying out along a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import SelectionWeights, make_selection_weights, sup_distance

BATCH_SIZE = 50
TARGET_ACCEPTANCE = 0.44
LOG_SCALE_CLAMP = 10.0


def adaptation_step_size(batch_index: int) -> float:
    """Per-batch log-scale increment ``min(0.1, b^{-1/2})``: of the required
    square-root order, capped to avoid violent early swings."""
    if batch_index < 1:
        raise ValueError(f"batch index must be >= 1, got {batch_index}")
    return min(0.1, batch_index**-0.5)


def acceptance_fractions(accepts: Sequence[int], proposals: Sequence[int]) -> tuple:
    """Each coordinate's ``accepts / proposals``, NaN where nothing was
    proposed."""
    return tuple((acc / p) if p > 0 else math.nan for acc, p in zip(accepts, proposals))


def weight_update(
    variances: Sequence[float], a: Sequence[float], epsilon: float
) -> SelectionWeights:
    """Square-root rule for one batch's proposal variances.

    ``alpha_i`` is proportional to ``sqrt(variances_i * a_i^2)``, projected
    onto the floored simplex; this minimises ``sum_i variances_i a_i^2 /
    alpha_i`` over it.  The projection preserves the coordinate ordering of
    the raw scores.
    """
    if len(a) != len(variances):
        raise ValueError("coefficients and variances must share the dimension")
    raw = [abs(ai) * math.sqrt(v) for ai, v in zip(a, variances)]
    return make_selection_weights(raw, epsilon)


class ComponentwiseAdaptation:
    """Weight rule, proposal rule and observer for the doubly adaptive runs.

    Wire ``weight_rule``, ``proposal_rule`` and ``observer`` into
    :func:`~adagibbs.samplers.adap_rs_adap_mwg_run`, starting it from
    ``proposal_variances``.  The observer counts each coordinate's proposals
    and acceptances after every step; at every batch boundary (each step
    ``n`` that is a multiple of ``BATCH_SIZE``) it moves the log-scales of
    the coordinates proposed in the batch, computes the new
    ``proposal_variances`` (a tuple of floats) and the square-root
    ``weights`` once, and records the batch in ``batch_log``.  The two rules
    return those same objects until the next boundary.
    """

    def __init__(self, a: Sequence[float], epsilon: float):
        self.a = tuple(float(v) for v in a)
        self.epsilon = float(epsilon)
        d = len(self.a)
        if d < 1:
            raise ValueError("need at least one coordinate")
        self.log_scales = [0.0] * d
        self._proposals = [0] * d
        self._accepts = [0] * d
        self.proposal_variances = self._variances()
        self.weights = SelectionWeights((1.0 / d,) * d, self.epsilon)
        self.batch_log: list = []

    def weight_rule(self, n, alpha_prev, x_prev) -> SelectionWeights:
        return self.weights

    def proposal_rule(self, n, gamma_prev, x_prev) -> tuple:
        return self.proposal_variances

    def observer(self, n, x, i, accepted):
        self._proposals[i] += 1
        if accepted:
            self._accepts[i] += 1
        if n % BATCH_SIZE == 0:
            self._refresh()

    def _variances(self) -> tuple:
        return tuple(math.exp(ls) for ls in self.log_scales)

    def _refresh(self):
        batch = len(self.batch_log) + 1
        proposals = tuple(self._proposals)
        accepts = tuple(self._accepts)
        fractions = acceptance_fractions(accepts, proposals)
        step = adaptation_step_size(batch)
        for k, fraction in enumerate(fractions):
            # a coordinate not proposed in the batch keeps its scale
            if proposals[k] > 0:
                ls = self.log_scales[k] + (step if fraction > TARGET_ACCEPTANCE else -step)
                self.log_scales[k] = min(max(ls, -LOG_SCALE_CLAMP), LOG_SCALE_CLAMP)
        self.proposal_variances = self._variances()
        self.weights = weight_update(self.proposal_variances, self.a, self.epsilon)
        self.batch_log.append(
            {
                "batch": batch,
                "weights": self.weights.weights,
                "variances": self.proposal_variances,
                "acceptance": fractions,
                "proposals": proposals,
                "accepts": accepts,
            }
        )
        d = len(self.a)
        self._proposals = [0] * d
        self._accepts = [0] * d


MONITOR_WINDOWS = 8


@dataclass(frozen=True)
class DiminishingReport:
    """Summary of how fast adaptation is dying out along one run.

    ``gaps[k]`` is the sup-norm weight change at step ``k+1``; window maxima
    split the gap sequence into ``MONITOR_WINDOWS`` equal contiguous windows
    (fewer for a shorter sequence).  The tail is flagged when the final
    window's maximum fails to improve on the first window's (while any
    adaptation is still happening at all).
    """

    gaps: np.ndarray
    tail_max: np.ndarray
    window_max: tuple
    nondecreasing_tail: bool


def diminishing_monitor(weight_history: Sequence[SelectionWeights]) -> DiminishingReport:
    """Fold a history of ``SelectionWeights`` into diminishing-adaptation
    diagnostics."""
    vectors = [w.weights for w in weight_history]
    if len(vectors) < 2:
        raise ValueError("need at least two weight vectors to monitor adaptation")
    gaps = np.asarray(
        [sup_distance(a, b) for a, b in zip(vectors, vectors[1:])], dtype=np.float64
    )
    tail_max = np.maximum.accumulate(gaps[::-1])[::-1]
    bounds = np.linspace(0, len(gaps), min(MONITOR_WINDOWS, len(gaps)) + 1, dtype=int)
    window_max = tuple(
        float(gaps[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    )
    flagged = bool(
        len(window_max) >= 2
        and window_max[-1] > 0.0
        and window_max[-1] >= window_max[0]
    )
    return DiminishingReport(
        gaps=gaps, tail_max=tail_max, window_max=window_max, nondecreasing_tail=flagged
    )
