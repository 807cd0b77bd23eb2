"""Coordinate-selection weight vectors on the floored probability simplex.

A random scan sampler chooses which coordinate to refresh according to a
probability vector over ``{1, ..., d}``.  To keep every coordinate alive, the
admissible set is the simplex intersected with a lower floor::

    { w : w_i >= epsilon for all i,  sum_i w_i = 1 },   0 < epsilon <= 1/d.

Every weight vector used by the kernels, samplers and bound calculators is a
:class:`SelectionWeights`, whose constructor is the one place membership in
this set is checked.  Its floor rule also guards the weight-uniform bound,
which holds over the whole set for a given floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SIMPLEX_TOL = 1e-12
FLOOR_SLACK = 1e-12


class InvalidWeightsError(ValueError):
    """Raised for weight input that cannot live on the floored simplex."""


class InvalidEpsilonError(ValueError):
    """Raised when the simplex floor is outside (0, 1/d]."""


def _check_floor(epsilon: float, d: int) -> None:
    """The floor rule: ``0 < epsilon <= 1/d`` (up to float dust) on ``d >= 1``
    coordinates, the only floors that leave a weight vector."""
    if d < 1 or not 0.0 < epsilon <= 1.0 / d + SIMPLEX_TOL:
        raise InvalidEpsilonError(f"epsilon must lie in (0, 1/d] for d={d}, got {epsilon}")


@dataclass(frozen=True)
class SelectionWeights:
    """Probability vector over coordinates with a guaranteed lower floor.

    Invariants (checked at construction): entries sum to one within
    ``SIMPLEX_TOL``, every entry is at least ``epsilon`` (up to float dust),
    and ``0 < epsilon <= 1/d``.
    """

    weights: tuple
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise InvalidWeightsError("weight vector must have at least one entry")
        _check_floor(self.epsilon, len(self.weights))
        for w in self.weights:
            if not math.isfinite(w):
                raise InvalidWeightsError(f"non-finite weight entry: {w!r}")
            if w < self.epsilon - FLOOR_SLACK:
                raise InvalidWeightsError(
                    f"entry {w!r} is below the floor epsilon={self.epsilon!r}"
                )
        total = math.fsum(self.weights)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise InvalidWeightsError(f"weights sum to {total!r}, expected 1")

    @property
    def d(self) -> int:
        return len(self.weights)

    @cached_property
    def cumulative(self) -> tuple:
        """Cumulative sums, for inverse-CDF coordinate draws (computed once)."""
        out = []
        acc = 0.0
        for w in self.weights:
            acc += w
            out.append(acc)
        out[-1] = 1.0
        return tuple(out)


@dataclass(frozen=True)
class MixtureDecomposition:
    """Coefficients writing one weight vector as a mixture over another.

    For selection weights ``alpha`` and ``alpha_prime`` on the same floored
    simplex, ``alpha_prime = r * alpha + (1 - r) * q`` componentwise, with
    ``r = min_i alpha_prime_i / alpha_i``.
    """

    r: float
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if not (0.0 <= self.r <= 1.0):
            raise ValueError(f"mixture coefficient r={self.r!r} outside [0, 1]")


def make_selection_weights(raw: Sequence[float], epsilon: float) -> SelectionWeights:
    """Normalise ``raw`` and project it onto the floored simplex.

    The result is the Euclidean projection of ``raw / sum(raw)`` onto
    ``{w : w_i >= epsilon, sum w_i = 1}``.  Inputs already in the set are
    returned unchanged (bit-for-bit).

    Raises:
        InvalidWeightsError: if ``raw`` has a negative entry or no positive one.
        InvalidEpsilonError: if ``epsilon`` is outside (0, 1/d], from the
            :class:`SelectionWeights` constructor.
    """
    vals = [float(v) for v in raw]
    total = math.fsum(vals)
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise InvalidWeightsError(f"weights must be finite and nonnegative, got {v!r}")
    if total <= 0.0:
        raise InvalidWeightsError("weights must contain at least one positive entry")

    if abs(total - 1.0) <= SIMPLEX_TOL and min(vals) >= epsilon:
        # Already on the floored simplex: return unchanged (exact idempotence).
        return SelectionWeights(tuple(vals), epsilon)
    normalised = [v / total for v in vals]
    if min(normalised) >= epsilon:
        return SelectionWeights(tuple(normalised), epsilon)
    return SelectionWeights(_project_floored_simplex(normalised, epsilon), epsilon)


def _project_floored_simplex(w: Sequence[float], epsilon: float) -> tuple:
    """Euclidean projection onto {v >= epsilon, sum v = 1}.

    Shift by the floor and run the sorted-threshold simplex projection on the
    residual mass 1 - d*epsilon.  Deterministic, one pass after the sort, and
    order-preserving (the argmax of the input stays the argmax).
    """
    z = np.asarray(w, dtype=np.float64) - epsilon
    budget = 1.0 - len(z) * epsilon  # >= 0 for any epsilon SelectionWeights accepts
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    ranks = np.arange(1, len(z) + 1)
    feasible = u - (css - budget) / ranks > 0.0
    if not np.any(feasible):
        # Degenerate budget: everything sits on the floor.
        return tuple(float(epsilon) for _ in z)
    rho = int(np.nonzero(feasible)[0][-1])
    theta = (css[rho] - budget) / (rho + 1.0)
    v = np.maximum(z - theta, 0.0)
    return tuple(float(x + epsilon) for x in v)


def mixture_decomposition(
    alpha: SelectionWeights, alpha_prime: SelectionWeights
) -> MixtureDecomposition:
    """Write ``alpha_prime`` as ``r * alpha + (1 - r) * q``.

    ``r`` is the largest coefficient for which the residual ``q`` stays a
    probability vector, namely ``min_i alpha_prime_i / alpha_i``.  When the
    two vectors coincide (``r = 1``) the residual is reported as ``alpha``
    itself by convention.
    """
    if alpha.d != alpha_prime.d:
        raise ValueError(f"dimension mismatch: {alpha.d} vs {alpha_prime.d}")
    r = min(ap / a for a, ap in zip(alpha.weights, alpha_prime.weights))
    r = min(r, 1.0)
    if 1.0 - r <= 1e-13:
        # Near-identical vectors: the residual direction is numerically
        # meaningless and its mixture weight is below roundoff anyway.
        return MixtureDecomposition(1.0, alpha.weights)
    q = [
        max((ap - r * a) / (1.0 - r), 0.0)
        for a, ap in zip(alpha.weights, alpha_prime.weights)
    ]
    total = math.fsum(q)
    return MixtureDecomposition(r, tuple(v / total for v in q))


def sup_distance(a: tuple, b: tuple) -> float:
    """Sup-norm distance between two weight tuples."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return max(abs(x - y) for x, y in zip(a, b))
