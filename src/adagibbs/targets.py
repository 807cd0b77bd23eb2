"""Target distributions over product spaces.

Two concrete families are supported:

* :class:`FiniteProductTarget` -- an unnormalised positive mass function on a
  finite product of coordinate state lists, optionally restricted by a support
  predicate (for non-rectangular spaces).  This powers both exact kernel
  construction and exact conditional sampling.
* :class:`ContinuousProductTarget` -- a product of scaled raised-cosine
  densities ``scale_i * raised_cosine(scale_i * x_i)``.  It is the density
  alone: the observable an experiment estimates under it is the experiment's.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np


class TargetError(ValueError):
    """Raised when a target violates its construction invariants."""


class FiniteProductTarget:
    """Unnormalised strictly positive mass function on a finite product space.

    Args:
        coordinate_states: one finite list of admissible values per coordinate.
        mass: callable mapping a full state tuple to an unnormalised mass.
        support: optional predicate; states where it is falsy are excluded
            from the space (used e.g. for ladder-shaped spaces).
    """

    def __init__(
        self,
        coordinate_states: Sequence[Sequence],
        mass: Callable[[tuple], float],
        support: Optional[Callable[[tuple], bool]] = None,
    ):
        self.coordinate_states = tuple(tuple(c) for c in coordinate_states)
        if any(len(c) == 0 for c in self.coordinate_states):
            raise TargetError("every coordinate needs at least one state")

        states = []
        masses = []
        for x in itertools.product(*self.coordinate_states):
            if support is not None and not support(x):
                continue
            m = float(mass(x))
            if not math.isfinite(m) or m <= 0.0:
                raise TargetError(f"state {x!r} has non-positive mass {m!r}")
            states.append(x)
            masses.append(m)
        if not states:
            raise TargetError("empty state space after applying the support predicate")
        self.states = tuple(states)
        self._masses = np.asarray(masses, dtype=np.float64)
        self._total = float(self._masses.sum())
        if not math.isfinite(self._total) or self._total <= 0.0:
            raise TargetError(f"total mass {self._total!r} is not positive and finite")
        self._index = {x: k for k, x in enumerate(self.states)}
        self._cond_cache: dict = {}

    @property
    def d(self) -> int:
        return len(self.coordinate_states)

    def contains(self, x: tuple) -> bool:
        return tuple(x) in self._index

    def mass(self, x: tuple) -> float:
        """Unnormalised mass; zero for states outside the support."""
        k = self._index.get(tuple(x))
        return float(self._masses[k]) if k is not None else 0.0

    def probabilities(self) -> np.ndarray:
        """Normalised probability vector aligned with ``self.states``."""
        return self._masses / self._total

    def conditional_density(self, i: int, x: tuple, y) -> float:
        """Unnormalised conditional of coordinate ``i`` at value ``y``: the
        mass at ``x`` with ``x_i = y`` (zero outside the support)."""
        return self.mass(x[:i] + (y,) + x[i + 1:])

    def conditional(self, i: int, x: tuple):
        """Conditional law of coordinate ``i`` given the other coordinates.

        Returns ``(values, probs)`` over the admissible values of coordinate
        ``i`` with the remaining coordinates frozen at ``x``.  Cached per
        ``(i, x_without_i)`` because samplers revisit the same sections.
        """
        values, probs, _ = self._conditional_tables(i, tuple(x))
        return values, probs

    def conditional_cdf(self, i: int, x: tuple):
        """Like :meth:`conditional` but returning cumulative probabilities."""
        values, _, cum = self._conditional_tables(i, tuple(x))
        return values, cum

    def _conditional_tables(self, i: int, x: tuple):
        key = (i, x[:i], x[i + 1:])
        cached = self._cond_cache.get(key)
        if cached is not None:
            return cached
        values = []
        masses = []
        for v in self.coordinate_states[i]:
            y = x[:i] + (v,) + x[i + 1:]
            k = self._index.get(y)
            if k is not None:
                values.append(v)
                masses.append(self._masses[k])
        if not values:
            raise TargetError(f"no admissible values for coordinate {i} given {x!r}")
        total = math.fsum(masses)
        probs = tuple(m / total for m in masses)
        cum = []
        acc = 0.0
        for p in probs:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        tables = (tuple(values), probs, tuple(cum))
        self._cond_cache[key] = tables
        return tables


def raised_cosine(z: float) -> float:
    """Smooth unimodal density (1 + cos(pi z)) / 2 on [-1, 1]."""
    if -1.0 <= z <= 1.0:
        return 0.5 * (1.0 + math.cos(math.pi * z))
    return 0.0


class ContinuousProductTarget:
    """Product density ``prod_i scale_i * raised_cosine(scale_i * x_i)`` on
    R^d."""

    # Coordinate i's conditional density depends on x_i alone.
    INDEPENDENT_COORDINATES = True

    def __init__(self, scales: Sequence[float]):
        self.scales = tuple(float(c) for c in scales)
        if any(c <= 0 or not math.isfinite(c) for c in self.scales):
            raise TargetError(f"scales must be strictly positive, got {self.scales}")

    @property
    def d(self) -> int:
        return len(self.scales)

    def conditional_density(self, i: int, x: tuple, y: float) -> float:
        """Unnormalised conditional density of coordinate ``i`` at value ``y``.

        The product form makes this independent of the frozen coordinates;
        the ``x`` argument is kept so the signature matches general targets.
        """
        c = self.scales[i]
        return c * raised_cosine(c * y)
