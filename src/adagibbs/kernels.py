"""Exact transition matrices on finite spaces.

This is the oracle layer: random scan Gibbs and Metropolis-within-Gibbs
kernels are materialised as row-stochastic matrices, and total-variation
quantities are computed without sampling error.  Every closed-form bound
elsewhere in the package is checked against numbers produced here.
:func:`metropolis_kernel_matrix` is the one finite Metropolis kernel;
Metropolis-within-Gibbs applies it on every fibre.  :func:`tv` and
:func:`sup_row_tv` are the one statement of total variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .targets import FiniteProductTarget
from .weights import SelectionWeights

ROW_SUM_TOL = 1e-12
NEGATIVE_TOL = 1e-15


def _check_finite(a: np.ndarray, what: str):
    bad = ~np.isfinite(a)
    if bad.any():
        raise ValueError(f"non-finite {what} entry: {float(a[bad][0])!r}")


@dataclass(frozen=True)
class DistributionVector:
    """Probability vector over an explicit state enumeration."""

    states: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        p = np.array(self.probs, dtype=np.float64)
        _check_finite(p, "probability")
        if p.ndim != 1 or len(p) != len(self.states):
            raise ValueError("probability vector must align with the enumeration")
        if p.min(initial=0.0) < -NEGATIVE_TOL:
            raise ValueError(f"negative probability entry: {float(p.min())!r}")
        if abs(p.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, expected 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over an explicit state enumeration."""

    states: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        m = np.array(self.matrix, dtype=np.float64)
        _check_finite(m, "transition")
        n = len(self.states)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} states")
        if m.min(initial=0.0) < -NEGATIVE_TOL:
            raise ValueError(f"negative transition entry: {float(m.min())!r}")
        row_err = float(np.abs(m.sum(axis=1) - 1.0).max(initial=0.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {row_err!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.states)


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability vectors on one
    enumeration: half the L1 distance between them."""
    return 0.5 * float(np.abs(p - q).sum())


def sup_row_tv(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-row total variation distance between two row-stochastic arrays
    on one enumeration; a vector ``b`` is compared with every row of ``a``."""
    return 0.5 * float(np.abs(a - b).sum(axis=1).max())


def _fibres(target: FiniteProductTarget, i: int) -> list:
    """State indices of each set of states that agree off coordinate ``i``, in
    enumeration order: the order of the values ``target.conditional`` returns."""
    groups: dict = {}
    for k, x in enumerate(target.states):
        groups.setdefault(x[:i] + x[i + 1:], []).append(k)
    return list(groups.values())


def single_coordinate_kernel(target: FiniteProductTarget, i: int) -> TransitionMatrix:
    """One Gibbs step that redraws coordinate ``i`` from its conditional."""
    m = np.zeros((len(target.states),) * 2)
    rows, cols, probs = [], [], []
    for fibre in _fibres(target, i):
        _, p = target.conditional(i, target.states[fibre[0]])
        for r in fibre:
            rows += [r] * len(fibre)
            cols += fibre
            probs += p
    m[rows, cols] = probs
    return TransitionMatrix(target.states, m)


def gibbs_kernel_matrix(
    target: FiniteProductTarget, alpha: SelectionWeights
) -> TransitionMatrix:
    """Random scan Gibbs kernel: coordinate ``i`` with probability ``alpha_i``,
    then an exact conditional redraw of that coordinate."""
    if alpha.d != target.d:
        raise ValueError(f"weights have d={alpha.d}, target has d={target.d}")
    m = np.zeros((len(target.states),) * 2)
    for i, wi in enumerate(alpha.weights):
        m += wi * single_coordinate_kernel(target, i).matrix
    return TransitionMatrix(target.states, m)


def systematic_scan_kernel(target: FiniteProductTarget) -> TransitionMatrix:
    """Deterministic-scan Gibbs kernel updating coordinates 1..d in sequence."""
    m = single_coordinate_kernel(target, 0).matrix
    for i in range(1, target.d):
        m = m @ single_coordinate_kernel(target, i).matrix
    return TransitionMatrix(target.states, m)


def metropolis_kernel_matrix(pi: np.ndarray, proposal: np.ndarray) -> np.ndarray:
    """Exact Metropolis kernel on a finite space.

    ``pi`` is an unnormalised positive target vector and ``proposal`` a
    non-negative matrix whose rows sum to at most 1; the mass a row does not
    propose, and the rejected mass, return to the diagonal.  A move ``x -> y``
    with ``q_xy > 0`` has probability ``q_xy min(1, pi_y q_yx / (pi_x q_xy))``.
    This is the package's one statement of the Metropolis acceptance rule.
    """
    pi = np.asarray(pi, dtype=np.float64)
    q = np.asarray(proposal, dtype=np.float64)
    _check_finite(pi, "target")
    _check_finite(q, "proposal")
    n = len(pi)
    if q.shape != (n, n):
        raise ValueError(f"proposal shape {q.shape} does not match {n} states")
    if pi.min() <= 0.0:
        raise ValueError("target entries must be strictly positive")
    bad = (q.min(axis=1, initial=0.0) < -NEGATIVE_TOL) | (q.sum(axis=1) > 1.0 + ROW_SUM_TOL)
    if bad.any():
        raise ValueError(f"proposal row {int(np.argmax(bad))} has a negative entry or sums above 1")
    proposed = q > 0.0
    np.fill_diagonal(proposed, False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (pi[np.newaxis, :] * q.T) / (pi[:, np.newaxis] * q)
    m = np.where(proposed, q * np.minimum(1.0, ratio), 0.0)
    # the loop's order of summation, so the diagonal is reproducible bit for bit
    np.fill_diagonal(m, 1.0 - np.cumsum(m, axis=1)[:, -1])
    return m


def mwg_kernel_matrix(
    target: FiniteProductTarget,
    alpha: SelectionWeights,
    proposals: Sequence[np.ndarray],
) -> TransitionMatrix:
    """Random scan Metropolis-within-Gibbs kernel with finite proposals.

    ``proposals[i]`` is a row-stochastic matrix over coordinate ``i``'s state
    list.  On each fibre of coordinate ``i`` (the states that agree off
    ``i``) the step is the Metropolis kernel of the target masses and
    ``proposals[i]`` restricted to the fibre's values; a proposal leaving the
    support is not in the fibre and so is rejected.
    """
    if alpha.d != target.d:
        raise ValueError(f"weights have d={alpha.d}, target has d={target.d}")
    masses = np.array([target.mass(x) for x in target.states])
    m = np.zeros((len(target.states),) * 2)
    for i, wi in enumerate(alpha.weights):
        q = np.asarray(proposals[i], dtype=np.float64)
        _check_finite(q, f"proposal {i}")
        size = len(target.coordinate_states[i])
        if (q.shape != (size, size) or q.min(initial=0.0) < -NEGATIVE_TOL
                or np.abs(q.sum(axis=1) - 1.0).max() > ROW_SUM_TOL):
            raise ValueError(f"proposal {i} is not a {size} x {size} row-stochastic matrix")
        for fibre in _fibres(target, i):
            values = [target.coordinate_states[i].index(target.states[k][i]) for k in fibre]
            block = metropolis_kernel_matrix(masses[fibre], q[np.ix_(values, values)])
            m[np.ix_(fibre, fibre)] += wi * block
    return TransitionMatrix(target.states, m)


def random_reversible_chain(rng: np.random.Generator, n_states: int):
    """Random ergodic reversible chain, as ``(TransitionMatrix, DistributionVector)``.

    Built from a symmetric positive rate matrix scaled to leave strictly
    positive diagonals, so the chain is irreducible, aperiodic and reversible
    with respect to the drawn stationary vector by construction.
    """
    pi = rng.dirichlet(np.ones(n_states)) * 0.8 + 0.2 / n_states
    pi = pi / pi.sum()
    u = rng.uniform(0.2, 1.0, size=(n_states, n_states))
    a = 0.5 * (u + u.T)
    m = a * pi[np.newaxis, :]
    np.fill_diagonal(m, 0.0)
    scale = 0.9 / m.sum(axis=1).max()
    m *= scale
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    states = tuple((k,) for k in range(n_states))
    return TransitionMatrix(states, m), DistributionVector(states, pi)
