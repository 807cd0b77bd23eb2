"""Straight-line reference computations that only the tests use.

Each one is the plain statement of a quantity that the package computes by a
faster or more specialised path, kept here so the fast path can be compared
with it.
"""

import math

import numpy as np

from adagibbs.bounds import ENTRYWISE_TOL
from adagibbs.kernels import (
    DistributionVector,
    TransitionMatrix,
    single_coordinate_kernel,
)

# Variance of the raised cosine density on [-1, 1].
RAISED_COSINE_VARIANCE = 1.0 / 3.0 - 2.0 / math.pi**2


def state_dependent_gibbs_kernel(target, weights_at):
    """Random scan Gibbs kernel whose selection weights ``weights_at(x)`` may
    depend on the current state ``x``: row ``x`` is ``sum_i w_i(x) K_i[x]``.

    One step of an adaptive rule ``alpha_n = R(n, X_{n-1})`` as an ordinary
    (time-frozen) kernel; it is generally not stationary for the target.
    """
    weights = np.array([weights_at(x).weights for x in target.states])
    m = np.zeros((len(target.states),) * 2)
    for i in range(target.d):
        m += weights[:, i, np.newaxis] * single_coordinate_kernel(target, i).matrix
    return TransitionMatrix(target.states, m)


def certificate_holds(cert, p: TransitionMatrix) -> bool:
    """Entrywise check of a minorization certificate, ``P^m >= s * mu``,
    against a concrete kernel to ``ENTRYWISE_TOL``."""
    if cert.s == 0.0:
        return True
    pm = np.linalg.matrix_power(p.matrix, cert.m)
    return bool(np.all(pm >= cert.s * cert.mu.probs[np.newaxis, :] - ENTRYWISE_TOL))


class StationaryConvergenceError(RuntimeError):
    """Raised when no stationary vector could be computed."""


STATIONARY_RESIDUAL = 1e-10


def stationary_distribution(p: TransitionMatrix) -> DistributionVector:
    """Left fixed probability vector of ``p``, by one least-squares solve of
    ``v (P - I) = 0`` with ``sum(v) = 1``.

    The caller is responsible for irreducibility; a solve that fails, leaves
    a negative entry or a sup-norm residual ``|v P - v|`` above
    ``STATIONARY_RESIDUAL`` is reported.
    """
    m = p.matrix
    solved = _stationary_solve(m)
    if solved is not None and np.abs(solved @ m - solved).max() <= STATIONARY_RESIDUAL:
        return DistributionVector(p.states, solved)
    raise StationaryConvergenceError(
        f"the linear solve found no stationary vector within residual {STATIONARY_RESIDUAL}"
    )


def _stationary_solve(m: np.ndarray):
    n = m.shape[0]
    a = np.vstack([m.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    try:
        v, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if v.min() < -1e-10:
        return None
    v = np.maximum(v, 0.0)
    s = v.sum()
    if s <= 0:
        return None
    return v / s
