"""Straight-line reference computations that only the tests use.

Each one is the plain statement of a quantity that the package computes by a
faster or more specialised path, kept here so the fast path can be compared
with it.  Beside them, the three rules several test files apply: a rule's
record of what the loop used, the comparison of a result with its pin, and
bit-for-bit equality of two arrays.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from adagibbs import samplers
from adagibbs.bounds import ENTRYWISE_TOL
from adagibbs.kernels import (
    DistributionVector,
    TransitionMatrix,
    single_coordinate_kernel,
)


def recording(rule, record):
    """``rule`` that appends each output to ``record``: under the sampler
    contract, the very object the loop used at that step, so the record
    stands in for a per-step weight or proposal history."""

    def recorded(n, prev, x_prev):
        out = rule(n, prev, x_prev)
        record.append(out)
        return out

    return recorded


def assert_pinned(actual, pinned, where=()):
    """Compare a result with its pin: floats to 1e-9 relative (1e-12 absolute
    for values near zero), lists and dicts entry by entry, anything else
    exactly and of the same type."""
    if isinstance(pinned, float):
        assert actual == pytest.approx(pinned, rel=1e-9, abs=1e-12), where
        return
    assert type(actual) is type(pinned), where
    if isinstance(pinned, dict):
        assert sorted(actual) == sorted(pinned), where
        for key, value in pinned.items():
            assert_pinned(actual[key], value, (*where, key))
    elif isinstance(pinned, list):
        assert len(actual) == len(pinned), where
        for k, (got, value) in enumerate(zip(actual, pinned)):
            assert_pinned(got, value, (*where, k))
    else:
        assert actual == pinned, where


# Variance of the raised cosine density on [-1, 1].
RAISED_COSINE_VARIANCE = 1.0 / 3.0 - 2.0 / math.pi**2


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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


def autocovariance_oracle(x) -> np.ndarray:
    """Lags ``0..n-1`` of the biased (``1/n``) autocovariance about the mean,
    from ``irfft(f * conj(f))`` of the spectrum zero-padded to the least power
    of two at or above ``2n``."""
    n = len(x)
    x = x - x.mean()
    size = 1
    while size < 2 * n:
        size <<= 1
    f = np.fft.rfft(x, size)
    return np.fft.irfft(f * np.conjugate(f), size)[:n] / n


def iact_oracle(trace) -> float:
    """Integrated autocorrelation time, the initial-positive-sequence rule
    written straight through: adjacent lag pairs of the autocorrelation
    summed until one turns nonpositive."""
    acov = autocovariance_oracle(np.asarray(trace, dtype=np.float64))
    rho = acov / acov[0]
    total = 0.0
    m = 0
    while 2 * m + 1 < len(rho):
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        total += pair
        m += 1
    return float(2.0 * total - 1.0)


def rs_mwg_oracle(target, alpha, gamma, x0, n_steps, rng):
    """Fixed-parameter random scan Metropolis-within-Gibbs with Gaussian
    increments, one step at a time over the block draws of
    ``samplers.rs_mwg_run``: per block of ``samplers.DRAW_BLOCK`` steps, the
    coordinate uniforms, then the standard normals, then the accept
    uniforms.  Each step picks ``bisect_right(alpha.cumulative, u)``, moves
    by ``sqrt(gamma_i) * z`` and recomputes both conditional densities.
    Returns the per-step ``(coordinates, values, accepted)`` columns."""
    x = tuple(x0)
    coordinates, values, accepted = [], [], []
    for start in range(0, n_steps, samplers.DRAW_BLOCK):
        size = min(samplers.DRAW_BLOCK, n_steps - start)
        picks, normals, accepts = rng.random(size), rng.standard_normal(size), rng.random(size)
        for k in range(size):
            i = bisect_right(alpha.cumulative, float(picks[k]))
            xi = x[i]
            y = xi + math.sqrt(gamma[i]) * float(normals[k])
            ratio = target.conditional_density(i, x, y) / target.conditional_density(i, x, xi)
            ok = float(accepts[k]) < ratio
            if ok:
                x = x[:i] + (y,) + x[i + 1:]
            coordinates.append(i)
            values.append(x[i])
            accepted.append(ok)
    return np.array(coordinates, np.intp), np.array(values), np.array(accepted)
