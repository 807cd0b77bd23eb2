"""Straight-line reference computations that only the tests use.

Each one is the plain statement of a quantity that the package computes by a
faster or more specialised path, kept here so the fast path can be compared
with it.  Beside them, the three rules several test files apply: a rule's
record of what the loop used, the comparison of a result with its pin, and
bit-for-bit equality of two arrays.
"""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from adagibbs import bounds as bounds_module
from adagibbs import experiments, samplers
from adagibbs.bounds import ENTRYWISE_TOL, minorization_search, tv_lipschitz_bound
from adagibbs.kernels import (
    DistributionVector,
    TransitionMatrix,
    metropolis_kernel_matrix,
    single_coordinate_kernel,
)
from adagibbs.ladder import LadderTarget, _law_setup, ladder_update_rule
from adagibbs.targets import FiniteProductTarget
from adagibbs.weights import SelectionWeights, make_selection_weights


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


def coordinate_kernel_oracle(target, i: int) -> np.ndarray:
    """Coordinate ``i``'s Gibbs step as a dense matrix, state by state: each
    row's conditional probabilities placed at the states they move to."""
    index = {x: k for k, x in enumerate(target.states)}
    m = np.zeros((len(target.states),) * 2)
    for r, x in enumerate(target.states):
        values, probs = target.conditional(i, x)
        for v, p in zip(values, probs):
            m[r, index[x[:i] + (v,) + x[i + 1:]]] += p
    return m


def gibbs_kernel_oracle(target, alpha) -> np.ndarray:
    """Random scan Gibbs kernel by the dense route: ``m += alpha_i K_i`` over
    the dense coordinate kernels, in coordinate order."""
    m = np.zeros((len(target.states),) * 2)
    for i, wi in enumerate(alpha.weights):
        m += wi * coordinate_kernel_oracle(target, i)
    return m


def state_dependent_gibbs_kernel(target, weights_at):
    """Random scan Gibbs kernel whose selection weights ``weights_at(x)`` may
    depend on the current state ``x``: row ``x`` is ``sum_i w_i(x) K_i[x]``.

    One step of an adaptive rule ``alpha_n = R(n, X_{n-1})`` as an ordinary
    (time-frozen) kernel; it is generally not stationary for the target.
    """
    weights = np.array([weights_at(x).weights for x in target.states])
    m = np.zeros((len(target.states),) * 2)
    for i in range(target.d):
        m += weights[:, i, np.newaxis] * coordinate_kernel_oracle(target, i)
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
    written straight through over all ``n`` lags of
    :func:`autocovariance_oracle`: adjacent lag pairs of the autocorrelation
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


def truncated_ladder_target(truncation: int) -> FiniteProductTarget:
    """The ladder capped at ``truncation``, enumerated: the product of
    ``1 .. truncation`` with itself, filtered to the states (j, j) and
    (j + 1, j), with mass ``j**-2``."""
    values = range(1, truncation + 1)
    return FiniteProductTarget(
        (values, values), mass=lambda x: x[1] ** -2.0, support=lambda x: x[0] in (x[1], x[1] + 1)
    )


def dense_ladder_laws(truncation, a_of_n, n_steps):
    """``(target, laws)``: the adaptive ladder chain's laws at steps ``0 ..
    n_steps`` from (1, 1) on :func:`truncated_ladder_target`, each pushed by
    the dense kernel ``K_half + (4 / a_n) B``.  ``K_half`` is the half-half
    Gibbs kernel and ``B`` the difference of the two coordinate kernels,
    signed + on the diagonal states (where the rule favours the first
    coordinate) and - off it."""
    target = truncated_ladder_target(truncation)
    p1 = single_coordinate_kernel(target, 0).matrix
    p2 = single_coordinate_kernel(target, 1).matrix
    k_half = 0.5 * (p1 + p2)
    sign = np.array([1.0 if x[0] == x[1] else -1.0 for x in target.states])
    bias = sign[:, np.newaxis] * (p1 - p2)
    laws = [np.array([1.0 if x == (1, 1) else 0.0 for x in target.states])]
    for n in range(1, n_steps + 1):
        v = laws[-1]
        laws.append(v @ k_half + (4.0 / a_of_n(n)) * (v @ bias))
    return target, laws


def bounds_targets(config) -> tuple:
    """The random targets of a ``bounds`` config, drawn as the experiment
    draws them first; returns ``(rng, targets)``."""
    rng = samplers._generator(config.seed)
    targets = [
        experiments.random_finite_product_target(
            rng, int(rng.integers(2, experiments.BOUNDS_MAX_D + 1))
        )
        for _ in range(config.params["n_targets"])
    ]
    return rng, targets


def lipschitz_family_oracle(rng, targets, p) -> list:
    """Rows of the ``lipschitz`` family of ``bounds`` with parameters ``p``,
    one target at a time, each pair of weight vectors drawn from ``rng``
    just before its kernels are built.  No violation column."""
    rows = []
    for t_id, target in enumerate(targets):
        alpha = make_selection_weights(rng.dirichlet(np.ones(target.d)), p["epsilon"])
        alpha_prime = make_selection_weights(rng.dirichlet(np.ones(target.d)), p["epsilon"])
        a = gibbs_kernel_oracle(target, alpha)
        b = gibbs_kernel_oracle(target, alpha_prime)
        exact = 0.5 * float(np.abs(a - b).sum(axis=1).max())
        rows.append([t_id, target.d, exact, tv_lipschitz_bound(alpha, alpha_prime)])
    return rows


def uniform_family_oracle(rng, targets, p) -> list:
    """Rows of the ``uniform`` family of ``bounds`` with parameters ``p``, one
    weight draw at a time, each drawn from ``rng`` just before its horizon:
    each draw's kernel is powered step by step and the worst-row TV to the
    target read at each step.  The bound is looked up on ``adagibbs.bounds``,
    as the experiment does, so a test that replaces it there replaces it
    here too.  No violation column."""
    rows = []
    for t_id, target in enumerate(targets):
        beta = SelectionWeights((1.0 / target.d,) * target.d, p["epsilon"])
        p_beta = TransitionMatrix(target.states, gibbs_kernel_oracle(target, beta))
        cert = None
        for m in range(target.d, 2 * target.d + 1):
            cert = minorization_search(p_beta, m)
            if cert.s > 0.0:
                break
        pi = target.probabilities()
        bounds = [
            bounds_module.uniform_ergodicity_bound(cert, p["epsilon"], target.d, n)
            for n in range(1, p["horizon"] + 1)
        ]
        for a_id in range(p["n_alphas"]):
            alpha = make_selection_weights(rng.dirichlet(np.ones(target.d)), p["epsilon"])
            power = np.eye(len(target.states))
            kernel = gibbs_kernel_oracle(target, alpha)
            exacts = []
            for _ in bounds:
                power = power @ kernel
                exacts.append(0.5 * float(np.abs(power - pi).sum(axis=1).max()))
            margins = np.subtract(bounds, exacts)
            n = int(np.argmin(margins))  # the first worst step
            rows.append([t_id, a_id, cert.m, cert.s, exacts[n], bounds[n], float(margins[n])])
    return rows


def truncated_ladder_evolution_oracle(truncation, a_of_n, tv_target, max_steps) -> tuple:
    """``(trace, horizon)`` of the truncated ladder's law pushed one step at a
    time, with its TV to the target read after each step, until the first
    step below ``tv_target`` (the horizon) or ``max_steps``."""
    step, v, mass = _law_setup(truncation)
    pi = mass / mass.sum()
    trace = [0.5 * float(np.abs(v - pi).sum())]
    for n in range(1, max_steps + 1):
        v = step(v, a_of_n(n))
        trace.append(0.5 * float(np.abs(v - pi).sum()))
        if trace[-1] < tv_target:
            return np.array(trace), n
    return np.array(trace), None


def geometric_gap_oracle(p: float, n: int) -> tuple:
    """``(proposal_gap, kernel_gap)`` of the geometric-target example on the
    truncated space ``0 .. k_max``, with ``k_max`` the larger of ``n + 2`` and
    the point where the target's tail drops below 1e-12: both stage
    proposals renormalised there, their TV summed over every state, and two
    dense Metropolis kernels built from tiled proposal rows, of which the
    ``n -> 0`` entries are read."""
    k_max = max(n + 2, math.ceil(math.log(1e-12 * (1.0 - p)) / math.log(p)))
    grid = np.arange(k_max + 1, dtype=np.float64)

    def stage_pmf(stage):
        norm = 1.0 / (1.0 - p) - p**stage + p ** (2 * stage)
        q = p**grid / norm
        q[stage] = p ** (2 * stage) / norm
        return q / q.sum()

    q_n, q_next = stage_pmf(n), stage_pmf(n + 1)
    pi = p**grid * (1.0 - p)
    pi = pi / pi.sum()
    kernel_n = metropolis_kernel_matrix(pi, np.tile(q_n, (k_max + 1, 1)))
    kernel_next = metropolis_kernel_matrix(pi, np.tile(q_next, (k_max + 1, 1)))
    proposal_gap = 0.5 * float(np.abs(q_next - q_n).sum())
    return proposal_gap, float(kernel_next[n, 0] - kernel_n[n, 0])


def geometric_proposal_gap_fraction(p: float, n: int) -> Fraction:
    """The geometric-target example's proposal TV between stages ``n`` and
    ``n + 1``, exactly in rational arithmetic at the float ``p``: half the
    summed absolute differences of the two stage laws on the atoms ``n``,
    ``n + 1`` and the rest."""
    q = Fraction(p)
    whole = 1 / (1 - q)  # the unnormalised mass of the whole space
    laws = []
    for stage in (n, n + 1):
        masses = [q**n, q ** (n + 1)]
        masses[stage - n] = q ** (2 * stage)
        total = whole - q**stage + q ** (2 * stage)
        rest = total - sum(masses)
        laws.append([m / total for m in (*masses, rest)])
    return sum(abs(b - a) for a, b in zip(*laws)) / 2


def ladder_step_law_oracle(x, n: int) -> dict:
    """One-step law of the increment of ``X_1 + X_2 - 2`` at step ``n``,
    composed from the weight rule and the conditionals as the sampler
    executes them."""
    alpha = ladder_update_rule(n, None, x).weights
    law = {-1: 0.0, 0: 0.0, 1: 0.0}
    for coord in (0, 1):
        values, probs = LadderTarget().conditional(coord, x)
        for v, p in zip(values, probs):
            law[v - x[coord]] += alpha[coord] * p
    return law


def chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law with ``dof`` (a positive
    integer) degrees of freedom, in closed form with ``h = x / 2``: for even
    ``dof``, ``exp(-h)`` times the first ``dof / 2`` terms of the
    exponential series of ``h``; for odd ``dof``, ``erfc(sqrt(h))`` plus
    ``exp(-h)`` times the terms ``h**(k - 1/2) / Gamma(k + 1/2)``, ``k = 1
    .. (dof - 1) / 2``."""
    if dof < 1 or dof != int(dof):
        raise ValueError(f"dof must be a positive integer, got {dof!r}")
    h = x / 2.0
    if dof % 2 == 0:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= h / k
            total += term
        return math.exp(-h) * total
    term, total = math.sqrt(h) / math.gamma(1.5), 0.0
    for k in range(1, (dof + 1) // 2):
        total += term
        term *= h / (k + 0.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def kolmogorov_sf(t: float) -> float:
    """``P(K > t)`` for the Kolmogorov distribution: the alternating series
    ``2 sum_k (-1)**(k - 1) exp(-2 k**2 t**2)`` for ``t >= 1``, and below
    that one minus the Jacobi form ``sqrt(2 pi) / t sum_k exp(-(2k - 1)**2
    pi**2 / (8 t**2))``, each summed over ``k = 1 .. 100``."""
    if t <= 0.0:
        return 1.0
    if t >= 1.0:
        return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in range(1, 101))
    return 1.0 - math.sqrt(2.0 * math.pi) / t * math.fsum(
        math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * t * t)) for k in range(1, 101)
    )


def ks_normal_test(draws, mean: float, sd: float) -> tuple:
    """``(statistic, pvalue)`` of the Kolmogorov-Smirnov test of ``draws``
    against the normal law: the largest gap between the empirical
    distribution function and ``0.5 * erfc((mean - x) / (sd * sqrt(2)))``,
    and the Kolmogorov tail at ``sqrt(n)`` times it."""
    x = np.sort(np.asarray(draws, dtype=np.float64))
    n = len(x)
    cdf = np.array([0.5 * math.erfc((mean - v) / (sd * math.sqrt(2.0))) for v in x])
    d = max(float((np.arange(1, n + 1) / n - cdf).max()), float((cdf - np.arange(n) / n).max()))
    return d, kolmogorov_sf(math.sqrt(n) * d)
