"""Closed-form convergence bounds, each checkable against exact kernels.

Covers minorization certificates and the uniform-in-weights total variation
bound they imply, the Lipschitz dependence of a random scan kernel on its
selection weights, strong-uniform constants for reversible chains, transfer
of a systematic-scan certificate to the random scan sampler, the proposal-TV
versus kernel-TV comparison for Metropolis kernels, and the geometric-target
example showing why that comparison genuinely needs its side condition, on
Metropolis kernels from :func:`adagibbs.kernels.metropolis_kernel_matrix`.
Last, the ``bounds`` experiment's checks over random weight draws, which
power stacks of Gibbs kernels and read their exact worst-row TV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import (
    DistributionVector,
    TransitionMatrix,
    gibbs_kernel_matrix,
    metropolis_kernel_matrix,
    sup_row_tv,
    tv,
)
from .weights import SelectionWeights, _check_floor, make_selection_weights, sup_distance

ENTRYWISE_TOL = 1e-12


@dataclass(frozen=True)
class MinorizationCertificate:
    """Witness that an m-step kernel dominates ``s * mu`` from every state.

    ``s = 0`` encodes "no certificate at this m" (with ``mu`` absent) rather
    than an error, so searches can report failure explicitly.
    """

    m: int
    s: float
    mu: Optional[DistributionVector]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"certificate step count must be >= 1, got {self.m}")
        if not 0.0 <= self.s <= 1.0 + ENTRYWISE_TOL:
            raise ValueError(f"certificate mass must lie in [0, 1], got {self.s}")
        if self.s > 0.0 and self.mu is None:
            raise ValueError("a positive-mass certificate needs its measure")


def minorization_search(p: TransitionMatrix, m: int) -> MinorizationCertificate:
    """Best m-step certificate on a finite space.

    Columnwise minima of ``P^m`` give the maximal ``s`` and its measure: any
    valid pair satisfies ``s * mu_y <= min_x P^m(x, y)``, and summing the
    minima attains that bound.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    pm = np.linalg.matrix_power(p.matrix, m)
    col_min = pm.min(axis=0)
    s = float(col_min.sum())
    if s <= 0.0:
        return MinorizationCertificate(m, 0.0, None)
    mu = DistributionVector(p.states, col_min / s)
    return MinorizationCertificate(m, min(s, 1.0), mu)


def uniform_ergodicity_bound(
    cert: MinorizationCertificate, epsilon: float, d: int, n: int
) -> float:
    """Weight-independent TV bound after ``n`` steps of any floored-simplex
    random scan sampler, given a certificate for one of them.

    Any admissible weight vector mixes over the certified one with
    coefficient at least ``eps / (1 - (d-1) eps)`` per step, so the m-step
    minorization survives with mass ``(eps/(1-(d-1)eps))^m * s`` and the
    classical bound ``(1 - mass)^{floor(n/m)}`` applies uniformly.
    """
    if not 0.0 < cert.s <= 1.0:
        raise ValueError(f"bound needs a certificate mass in (0, 1], got {cert.s}")
    _check_floor(epsilon, d)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    floor_ratio = epsilon / (1.0 - (d - 1) * epsilon)
    mass = floor_ratio**cert.m * cert.s
    return (1.0 - mass) ** (n // cert.m)


def tv_lipschitz_bound(alpha: SelectionWeights, alpha_prime: SelectionWeights) -> float:
    """Bound on the worst-row TV distance between two random scan kernels
    that differ only in their selection weights, on their common floor.

    Uses the sup norm for the weight gap; the bound is
    ``delta / (epsilon + delta) <= delta / epsilon``.  Weights on two floors
    raise ``ValueError``.
    """
    if alpha.epsilon != alpha_prime.epsilon:
        raise ValueError(
            f"weights on two floors: {alpha.epsilon!r} and {alpha_prime.epsilon!r}"
        )
    delta = sup_distance(alpha.weights, alpha_prime.weights)
    return delta / (alpha.epsilon + delta)


def strong_uniform_constants(m: int, s: float) -> tuple:
    """Upgrade a reversible chain's certificate to one against its own
    stationary law: ``(m*, s*) = ((floor(log(s/4)/log(1-s)) + 2) m, s^2/8)``.

    The ratio is nudged by 1e-9 before flooring: at arguments where it is an
    exact integer the float quotient can land a hair below it, and the
    resulting larger multiplier is always valid (any k >= the ratio works).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"strong-uniform constants need s in (0, 1), got {s}")
    k = math.floor(math.log(s / 4.0) / math.log(1.0 - s) + 1e-9) + 2
    return (k * m, s * s / 8.0)


def systematic_to_random_scan(cert: MinorizationCertificate, d: int) -> MinorizationCertificate:
    """Transfer a systematic-scan certificate to the uniform random scan.

    In ``m * d`` random steps the probability of reproducing ``m`` full
    sweeps in order is ``(1/d)^{m d}``, so the certificate survives with that
    factor on the mass.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return MinorizationCertificate(
        cert.m * d, (1.0 / d) ** (cert.m * d) * cert.s, cert.mu
    )


def proposal_vs_kernel_tv(
    pi: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    mode: str = "symmetric",
) -> tuple:
    """Both sides of the proposal-to-kernel TV comparison, exactly.

    Returns ``(lhs, rhs)`` where ``lhs`` is the worst-row TV distance between
    the two Metropolis kernels and ``rhs`` the guaranteed dominating multiple
    of the worst-row proposal TV distance: ``2x`` for symmetric proposal
    densities, ``4 (K + 1) x`` where ``K = max(pi) / min(pi)`` bounds the
    target ratio ``pi(y)/pi(x)``.
    """
    pi = np.asarray(pi, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    proposal_gap = sup_row_tv(q1, q2)
    if mode == "symmetric":
        for name, q in (("first", q1), ("second", q2)):
            if np.abs(q - q.T).max() > ENTRYWISE_TOL:
                raise ValueError(f"{name} proposal is not symmetric")
        rhs = 2.0 * proposal_gap
    elif mode == "bounded":
        rhs = 4.0 * (float(pi.max() / pi.min()) + 1.0) * proposal_gap
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lhs = sup_row_tv(
        metropolis_kernel_matrix(pi, q1), metropolis_kernel_matrix(pi, q2)
    )
    return lhs, rhs


@dataclass(frozen=True)
class GeometricGap:
    """One point of the geometric-target example: proposals converge, kernels don't."""

    p: float
    n: int
    proposal_gap: float
    kernel_gap: float
    k_max: int


GEOMETRIC_TAIL_MASS = 1e-12


def geometric_counterexample_gap(p: float, n: int) -> GeometricGap:
    """Proposal-TV and kernel-TV gaps for the geometric-target example.

    The independence proposal at stage ``n`` follows the target
    ``pi(k) = p^k (1 - p)`` except at the single point ``k = n`` where its
    mass is crushed to ``p^{2n}`` (common normaliser
    ``1/(1-p) - p^n + p^{2n}``).  Successive proposals converge in TV, yet
    the Metropolis kernels they induce do not: the exit probability from
    state ``n`` to 0 jumps by an amount approaching ``1 - p``.  Computed on
    the space truncated where the geometric tail drops below
    ``GEOMETRIC_TAIL_MASS``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k_tail = int(math.ceil(math.log(GEOMETRIC_TAIL_MASS * (1.0 - p)) / math.log(p)))
    k_max = max(n + 2, k_tail)
    grid = np.arange(k_max + 1)

    def stage_pmf(stage: int) -> np.ndarray:
        norm = 1.0 / (1.0 - p) - p**stage + p ** (2 * stage)
        q = p**grid.astype(np.float64) / norm
        q[stage] = p ** (2 * stage) / norm
        return q / q.sum()

    q_n = stage_pmf(n)
    q_next = stage_pmf(n + 1)
    proposal_gap = tv(q_next, q_n)

    pi = p**grid.astype(np.float64) * (1.0 - p)
    pi = pi / pi.sum()
    kernel_n = metropolis_kernel_matrix(pi, np.tile(q_n, (k_max + 1, 1)))
    kernel_next = metropolis_kernel_matrix(pi, np.tile(q_next, (k_max + 1, 1)))
    kernel_gap = float(kernel_next[n, 0] - kernel_n[n, 0])
    return GeometricGap(p=p, n=n, proposal_gap=proposal_gap, kernel_gap=kernel_gap, k_max=k_max)


# ---------------------------------------------------------------------------
# the bounds experiment's checks over random weight draws


# The uniform family advances its weight draws in stacks of as many draws as
# fit in this many bytes at 8 * (S**2 + horizon) bytes a draw: its kernel or
# power on S states, and its column of the horizon's tables.  So no stacked
# array is larger, unless one draw alone is.
STACK_BYTES = 32 * 1024


def _uniform_target(target, epsilon: float, horizon: int, bound) -> tuple:
    """``(m, s, bounds, pi)`` of one target: the steps and mass of the first
    positive minorization certificate of its uniform-weight kernel over
    ``m = d .. 2d``, ``bound(cert, epsilon, d, n)`` at each step ``n = 1 ..
    horizon``, and the target law."""
    beta = SelectionWeights((1.0 / target.d,) * target.d, epsilon)
    p_beta = gibbs_kernel_matrix(target, beta)
    cert = None
    for m in range(target.d, 2 * target.d + 1):
        cert = minorization_search(p_beta, m)
        if cert.s > 0.0:
            break
    # The bound holds for every weight vector on the floor: one per step.
    bounds = np.array([bound(cert, epsilon, target.d, n) for n in range(1, horizon + 1)])
    return cert.m, cert.s, bounds, target.probabilities()


def _worst_steps(stack: list, epsilon: float, horizon: int) -> list:
    """``(exact, bound, margin)`` at the first worst step of each weight draw
    of ``stack``, a list of ``(target, raw weights, bounds, pi)`` on targets
    of one state count: their kernels are powered together, one stacked
    matmul and one worst-row TV per draw per step."""
    size = len(stack[0][0].states)
    kernels = np.empty((len(stack), size, size))
    for g, (target, raw, _, _) in enumerate(stack):
        alpha = make_selection_weights(raw, epsilon)
        kernels[g] = gibbs_kernel_matrix(target, alpha).matrix
    pis = np.stack([pi for *_, pi in stack])[:, np.newaxis, :]
    exacts = np.empty((horizon, len(stack)))
    power = np.eye(size)
    for n in range(horizon):
        power = power @ kernels
        exacts[n] = sup_row_tv(power, pis)
    del kernels, power  # before the tables, which peak beside them otherwise
    margins = np.stack([bounds for _, _, bounds, _ in stack], axis=1)
    margins -= exacts
    worst = np.argmin(margins, axis=0)  # the first worst step
    return [
        (float(exacts[n, g]), float(stack[g][2][n]), float(margins[n, g]))
        for g, n in enumerate(worst)
    ]


def _lipschitz_row(t: int, target, pair: np.ndarray, epsilon: float, bound) -> list:
    """``[t, d, exact, bound]`` for one pair of weight vectors on one target."""
    alpha, alpha_prime = (make_selection_weights(raw[:target.d], epsilon) for raw in pair)
    exact = sup_row_tv(
        gibbs_kernel_matrix(target, alpha).matrix,
        gibbs_kernel_matrix(target, alpha_prime).matrix,
    )
    return [t, target.d, exact, bound(alpha, alpha_prime)]


def _weight_family_rows(
    targets: list, pairs, draws, p: dict, lipschitz_bound, uniform_bound
) -> tuple:
    """Rows of the ``bounds`` experiment's ``lipschitz`` and ``uniform``
    families, in target order, from weight vectors drawn beforehand
    (``None`` for a family not run), checking ``lipschitz_bound`` (as
    :func:`tv_lipschitz_bound`) and ``uniform_bound`` (as
    :func:`uniform_ergodicity_bound`).  The experiment passes in the bounds
    it names, so that replacing one there replaces the one checked.

    The targets are visited by state count, smallest first.  A group's
    lipschitz pairs come first, then its uniform draws run their horizon in
    stacks of at most :data:`STACK_BYTES` per stacked array, and for each
    the step where the bound's margin over the exact worst-row TV is
    smallest is kept.  The group's targets are then dropped from
    ``targets``, and their conditional tables with them; the caller does
    not read the list again.  Cells are Python numbers.
    """
    epsilon, horizon, n_alphas = p["epsilon"], p["horizon"], p["n_alphas"]
    groups: dict = {}
    for t, target in enumerate(targets):
        groups.setdefault(len(target.states), []).append(t)
    lipschitz = None if pairs is None else [None] * len(targets)
    uniform = None if draws is None else [None] * len(draws)
    for size, members in sorted(groups.items()):
        if pairs is not None:
            for t in members:
                pair = pairs[2 * t:2 * t + 2]
                lipschitz[t] = _lipschitz_row(t, targets[t], pair, epsilon, lipschitz_bound)
        if draws is not None:
            group = [k for t in members for k in range(t * n_alphas, (t + 1) * n_alphas)]
            per_stack = max(1, STACK_BYTES // (8 * (size * size + horizon)))
            per_target: dict = {}
            for start in range(0, len(group), per_stack):
                stack = group[start:start + per_stack]
                owners = [k // n_alphas for k in stack]
                # a target whose draws ran on in the last stack keeps its entry
                per_target = {
                    t: per_target[t] if t in per_target
                    else _uniform_target(targets[t], epsilon, horizon, uniform_bound)
                    for t in dict.fromkeys(owners)
                }
                worst = _worst_steps([
                    (targets[t], draws[k, :targets[t].d], *per_target[t][2:])
                    for t, k in zip(owners, stack)
                ], epsilon, horizon)
                for t, k, cells in zip(owners, stack, worst):
                    uniform[k] = [t, k % n_alphas, *per_target[t][:2], *cells]
        for t in members:
            targets[t] = None
    return lipschitz, uniform
