"""Closed-form convergence bounds, each checkable against exact kernels.

Covers minorization certificates and the uniform-in-weights total variation
bound they imply, the Lipschitz dependence of a random scan kernel on its
selection weights, strong-uniform constants for reversible chains, transfer
of a systematic-scan certificate to the random scan sampler, the proposal-TV
versus kernel-TV comparison for Metropolis kernels, and the geometric-target
example showing why that comparison genuinely needs its side condition, on
Metropolis kernels from :func:`adagibbs.kernels.metropolis_kernel_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import DistributionVector, TransitionMatrix, metropolis_kernel_matrix, sup_row_tv, tv
from .weights import SelectionWeights, _check_floor, sup_distance

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
