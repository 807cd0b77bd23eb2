"""Closed-form convergence bounds, each checkable against exact kernels.

Covers minorization certificates and the uniform-in-weights total variation
bound they imply, the Lipschitz dependence of a random scan kernel on its
selection weights, strong-uniform constants for reversible chains, transfer
of a systematic-scan certificate to the random scan sampler, the proposal-TV
versus kernel-TV comparison for Metropolis kernels, and the geometric-target
example showing why that comparison genuinely needs its side condition, on
Metropolis kernels from :func:`adagibbs.kernels.metropolis_kernel_matrix`.
The example is exact on its infinite space through two reductions: its
proposal TV on three atoms, and each kernel value on two states.
Last, the ``bounds`` experiment's checks over random weight draws, which
mix each kernel from its target's coordinate moves, power stacks of them,
and read their exact worst-row TV at step 1 and where the bound steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import (
    DistributionVector,
    TransitionMatrix,
    coordinate_moves,
    metropolis_kernel_matrix,
    mix_coordinate_moves,
    sup_row_tv,
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
    cert: MinorizationCertificate, epsilon: float, d: int, n: int | np.ndarray
) -> float | np.ndarray:
    """Weight-independent TV bound after ``n`` steps of any floored-simplex
    random scan sampler, given a certificate for one of them.

    Any admissible weight vector mixes over the certified one with
    coefficient at least ``eps / (1 - (d-1) eps)`` per step, so the m-step
    minorization survives with mass ``(eps/(1-(d-1)eps))^m * s`` and the
    classical bound ``(1 - mass)^{floor(n/m)}`` applies uniformly.

    An integer ``n`` gives a Python float; a 1-D integer array of steps
    gives an array of the bound at each, equal to the scalar calls: Python's
    float power once per distinct exponent, as numpy's can differ from it in
    the last bit.
    """
    if not 0.0 < cert.s <= 1.0:
        raise ValueError(f"bound needs a certificate mass in (0, 1], got {cert.s}")
    _check_floor(epsilon, d)
    regenerations = np.asarray(n) // cert.m
    if regenerations.min(initial=0) < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    floor_ratio = epsilon / (1.0 - (d - 1) * epsilon)
    mass = floor_ratio**cert.m * cert.s
    if regenerations.ndim == 0:
        return (1.0 - mass) ** int(regenerations)
    counts = regenerations.tolist()
    powers = {k: (1.0 - mass) ** k for k in set(counts)}
    return np.array([powers[k] for k in counts])


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

    proposal_gap: float
    kernel_gap: float


def geometric_mass_is_normal(p: float, n: int) -> bool:
    """Whether the geometric target's mass ``pi(n) = p^n (1 - p)`` is a normal
    float: the one limit of :func:`geometric_counterexample_gap` at ``(p, n)``.
    Within it ``pi(n)`` is full precision, and so is the stage-``n + 1``
    proposal's mass at ``n``, which is at least ``pi(n)``; past it ``pi(n)``
    loses bits, then underflows to 0."""
    return p**n * (1.0 - p) >= sys.float_info.min


def geometric_counterexample_gap(p: float, n: int) -> GeometricGap:
    """Proposal-TV and kernel-TV gaps for the geometric-target example.

    The independence proposal at stage ``n`` follows the target
    ``pi(k) = p^k (1 - p)`` on ``k = 0, 1, ...`` except at the single point
    ``k = n``, where its mass is crushed to ``p^{2n}`` (normaliser
    ``Z_n = 1/(1-p) - p^n + p^{2n}``).  Successive proposals converge in TV,
    yet the Metropolis kernels they induce do not: the exit probability from
    state ``n`` to 0 jumps by an amount approaching ``1 - p``.

    Both gaps are exact on the infinite space, through two reductions.  Off
    ``n`` and ``n + 1`` the stage-``n`` and stage-``n + 1`` proposals differ by
    the one factor ``Z_n / Z_{n+1}``, so their differences there share a sign
    and the TV on the three atoms ``n``, ``n + 1`` and the rest is the TV on
    the whole space.  An independence proposal's move ``n -> 0`` reads only
    ``pi(n)``, ``pi(0)`` and the proposal masses at ``n`` and 0, so each
    kernel value is the ``n -> 0`` entry of the Metropolis kernel on the two
    states ``(n, 0)``.  Raises ``ValueError`` unless
    :func:`geometric_mass_is_normal` holds at ``(p, n)``.
    """
    if not (0.0 < p < 1.0 and n >= 1 and geometric_mass_is_normal(p, n)):
        raise ValueError(f"need 0 < p < 1, n >= 1 and p**n (1 - p) normal; got p={p}, n={n}")
    pi = np.array([p**n * (1.0 - p), 1.0 - p])
    laws, totals, exits = [], [], []
    for s in (n, n + 1):
        # stage s's unnormalised masses at n, n + 1 and the rest; at 0 it is 1
        masses = np.array([p**n, p ** (n + 1), 1.0 / (1.0 - p) - p**n - p ** (n + 1)])
        masses[s - n] = p ** (2 * s)
        total = masses.sum()
        law = masses / total
        row = [law[0], 1.0 / total]
        laws.append(law)
        totals.append(total)
        exits.append(metropolis_kernel_matrix(pi, np.array([row, row]))[0, 1])
    diffs = laws[1] - laws[0]
    # The rest's two probabilities are near 1, and their difference would lose
    # its leading digits once p**n < ~1e-16.  Its mass is the same at both
    # stages, so the difference is that mass times Z_n - Z_{n+1} =
    # -p^n (1 - p) (1 - p^n (1 + p)), over Z_n Z_{n+1}.
    z_drop = -(p**n) * (1.0 - p) * (1.0 - p**n * (1.0 + p))
    diffs[2] = masses[2] * z_drop / (totals[0] * totals[1])
    return GeometricGap(
        proposal_gap=0.5 * float(np.abs(diffs).sum()), kernel_gap=float(exits[1] - exits[0])
    )


# ---------------------------------------------------------------------------
# the bounds experiment's checks over random weight draws


# The uniform family advances its weight draws in stacks of as many draws as
# fit in this many bytes at 8 * (S**2 + horizon) bytes a draw: its kernel or
# power on S states, and its column of the horizon's bound table.  So no
# stacked array is larger, unless one draw alone is.
STACK_BYTES = 32 * 1024


def _moves(target) -> list:
    """Every coordinate's moves of ``target``, built once for a family of
    kernels on it."""
    return [coordinate_moves(target, i) for i in range(target.d)]


def _uniform_target(target, epsilon: float, horizon: int) -> tuple:
    """``(m, s, bounds, pi, moves)`` of one target: the steps and mass of the
    first positive minorization certificate of its uniform-weight kernel
    over ``m = d .. 2d``, :func:`uniform_ergodicity_bound` at the steps
    ``1 .. horizon``, the target law, and the coordinate moves that every
    kernel of the family mixes."""
    moves = _moves(target)
    beta = SelectionWeights((1.0 / target.d,) * target.d, epsilon)
    p_beta = TransitionMatrix(
        target.states, mix_coordinate_moves(moves, beta.weights, len(target.states))
    )
    cert = None
    for m in range(target.d, 2 * target.d + 1):
        cert = minorization_search(p_beta, m)
        if cert.s > 0.0:
            break
    # The bound holds for every weight vector on the floor: one call for the horizon.
    bounds = uniform_ergodicity_bound(cert, epsilon, target.d, np.arange(1, horizon + 1))
    return cert.m, cert.s, bounds, target.probabilities(), moves


def _worst_steps(kernels: np.ndarray, bounds: np.ndarray, pis: np.ndarray) -> list:
    """``(exact, bound, margin)`` at the first worst step of each of a stack
    of kernels ``(G, S, S)``, with their bounds ``(horizon, G)`` and target
    laws ``(G, 1, S)``: the kernels are powered together, one stacked
    matmul per step.

    The worst-row TV of a ``pi``-stationary kernel's powers to ``pi`` cannot
    rise with the step, so on a run of steps where no kernel's bound changes
    each margin is smallest at the run's first step.  The exact TV is read
    there alone, at step 1 and wherever a bound changes, and the powering
    stops at the last such step."""
    reads = [0, *(1 + np.flatnonzero((bounds[1:] != bounds[:-1]).any(axis=1))).tolist()]
    exacts = np.empty((len(reads), len(kernels)))
    power = np.eye(kernels.shape[-1])
    done = 0
    for r, n in enumerate(reads):  # step n + 1
        for _ in range(done, n + 1):
            power = power @ kernels
        done = n + 1
        exacts[r] = sup_row_tv(power, pis)
    margins = bounds[reads] - exacts
    worst = np.argmin(margins, axis=0)  # the first worst step
    return [
        (float(exacts[r, g]), float(bounds[reads[r], g]), float(margins[r, g]))
        for g, r in enumerate(worst)
    ]


def _uniform_rows(targets: list, members: list, draws, p: dict) -> dict:
    """The ``uniform`` rows of the weight draws of ``members``, targets of one
    state count, by draw: the draws run their horizon in stacks of at most
    :data:`STACK_BYTES` per stacked array, and for each the step where the
    bound's margin over the exact worst-row TV is smallest is kept.  A
    target's moves are built once, and dropped once its last draw's kernel
    is mixed."""
    epsilon, horizon, n_alphas = p["epsilon"], p["horizon"], p["n_alphas"]
    size = len(targets[members[0]].states)
    group = [k for t in members for k in range(t * n_alphas, (t + 1) * n_alphas)]
    per_stack = max(1, STACK_BYTES // (8 * (size * size + horizon)))
    rows: dict = {}
    per_target: dict = {}
    for start in range(0, len(group), per_stack):
        stack = group[start:start + per_stack]
        owners = [k // n_alphas for k in stack]
        # a target whose draws ran on in the last stack keeps its entry
        per_target = {
            t: per_target[t] if t in per_target
            else _uniform_target(targets[t], epsilon, horizon)
            for t in dict.fromkeys(owners)
        }
        kernels = np.empty((len(stack), size, size))
        for g, (t, k) in enumerate(zip(owners, stack)):
            weights = make_selection_weights(draws[k, :targets[t].d], epsilon).weights
            kernels[g] = mix_coordinate_moves(per_target[t][4], weights, size)
        bounds = np.stack([per_target[t][2] for t in owners], axis=1)
        pis = np.stack([per_target[t][3] for t in owners])[:, np.newaxis, :]
        certs = [per_target[t][:2] for t in owners]
        if (stack[-1] + 1) % n_alphas == 0:  # no target here has a draw left
            per_target = {}
        worst = _worst_steps(kernels, bounds, pis)
        for t, k, cert, cells in zip(owners, stack, certs, worst):
            rows[k] = [t, k % n_alphas, *cert, *cells]
        del kernels  # before the next stack's targets are built
    return rows


def _lipschitz_row(t: int, target, pair: np.ndarray, epsilon: float) -> list:
    """``[t, d, exact, bound]`` for one pair of weight vectors on one target."""
    alpha, alpha_prime = (make_selection_weights(raw[:target.d], epsilon) for raw in pair)
    moves, size = _moves(target), len(target.states)
    exact = sup_row_tv(
        mix_coordinate_moves(moves, alpha.weights, size),
        mix_coordinate_moves(moves, alpha_prime.weights, size),
    )
    return [t, target.d, exact, tv_lipschitz_bound(alpha, alpha_prime)]


def _weight_family_rows(targets: list, pairs, draws, p: dict) -> tuple:
    """Rows of the ``bounds`` experiment's ``lipschitz`` and ``uniform``
    families, in target order, from weight vectors drawn beforehand
    (``None`` for a family not run), checking :func:`tv_lipschitz_bound`
    and :func:`uniform_ergodicity_bound` (called once per target on every
    step of the horizon), as this module names them.

    The targets are visited by state count, smallest first.  A group's
    lipschitz pairs come first, then its uniform draws (see
    :func:`_uniform_rows`).  Each family builds a target's coordinate moves
    once and mixes every kernel it needs on the target from them.  The
    group's targets are then dropped from ``targets``, and their
    conditional tables with them; the caller does not read the list again.
    Cells are Python numbers.
    """
    groups: dict = {}
    for t, target in enumerate(targets):
        groups.setdefault(len(target.states), []).append(t)
    lipschitz = None if pairs is None else [None] * len(targets)
    uniform = None if draws is None else [None] * len(draws)
    for _, members in sorted(groups.items()):
        if pairs is not None:
            for t in members:
                pair = pairs[2 * t:2 * t + 2]
                lipschitz[t] = _lipschitz_row(t, targets[t], pair, p["epsilon"])
        if draws is not None:
            for k, row in _uniform_rows(targets, members, draws, p).items():
                uniform[k] = row
        for t in members:
            targets[t] = None
    return lipschitz, uniform
