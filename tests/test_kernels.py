import itertools

import numpy as np
import pytest

from adagibbs.kernels import (
    DistributionVector,
    EnumerationMismatchError,
    StationaryConvergenceError,
    TransitionMatrix,
    exact_marginal_evolution,
    gibbs_kernel_matrix,
    kernel_tv_sup,
    mwg_kernel_matrix,
    random_reversible_chain,
    single_coordinate_kernel,
    state_dependent_gibbs_kernel,
    stationary_distribution,
    sup_row_tv,
    systematic_scan_kernel,
    tv,
    tv_distance,
)
from adagibbs.targets import FiniteProductTarget
from adagibbs.weights import SelectionWeights, make_selection_weights


def ladder_target(rng, size=4):
    """Two coordinates restricted to the ladder ``x0 in {x1, x1 + 1}``."""
    coords = (tuple(range(1, size + 1)),) * 2
    masses = {x: float(np.exp(rng.normal())) for x in itertools.product(*coords)}
    return FiniteProductTarget(
        coords, masses.__getitem__, support=lambda x: x[0] in (x[1], x[1] + 1)
    )


def uniform_two_bit_target():
    return FiniteProductTarget(((0, 1), (0, 1)), mass=lambda x: 1.0)


def random_target(rng, d=2, sizes=(3, 3)):
    coords = [tuple(range(s)) for s in sizes[:d]]
    masses = {x: float(np.exp(rng.normal())) for x in itertools.product(*coords)}
    return FiniteProductTarget(coords, masses.__getitem__)


def test_distribution_vector_validation():
    with pytest.raises(ValueError):
        DistributionVector(((0,), (1,)), [0.7, 0.4])
    with pytest.raises(ValueError):
        DistributionVector(((0,), (1,)), [1.2, -0.2])


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(((0,), (1,)), [[0.5, 0.4], [0.5, 0.5]])


def test_tv_distance_examples():
    states = ((0,), (1,))
    p = DistributionVector(states, [0.5, 0.5])
    q = DistributionVector(states, [1.0, 0.0])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(0.5)
    assert type(tv(p.probs, q.probs)) is float  # a data-file cell, not a numpy repr
    disjoint_a = DistributionVector(((0,), (1,), (2,)), [1.0, 0.0, 0.0])
    disjoint_b = DistributionVector(((0,), (1,), (2,)), [0.0, 0.3, 0.7])
    assert tv_distance(disjoint_a, disjoint_b) == pytest.approx(1.0)
    with pytest.raises(EnumerationMismatchError):
        tv_distance(p, DistributionVector(((0,), (2,)), [0.5, 0.5]))


def test_kernel_tv_sup_examples():
    states = ((0,), (1,))
    eye = TransitionMatrix(states, np.eye(2))
    flip = TransitionMatrix(states, [[0.0, 1.0], [1.0, 0.0]])
    assert kernel_tv_sup(eye, eye) == 0.0
    assert kernel_tv_sup(flip, eye) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(4), size=4)
    b = rng.dirichlet(np.ones(4), size=4)
    states4 = tuple((k,) for k in range(4))
    p1 = TransitionMatrix(states4, a)
    p2 = TransitionMatrix(states4, b)
    brute = max(0.5 * np.abs(a[r] - b[r]).sum() for r in range(4))
    assert kernel_tv_sup(p1, p2) == pytest.approx(brute, abs=1e-15)
    assert type(sup_row_tv(a, b)) is float  # a data-file cell, not a numpy repr
    # a vector is compared with every row
    to_first = max(0.5 * np.abs(a[r] - b[0]).sum() for r in range(4))
    assert sup_row_tv(a, b[0]) == pytest.approx(to_first, abs=1e-15)


def test_gibbs_kernel_single_state_space_is_identity():
    target = FiniteProductTarget(((0,), (0,)), mass=lambda x: 1.0)
    kernel = gibbs_kernel_matrix(target, SelectionWeights((0.5, 0.5), 0.5))
    np.testing.assert_allclose(kernel.matrix, np.eye(1))


def test_gibbs_kernel_uniform_two_bit():
    target = uniform_two_bit_target()
    kernel = gibbs_kernel_matrix(target, SelectionWeights((0.5, 0.5), 0.5))
    # every row: 0.25 to each single-coordinate flip, 0.5 stays
    index = {x: k for k, x in enumerate(kernel.states)}
    for x in kernel.states:
        row = kernel.matrix[index[x]]
        assert row[index[x]] == pytest.approx(0.5)
        for i in range(2):
            y = tuple(1 - v if k == i else v for k, v in enumerate(x))
            assert row[index[y]] == pytest.approx(0.25)
    pi = target.probabilities()
    np.testing.assert_allclose(pi @ kernel.matrix, pi, atol=1e-15)


def brute_force_gibbs_row(target, alpha, x):
    """Direct enumeration of one step: choose i, redraw coordinate i."""
    row = {}
    for i, w in enumerate(alpha):
        values, probs = target.conditional(i, x)
        for v, p in zip(values, probs):
            y = x[:i] + (v,) + x[i + 1:]
            row[y] = row.get(y, 0.0) + w * p
    return row


def test_gibbs_kernel_matches_brute_force_enumeration():
    rng = np.random.default_rng(3)
    target = random_target(rng, 2, (3, 4))
    alpha = make_selection_weights((0.3, 0.7), 0.1)
    kernel = gibbs_kernel_matrix(target, alpha)
    index = {x: k for k, x in enumerate(kernel.states)}
    for x in kernel.states:
        expected = brute_force_gibbs_row(target, alpha.weights, x)
        for y, p in expected.items():
            assert kernel.matrix[index[x], index[y]] == pytest.approx(p, abs=1e-14)


def test_truncated_ladder_row_hand_enumeration():
    ladder = FiniteProductTarget(
        ((1, 2, 3), (1, 2, 3)),
        mass=lambda x: x[1] ** -2.0,
        support=lambda x: x[0] == x[1] or x[0] == x[1] + 1,
    )
    a1, a2 = 0.6, 0.4
    kernel = gibbs_kernel_matrix(ladder, make_selection_weights((a1, a2), 0.1))
    index = {x: k for k, x in enumerate(kernel.states)}
    # Row at (1, 1): coordinate 1 moves uniformly over {(1,1),(2,1)};
    # coordinate 2 is a point mass at j=1.
    row = kernel.matrix[index[(1, 1)]]
    assert row[index[(1, 1)]] == pytest.approx(a1 / 2 + a2)
    assert row[index[(2, 1)]] == pytest.approx(a1 / 2)
    # Row at (2, 2): down move has conditional mass 4/5 on j=1.
    row = kernel.matrix[index[(2, 2)]]
    assert row[index[(2, 1)]] == pytest.approx(a2 * 4.0 / 5.0)
    assert row[index[(3, 2)]] == pytest.approx(a1 / 2)
    assert row[index[(2, 2)]] == pytest.approx(1 - a2 * 4 / 5 - a1 / 2)
    # Row at (2, 1): up move through coordinate 2 carries mass 1/5.
    row = kernel.matrix[index[(2, 1)]]
    assert row[index[(1, 1)]] == pytest.approx(a1 / 2)
    assert row[index[(2, 2)]] == pytest.approx(a2 / 5.0)
    pi = ladder.probabilities()
    np.testing.assert_allclose(pi @ kernel.matrix, pi, atol=1e-15)


def test_gibbs_kernel_reversible_and_stationary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        target = random_target(rng, 2, (int(rng.integers(2, 4)), int(rng.integers(2, 4))))
        alpha = make_selection_weights(rng.dirichlet(np.ones(2)), 0.1)
        kernel = gibbs_kernel_matrix(target, alpha)
        pi = target.probabilities()
        assert np.abs(pi @ kernel.matrix - pi).sum() <= 1e-10
        flux = pi[:, None] * kernel.matrix
        assert np.abs(flux - flux.T).max() <= 1e-10


def test_single_coordinate_kernel_matches_per_state_loop():
    rng = np.random.default_rng(4)
    for target in (random_target(rng, 2, (3, 4)), ladder_target(rng, 6)):
        index = {x: k for k, x in enumerate(target.states)}
        for i in range(target.d):
            expected = np.zeros((len(target.states),) * 2)
            for r, x in enumerate(target.states):
                values, probs = target.conditional(i, x)
                for v, p in zip(values, probs):
                    expected[r, index[x[:i] + (v,) + x[i + 1:]]] += p
            kernel = single_coordinate_kernel(target, i)
            np.testing.assert_array_equal(kernel.matrix, expected)


def test_state_dependent_kernel_reduces_to_constant():
    rng = np.random.default_rng(6)
    target = random_target(rng)
    alpha = make_selection_weights((0.25, 0.75), 0.1)
    fixed = gibbs_kernel_matrix(target, alpha)
    state_dep = state_dependent_gibbs_kernel(target, lambda x: alpha)
    np.testing.assert_allclose(state_dep.matrix, fixed.matrix, atol=1e-15)


def identity_proposals(target):
    return [np.eye(len(c)) for c in target.coordinate_states]


def symmetric_proposals(target, rng):
    out = []
    for c in target.coordinate_states:
        n = len(c)
        u = rng.uniform(0.1, 1.0, size=(n, n))
        q = 0.5 * (u + u.T)
        q = q / q.sum(axis=1, keepdims=True)
        # symmetrise exactly after normalisation by averaging again
        q = 0.5 * (q + q.T)
        q = q + np.diag(1.0 - q.sum(axis=1))
        out.append(q)
    return out


def test_mwg_identity_proposals_give_identity_kernel():
    rng = np.random.default_rng(7)
    target = random_target(rng)
    kernel = mwg_kernel_matrix(
        target, make_selection_weights((0.5, 0.5), 0.1), identity_proposals(target)
    )
    np.testing.assert_allclose(kernel.matrix, np.eye(len(target.states)))


def test_mwg_two_point_symmetric_acceptance():
    # one coordinate, two values, symmetric flip proposal: acceptance is
    # min(1, mass ratio)
    target = FiniteProductTarget(((0, 1),), mass=lambda x: 3.0 if x[0] else 1.0)
    proposal = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    kernel = mwg_kernel_matrix(target, SelectionWeights((1.0,), 1.0), proposal)
    index = {x: k for k, x in enumerate(kernel.states)}
    assert kernel.matrix[index[(0,)], index[(1,)]] == pytest.approx(1.0)
    assert kernel.matrix[index[(1,)], index[(0,)]] == pytest.approx(1.0 / 3.0)
    assert kernel.matrix[index[(1,)], index[(1,)]] == pytest.approx(2.0 / 3.0)


def test_mwg_random_target_stationary_and_reversible():
    rng = np.random.default_rng(8)
    for k in range(10):
        target = random_target(rng, 2, (3, 3)) if k % 2 else ladder_target(rng)
        alpha = make_selection_weights(rng.dirichlet(np.ones(2)), 0.1)
        kernel = mwg_kernel_matrix(target, alpha, symmetric_proposals(target, rng))
        assert np.abs(kernel.matrix.sum(axis=1) - 1.0).max() <= 1e-12
        pi = target.probabilities()
        assert np.abs(pi @ kernel.matrix - pi).sum() <= 1e-12
        flux = pi[:, None] * kernel.matrix
        assert np.abs(flux - flux.T).max() <= 1e-10


def test_mwg_brute_force_row_oracle():
    rng = np.random.default_rng(9)
    rectangular = random_target(rng, 2, (3, 3))
    check_mwg_rows_by_brute_force(rectangular, symmetric_proposals(rectangular, rng))
    ladder = ladder_target(rng)
    asymmetric = [rng.dirichlet(np.ones(len(c)), size=len(c)) for c in ladder.coordinate_states]
    check_mwg_rows_by_brute_force(ladder, asymmetric)


def check_mwg_rows_by_brute_force(target, proposals):
    alpha = make_selection_weights((0.4, 0.6), 0.1)
    kernel = mwg_kernel_matrix(target, alpha, proposals)
    index = {x: k for k, x in enumerate(kernel.states)}
    value_index = [{v: k for k, v in enumerate(c)} for c in target.coordinate_states]
    for x in kernel.states:
        expected = {}
        stay = 0.0
        for i, w in enumerate(alpha.weights):
            q = proposals[i]
            xi = value_index[i][x[i]]
            for v in target.coordinate_states[i]:
                yi = value_index[i][v]
                if yi == xi:
                    continue
                y = x[:i] + (v,) + x[i + 1:]
                accept = min(1.0, (target.mass(y) * q[yi, xi]) / (target.mass(x) * q[xi, yi]))
                expected[y] = expected.get(y, 0.0) + w * q[xi, yi] * accept
        stay = 1.0 - sum(expected.values())
        for y, p in expected.items():
            if not target.contains(y):
                assert p == 0.0  # proposals off the support are rejected
                continue
            assert kernel.matrix[index[x], index[y]] == pytest.approx(p, abs=1e-14)
        assert kernel.matrix[index[x], index[x]] == pytest.approx(stay, abs=1e-12)


def test_tv_contraction_and_triangle_inequality():
    rng = np.random.default_rng(10)
    states = tuple((k,) for k in range(5))
    for _ in range(50):
        p = DistributionVector(states, rng.dirichlet(np.ones(5)))
        q = DistributionVector(states, rng.dirichlet(np.ones(5)))
        r = DistributionVector(states, rng.dirichlet(np.ones(5)))
        assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        kernel = TransitionMatrix(states, rng.dirichlet(np.ones(5), size=5))
        pushed_p = DistributionVector(states, p.probs @ kernel.matrix)
        pushed_q = DistributionVector(states, q.probs @ kernel.matrix)
        assert tv_distance(pushed_p, pushed_q) <= tv_distance(p, q) + 1e-12


def test_evolution_identity_kernels_freeze_law():
    states = ((0,), (1,))
    init = DistributionVector(states, [0.3, 0.7])
    eye = TransitionMatrix(states, np.eye(2))
    laws = exact_marginal_evolution(init, lambda n: eye, 5)
    assert len(laws) == 6
    for law in laws:
        np.testing.assert_allclose(law.probs, init.probs)


def test_evolution_two_state_contraction():
    states = ((0,), (1,))
    a, b = 0.3, 0.2
    kernel = TransitionMatrix(states, [[1 - a, a], [b, 1 - b]])
    pi = DistributionVector(states, [b / (a + b), a / (a + b)])
    init = DistributionVector(states, [1.0, 0.0])
    laws = exact_marginal_evolution(init, lambda n: kernel, 30)
    min_entry = min(1 - a, a, b, 1 - b)
    for n, law in enumerate(laws):
        assert tv_distance(law, pi) <= (1 - 2 * min_entry) ** n + 1e-12


def test_evolution_incompatible_enumeration_rejected():
    step = TransitionMatrix(((0,), (1,)), np.eye(2))
    # neither a disjoint enumeration nor one that contains the law's own
    for states in (((7,),), ((0,),)):
        init = DistributionVector(states, [1.0])
        with pytest.raises(EnumerationMismatchError):
            exact_marginal_evolution(init, lambda n: step, 1)


def test_stationary_single_state():
    kernel = TransitionMatrix(((0,),), [[1.0]])
    assert stationary_distribution(kernel).probs[0] == 1.0


def test_stationary_doubly_stochastic_is_uniform():
    states = tuple((k,) for k in range(4))
    # lazy cycle: doubly stochastic and aperiodic
    m = 0.5 * np.eye(4) + 0.25 * (np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1))
    kernel = TransitionMatrix(states, m)
    np.testing.assert_allclose(stationary_distribution(kernel).probs, 0.25, atol=1e-12)


def test_stationary_periodic_chain_falls_back_to_solve():
    # bipartite walk with non-uniform stationary law: power iteration from
    # the uniform start would oscillate, the linear solve does not
    states = ((0,), (1,), (2,))
    m = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    kernel = TransitionMatrix(states, m)
    pi = stationary_distribution(kernel)
    np.testing.assert_allclose(pi.probs, [0.5, 0.25, 0.25], atol=1e-10)


def test_stationary_failure_is_reported(monkeypatch):
    import adagibbs.kernels as kernels_module

    states = ((0,), (1,), (2,))
    m = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    kernel = TransitionMatrix(states, m)
    monkeypatch.setattr(kernels_module, "_stationary_solve", lambda m: None)
    with pytest.raises(StationaryConvergenceError, match="linear solve"):
        stationary_distribution(kernel)
    # a vector that is not fixed by the kernel is refused as well
    monkeypatch.setattr(kernels_module, "_stationary_solve", lambda m: np.full(3, 1.0 / 3.0))
    with pytest.raises(StationaryConvergenceError, match="residual"):
        stationary_distribution(kernel)


def test_systematic_scan_kernel_stationary():
    rng = np.random.default_rng(13)
    target = random_target(rng, 2, (3, 3))
    kernel = systematic_scan_kernel(target)
    pi = target.probabilities()
    assert np.abs(pi @ kernel.matrix - pi).sum() <= 1e-12
    # composition oracle
    composed = (
        single_coordinate_kernel(target, 0).matrix
        @ single_coordinate_kernel(target, 1).matrix
    )
    np.testing.assert_allclose(kernel.matrix, composed)


def test_random_reversible_chain_properties():
    rng = np.random.default_rng(14)
    kernel, pi = random_reversible_chain(rng, 6)
    flux = pi.probs[:, None] * kernel.matrix
    assert np.abs(flux - flux.T).max() <= 1e-14
    assert stationary_distribution(kernel).probs == pytest.approx(pi.probs, abs=1e-10)
