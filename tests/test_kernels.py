import itertools

import numpy as np
import pytest

import adagibbs.kernels as kernels_module
import oracles
from adagibbs.kernels import (
    DistributionVector,
    TransitionMatrix,
    gibbs_kernel_matrix,
    metropolis_kernel_matrix,
    mwg_kernel_matrix,
    random_reversible_chain,
    single_coordinate_kernel,
    sup_row_tv,
    systematic_scan_kernel,
    tv,
)
from adagibbs.targets import FiniteProductTarget
from adagibbs.weights import SelectionWeights, make_selection_weights
from oracles import StationaryConvergenceError, state_dependent_gibbs_kernel, stationary_distribution


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


# One case per check; each fails when its ``_check_finite`` call is removed
# (from TransitionMatrix, DistributionVector, metropolis_kernel_matrix's
# check of ``pi`` or of ``proposal``, or mwg_kernel_matrix's check of each
# proposal).  NaN fails no comparison, so without the check the NaN cases
# pass silently: an all-NaN Metropolis kernel, or a NaN proposal treated as 0.
NON_FINITE_CASES = {
    "transition": lambda b: TransitionMatrix(((0,), (1,)), [[b, b], [0.5, 0.5]]),
    "probability": lambda b: DistributionVector(((0,), (1,), (2,)), [0.5, b, 0.5]),
    "target": lambda b: metropolis_kernel_matrix(np.array([1.0, b]), np.full((2, 2), 0.5)),
    "proposal": lambda b: metropolis_kernel_matrix(np.ones(2), np.array([[0.5, b], [0.5, 0.5]])),
    # On the 5-state ladder (values 1-3), a move of coordinate 0 from 1 to 3
    # lies in no fibre, so no Metropolis block sees the bad entry.
    "proposal 0": lambda b: mwg_kernel_matrix(
        ladder_target(np.random.default_rng(0), size=3),
        make_selection_weights((0.5, 0.5), 0.1),
        [np.array([[0.5, 0.5, b], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]), np.full((3, 3), 1 / 3)],
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("what", sorted(NON_FINITE_CASES))
def test_non_finite_entries_are_refused(what, bad):
    with pytest.raises(ValueError, match=rf"^non-finite {what} entry: {bad!r}$"):
        NON_FINITE_CASES[what](bad)


def test_validation_messages_print_plain_floats():
    with pytest.raises(ValueError, match=r"^negative transition entry: -0\.5$"):
        TransitionMatrix(((0,), (1,)), [[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^row sums deviate from 1 by 0\.09999"):
        TransitionMatrix(((0,), (1,)), [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, expected 1$"):
        DistributionVector(((0,), (1,)), [0.7, 0.4])


def test_tv_distance_examples():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert tv(p, p) == 0.0
    assert tv(p, q) == pytest.approx(0.5)
    assert type(tv(p, q)) is float  # a data-file cell, not a numpy repr
    assert tv(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.3, 0.7])) == pytest.approx(1.0)


def test_kernel_tv_sup_examples():
    eye = np.eye(2)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sup_row_tv(eye, eye) == 0.0
    assert sup_row_tv(flip, eye) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(4), size=4)
    b = rng.dirichlet(np.ones(4), size=4)
    brute = max(0.5 * np.abs(a[r] - b[r]).sum() for r in range(4))
    assert sup_row_tv(a, b) == pytest.approx(brute, abs=1e-15)
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
    # Bit for bit: the per-state oracle given constant weights is the random
    # scan kernel.  Fails if gibbs_kernel_matrix skips a coordinate or pairs
    # the weights with the wrong coordinate kernels.
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 4, size=d))
        target = random_target(rng, d, sizes)
        alpha = make_selection_weights(rng.dirichlet(np.ones(d)), 0.05)
        fixed = gibbs_kernel_matrix(target, alpha)
        state_dep = state_dependent_gibbs_kernel(target, lambda x: alpha)
        assert fixed.states == state_dep.states
        assert np.array_equal(fixed.matrix, state_dep.matrix)


def test_gibbs_kernel_builds_each_coordinate_kernel_once(monkeypatch):
    # the per-layer benchmark counts one coordinate-kernel build per
    # coordinate per call, looked up through the module global
    calls = []
    build = kernels_module.single_coordinate_kernel

    def counting(target, i):
        calls.append(i)
        return build(target, i)

    monkeypatch.setattr(kernels_module, "single_coordinate_kernel", counting)
    rng = np.random.default_rng(16)
    target = random_target(rng, 3, (2, 3, 2))
    gibbs_kernel_matrix(target, make_selection_weights((0.2, 0.3, 0.5), 0.1))
    assert calls == [0, 1, 2]


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
    for _ in range(50):
        p, q, r = rng.dirichlet(np.ones(5), size=3)
        assert tv(p, q) <= tv(p, r) + tv(r, q) + 1e-12
        kernel = TransitionMatrix(tuple((k,) for k in range(5)), rng.dirichlet(np.ones(5), size=5))
        assert tv(p @ kernel.matrix, q @ kernel.matrix) <= tv(p, q) + 1e-12


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
    states = ((0,), (1,), (2,))
    m = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    kernel = TransitionMatrix(states, m)
    monkeypatch.setattr(oracles, "_stationary_solve", lambda m: None)
    with pytest.raises(StationaryConvergenceError, match="linear solve"):
        stationary_distribution(kernel)
    # a vector that is not fixed by the kernel is refused as well
    monkeypatch.setattr(oracles, "_stationary_solve", lambda m: np.full(3, 1.0 / 3.0))
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
