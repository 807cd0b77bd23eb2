import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from adagibbs import bounds as bounds_module
from adagibbs import experiments
from adagibbs.bounds import (
    GeometricGap,
    MinorizationCertificate,
    geometric_counterexample_gap,
    geometric_mass_is_normal,
    minorization_search,
    proposal_vs_kernel_tv,
    strong_uniform_constants,
    systematic_to_random_scan,
    tv_lipschitz_bound,
    uniform_ergodicity_bound,
)
from adagibbs.kernels import (
    TransitionMatrix,
    gibbs_kernel_matrix,
    metropolis_kernel_matrix,
    random_reversible_chain,
    sup_row_tv,
    systematic_scan_kernel,
)
from adagibbs.experiments import ExperimentConfig, bounds_experiment
from adagibbs.samplers import _generator
from adagibbs.targets import FiniteProductTarget
from adagibbs.weights import InvalidEpsilonError, SelectionWeights, make_selection_weights
from oracles import (
    bounds_targets,
    certificate_holds,
    geometric_gap_oracle,
    geometric_proposal_gap_fraction,
    lipschitz_family_oracle,
    uniform_family_oracle,
)


def test_minorization_identity_has_no_certificate():
    eye = TransitionMatrix(((0,), (1,)), np.eye(2))
    cert = minorization_search(eye, 1)
    assert cert.s == 0.0 and cert.mu is None
    assert certificate_holds(cert, eye)


def test_minorization_equal_rows_is_total():
    mu0 = np.array([0.2, 0.5, 0.3])
    kernel = TransitionMatrix(
        ((0,), (1,), (2,)), np.tile(mu0, (3, 1))
    )
    cert = minorization_search(kernel, 1)
    assert cert.s == pytest.approx(1.0)
    np.testing.assert_allclose(cert.mu.probs, mu0, atol=1e-15)


def test_minorization_certificate_validates_entrywise():
    rng = np.random.default_rng(21)
    kernel = TransitionMatrix(
        tuple((k,) for k in range(4)), rng.dirichlet(np.ones(4), size=4)
    )
    cert = minorization_search(kernel, 3)
    assert cert.s > 0.0
    assert certificate_holds(cert, kernel)
    # maximality: no certificate with larger mass can hold at the same m
    bigger = MinorizationCertificate(cert.m, min(1.0, cert.s * 1.05), cert.mu)
    assert not certificate_holds(bigger, kernel)


def test_uniform_bound_before_first_regeneration_is_one():
    cert = minorization_search(
        TransitionMatrix(((0,), (1,)), np.tile([0.5, 0.5], (2, 1))), 4
    )
    assert uniform_ergodicity_bound(cert, 0.5, 2, 3) == 1.0


def test_uniform_bound_single_coordinate_reduces_to_classical():
    mu = np.array([0.3, 0.7])
    kernel = TransitionMatrix(((0,), (1,)), np.tile(mu, (2, 1)))
    cert = minorization_search(kernel, 1)
    for n in (1, 5, 20):
        assert uniform_ergodicity_bound(cert, 1.0, 1, n) == pytest.approx(
            (1.0 - cert.s) ** n
        )


def _dummy_mu():
    from adagibbs.kernels import DistributionVector

    return DistributionVector(((0,), (1,)), [0.5, 0.5])


def test_uniform_bound_hand_value_and_kernel_cross_check():
    # (1 - (0.25/0.75) * 0.5)^10 = (5/6)^10
    cert = MinorizationCertificate(1, 0.5, _dummy_mu())
    with pytest.raises(ValueError):
        uniform_ergodicity_bound(MinorizationCertificate(1, 0.0, None), 0.25, 2, 10)
    assert uniform_ergodicity_bound(cert, 0.25, 2, 10) == pytest.approx((5.0 / 6.0) ** 10)

    # exact TV of a matching finite chain lies below the bound
    target = FiniteProductTarget(((0, 1), (0, 1)), mass=lambda x: 1.0 + 0.5 * x[0] + x[1])
    epsilon = 0.25
    beta = SelectionWeights((0.5, 0.5), epsilon)
    p_beta = gibbs_kernel_matrix(target, beta)
    cert = minorization_search(p_beta, 2)
    assert 0.0 < cert.s <= 1.0
    pi = target.probabilities()
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha = make_selection_weights(rng.dirichlet(np.ones(2)), epsilon)
        power = np.eye(len(target.states))
        kernel = gibbs_kernel_matrix(target, alpha).matrix
        for n in range(1, 60):
            power = power @ kernel
            exact = 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
            assert exact <= uniform_ergodicity_bound(cert, epsilon, 2, n) + 1e-12


def test_lipschitz_bound_examples_and_dominance():
    alpha = SelectionWeights((0.5, 0.5), 0.1)
    assert tv_lipschitz_bound(alpha, alpha) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        eps = 0.1
        a = make_selection_weights(rng.dirichlet(np.ones(d)), eps)
        b = make_selection_weights(rng.dirichlet(np.ones(d)), eps)
        bound = tv_lipschitz_bound(a, b)
        delta = max(abs(x - y) for x, y in zip(a.weights, b.weights))
        assert bound <= delta / eps + 1e-15
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(d))
        masses = {}
        coords = [tuple(range(s)) for s in sizes]
        import itertools

        for x in itertools.product(*coords):
            masses[x] = float(np.exp(rng.normal()))
        target = FiniteProductTarget(coords, masses.__getitem__)
        exact = sup_row_tv(
            gibbs_kernel_matrix(target, a).matrix, gibbs_kernel_matrix(target, b).matrix
        )
        assert exact <= bound + 1e-12


def test_strong_uniform_constants_examples():
    assert strong_uniform_constants(1, 0.5) == (5, 0.03125)
    m_star, s_star = strong_uniform_constants(2, 0.9)
    assert m_star == 4
    assert s_star == pytest.approx(0.10125)
    with pytest.raises(ValueError):
        strong_uniform_constants(1, 1.0)
    with pytest.raises(ValueError):
        strong_uniform_constants(1, 0.0)


def test_strong_uniform_constants_validate_on_random_chains():
    rng = np.random.default_rng(29)
    for _ in range(10):
        kernel, pi = random_reversible_chain(rng, int(rng.integers(3, 8)))
        cert = minorization_search(kernel, 1)
        assert 0.0 < cert.s < 1.0
        m_star, s_star = strong_uniform_constants(cert.m, cert.s)
        assert s_star <= cert.s and m_star >= cert.m
        power = np.linalg.matrix_power(kernel.matrix, m_star)
        assert np.all(power >= s_star * pi.probs[None, :] - 1e-12)


def test_systematic_to_random_scan_transfer():
    cert = MinorizationCertificate(1, 0.5, _dummy_mu())
    unchanged = systematic_to_random_scan(cert, 1)
    assert (unchanged.m, unchanged.s) == (1, 0.5)
    moved = systematic_to_random_scan(cert, 2)
    assert moved.m == 2 and moved.s == pytest.approx(0.125)

    rng = np.random.default_rng(31)
    import itertools

    coords = ((0, 1), (0, 1, 2))
    masses = {x: float(np.exp(rng.normal())) for x in itertools.product(*coords)}
    target = FiniteProductTarget(coords, masses.__getitem__)
    sys_cert = minorization_search(systematic_scan_kernel(target), 1)
    assert sys_cert.s > 0.0
    transferred = systematic_to_random_scan(sys_cert, target.d)
    uniform = SelectionWeights((0.5, 0.5), 0.5)
    p_uniform = gibbs_kernel_matrix(target, uniform)
    assert certificate_holds(transferred, p_uniform)


def test_metropolis_kernel_hand_case():
    pi = np.array([1.0, 3.0])
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = metropolis_kernel_matrix(pi, q)
    np.testing.assert_allclose(m, [[0.0, 1.0], [1.0 / 3.0, 2.0 / 3.0]])


def loop_metropolis_kernel(pi, q):
    """Straight-line oracle: the acceptance rule entry by entry, with the
    rejected and unproposed mass summed onto the diagonal in row order."""
    n = len(pi)
    m = np.zeros((n, n))
    for x in range(n):
        moved = 0.0
        for y in range(n):
            if y == x or q[x, y] == 0.0:
                continue
            accept = min(1.0, (pi[y] * q[y, x]) / (pi[x] * q[x, y]))
            m[x, y] = q[x, y] * accept
            moved += m[x, y]
        m[x, x] = 1.0 - moved
    return m


def test_metropolis_kernel_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(41)
    for k in range(200):
        n = int(rng.integers(1, 30))
        pi = rng.exponential(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        q = rng.exponential(size=(n, n))
        q[rng.uniform(size=(n, n)) < 0.4] = 0.0
        rows = q.sum(axis=1, keepdims=True)
        q = q / np.where(rows > 0.0, rows, 1.0)
        if k % 2:
            q *= rng.uniform(0.3, 1.0, size=(n, 1))  # sub-stochastic rows
        np.testing.assert_array_equal(
            metropolis_kernel_matrix(pi, q), loop_metropolis_kernel(pi, q)
        )
    # the geometric-gap example's tiled independence proposals
    for p in (0.3, 0.5, 0.7):
        for n in (10, 25, 40):
            grid = np.arange(n + 30, dtype=np.float64)
            pi = p**grid * (1.0 - p)
            q = p**grid
            q[n] = p ** (2 * n)
            q = np.tile(q / q.sum(), (len(grid), 1))
            np.testing.assert_array_equal(
                metropolis_kernel_matrix(pi, q), loop_metropolis_kernel(pi, q)
            )


def test_metropolis_kernel_rejects_invalid_proposals():
    pi = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="row 0"):
        metropolis_kernel_matrix(pi, [[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row 1"):
        metropolis_kernel_matrix(pi, [[0.5, 0.5], [0.7, 0.7]])
    with pytest.raises(ValueError):
        metropolis_kernel_matrix([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]])
    # rows may propose less than all their mass: the rest stays put, and the
    # move 1 -> 0 is accepted with probability q_10 / q_01 = 1/2
    m = metropolis_kernel_matrix(pi, [[0.0, 0.25], [0.5, 0.0]])
    np.testing.assert_array_equal(m, [[0.75, 0.25], [0.25, 0.75]])


def test_lipschitz_bound_reads_one_floor_from_its_weights():
    alpha = SelectionWeights((0.5, 0.5), 0.1)
    # delta / (epsilon + delta) with delta = 0.1 on the weights' floor 0.2
    assert tv_lipschitz_bound(
        SelectionWeights((0.5, 0.5), 0.2), SelectionWeights((0.4, 0.6), 0.2)
    ) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="two floors"):
        tv_lipschitz_bound(alpha, SelectionWeights((0.4, 0.6), 0.2))
    # a pair that is not a weight vector, let alone one on a floor
    with pytest.raises(AttributeError):
        tv_lipschitz_bound((0.5, 0.5), (2.0, -1.0))


def test_uniform_bound_refuses_a_floor_with_no_weight_vector():
    cert = MinorizationCertificate(1, 0.5, _dummy_mu())
    assert uniform_ergodicity_bound(cert, 0.5, 2, 1) == 1.0 - 0.5
    for epsilon, d in ((0.5 + 1e-9, 2), (0.0, 2), (-0.1, 2), (0.5, 0)):
        with pytest.raises(InvalidEpsilonError):
            uniform_ergodicity_bound(cert, epsilon, d, 1)


def test_metropolis_kernel_is_shared_with_bounds():
    import adagibbs
    import adagibbs.bounds

    assert adagibbs.bounds.metropolis_kernel_matrix is metropolis_kernel_matrix
    assert adagibbs.metropolis_kernel_matrix is metropolis_kernel_matrix


def test_proposal_vs_kernel_tv_symmetric():
    pi = np.array([0.1, 0.4, 0.5])
    q_flat = np.full((3, 3), 1.0 / 3.0)
    lhs, rhs = proposal_vs_kernel_tv(pi, q_flat, q_flat, mode="symmetric")
    assert lhs == 0.0 and rhs == 0.0

    lazy = 0.5 * np.eye(3) + 0.5 * q_flat
    lhs, rhs = proposal_vs_kernel_tv(pi, q_flat, lazy, mode="symmetric")
    gap = 0.5 * np.abs(q_flat - lazy).sum(axis=1).max()
    assert rhs == pytest.approx(2.0 * gap)
    assert lhs <= rhs


def test_proposal_vs_kernel_tv_symmetric_rejects_asymmetric_input():
    pi = np.array([0.5, 0.5])
    q_sym = np.full((2, 2), 0.5)
    q_asym = np.array([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        proposal_vs_kernel_tv(pi, q_sym, q_asym, mode="symmetric")


def test_proposal_vs_kernel_tv_bounded_mode():
    rng = np.random.default_rng(37)
    pi = rng.uniform(0.5, 2.0, size=4)
    q1 = rng.dirichlet(np.ones(4), size=4)
    q2 = rng.dirichlet(np.ones(4), size=4)
    lhs, rhs = proposal_vs_kernel_tv(pi, q1, q2, mode="bounded")
    assert lhs <= rhs
    k = float(pi.max() / pi.min())
    gap = 0.5 * np.abs(q1 - q2).sum(axis=1).max()
    assert rhs == pytest.approx(4.0 * (k + 1.0) * gap)
    with pytest.raises(ValueError):
        proposal_vs_kernel_tv(pi, q1, q2, mode="nonsense")


def test_geometric_gap_closed_forms():
    for p in (0.3, 0.5, 0.7):
        for n in (5, 12, 25):
            gap = geometric_counterexample_gap(p, n)
            assert isinstance(gap, GeometricGap)

            def normaliser(stage):
                return 1.0 / (1.0 - p) - p**stage + p ** (2 * stage)

            proposal_expected = p**n / normaliser(n + 1) - p ** (2 * n) / normaliser(n)
            assert gap.proposal_gap == pytest.approx(proposal_expected, abs=1e-12)
            kernel_expected = 1.0 / normaliser(n + 1) - (1.0 / normaliser(n)) * p**n
            assert gap.kernel_gap == pytest.approx(kernel_expected, abs=1e-12)


def test_geometric_gap_criterion_values():
    assert geometric_counterexample_gap(0.5, 30).proposal_gap < 1e-8
    k25 = geometric_counterexample_gap(0.5, 25).kernel_gap
    assert 0.45 <= k25 <= 0.5
    for p in (0.3, 0.5, 0.7):
        gaps = [geometric_counterexample_gap(p, n).kernel_gap for n in range(10, 41)]
        assert np.all(np.diff(gaps) >= -1e-12)
        assert abs(gaps[-1] - (1.0 - p)) < 1e-5


def test_geometric_gap_input_validation():
    with pytest.raises(ValueError):
        geometric_counterexample_gap(1.2, 5)
    with pytest.raises(ValueError):
        geometric_counterexample_gap(0.5, 0)


def test_geometric_gap_equals_the_dense_oracle():
    """The two exact reductions agree with dense kernels on the space
    truncated at a 1e-12 tail, to that truncation's own error."""
    for p in (0.3, 0.5, 0.7, 0.9, 0.95):
        for n in range(1, 41):
            gap = geometric_counterexample_gap(p, n)
            proposal_gap, kernel_gap = geometric_gap_oracle(p, n)
            assert abs(gap.proposal_gap - proposal_gap) <= 1e-12, (p, n)
            assert abs(gap.kernel_gap - kernel_gap) <= 1e-12, (p, n)


def test_geometric_proposal_gap_equals_the_rational_oracle():
    """To 1e-12 relative, also where ``p**n`` is far below the float
    spacing at 1 and the rest atom's two probabilities agree to every bit:
    at (0.3, 40) the difference of those probabilities read 5.53e-22
    against the exact 8.51e-22.  And where ``p**n (1 + p) > 1`` (0.7, 1),
    so that atom ``n`` alone is not the TV."""
    for p in (0.3, 0.5, 0.7, 0.9, 0.99):
        for n in (*range(1, 61), 100, 200, 300):
            exact = geometric_proposal_gap_fraction(p, n)
            got = geometric_counterexample_gap(p, n).proposal_gap
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact, (p, n)


def _gap_peak(p, n):
    tracemalloc.start()
    try:
        geometric_counterexample_gap(p, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_geometric_gap_memory_does_not_grow_with_p_or_n():
    """No array grows with ``p`` or ``n``; the slack covers Python's ints
    above 256, which are objects (one vector on the 4003 states the dense
    route took at (0.99, 4000) is 32 KiB)."""
    _gap_peak(0.9, 40)  # the first call's one-off allocations
    assert _gap_peak(0.99, 4000) <= _gap_peak(0.9, 40) + 512


def test_geometric_gap_runs_to_the_last_normal_target_mass():
    """At p = 1/2 the target mass ``p**n (1 - p)`` is 2**-1022, the least
    normal float, at n = 1021, and the gap runs there.  At n = 1022 the
    mass is refused though ``p**n`` is still normal: the limit reads the
    factor ``1 - p`` too."""
    assert geometric_mass_is_normal(0.5, 1021)
    assert not geometric_mass_is_normal(0.5, 1022)
    gap = geometric_counterexample_gap(0.5, 1021)
    assert gap.kernel_gap == 0.5
    assert 0.0 < gap.proposal_gap < 1e-300
    with pytest.raises(ValueError, match="normal"):
        geometric_counterexample_gap(0.5, 1022)


def test_uniform_bound_monotone_in_horizon_and_mass():
    mu = _dummy_mu()
    for m in (1, 3):
        cert = MinorizationCertificate(m, 0.4, mu)
        values = [uniform_ergodicity_bound(cert, 0.2, 2, n) for n in range(0, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    for n in (7, 20):
        by_mass = [
            uniform_ergodicity_bound(MinorizationCertificate(2, s, mu), 0.2, 2, n)
            for s in (0.1, 0.3, 0.6, 0.9)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(by_mass, by_mass[1:]))


# ---------------------------------------------------------------------------
# the bounds experiment's weight families, against their per-target oracles


def bounds_config(families, **params):
    return ExperimentConfig.from_dict(
        {"kind": "bounds", "families": families, "epsilon": 0.1, **params}
    )


def assert_same_rows(got, want):
    """Row for row, cell for cell: the same Python type and the same value,
    compared by ``repr`` so that each float matches bit for bit."""
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert [type(x) for x in row] == [type(x) for x in expected]
        assert [repr(x) for x in row] == [repr(x) for x in expected]


def assert_families_match_the_oracles(config):
    """The lipschitz and uniform tables, without their violation column,
    equal the oracles run one family after the other on one stream."""
    tables = bounds_experiment(config).tables
    rng, targets = bounds_targets(config)
    oracles = {"lipschitz": lipschitz_family_oracle, "uniform": uniform_family_oracle}
    for name in config.params["families"]:
        want = oracles[name](rng, targets, config.params)
        assert_same_rows([row[:-1] for row in tables[name][1]], want)


BOTH = ("lipschitz", "uniform")
BOUNDS_CASES = {
    # the benchmark's bounds call, less the strong family, which draws last
    "benchmark-size": (BOTH, {"seed": 5, "n_targets": 300, "n_alphas": 1, "horizon": 100}),
    "reduced-shipped": (BOTH, {"seed": 20260801, "n_targets": 30, "n_alphas": 3, "horizon": 50}),
    "lipschitz-only": (("lipschitz",), {"seed": 8, "n_targets": 40}),
    "horizon-one": (("uniform",), {"seed": 3, "n_targets": 20, "n_alphas": 2, "horizon": 1}),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_weight_families_equal_the_per_target_oracles(case):
    families, params = BOUNDS_CASES[case]
    assert_families_match_the_oracles(bounds_config(list(families), **params))


def test_uniform_family_with_a_one_draw_group_equals_the_oracle():
    config = bounds_config(["uniform"], seed=7, n_targets=6, n_alphas=1, horizon=30)
    _, targets = bounds_targets(config)
    counts = Counter(len(t.states) for t in targets)
    assert 1 in counts.values() and len(counts) > 1  # a group of one draw among others
    assert_families_match_the_oracles(config)


def test_uniform_family_across_capped_stacks_equals_the_oracle(monkeypatch):
    # One draw of 4 states at horizon 10 needs 8 * (16 + 10) = 208 bytes, so
    # 1000 bytes hold at most 4 draws: every target's 5 draws, and so every
    # state-count group, span more than one stack.
    monkeypatch.setattr(bounds_module, "STACK_BYTES", 1000)
    assert_families_match_the_oracles(
        bounds_config(["uniform"], seed=11, n_targets=12, n_alphas=5, horizon=10)
    )


def test_uniform_family_keeps_the_first_worst_step(monkeypatch):
    # A bound of 1e20 on odd steps and 2e20 on even ones changes on every
    # step, so the exact TV is read on every step.  1e20 absorbs every exact
    # TV, so the margins of all odd steps tie at 1e20 and step 1 is the worst.
    monkeypatch.setattr(
        experiments, "uniform_ergodicity_bound", lambda cert, eps, d, n: 1e20 * (2 - n % 2)
    )
    config = bounds_config(["uniform"], seed=5, n_targets=12, n_alphas=2, horizon=20)
    assert {row[-2] for row in bounds_experiment(config).tables["uniform"][1]} == {1e20}
    assert_families_match_the_oracles(config)


def test_uniform_family_reads_a_bound_that_dips_for_one_step(monkeypatch):
    # A bound of 2 that falls to 1 at step 6 and rises back at step 7: the
    # margin at step 6 is below 1 and every other one above, so step 6 is
    # the worst, though no step of the true bound's runs starts there.
    monkeypatch.setattr(
        experiments, "uniform_ergodicity_bound", lambda cert, eps, d, n: 2.0 - (n == 6)
    )
    config = bounds_config(["uniform"], seed=5, n_targets=12, n_alphas=2, horizon=20)
    header, rows = bounds_experiment(config).tables["uniform"]
    assert {row[header.index("bound_at_worst_n")] for row in rows} == {1.0}
    assert_families_match_the_oracles(config)


@pytest.mark.parametrize("families", [BOTH, ("lipschitz",), ("uniform",)],
                         ids=["both", "lipschitz", "uniform"])
def test_each_family_builds_a_targets_moves_once(monkeypatch, families):
    """``d`` coordinate-move builds per target and family, the uniform
    family's draws spread over capped stacks (as in
    ``test_uniform_family_across_capped_stacks_equals_the_oracle``)."""
    built = []

    def counting(target, i):
        built.append((target, i))
        return build(target, i)

    build = bounds_module.coordinate_moves
    monkeypatch.setattr(bounds_module, "coordinate_moves", counting)
    monkeypatch.setattr(bounds_module, "STACK_BYTES", 1000)
    config = bounds_config(list(families), seed=11, n_targets=12, n_alphas=5, horizon=10)
    rng, targets = bounds_targets(config)
    pairs = experiments._weight_draws(rng, targets, 2) if "lipschitz" in families else None
    draws = experiments._weight_draws(rng, targets, 5) if "uniform" in families else None
    bounds_module._weight_family_rows(
        list(targets), pairs, draws, config.params, tv_lipschitz_bound, uniform_ergodicity_bound
    )
    per_target = {id(t): sorted(i for u, i in built if u is t) for t in targets}
    assert len(built) == sum(len(v) for v in per_target.values())
    assert per_target == {id(t): sorted(list(range(t.d)) * len(families)) for t in targets}


def test_uniform_bound_on_an_array_of_steps_equals_its_scalar_calls():
    """Bit for bit, as Python floats: numpy's float power differs from
    Python's in the last bit at some of these exponents."""
    steps = np.arange(1, 201)
    for m in range(1, 13):
        for s, epsilon, d in ((0.3, 0.1, 3), (0.77, 0.2, 2), (1.0, 0.05, 4)):
            cert = MinorizationCertificate(m, s, _dummy_mu())
            got = uniform_ergodicity_bound(cert, epsilon, d, steps)
            want = [uniform_ergodicity_bound(cert, epsilon, d, int(n)) for n in steps]
            assert got.dtype == np.float64 and got.shape == steps.shape
            assert all(type(b) is float for b in want)
            assert got.tolist() == want, (m, s)
    with pytest.raises(ValueError, match="n must be >= 0"):
        uniform_ergodicity_bound(cert, 0.05, 4, np.arange(-1, 3))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stacked_uniform(rng, targets, p):
    """The experiment's uniform family alone, as the oracle's counterpart."""
    draws = experiments._weight_draws(rng, targets, p["n_alphas"])
    return bounds_module._weight_family_rows(
        targets, None, draws, p, tv_lipschitz_bound, uniform_ergodicity_bound
    )[1]


BENCHMARK_UNIFORM = bounds_config(["uniform"], **BOUNDS_CASES["benchmark-size"][1])


def test_uniform_family_stacks_stay_at_the_per_draw_loop():
    """At the benchmark's size, with the conditional tables filled by an
    earlier call, so that only the horizon's own arrays move the peak, the
    capped stacks peak at most two stacks' worth (64 KiB) above the
    per-draw loop: about 310 KiB against 280 here, as the largest state
    counts run last, beside nearly every row.  Whole state-count groups in
    one stack would peak near 1 MiB.  Each call gets its own list, as the
    experiment empties the one it is given."""

    def peak_with_filled_tables(rows_of):
        rng, targets = bounds_targets(BENCHMARK_UNIFORM)
        rows_of(rng, list(targets), BENCHMARK_UNIFORM.params)
        rng = _generator(BENCHMARK_UNIFORM.seed)
        return _traced_peak(lambda: rows_of(rng, list(targets), BENCHMARK_UNIFORM.params))

    stacked = peak_with_filled_tables(_stacked_uniform)
    per_draw = peak_with_filled_tables(uniform_family_oracle)
    assert stacked <= per_draw + 2 * bounds_module.STACK_BYTES


def test_weight_families_free_each_group_of_targets():
    """On fresh targets, whose conditional tables fill as the family goes,
    dropping each state-count group's targets once the group is done keeps
    the peak under half the per-draw loop's, which holds every target's
    tables to the end: about 530 KiB against 2.4 MiB here."""

    def peak_on_fresh_targets(rows_of):
        rng, targets = bounds_targets(BENCHMARK_UNIFORM)
        return _traced_peak(lambda: rows_of(rng, targets, BENCHMARK_UNIFORM.params))

    stacked = peak_on_fresh_targets(_stacked_uniform)
    assert stacked < peak_on_fresh_targets(uniform_family_oracle) / 2
