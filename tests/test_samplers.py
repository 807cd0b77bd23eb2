import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagibbs.kernels import mwg_kernel_matrix, gibbs_kernel_matrix
from adagibbs import samplers, weights
from adagibbs.ladder import LADDER_EPSILON, LadderTarget, ladder_update_rule, schedule_a
from adagibbs.samplers import (
    DRAW_BLOCK,
    UNIFORM_CHUNK,
    Trajectory,
    _generator,
    adap_rs_adap_mwg_run,
    adap_rsg_run,
    derive_seed,
    gaussian_random_walk,
    keep_previous,
    read_trajectory_csv,
    rs_mwg_run,
    write_trajectory_csv,
)
from adagibbs.targets import ContinuousProductTarget, FiniteProductTarget
from adagibbs.variance import ReversibleChain, spectral_asymptotic_variance
from adagibbs.weights import SelectionWeights, make_selection_weights
from oracles import (
    assert_bitwise_equal,
    chi2_sf,
    kolmogorov_sf,
    ks_normal_test,
    recording,
    rs_mwg_oracle,
    stationary_distribution,
)


def rsg_run(target, alpha, x0, n_steps, seed):
    """The fixed-weight sampler RSG(alpha)."""
    return adap_rsg_run(target, keep_previous, x0, alpha, n_steps, seed)


def mwg_run(target, propose, gamma, alpha, x0, n_steps, seed):
    """Random scan Metropolis-within-Gibbs with fixed weights and proposals."""
    return adap_rs_adap_mwg_run(
        target, propose, keep_previous, keep_previous,
        x0, alpha, gamma, n_steps, seed,
    )


def small_target():
    masses = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.5, (1, 1): 0.5}
    return FiniteProductTarget(((0, 1), (0, 1)), masses.__getitem__)


def state_indices(trajectory, kernel):
    """Index into ``kernel.states`` of every state of the trajectory; a state
    outside the kernel's support raises ``KeyError``."""
    index = {x: k for k, x in enumerate(kernel.states)}
    rows, inverse = np.unique(trajectory.states, axis=0, return_inverse=True)
    return np.array([index[tuple(r)] for r in rows.tolist()])[inverse.ravel()]


def occupation_within_three_se(trajectory, kernel, pi):
    """Empirical occupation of every state against pi, with the standard
    error taken from the exact asymptotic variance of the indicator."""
    chain = ReversibleChain(kernel, pi)
    visits = state_indices(trajectory, kernel)
    counts = np.bincount(visits, minlength=len(kernel.states))
    n = len(visits)
    for k, x in enumerate(kernel.states):
        indicator = np.zeros(len(kernel.states))
        indicator[k] = 1.0
        sigma2 = spectral_asymptotic_variance(chain, indicator)
        se = math.sqrt(max(sigma2, 1e-30) / n)
        assert abs(counts[k] / n - pi.probs[k]) <= 3.0 * se + 1e-9, x


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(123, 0) == derive_seed(123, 0)
    seeds = {derive_seed(123, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_rsg_determinism_and_single_coordinate_moves():
    target = small_target()
    alpha = make_selection_weights((0.4, 0.6), 0.1)
    t1 = rsg_run(target, alpha, (0, 0), 500, seed=42)
    t2 = rsg_run(target, alpha, (0, 0), 500, seed=42)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.coordinates, t2.coordinates)
    t3 = rsg_run(target, alpha, (0, 0), 500, seed=43)
    assert not np.array_equal(t3.states, t1.states)
    assert (t1.states[1:] != t1.states[:-1]).sum(axis=1).max() <= 1


def test_rsg_initial_state_must_be_in_support():
    with pytest.raises(ValueError):
        rsg_run(LadderTarget(), SelectionWeights((0.5, 0.5), 0.5), (1, 3), 10, seed=1)


def test_rsg_single_coordinate_is_iid_sampling():
    target = FiniteProductTarget(((0, 1, 2),), mass=lambda x: (1.0, 2.0, 3.0)[x[0]])
    alpha = SelectionWeights((1.0,), 1.0)
    traj = rsg_run(target, alpha, (0,), 100_000, seed=7)
    pi = target.probabilities()
    values = np.asarray([s[0] for s in traj.states[1:]])
    for v in range(3):
        frac = float(np.mean(values == v))
        se = math.sqrt(pi[v] * (1 - pi[v]) / len(values))
        assert abs(frac - pi[v]) <= 3.5 * se


def test_rsg_three_state_occupation_matches_stationary_oracle():
    # M=2 ladder truncation has exactly three states
    target = FiniteProductTarget(
        ((1, 2), (1, 2)),
        mass=lambda x: x[1] ** -2.0,
        support=lambda x: x[0] == x[1] or x[0] == x[1] + 1,
    )
    alpha = make_selection_weights((0.5, 0.5), 0.25)
    kernel = gibbs_kernel_matrix(target, alpha)
    pi = stationary_distribution(kernel)
    traj = rsg_run(target, alpha, (1, 1), 1_000_000, seed=2024)
    occupation_within_three_se(traj, kernel, pi)


def test_rsg_transition_frequencies_chi_square():
    target = FiniteProductTarget(((0, 1), (0, 1)), mass=lambda x: 1.0)
    alpha = make_selection_weights((0.3, 0.7), 0.1)
    kernel = gibbs_kernel_matrix(target, alpha)
    traj = rsg_run(target, alpha, (0, 0), 1_000_000, seed=99)
    visits = state_indices(traj, kernel)
    counts = np.zeros((4, 4))
    np.add.at(counts, (visits[:-1], visits[1:]), 1)
    chi2 = 0.0
    dof = 0
    for r in range(4):
        visits = counts[r].sum()
        support = kernel.matrix[r] > 0
        expected = visits * kernel.matrix[r, support]
        observed = counts[r, support]
        chi2 += float(((observed - expected) ** 2 / expected).sum())
        dof += int(support.sum()) - 1
    p_value = chi2_sf(chi2, dof)
    assert p_value > 1e-3


def test_fresh_equal_weights_match_keep_previous():
    """A rule handing back new but equal weights is checked every step and
    must land on the trajectory the identity skip produces."""
    target = small_target()
    alpha = make_selection_weights((0.4, 0.6), 0.1)

    def fresh(n, alpha_prev, x_prev):
        return SelectionWeights(alpha.weights, alpha.epsilon)

    t_fresh = adap_rsg_run(target, fresh, (0, 0), alpha, 2_000, seed=5)
    t_kept = rsg_run(target, alpha, (0, 0), 2_000, seed=5)
    assert np.array_equal(t_fresh.states, t_kept.states)
    assert np.array_equal(t_fresh.coordinates, t_kept.coordinates)


def test_adaptive_rule_nonfinite_output_rejected():
    """Weights can only hold finite entries as a ``SelectionWeights``, and a
    rule's output of any other type is refused, not projected."""
    target = small_target()
    alpha = make_selection_weights((0.5, 0.5), 0.1)

    def rule(n, alpha_prev, x_prev):
        return (math.inf, 0.5)

    with pytest.raises(TypeError, match="must return SelectionWeights"):
        adap_rsg_run(target, rule, (0, 0), alpha, 5, seed=1)


def test_ladder_run_takes_each_new_weight_object_with_one_check(monkeypatch):
    """The ladder rule hands back its block's two weight objects in turn.  The
    loop remembers the last two objects it used, so each distinct object is
    checked exactly once, in the order of its first use, and never projected:
    a 3000-step run makes no ``make_selection_weights`` call."""
    projections = []

    def counting(raw, epsilon):
        projections.append(raw)
        return make_selection_weights(raw, epsilon)

    monkeypatch.setattr(weights, "make_selection_weights", counting)
    monkeypatch.setattr(samplers, "make_selection_weights", counting, raising=False)
    checked = []
    check = samplers._checked_weights

    def counting_check(out, epsilon, d):
        checked.append(out)
        return check(out, epsilon, d)

    monkeypatch.setattr(samplers, "_checked_weights", counting_check)
    used = []
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    adap_rsg_run(
        LadderTarget(), recording(ladder_update_rule, used), (1, 1), alpha0, 3_000, seed=8
    )
    assert projections == []
    # ``used`` keeps every object alive, so distinct ids are distinct objects
    first_uses = list(dict.fromkeys(map(id, used)))
    switches = sum(w is not prev for w, prev in zip(used, [alpha0, *used]))
    assert id(alpha0) not in first_uses
    assert 4 <= len(first_uses) < 100 < switches
    assert [id(w) for w in checked] == first_uses


@pytest.mark.parametrize(
    "out, error, match",
    [
        ([0.5, 0.5], TypeError, "must return SelectionWeights"),
        (np.array([0.5, 0.5]), TypeError, "must return SelectionWeights"),
        ((0.5, 0.5), TypeError, "must return SelectionWeights"),
        (SelectionWeights((0.5, 0.5), 0.25), ValueError, "floor 0.25, run floor 0.1"),
    ],
    ids=["list", "array", "tuple", "other-floor"],
)
def test_weight_rule_output_outside_the_contract_raises_at_its_step(out, error, match):
    """Only a ``SelectionWeights`` on the run's floor is taken: anything else
    raises at the step that returns it, and is never projected."""
    alpha = SelectionWeights((0.5, 0.5), 0.1)
    calls = []

    def rule(n, alpha_prev, x_prev):
        calls.append(n)
        return out if n == 50 else alpha_prev

    with pytest.raises(error, match=match):
        adap_rsg_run(small_target(), rule, (0, 0), alpha, 100, seed=1)
    assert calls[-1] == 50


@pytest.mark.parametrize(
    "out, error, match",
    [
        (SelectionWeights((0.5, 0.5), 0.25), ValueError, "floor 0.25, run floor 0.1"),
        (SelectionWeights((0.2, 0.3, 0.5), 0.1), ValueError, "dimension mismatch: weights d=3"),
        ((0.5, 0.5), TypeError, "must return SelectionWeights"),
    ],
    ids=["other-floor", "other-dimension", "tuple"],
)
def test_a_bad_weight_object_after_two_good_ones_raises_at_its_step(out, error, match):
    """A rule alternating two good objects, which the loop takes back
    unchecked, and then returning a third, bad one: the third is checked and
    raises at its step."""
    good = (SelectionWeights((0.4, 0.6), 0.1), SelectionWeights((0.6, 0.4), 0.1))
    calls = []

    def rule(n, alpha_prev, x_prev):
        calls.append(n)
        return out if n == 50 else good[n % 2]

    with pytest.raises(error, match=match):
        adap_rsg_run(small_target(), rule, (0, 0), good[0], 100, seed=1)
    assert calls[-1] == 50


def test_a_bad_proposal_after_two_good_ones_raises_at_its_step():
    """The proposal rule's outputs follow the same contract: two alternating
    tuples, then a third that is not a tuple of positive floats."""
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    good = ((0.3, 0.2), (0.5, 0.4))
    calls = []

    def rule(n, gamma_prev, x_prev):
        calls.append(n)
        return (0.5, -1.0) if n == 50 else good[n % 2]

    with pytest.raises(ValueError, match="proposal parameter 1 must be finite and positive"):
        adap_rs_adap_mwg_run(
            ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk,
            keep_previous, rule, (0.0, 0.0), alpha, good[0], 100, seed=1,
        )
    assert calls[-1] == 50


def ladder_oracle_states(n_steps, seed):
    """Independent reimplementation of the adaptive ladder loop over the
    first two blocks, consuming the same pregenerated uniform stream: the
    states after each step, the initial one first."""
    # inline schedule, rule, conditionals and inverse-CDF draws
    b1 = 1000.0
    b2 = b1 * (1.0 + 1.0 / (10.0 + math.log(2)))
    c1, c2 = b1, b1 + b2
    u = _generator(seed).random(2 * n_steps)
    x = (1, 1)
    states = [x]
    for n in range(1, n_steps + 1):
        a_n = 10.0 if n <= c1 else (10.0 + math.log(2) if n <= c2 else None)
        assert a_n is not None
        tilt = 4.0 / a_n
        if x[0] == x[1]:
            alpha1 = 0.5 + tilt
        else:
            alpha1 = 0.5 - tilt
        u_coord, u_draw = u[2 * n - 2], u[2 * n - 1]
        i = 0 if u_coord <= alpha1 else 1
        if i == 0:
            new_i = x[1] if u_draw <= 0.5 else x[1] + 1
            x = (new_i, x[1])
        else:
            if x[0] == 1:
                new_j = 1
            else:
                hi = x[0] * x[0]
                lo = (x[0] - 1) * (x[0] - 1)
                new_j = x[0] - 1 if u_draw <= hi / (hi + lo) else x[0]
            x = (x[0], new_j)
        states.append(x)
    return states


def test_ladder_run_matches_straight_line_oracle():
    """The adaptive loop against its straight-line oracle; crosses the first
    block boundary."""
    n_steps = 1_100
    seed = 31337
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    traj = adap_rsg_run(LadderTarget(), ladder_update_rule, (1, 1), alpha0, n_steps, seed)
    assert np.array_equal(traj.states, ladder_oracle_states(n_steps, seed))


@pytest.mark.parametrize("n_steps", [2047, 2048, 2049])
def test_ladder_run_matches_straight_line_oracle_at_a_uniform_chunk(n_steps):
    """Runs whose ``2 * n_steps`` uniforms end just short of, at and just past
    a chunk of ``UNIFORM_CHUNK`` floats equal the straight-line oracle."""
    assert 2 * 2048 == UNIFORM_CHUNK
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    for seed in (31337, 7):
        traj = adap_rsg_run(LadderTarget(), ladder_update_rule, (1, 1), alpha0, n_steps, seed)
        assert np.array_equal(traj.states, ladder_oracle_states(n_steps, seed))


GRID = 2**16


class UniformGrid:
    """Two coordinates, each uniform on ``GRID`` points given the other:
    a step's coordinate is 1 exactly when its first uniform is at least 1/2,
    and its value is the grid bin ``floor(GRID * u)`` of its second uniform."""

    values = tuple(range(GRID))
    cumulative = tuple((k + 1) / GRID for k in range(GRID))

    def conditional_cdf(self, i, x):
        return self.values, self.cumulative


@pytest.mark.parametrize("n_steps", [1, 2047, 2048, 2049, 5000])
def test_gibbs_run_reads_its_uniforms_in_stream_order(n_steps):
    """Every pre-drawn uniform is read once, in order, across chunk ends:
    the even ones choose coordinates, the odd ones draw values."""
    traj = rsg_run(UniformGrid(), SelectionWeights((0.5, 0.5), 0.5), (0, 0), n_steps, seed=9)
    u = _generator(9).random(2 * n_steps)
    assert np.array_equal(traj.coordinates, u[0::2] >= 0.5)
    assert np.array_equal(traj.values, np.floor(u[1::2] * GRID))


def test_ladder_weight_history_change_bound():
    n_steps = 3_000
    target = LadderTarget()
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    used = []
    adap_rsg_run(target, recording(ladder_update_rule, used), (1, 1), alpha0, n_steps, seed=8)
    assert len(used) == n_steps
    for n in range(2, n_steps + 1):
        a_now = schedule_a(n)
        a_prev = schedule_a(n - 1)
        gap = max(
            abs(w1 - w0) for w0, w1 in zip(used[n - 2].weights, used[n - 1].weights)
        )
        assert gap <= 8.0 * abs(1.0 / a_now - 1.0 / a_prev) + 16.0 / a_now + 1e-15


def test_mwg_degenerate_proposal_never_moves():
    target = ContinuousProductTarget((1.0, 1.0))

    def stay(rng, i, x, g):
        return x

    alpha = SelectionWeights((0.5, 0.5), 0.25)
    traj = mwg_run(
        target, stay, (1.0, 1.0), alpha, (0.1, -0.2), 200, seed=3
    )
    assert np.array_equal(traj.states, [(0.1, -0.2)] * 201)


class ZeroDensity:
    def conditional_density(self, i, x, y):
        return 0.0


def test_mwg_zero_density_at_current_state_rejected():
    alpha = SelectionWeights((1.0,), 1.0)
    with pytest.raises(ValueError):
        mwg_run(ZeroDensity(), gaussian_random_walk, (1.0,), alpha, (0.0,), 5, seed=1)


def test_mwg_rejects_a_bad_initial_state_before_any_step():
    """A zero density in a rarely chosen coordinate of x0 is caught before the
    first draw, and the message names that coordinate."""
    target = ContinuousProductTarget((1.0, 1.0, 1.0))
    alpha = SelectionWeights((0.49, 0.49, 0.02), 0.02)
    seen = []

    def observer(n, x, i, accepted):
        seen.append(n)

    with pytest.raises(ValueError, match="coordinate 2"):
        adap_rs_adap_mwg_run(
            target, gaussian_random_walk, keep_previous, keep_previous,
            (0.0, 0.0, 5.0), alpha, (1.0, 1.0, 1.0), 1_000, seed=1, observer=observer,
        )
    assert seen == []


def test_weights_of_the_wrong_dimension_are_refused_before_any_step():
    """Initial weights over fewer or more coordinates than ``x0`` are refused
    by both samplers before the first step, naming both lengths; with fewer,
    the last coordinate would otherwise never move."""
    seen = []

    def observer(n, x, i, accepted):
        seen.append(n)

    for alpha in (SelectionWeights((1.0,), 1.0), SelectionWeights((0.3, 0.3, 0.4), 0.1)):
        with pytest.raises(ValueError, match=rf"weights d={alpha.d}, x0 d=2"):
            adap_rsg_run(small_target(), keep_previous, (0, 0), alpha, 100, seed=1)
        with pytest.raises(ValueError, match=rf"weights d={alpha.d}, x0 d=2"):
            adap_rs_adap_mwg_run(
                ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk,
                keep_previous, keep_previous, (0.0, 0.0), alpha, (1.0, 1.0), 100,
                seed=1, observer=observer,
            )
    assert seen == []


@pytest.mark.parametrize("gamma0", [(1.0,), (1.0, 1.0, 1.0)])
def test_proposal_parameters_of_the_wrong_dimension_are_refused(gamma0):
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    with pytest.raises(ValueError, match=rf"proposal parameters d={len(gamma0)}, x0 d=2"):
        mwg_run(
            ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk, gamma0,
            alpha, (0.0, 0.0), 100, seed=1,
        )

    def rule(n, gamma_prev, x_prev):
        return gamma0 if n == 50 else gamma_prev

    with pytest.raises(ValueError, match=rf"proposal parameters d={len(gamma0)}, x0 d=2"):
        adap_rs_adap_mwg_run(
            ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk,
            keep_previous, rule, (0.0, 0.0), alpha, (1.0, 1.0), 100, seed=1,
        )


@pytest.mark.parametrize(
    "out, d",
    [
        (SelectionWeights((0.3, 0.3, 0.4), 0.1), 3),
        (SelectionWeights((0.2, 0.2, 0.6), 0.1), 3),
        (SelectionWeights((1.0,), 0.1), 1),
    ],
)
def test_weight_rule_output_of_the_wrong_dimension_is_refused(out, d):
    """Weights on the run's floor whose length is not ``len(x0)`` raise at
    the step that returns them."""
    alpha = SelectionWeights((0.5, 0.5), 0.1)

    def rule(n, alpha_prev, x_prev):
        return out if n == 50 else alpha_prev

    with pytest.raises(ValueError, match=rf"weights d={d}, x0 d=2"):
        adap_rsg_run(small_target(), rule, (0, 0), alpha, 100, seed=1)


def q_free_oracle(density, sample, alpha, x0, n_steps, seed):
    """Straight-line random scan Metropolis-within-Gibbs that recomputes both
    conditional densities on every step: ``density(i, x, y)`` is the target's
    conditional and ``sample(rng, i, x_i)`` a symmetric proposal."""
    rng = _generator(seed)
    x = tuple(x0)
    states = [x]
    accepted = []
    for _ in range(n_steps):
        i = bisect_right(alpha.cumulative, rng.random())
        y = sample(rng, i, x[i])
        u_acc = rng.random()
        ok = u_acc < min(1.0, density(i, x, y) / density(i, x, x[i]))
        if ok:
            x = x[:i] + (y,) + x[i + 1:]
        states.append(x)
        accepted.append(ok)
    return np.array(states, dtype=np.float64), accepted


class CountingProductTarget(ContinuousProductTarget):
    """Product target counting its conditional-density calls."""

    calls = 0

    def conditional_density(self, i, x, y):
        self.calls += 1
        return super().conditional_density(i, x, y)


def test_mwg_symmetric_proposal_equals_q_free_oracle():
    """With symmetric proposals the density factors cancel: a straight-line
    loop using the plain mass ratio reproduces the trajectory bit for bit.
    A product target's current-state density is kept until its coordinate
    moves, so the run makes d calls at x0 and then one per step."""
    target = CountingProductTarget((1.0, 3.0))
    alpha = SelectionWeights((0.4, 0.6), 0.2)
    gamma = (0.5, 0.1)
    n_steps = 2_000
    seed = 4242
    traj = mwg_run(target, gaussian_random_walk, gamma, alpha, (0.0, 0.0), n_steps, seed)
    assert target.calls == n_steps + 2

    def sample(rng, i, xi):
        return gaussian_random_walk(rng, i, xi, gamma[i])

    states, accepted = q_free_oracle(
        target.conditional_density, sample, alpha, (0.0, 0.0), n_steps, seed
    )
    assert_bitwise_equal(traj.states, states)
    assert np.array_equal(traj.accepted, accepted)


def test_non_product_target_density_is_recomputed_every_step():
    """On a finite target whose mass does not factor, the current-state
    density changes when another coordinate moves: the run must equal the
    oracle that recomputes both masses on every step."""
    rng = np.random.default_rng(8)
    masses = rng.uniform(0.1, 2.0, size=(3, 4))
    target = FiniteProductTarget(((0, 1, 2), (0, 1, 2, 3)), lambda x: masses[x])

    def neighbour(rng, i, xi):
        # symmetric: uniform over the coordinate's other values
        others = [v for v in target.coordinate_states[i] if v != xi]
        return others[int(rng.random() * len(others))]

    def propose(rng, i, xi, g):
        return neighbour(rng, i, xi)

    alpha = SelectionWeights((0.5, 0.5), 0.1)
    n_steps = 5_000
    traj = mwg_run(target, propose, (1.0, 1.0), alpha, (0, 0), n_steps, seed=32)

    def replaced_mass(i, x, y):
        return target.mass(x[:i] + (y,) + x[i + 1:])

    states, accepted = q_free_oracle(replaced_mass, neighbour, alpha, (0, 0), n_steps, 32)
    assert 0.1 < traj.accepted.mean() < 0.9
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.accepted, accepted)


def discrete_proposal(target, matrices):
    """Finite proposal from one symmetric matrix per coordinate, driven by one
    uniform per draw."""
    assert all(np.array_equal(m, m.T) for m in matrices)
    cum = [np.cumsum(m, axis=1) for m in matrices]
    value_index = [{v: k for k, v in enumerate(c)} for c in target.coordinate_states]

    def propose(rng, i, x, g):
        row = value_index[i][x]
        k = int(np.searchsorted(cum[i][row], rng.random(), side="right"))
        return target.coordinate_states[i][k]

    return propose


def test_mwg_empirical_law_matches_exact_kernel_oracle():
    target = small_target()
    matrices = [
        np.array([[0.4, 0.6], [0.6, 0.4]]),
        np.array([[0.3, 0.7], [0.7, 0.3]]),
    ]
    alpha = make_selection_weights((0.45, 0.55), 0.1)
    kernel = mwg_kernel_matrix(target, alpha, matrices)
    pi = stationary_distribution(kernel)

    propose = discrete_proposal(target, matrices)
    traj = mwg_run(target, propose, (1.0, 1.0), alpha, (0, 0), 1_000_000, seed=777)
    occupation_within_three_se(traj, kernel, pi)


class CorrelatedGaussianTarget:
    """Gaussian density ``exp(-(sum_j x_j^2 - 2 rho sum_{j<k} x_j x_k) / 2)``:
    coordinate ``i``'s conditional depends on the others through their sum,
    so a run must recompute the current-state density on every step."""

    def __init__(self, rho):
        self.rho = rho

    def conditional_density(self, i, x, y):
        others = sum(x[:i]) + sum(x[i + 1:])
        return math.exp(-0.5 * y * (y - 2.0 * self.rho * others))


FIXED_MWG_CASES = {
    "product": (
        ContinuousProductTarget((1.0, 2.0, 3.0, 4.0, 5.0)),
        SelectionWeights((0.3, 0.25, 0.2, 0.15, 0.1), 0.02),
        (0.8, 0.3, 0.1, 0.05, 0.03),
        (0.0,) * 5,
    ),
    "non-product": (
        CorrelatedGaussianTarget(0.3),
        SelectionWeights((0.5, 0.3, 0.2), 0.1),
        (1.5, 2.0, 0.7),
        (0.0, 0.5, -0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(FIXED_MWG_CASES))
@pytest.mark.parametrize(
    "n_steps", [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 7]
)
def test_fixed_parameter_run_equals_the_block_draw_oracle(case, n_steps):
    """On either side of each block boundary, and on a product target (whose
    current-state density is reused) and a non-product one (recomputed), the
    blocked run's records equal a per-step loop's over the same draws."""
    target, alpha, gamma, x0 = FIXED_MWG_CASES[case]
    run = rs_mwg_run(target, alpha, gamma, x0, n_steps, 29)
    want = rs_mwg_oracle(target, alpha, gamma, x0, n_steps, _generator(29))
    for got, expected in zip((run.coordinates, run.values, run.accepted), want):
        assert_bitwise_equal(got, expected)
    if n_steps > DRAW_BLOCK:
        assert 0.2 < run.accepted.mean() < 0.9


class BoundaryUniforms:
    """A generator whose uniforms are, one in three, exactly the weight
    boundaries ``boundaries`` in turn; its normals are ``rng``'s."""

    def __init__(self, rng, boundaries):
        self.rng = rng
        self.boundaries = np.asarray(boundaries)

    def random(self, size):
        u = self.rng.random(size)
        u[::3] = np.resize(self.boundaries, len(u[::3]))
        return u

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


def test_a_coordinate_uniform_on_a_weight_boundary_picks_the_coordinate_above(monkeypatch):
    """A coordinate uniform equal to ``alpha.cumulative[k]`` picks coordinate
    ``k + 1``, as ``bisect_right`` does; continuous uniforms almost never
    land there, so they are placed on the boundaries."""
    target, alpha, gamma, x0 = FIXED_MWG_CASES["product"]
    boundaries = alpha.cumulative[:-1]
    n_steps = 3 * DRAW_BLOCK + 7
    monkeypatch.setattr(
        samplers, "_generator", lambda seed: BoundaryUniforms(_generator(seed), boundaries)
    )
    run = rs_mwg_run(target, alpha, gamma, x0, n_steps, 3)
    want = rs_mwg_oracle(target, alpha, gamma, x0, n_steps, samplers._generator(3))
    for got, expected in zip((run.coordinates, run.values, run.accepted), want):
        assert_bitwise_equal(got, expected)
    first = run.coordinates[:DRAW_BLOCK:3]
    assert np.array_equal(first, np.resize(np.arange(1, target.d), len(first)))


TWO_WEIGHTS = SelectionWeights((0.5, 0.5), 0.25)


@pytest.mark.parametrize(
    "alpha, gamma, x0, n_steps, error, match",
    [
        (SelectionWeights((0.3, 0.3, 0.4), 0.1), (1.0, 1.0), (0.0, 0.0), 100,
         ValueError, "weights d=3, x0 d=2"),
        (TWO_WEIGHTS, [1.0, 1.0], (0.0, 0.0), 100, TypeError, "tuple of Python floats"),
        (TWO_WEIGHTS, (1.0, 1), (0.0, 0.0), 100, TypeError, "tuple of Python floats"),
        (TWO_WEIGHTS, (1.0,), (0.0, 0.0), 100, ValueError, "proposal parameters d=1, x0 d=2"),
        (TWO_WEIGHTS, (1.0, 0.0), (0.0, 0.0), 100, ValueError, "parameter 1 must be finite"),
        (TWO_WEIGHTS, (1.0, 1.0), (0.0, 5.0), 100, ValueError,
         "zero conditional density for coordinate 1"),
        (TWO_WEIGHTS, (1.0, 1.0), (0.0, 0.0), 0, ValueError, "at least one step"),
    ],
)
def test_fixed_parameter_run_refuses_what_the_per_step_loop_refuses(
    alpha, gamma, x0, n_steps, error, match
):
    target = ContinuousProductTarget((1.0, 2.0))
    with pytest.raises(error, match=match):
        rs_mwg_run(target, alpha, gamma, x0, n_steps, 1)
    with pytest.raises(error, match=match):
        mwg_run(target, gaussian_random_walk, gamma, alpha, x0, n_steps, 1)


def raised_cosine_cdf(z):
    """Distribution function of the raised cosine density on [-1, 1]."""
    return (z + 1.0) / 2.0 + math.sin(math.pi * z) / (2.0 * math.pi)


def test_fixed_parameter_run_has_raised_cosine_marginals():
    """Coordinate ``i`` of a long run on the product target has the law of
    ``z / scale_i`` with ``z`` raised-cosine: at five points, the fraction of
    states at or below the point is within five batch-means standard errors
    (50 batches) of the exact distribution function."""
    target = ContinuousProductTarget((1.0, 2.0))
    run = rs_mwg_run(
        target, SelectionWeights((0.5, 0.5), 0.25), (0.75, 0.19), (0.0, 0.0), 200_000, 61
    )
    n_batches = 50
    for i, scale in enumerate(target.scales):
        trace = run.coordinate_trace(i)[1_000:]
        batches = trace[: len(trace) // n_batches * n_batches].reshape(n_batches, -1)
        for z in (-0.6, -0.3, 0.0, 0.2, 0.5):
            below = (batches <= z / scale).mean(axis=1)
            se = below.std(ddof=1) / math.sqrt(n_batches)
            assert abs(below.mean() - raised_cosine_cdf(z)) <= 5.0 * se, (i, z)


def test_fresh_equal_parameters_match_keep_previous():
    """Rules handing back new but equal weights and gamma tuples are checked
    every step and must reproduce the identity-skip run."""
    target = ContinuousProductTarget((1.0, 2.0))
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    gamma = (0.3, 0.2)

    def fresh_alpha(n, alpha_prev, x_prev):
        return SelectionWeights(alpha.weights, alpha.epsilon)

    def fresh_gamma(n, gamma_prev, x_prev):
        return tuple(gamma)

    t_fresh = adap_rs_adap_mwg_run(
        target, gaussian_random_walk, fresh_alpha, fresh_gamma,
        (0.0, 0.0), alpha, gamma, 1_000, seed=11,
    )
    t_kept = mwg_run(target, gaussian_random_walk, gamma, alpha, (0.0, 0.0), 1_000, seed=11)
    assert np.array_equal(t_fresh.states, t_kept.states)
    assert np.array_equal(t_fresh.accepted, t_kept.accepted)


def test_tuple_of_floats_from_rule_is_recorded_as_is():
    """A rule's tuple of Python floats is checked once and then taken as is:
    the rule is handed back that very object as ``gamma_prev``."""
    target = ContinuousProductTarget((1.0, 2.0))
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    gamma0, early, late = tuple([1.0, 1.0]), tuple([0.3, 0.2]), tuple([0.5, 0.4])
    handed = []

    def switching(n, gamma_prev, x_prev):
        handed.append(gamma_prev)
        return early if n <= 100 else late

    adap_rs_adap_mwg_run(
        target, gaussian_random_walk, keep_previous, switching,
        (0.0, 0.0), alpha, gamma0, 200, seed=13,
    )
    assert handed[0] is gamma0
    assert all(g is early for g in handed[1:101])
    assert all(g is late for g in handed[101:])


# Proposal parameters of the right length and values but not a tuple of
# Python floats.
REFUSED_GAMMAS = {
    "list": [1.0, 1.0],
    "array": np.array([1.0, 1.0]),
    "int": (1.0, 1),
    "numpy-float": (np.float64(1.0), 1.0),
}


@pytest.mark.parametrize("out", list(REFUSED_GAMMAS.values()), ids=list(REFUSED_GAMMAS))
def test_proposal_rule_output_outside_the_contract_raises_at_its_step(out):
    """Only a tuple of Python floats is taken: anything else raises at the
    step that returns it, and is never copied into one."""
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    calls = []

    def rule(n, gamma_prev, x_prev):
        calls.append(n)
        return out if n == 50 else gamma_prev

    with pytest.raises(TypeError, match="tuple of Python floats"):
        adap_rs_adap_mwg_run(
            ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk,
            keep_previous, rule, (0.0, 0.0), alpha, (1.0, 1.0), 100, seed=1,
        )
    assert calls[-1] == 50


@pytest.mark.parametrize("gamma0", list(REFUSED_GAMMAS.values()), ids=list(REFUSED_GAMMAS))
def test_initial_proposal_parameters_outside_the_contract_are_refused(gamma0):
    alpha = SelectionWeights((0.5, 0.5), 0.25)
    seen = []

    def observer(n, x, i, accepted):
        seen.append(n)

    with pytest.raises(TypeError, match="tuple of Python floats"):
        adap_rs_adap_mwg_run(
            ContinuousProductTarget((1.0, 2.0)), gaussian_random_walk,
            keep_previous, keep_previous, (0.0, 0.0), alpha, gamma0, 100, seed=1,
            observer=observer,
        )
    assert seen == []


def test_doubly_adaptive_rejects_bad_gamma():
    """Proposal parameters must be finite and positive, from the start and
    from the proposal rule."""
    target = ContinuousProductTarget((1.0,))
    alpha = SelectionWeights((1.0,), 1.0)
    for bad in (-1.0, 0.0, math.inf, math.nan):

        def gamma_rule(n, gamma_prev, x_prev):
            return (bad,)

        with pytest.raises(ValueError, match="parameter 0 must be finite and positive"):
            adap_rs_adap_mwg_run(
                target, gaussian_random_walk, keep_previous, gamma_rule,
                (0.0,), alpha, (1.0,), 5, seed=1,
            )
        with pytest.raises(ValueError, match="parameter 0 must be finite and positive"):
            mwg_run(target, gaussian_random_walk, (bad,), alpha, (0.0,), 5, seed=1)


def test_chi_square_and_kolmogorov_tails_match_reference_values():
    # reference values from scipy 1.17.1: chi2.sf(20.0, 8), chi2.sf(x, 8) at
    # its 1e-3 quantile, and the Kolmogorov survival function at 1.5
    assert chi2_sf(20.0, 8) == pytest.approx(0.010336050675925726, rel=1e-12)
    assert chi2_sf(26.12448155837614, 8) == pytest.approx(1e-3, rel=1e-12)
    assert kolmogorov_sf(1.5) == pytest.approx(0.022217962616525127, rel=1e-12)
    # closed forms: one and two degrees of freedom, and the Jacobi branch
    for x in (0.3, 2.0, 9.0):
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-14)
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-14)
    assert kolmogorov_sf(0.999999) == pytest.approx(kolmogorov_sf(1.0), abs=1e-5)
    assert kolmogorov_sf(0.2) == pytest.approx(1.0, abs=1e-12)
    # three points against the standard normal: the largest gap is at 1,
    # between Phi(1) and the 2/3 just below it (and, mirrored, at -1)
    d, _ = ks_normal_test([0.0, 1.0, -1.0], 0.0, 1.0)
    assert d == pytest.approx(0.5 * math.erfc(-1.0 / math.sqrt(2.0)) - 2.0 / 3.0)


def test_gaussian_family_sampler_matches_density():
    rng = _generator(123)
    x, gamma = 0.7, 0.25
    draws = np.asarray([gaussian_random_walk(rng, 0, x, gamma) for _ in range(50_000)])
    assert abs(draws.mean() - x) <= 3.5 * math.sqrt(gamma / len(draws))
    assert abs(draws.var() - gamma) <= 4.0 * gamma * math.sqrt(2.0 / len(draws))
    _, p_value = ks_normal_test(draws, x, math.sqrt(gamma))
    assert p_value > 1e-3


def test_trajectory_invariants():
    Trajectory((0, 0), (1,), (1.0,), (True,), 1)
    with pytest.raises(ValueError, match="step count"):
        Trajectory((0, 0), (0,), (1.0, 1.0), (True,), 1)
    with pytest.raises(ValueError, match="step count"):
        Trajectory((0, 0), (1, 1), (1.0, 1.0), (True,), 1)
    with pytest.raises(ValueError, match="coordinates"):
        Trajectory((0, 0), (2,), (1.0,), (True,), 1)


def replay_record(trajectory):
    """Straight-line replay of a run's record: start from the initial state
    and, step by step, set the chosen coordinate to its recorded value."""
    x = tuple(float(v) for v in trajectory.x0)
    states = [x]
    for i, v in zip(trajectory.coordinates.tolist(), trajectory.values.tolist()):
        x = x[:i] + (v,) + x[i + 1:]
        states.append(x)
    return np.array(states, dtype=np.float64)


def assert_record_replays(trajectory):
    want = replay_record(trajectory)
    assert_bitwise_equal(trajectory.states, want)
    for i in range(trajectory.d):
        assert_bitwise_equal(trajectory.coordinate_trace(i), want[:, i])
    assert trajectory.final_state == tuple(want[-1].tolist())
    assert all(type(v) is float for v in trajectory.final_state)


def test_ladder_states_match_record_replay():
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    traj = adap_rsg_run(LadderTarget(), ladder_update_rule, (1, 1), alpha0, 3_000, seed=21)
    assert traj.final_state[0] > 2  # the run climbed the ladder
    assert_record_replays(traj)


def test_mwg_states_match_record_replay():
    target = ContinuousProductTarget((1.0, 3.0, 0.5))
    alpha = SelectionWeights((0.3, 0.3, 0.4), 0.2)
    traj = mwg_run(
        target, gaussian_random_walk, (2.0, 0.5, 4.0),
        alpha, (0.0, 0.1, -0.2), 3_000, seed=22,
    )
    assert 0.1 < traj.accepted.mean() < 0.9  # rejections and moves both occur
    assert_record_replays(traj)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_states_change_only_the_chosen_coordinate(data):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 40))
    x0 = data.draw(st.lists(finite_floats, min_size=d, max_size=d))
    coordinates = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    values = data.draw(st.lists(finite_floats, min_size=n, max_size=n))
    traj = Trajectory(x0, coordinates, values, [True] * n, 0)
    states = traj.states
    changed = states[1:] != states[:-1]
    assert changed.sum(axis=1).max() <= 1
    changed[np.arange(n), coordinates] = False
    assert not changed.any()
    assert_record_replays(traj)


def test_rows_equal_the_slices_of_the_states():
    traj = Trajectory((0.5, 1.5, 2.5), (0, 2, 0, 2, 2), (1.0, 2.0, 3.0, 4.0, 5.0), (True,) * 5, 0)
    states = replay_record(traj)
    for start in range(6):
        for stop in range(start + 1, 7):
            assert_bitwise_equal(traj.rows(start, stop), states[start:stop])
    for start, stop in ((0, 0), (3, 2), (-1, 2), (0, 7)):
        with pytest.raises(ValueError, match="row range"):
            traj.rows(start, stop)


def test_final_state_is_each_coordinates_last_move():
    traj = Trajectory((1, 1.5, 2.5), (0, 2, 0, 2), (3.0, 4.0, 5.0, 6.0), (True,) * 4, 0)
    assert traj.final_state == (5.0, 1.5, 6.0)  # coordinate 1 never chosen
    assert traj.final_state == tuple(traj.states[-1].tolist())
    assert all(type(v) is float for v in traj.final_state)
    target = ContinuousProductTarget((1.0, 2.0, 3.0, 4.0))
    run = mwg_run(
        target, gaussian_random_walk, (1.0,) * 4,
        SelectionWeights((0.25,) * 4, 0.1), (0.01, 0.02, 0.03, 0.04), 2, seed=5,
    )
    assert len(set(run.coordinates.tolist())) < 4
    assert run.final_state == tuple(run.states[-1].tolist())


OBSERVABLE = np.arange(1.0, 6.0)


@pytest.fixture(scope="module")
def five_coordinate_run():
    return mwg_run(
        ContinuousProductTarget((1.0, 2.0, 3.0, 4.0, 5.0)), gaussian_random_walk,
        (1.0, 4.0, 9.0, 16.0, 25.0), SelectionWeights((0.2,) * 5, 0.02), (0.0,) * 5,
        1_000, seed=5,
    )


@pytest.mark.parametrize(
    "block, burn_in, n_steps",
    [
        (2, 5, 769), (2, 6, 770), (2, 7, 771),
        (7, 20, 769), (7, 21, 770), (7, 22, 771),
        (50, 149, 749), (50, 150, 750), (50, 151, 751),
    ],
)
def test_row_blocks_give_the_whole_observable_bit_for_bit(
    monkeypatch, five_coordinate_run, block, burn_in, n_steps
):
    """``block @ a`` over ``row_blocks(burn_in)`` equals ``states[burn_in:] @ a``
    bit for bit, with ``burn_in`` just before, at and just after a multiple
    of the block size.  Every case leaves a one-row tail, which must be
    joined to the block before it: numpy takes a one-row product as a dot
    product, and on rows 742-795 of this run that rounds differently from
    the matrix product, so each case ends on one of them."""
    monkeypatch.setattr(samplers, "ROW_BLOCK", block)
    assert (n_steps + 1 - burn_in) % block == 1
    run = five_coordinate_run
    prefix = Trajectory(
        run.x0, run.coordinates[:n_steps], run.values[:n_steps], run.accepted[:n_steps], run.seed
    )
    blocks = list(prefix.row_blocks(burn_in))
    assert min(len(b) for b in blocks) >= 2
    got = np.concatenate([b @ OBSERVABLE for b in blocks])
    assert_bitwise_equal(got, prefix.states[burn_in:] @ OBSERVABLE)


def test_trajectory_csv_is_the_same_in_any_row_blocks(monkeypatch, tmp_path, five_coordinate_run):
    write_trajectory_csv(five_coordinate_run, tmp_path / "whole.csv")
    monkeypatch.setattr(samplers, "ROW_BLOCK", 7)
    write_trajectory_csv(five_coordinate_run, tmp_path / "blocks.csv")
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()
    assert len((tmp_path / "blocks.csv").read_text().splitlines()) == 1_002


def test_trajectory_csv_round_trip(tmp_path):
    target = small_target()
    alpha = make_selection_weights((0.4, 0.6), 0.1)
    traj = rsg_run(target, alpha, (0, 0), 50, seed=9)
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, path)
    assert path.read_text().splitlines()[0] == "step,coordinate,accepted,x_1,x_2"
    columns = read_trajectory_csv(path)
    assert len(columns["step"]) == 51
    np.testing.assert_allclose(columns["x_1"][1:], [s[0] for s in traj.states[1:]])
    np.testing.assert_allclose(columns["x_2"][1:], [s[1] for s in traj.states[1:]])
    assert columns["coordinate"][3] == traj.coordinates[2] + 1


def test_trajectory_csv_columns_read_back_bit_for_bit(tmp_path, five_coordinate_run):
    run = five_coordinate_run
    path = tmp_path / "run.csv"
    write_trajectory_csv(run, path)
    columns = read_trajectory_csv(path)
    assert list(columns) == ["step", "coordinate", "accepted", "x_1", "x_2", "x_3", "x_4", "x_5"]
    assert_bitwise_equal(columns["step"], np.arange(run.n_steps + 1, dtype=np.float64))
    assert_bitwise_equal(columns["coordinate"][1:], (run.coordinates + 1).astype(np.float64))
    assert_bitwise_equal(columns["accepted"][1:], run.accepted.astype(np.float64))
    states = run.states
    for k in range(run.d):
        assert_bitwise_equal(columns[f"x_{k + 1}"], np.ascontiguousarray(states[:, k]))


@pytest.mark.parametrize("n_steps", [0, -5])
def test_gibbs_loop_rejects_fewer_than_one_step(n_steps):
    alpha = make_selection_weights((0.5, 0.5), 0.1)
    with pytest.raises(ValueError, match="n_steps"):
        adap_rsg_run(small_target(), keep_previous, (0, 0), alpha, n_steps, seed=1)


@pytest.mark.parametrize("n_steps", [0, -5])
def test_metropolis_loop_rejects_fewer_than_one_step(n_steps):
    target = ContinuousProductTarget((1.0, 2.0))
    alpha = make_selection_weights((0.5, 0.5), 0.1)
    with pytest.raises(ValueError, match="n_steps"):
        mwg_run(
            target, gaussian_random_walk, (1.0, 1.0),
            alpha, (0.0, 0.0), n_steps, seed=1,
        )
