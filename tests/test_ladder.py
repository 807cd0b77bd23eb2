import bisect
import hashlib
import math

import numpy as np
import pytest

from adagibbs.kernels import tv
from adagibbs.ladder import (
    LAW_CHUNK,
    _TOTAL_MASS,
    LADDER_EPSILON,
    LADDER_START,
    FailureBudget,
    LadderTarget,
    Schedule,
    dominance_holds,
    dominating_walk_law,
    failure_probability_budget,
    hoeffding_tail,
    ladder_increment_floor,
    ladder_step_law,
    ladder_update_rule,
    last_half_slope,
    linear_schedule,
    schedule_a,
    stochastically_dominates,
    transience_experiment,
    truncated_ladder_evolution,
    unbounded_ladder_law,
)
from adagibbs.samplers import adap_rsg_run, derive_seed, keep_previous
from adagibbs.weights import SelectionWeights
from oracles import (
    assert_bitwise_equal,
    dense_ladder_laws,
    ladder_law_oracle,
    ladder_step_law_oracle,
    state_dependent_gibbs_kernel,
    truncated_ladder_evolution_oracle,
    truncated_ladder_target,
    unbounded_ladder_law_oracle,
)


def test_ladder_state_invariants():
    target = LadderTarget()
    assert target.contains((3, 3))
    assert target.contains((4, 3))
    ladder_update_rule(1, None, (3, 3))
    ladder_update_rule(1, None, (4, 3))
    for off_ladder in ((3, 4), (5, 3), (0, 0)):
        assert not target.contains(off_ladder)
        with pytest.raises(ValueError):
            ladder_update_rule(1, None, off_ladder)


def test_schedule_first_blocks():
    assert schedule_a(1) == pytest.approx(10.0)
    assert schedule_a(1000) == pytest.approx(10.0)
    assert schedule_a(1001) == pytest.approx(10.0 + math.log(2))
    with pytest.raises(ValueError):
        schedule_a(0)


def test_schedule_block_structure():
    sched = Schedule()
    for k in range(1, 6):
        lo = int(sched.block_boundary(k - 1)) + 1
        hi = int(sched.block_boundary(k))
        assert sched.a(lo) == pytest.approx(10.0 + math.log(k))
        assert sched.a(hi) == pytest.approx(10.0 + math.log(k))
        jump = sched.a(hi + 1) - sched.a(hi)
        assert jump == pytest.approx(math.log((k + 1) / k), abs=1e-12)
    # block lengths and boundaries strictly increase
    lengths = [sched.block_length(k) for k in range(1, 30)]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))
    bounds = [sched.block_boundary(k) for k in range(0, 30)]
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    assert sched.block_length(1) == 1000.0


def test_update_rule_values():
    assert ladder_update_rule(1, None, (2, 2)).weights == pytest.approx((0.9, 0.1))
    assert ladder_update_rule(1, None, (3, 2)).weights == pytest.approx((0.1, 0.9))


def test_update_rule_limit_and_floor():
    # tilt 4/a_n shrinks to zero and never grows
    last = math.inf
    for n in (1, 1000, 1001, 5000, 50_000, 500_000):
        w = ladder_update_rule(n, None, (4, 4)).weights
        tilt = max(abs(v - 0.5) for v in w)
        assert tilt == pytest.approx(4.0 / schedule_a(n), abs=1e-15)
        assert tilt <= last + 1e-15
        last = tilt
    assert LADDER_EPSILON == 0.5 - 4 / 10


def test_update_rule_matches_straight_line_block_replay():
    # Replay the block boundaries, b_1 = 1000 and
    # b_k = b_{k-1} (1 + 1/(10 + log k)), and check every step of the first
    # four blocks on both kinds of state.
    length = boundary = 0.0
    n = 1
    for k in range(1, 5):
        length = 1000.0 if k == 1 else length * (1.0 + 1.0 / (10.0 + math.log(k)))
        boundary += length
        tilt = 4.0 / (10.0 + math.log(k))
        while n <= boundary:
            diagonal = ladder_update_rule(n, None, (6, 6))
            off_diagonal = ladder_update_rule(n, None, (7, 6))
            assert diagonal.weights == (0.5 + tilt, 0.5 - tilt), n
            assert off_diagonal.weights == (0.5 - tilt, 0.5 + tilt), n
            assert diagonal.epsilon == off_diagonal.epsilon == 0.5 - 4 / 10
            n += 1
    assert n == int(Schedule().block_boundary(4)) + 1


def test_update_rule_hands_out_two_objects_per_block():
    sched = Schedule()
    for k in (1, 2, 7):
        lo = int(sched.block_boundary(k - 1)) + 1
        hi = int(sched.block_boundary(k))
        steps = (lo, (lo + hi) // 2, hi)
        # the lists keep every object alive, so equal ids mean one object
        diagonal = [ladder_update_rule(n, None, (i, i)) for n in steps for i in (1, 2, 40)]
        off_diagonal = [
            ladder_update_rule(n, None, (i + 1, i)) for n in steps for i in (1, 2, 40)
        ]
        assert len({id(w) for w in diagonal}) == 1, k
        assert len({id(w) for w in off_diagonal}) == 1, k
        assert diagonal[0] is not off_diagonal[0]
        assert ladder_update_rule(hi + 1, None, (1, 1)) is not diagonal[0]


def test_conditionals():
    target = LadderTarget()
    vals1, probs1 = target.conditional(0, (2, 2))
    vals2, probs2 = target.conditional(1, (2, 2))
    assert vals1 == (2, 3) and probs1 == (0.5, 0.5)
    assert vals2 == (1, 2)
    assert probs2 == pytest.approx((4.0 / 5.0, 1.0 / 5.0))
    vals2, probs2 = target.conditional(1, (1, 1))
    assert vals2 == (1,) and probs2 == (1.0,)
    # first-coordinate conditional is always uniform: both rungs share j**-2
    for state in ((1, 1), (5, 4), (9, 9)):
        _, probs1 = target.conditional(0, state)
        assert probs1 == (0.5, 0.5)


# A state that enters the chain from outside is refused when a coordinate is
# not an integer, instead of being truncated to one.  Integral floats, as
# Trajectory.final_state gives, are the integer state.


def test_contains_refuses_a_non_integral_state():
    target = LadderTarget()
    for off_ladder in ((1.5, 1), (2.7, 2), (3, 2.5), (math.inf, 1), (math.nan, 1)):
        assert not target.contains(off_ladder)
    assert target.contains((3.0, 3.0)) and target.contains((4.0, 3))


def test_a_run_refuses_a_non_integral_start():
    target = LadderTarget()
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    with pytest.raises(ValueError, match="outside the target support"):
        adap_rsg_run(target, keep_previous, (1.5, 1), alpha0, 10, 1)
    first = adap_rsg_run(target, ladder_update_rule, LADDER_START, alpha0, 200, 3)
    again = adap_rsg_run(target, ladder_update_rule, first.final_state, alpha0, 10, 4)
    assert again.x0 == first.final_state


def test_step_law_refuses_a_non_integral_state():
    with pytest.raises(ValueError, match="is not on the ladder"):
        ladder_step_law((2.7, 2), 1)
    assert ladder_step_law((3.0, 3.0), 1) == ladder_step_law((3, 3), 1)


WRONG_LENGTHS = {
    "rung-and-more": (2, 1, 99),
    "bottom-and-more": (1, 1, 5),
    "one": (1,),
    "none": (),
    "scalar": 3,
}


@pytest.mark.parametrize("x", list(WRONG_LENGTHS.values()), ids=list(WRONG_LENGTHS))
def test_a_state_of_another_length_is_not_a_rung(x):
    """A rung is a pair: every entry point refuses any other length, as it
    refuses a pair off the ladder."""
    target = LadderTarget()
    assert not target.contains(x)
    for coord in (0, 1):
        with pytest.raises(ValueError, match="is not on the ladder"):
            target.conditional(coord, x)
        with pytest.raises(ValueError, match="is not on the ladder"):
            target.conditional_cdf(coord, x)
    with pytest.raises(ValueError, match="is not on the ladder"):
        ladder_step_law(x, 3)
    with pytest.raises(ValueError, match="is not on the ladder"):
        ladder_update_rule(1, None, x)


NOT_NUMBERS = {"none-first": (None, 1), "complex-first": (1j, 1), "none-second": (1, None)}


@pytest.mark.parametrize("x", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_a_pair_with_an_entry_that_is_not_a_number_is_not_a_rung(x):
    """An entry that ``int()`` cannot take is refused as a pair off the
    ladder is: no ``TypeError`` reaches the caller."""
    target = LadderTarget()
    assert not target.contains(x)
    for coord in (0, 1):
        with pytest.raises(ValueError, match="is not on the ladder"):
            target.conditional_cdf(coord, x)
    with pytest.raises(ValueError, match="is not on the ladder"):
        ladder_update_rule(1, None, x)
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    for rule in (ladder_update_rule, keep_previous):
        with pytest.raises(ValueError, match="outside the target support"):
            adap_rsg_run(target, rule, x, alpha0, 10, 1)


@pytest.mark.parametrize(
    "x0", [(1, 1, 1), (2, 1, 99), (1,)], ids=["triple", "rung-and-more", "one"]
)
def test_a_run_refuses_a_start_of_another_length(x0):
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    for rule in (ladder_update_rule, keep_previous):
        with pytest.raises(ValueError, match="outside the target support"):
            adap_rsg_run(LadderTarget(), rule, x0, alpha0, 10, 1)


def running_sum_oracle(target, coord, x):
    """The cumulative table as the running sum of :meth:`conditional`'s
    probabilities, its last entry set to 1.0."""
    values, probs = target.conditional(coord, x)
    cumulative = []
    acc = 0.0
    for p in probs:
        acc += p
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return values, tuple(cumulative)


def assert_same_table(got, want):
    assert got == want
    assert [type(v) for v in got[0]] == [int] * len(want[0])
    assert [type(p) for p in got[1]] == [float] * len(want[1])


def test_conditional_cdf_is_the_running_sum_of_the_conditional():
    """Both coordinates' cumulative tables equal the running sums of the
    conditional's probabilities bit for bit, on levels 1-2000 and 10**5."""
    target = LadderTarget()
    for j in (*range(1, 2001), 10**5):
        for x in ((j, j), (j + 1, j)):
            for coord in (0, 1):
                want = running_sum_oracle(target, coord, x)
                assert_same_table(target.conditional_cdf(coord, x), want)


@pytest.mark.parametrize(
    "x, rung",
    [((3.0, 3.0), (3, 3)), ((4.0, 3), (4, 3)), ((1.0, 1.0), (1, 1)),
     ((np.int64(5), np.float64(4.0)), (5, 4))],
    ids=["floats", "float-int", "bottom", "numpy"],
)
def test_integral_non_int_entries_give_the_tables_of_the_int_rung(x, rung):
    """An integral float or numpy entry is the integer it equals: the tables
    hold Python ints and equal those of the integer rung bit for bit."""
    target = LadderTarget()
    for coord in (0, 1):
        want = running_sum_oracle(target, coord, rung)
        assert_same_table(target.conditional_cdf(coord, x), want)
        assert_same_table(target.conditional(coord, x), target.conditional(coord, rung))


def replayed_boundaries(n_blocks):
    """``c_0 .. c_{n_blocks}`` replayed straight-line: ``b_1 = 1000`` and
    ``b_k = b_{k-1} (1 + 1/(10 + log k))``, summed in order."""
    boundaries = [0.0]
    length = 0.0
    for k in range(1, n_blocks + 1):
        length = 1000.0 if k == 1 else length * (1.0 + 1.0 / (10.0 + math.log(k)))
        boundaries.append(boundaries[-1] + length)
    return boundaries


def test_block_lookup_with_memory_equals_a_bisect_of_the_replayed_boundaries():
    """``block_of`` answers from the block it found last only when that
    block holds ``n``: in any order, each answer is the bisection of the
    replayed boundaries, the first and last step of each of the first ten
    blocks included."""
    c = replayed_boundaries(12)
    edges = [edge for k in range(1, 11) for edge in (math.floor(c[k - 1]) + 1, math.floor(c[k]))]
    rng = np.random.default_rng(3)
    orders = [
        edges,
        edges[::-1],  # the last step of a block right after the next block
        edges + [1, 2, 999, 1000, 1001] + edges,  # n restarting at 1
        *(rng.permutation(edges + [n + 1 for n in edges]).tolist() for _ in range(20)),
    ]
    for order in orders:
        sched = Schedule()
        for n in order:
            assert sched.block_of(n) == bisect.bisect_left(c, n), (order, n)
    assert [bisect.bisect_left(c, n) for n in edges] == [k for k in range(1, 11) for _ in "ab"]


@pytest.mark.parametrize("n", [0, -1, -1000])
def test_block_lookup_refuses_a_step_below_one_after_any_block(n):
    sched = Schedule()
    for last in (None, 1, 1000, 1001, 50_000):
        if last is not None:
            sched.block_of(last)
        with pytest.raises(ValueError, match="step index must be >= 1"):
            sched.block_of(n)


def test_step_law_matches_the_rule_and_conditionals():
    for n in (1, 1001, 40_000):
        for level in range(1, 41):
            for state in ((level, level), (level + 1, level)):
                law = ladder_step_law(state, n)
                expected = ladder_step_law_oracle(state, n)
                assert all(type(law[k]) is float for k in law)
                for k in (-1, 0, 1):
                    assert law[k] == pytest.approx(expected[k], abs=1e-15), (state, n, k)


def test_step_law_bottom_state():
    law = ladder_step_law((1, 1), 1)
    assert law[1] == pytest.approx(0.25 + 2.0 / 10.0)
    assert law[-1] == 0.0
    assert sum(law.values()) == pytest.approx(1.0)


def closed_form_step_law(i, j, a):
    """Direct transcription of the two three-point laws (valid for i >= 2)."""
    denom = i * i + (i - 1) * (i - 1)
    if i == j:
        down = (0.5 - 4.0 / a) * i * i / denom
        up = 0.25 + 2.0 / a
    else:
        down = 0.25 - 2.0 / a
        up = (0.5 + 4.0 / a) * (i - 1) * (i - 1) / denom
    return {-1: down, 0: 1.0 - down - up, 1: up}


def test_step_law_matches_closed_forms():
    for n in (1, 1001, 40_000):
        a = schedule_a(n)
        for i in (2, 3, 7, 20):
            for state in ((i, i), (i, i - 1)):
                law = ladder_step_law(state, n)
                expected = closed_form_step_law(state[0], state[1], a)
                for k in (-1, 0, 1):
                    assert law[k] == pytest.approx(expected[k], abs=1e-14), (state, n)


def test_step_law_drift_sanity():
    # at height the mean increment approaches 4/a_n from below
    law = ladder_step_law((1000, 1000), 1)
    mean = sum(k * v for k, v in law.items())
    assert mean == pytest.approx(4.0 / 10.0, abs=1e-3)


def test_dominating_walk_values():
    law = dominating_walk_law(1)
    assert law == pytest.approx({-1: 0.15, 0: 0.5, 1: 0.35})
    assert sum(law.values()) == pytest.approx(1.0)
    mean = sum(k * v for k, v in law.items())
    assert mean == pytest.approx(2.0 / 10.0)


def test_dominance_examples():
    assert dominance_holds(10, 1000)
    assert not dominance_holds(8, 1000)
    assert dominance_holds(9, 1000)  # boundary: 2*9 - 8 == a_n == 10


def test_dominance_matches_analytic_criterion():
    for n in (1, 999, 1001, 2500, 90_000):
        a = schedule_a(n)
        for i in range(1, 60):
            assert dominance_holds(i, n) == (2 * i - 8 >= a), (i, n)


def test_step_law_dominates_floor_law():
    # The exact increment law at (i, i) sits stochastically above the floor
    # law for every height; at the off-diagonal states (i, i-1) this holds
    # from i = 3 on.  Heights below that never matter: the coupling is only
    # invoked where 2i - 8 >= a_n > 8, i.e. from the ninth rung up.
    for n in (1, 1001, 30_000):
        for i in range(1, 40):
            floor = ladder_increment_floor(i, n)
            assert sum(floor.values()) == pytest.approx(1.0)
            assert min(floor.values()) >= 0.0
            assert stochastically_dominates(ladder_step_law((i, i), n), floor), (i, n)
            if i >= 3:
                assert stochastically_dominates(
                    ladder_step_law((i, i - 1), n), floor
                ), (i, n)


def test_floor_law_edge_at_second_rung():
    # regression anchor: at (2, 1) the up-move mass (1/2 + 4/a) / 5 stays
    # below the floor's (1/4 + 2/a) / 2, so dominance genuinely fails there
    law = ladder_step_law((2, 1), 1)
    floor = ladder_increment_floor(2, 1)
    assert law[1] == pytest.approx(0.18)
    assert floor[1] == pytest.approx(0.225)
    assert not stochastically_dominates(law, floor)


def test_hoeffding_examples():
    assert hoeffding_tail(5, 0.0) == 1.0
    assert hoeffding_tail(2, 1.0) == pytest.approx(math.exp(-1.0))
    assert hoeffding_tail(4, 0.5) < hoeffding_tail(2, 0.5)
    assert hoeffding_tail(2, 0.8) < hoeffding_tail(2, 0.5)


def test_failure_budget():
    budget = failure_probability_budget(10_000)
    assert isinstance(budget, FailureBudget)
    assert budget.p[0] == pytest.approx(math.exp(-5.0))
    # decreasing from the second block on (the first-to-second step goes up)
    assert budget.log_p[1] > budget.log_p[0]
    assert np.all(np.diff(budget.log_p[1:]) < 0.0)
    assert budget.product > 0.9
    shorter = failure_probability_budget(100)
    assert shorter.product >= budget.product


def test_truncated_target_enumeration():
    target = truncated_ladder_target(5)
    assert len(target.states) == 9
    values, probs = target.conditional(0, (5, 5))
    assert values == (5,) and probs == (1.0,)
    values, probs = target.conditional(0, (4, 4))
    assert values == (4, 5) and probs == (0.5, 0.5)


def test_ladder_target_views_agree():
    # below the top rung the truncation does not reach the conditionals
    unbounded = LadderTarget()
    finite = truncated_ladder_target(4)
    for x in finite.states:
        if x[1] == 4:
            continue
        for coord in (0, 1):
            vals_a, probs_a = unbounded.conditional(coord, x)
            vals_b, probs_b = finite.conditional(coord, x)
            assert vals_a == vals_b
            assert probs_a == pytest.approx(probs_b, abs=1e-14)
    assert unbounded.contains((10**9, 10**9))
    assert not unbounded.contains((1, 3))


def test_fast_evolution_matches_generic_evolution():
    # The step-n kernel written out state by state: weights (1/2 + 4/a_n,
    # 1/2 - 4/a_n) on the diagonal, mirrored off it.  Fails if the rung
    # table tilts the wrong way (the sign of its slope flipped).
    truncation = 4
    a_of_n = linear_schedule(10.0, 3.0)
    fast = truncated_ladder_evolution(truncation, a_of_n, tv_target=0.0, max_steps=60)
    target = truncated_ladder_target(truncation)
    eps = 0.5 - 4.0 / a_of_n(1)
    pi = target.probabilities()
    v = np.array([1.0 if x == (1, 1) else 0.0 for x in target.states])
    assert len(fast.tv) == 61
    for n in range(1, 61):
        tilt = 4.0 / a_of_n(n)
        up = SelectionWeights((0.5 + tilt, 0.5 - tilt), eps)
        down = SelectionWeights((0.5 - tilt, 0.5 + tilt), eps)
        kernel = state_dependent_gibbs_kernel(target, lambda x: up if x[0] == x[1] else down)
        assert abs(tv(v, pi) - fast.tv[n - 1]) <= 1e-12
        v = v @ kernel.matrix
    assert abs(tv(v, pi) - fast.tv[60]) <= 1e-12


EVOLUTION_TRUNCATIONS = (2, 3, 20)
EVOLUTION_SCHEDULES = {"linear": linear_schedule(10.0, 2.0), "block": schedule_a}


@pytest.mark.parametrize("step", [1, LAW_CHUNK, LAW_CHUNK + 1, 2 * LAW_CHUNK, 2 * LAW_CHUNK + 1])
def test_truncated_evolution_stops_where_the_per_step_oracle_does(step):
    # at step 1, at a chunk's last step and at the next chunk's first; under
    # the block schedule the distance rises after step 1, so only the linear
    # one has a horizon there
    a_of_n = EVOLUTION_SCHEDULES["linear"]
    for truncation in EVOLUTION_TRUNCATIONS:
        trace, _ = truncated_ladder_evolution_oracle(truncation, a_of_n, 0.0, step)
        tv_target = float(np.nextafter(trace[step], 1.0))
        want, horizon = truncated_ladder_evolution_oracle(
            truncation, a_of_n, tv_target, 3 * LAW_CHUNK
        )
        assert horizon == step, truncation  # the distance falls strictly until then
        got = truncated_ladder_evolution(truncation, a_of_n, tv_target, 3 * LAW_CHUNK)
        assert got.horizon == horizon, truncation
        assert_bitwise_equal(got.tv, want)


@pytest.mark.parametrize(
    "max_steps",
    [1, LAW_CHUNK // 2, LAW_CHUNK - 1, LAW_CHUNK, LAW_CHUNK + 1, LAW_CHUNK + LAW_CHUNK // 2,
     2 * LAW_CHUNK + 1],
)
def test_truncated_evolution_without_a_horizon_equals_the_per_step_oracle(max_steps):
    # max_steps within the first chunk, on either side of a chunk's end, or in
    # the middle of the second; each chunk's moves are built at once
    for truncation in EVOLUTION_TRUNCATIONS:
        for name, a_of_n in EVOLUTION_SCHEDULES.items():
            want, horizon = truncated_ladder_evolution_oracle(truncation, a_of_n, 1e-300, max_steps)
            assert horizon is None
            got = truncated_ladder_evolution(truncation, a_of_n, 1e-300, max_steps)
            assert got.horizon is None and not got.reached, (truncation, name)
            assert_bitwise_equal(got.tv, want)


# sha256 of the probability bytes, as the law was pushed when each step
# built its own moves
UNBOUNDED_LAW_SHA256 = {
    150: "edb480adbff413cac4b90026c4089fccd0be2c060c36158f7b1b37bc72b162cf",
    2000: "7c8c6d29286f7b99bf5ac533fb84330e37601bac59e6b180247123172dd8fca5",
}


@pytest.mark.parametrize("n_steps", sorted(UNBOUNDED_LAW_SHA256))
def test_unbounded_law_equals_the_per_step_push_bit_for_bit(n_steps):
    law = unbounded_ladder_law(n_steps)
    assert_bitwise_equal(law.probs, unbounded_ladder_law_oracle(n_steps))
    assert hashlib.sha256(law.probs.tobytes()).hexdigest() == UNBOUNDED_LAW_SHA256[n_steps]


@pytest.mark.parametrize("a_of_n", [linear_schedule(10.0, 3.0), schedule_a])
@pytest.mark.parametrize("truncation", [2, 3, 4, 5, 6])
def test_rung_law_matches_the_dense_law_on_the_truncated_ladder(truncation, a_of_n):
    target, dense = dense_ladder_laws(truncation, a_of_n, 60)
    step, v, _ = ladder_law_oracle(truncation)
    laws = [v]
    for n in range(1, 61):
        laws.append(step(laws[-1], a_of_n(n)))
    for n, (got, want) in enumerate(zip(laws, dense)):
        assert np.abs(got - want).max() <= 1e-13, n
        assert abs(got.sum() - 1.0) <= 1e-13, n
    pi = target.probabilities()
    evolution = truncated_ladder_evolution(truncation, a_of_n, tv_target=0.0, max_steps=60)
    assert np.abs(evolution.tv - [tv(v, pi) for v in dense]).max() <= 1e-13


def test_rung_law_keeps_its_mass_on_the_truncated_ladder():
    # 2000 steps with the block schedule park the mass on the top rungs,
    # whose climb the truncation removes
    step, v, _ = ladder_law_oracle(3)
    for n in range(1, 2001):
        v = step(v, schedule_a(n))
    assert abs(v.sum() - 1.0) <= 1e-12
    assert v.min() >= 0.0 and v[-1] > 0.5


@pytest.mark.parametrize("n_steps", [0, 1, 5, 25, 150])
def test_unbounded_law_matches_the_dense_law(n_steps):
    law = unbounded_ladder_law(n_steps)
    target, dense = dense_ladder_laws(n_steps + 2, schedule_a, n_steps)
    assert law.states == target.states
    assert law.n_steps == n_steps
    assert np.abs(law.probs - dense[-1]).max() <= 1e-15
    assert abs(law.probs.sum() - 1.0) <= 1e-13
    pi = np.array([target.mass(x) for x in target.states]) / _TOTAL_MASS
    expected_tv = tv(np.append(dense[-1], 0.0), np.append(pi, 1.0 - pi.sum()))
    assert law.tv_to_target == pytest.approx(expected_tv, abs=1e-15)


def test_block_schedule_keeps_truncated_chain_far_from_target():
    # with the transience schedule the weights stay tilted by ~0.3 for any
    # feasible horizon, so the truncated chain parks near the top rungs
    ev = truncated_ladder_evolution(20, Schedule().a, tv_target=1e-3, max_steps=2_000)
    assert not ev.reached
    assert ev.tv[-1] > 0.9


def test_linear_schedule_truncated_chain_converges_monotonically():
    ev = truncated_ladder_evolution(
        20, linear_schedule(10.0, 2.0), tv_target=1e-3, max_steps=200_000
    )
    assert ev.reached
    assert 1_000 < ev.horizon < 100_000
    tail = ev.tv[int(len(ev.tv) * 0.9):]
    assert np.all(np.diff(tail) <= 1e-12)


def test_linear_schedule_validation():
    with pytest.raises(ValueError):
        linear_schedule(offset=8.0, slope=5.0)
    with pytest.raises(ValueError):
        linear_schedule(offset=10.0, slope=0.0)


def _fields(record):
    return record.arm, record.run, record.seed, record.final_height, record.slope


def test_transience_experiment_deterministic_and_separated():
    records = transience_experiment(4_000, 3, base_seed=555, stride=100)
    again = transience_experiment(4_000, 3, base_seed=555, stride=100)
    assert [_fields(r) for r in records] == [_fields(r) for r in again]
    for r, s in zip(records, again):
        assert_bitwise_equal(r.trace, s.trace)
    assert [(r.arm, r.run) for r in records] == [
        (arm, run) for arm in ("adaptive", "control") for run in range(3)
    ]
    # even at this short horizon the arms separate cleanly
    for r in records:
        if r.arm == "adaptive":
            assert r.final_height > 100 and r.slope > 0
        else:
            assert r.final_height <= 50


@pytest.mark.parametrize(
    "n_steps, n_runs, base_seed, stride",
    [(600, 2, 3, 7), (500, 2, 8, 100), (40, 1, 21, 1)],
)
def test_transience_records_replay_one_run_each(n_steps, n_runs, base_seed, stride):
    records = transience_experiment(n_steps, n_runs, base_seed, stride)
    target = LadderTarget()
    arms = (
        ("adaptive", ladder_update_rule, SelectionWeights((0.5, 0.5), LADDER_EPSILON), 0),
        ("control", keep_previous, SelectionWeights((0.5, 0.5), 0.5), n_runs),
    )
    expected = []
    for arm, rule, alpha0, offset in arms:
        for r in range(n_runs):
            seed = derive_seed(base_seed, offset + r)
            run = adap_rsg_run(target, rule, LADDER_START, alpha0, n_steps, seed)
            heights = run.coordinate_trace(0)
            expected.append(
                ((arm, r, seed, int(heights[-1]), last_half_slope(heights)), heights[::stride])
            )
    assert [_fields(r) for r in records] == [fields for fields, _ in expected]
    for record, (_, trace) in zip(records, expected):
        assert_bitwise_equal(record.trace, trace)
        assert len(record.trace) == -(-(n_steps + 1) // stride)
        # the record owns its trace: no view keeps the full height trace alive
        assert record.trace.base is None


def test_unbounded_law_is_exact_at_finite_horizons():
    law = unbounded_ladder_law(25)
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.probs.min() >= -1e-15

    # dual route: empirical frequencies of the sampled adaptive chain
    target = LadderTarget()
    alpha0 = SelectionWeights((0.5, 0.5), LADDER_EPSILON)
    n_rep = 4000
    counts = {}
    for r in range(n_rep):
        traj = adap_rsg_run(target, ladder_update_rule, (1, 1), alpha0, 25, derive_seed(99, r))
        counts[traj.final_state] = counts.get(traj.final_state, 0) + 1
    index = {x: k for k, x in enumerate(law.states)}
    for x, c in counts.items():
        p = law.probs[index[x]]
        se = math.sqrt(max(p * (1 - p), 1e-12) / n_rep)
        assert abs(c / n_rep - p) <= 4.5 * se + 1e-9, x


def test_unbounded_law_drifts_away_from_target():
    # characteristic non-ergodic shape: the law first spreads towards the
    # target (TV dips below its point-start value), then the upward drift
    # carries it away for good
    tvs = {n: unbounded_ladder_law(n).tv_to_target for n in (0, 5, 10, 25, 50, 150)}
    assert tvs[0] == pytest.approx(1.0 - 1.0 / (math.pi**2 / 3.0), abs=1e-12)
    assert tvs[5] < tvs[0]
    assert tvs[10] < tvs[25] < tvs[50] < tvs[150]
    assert tvs[150] > 0.9
