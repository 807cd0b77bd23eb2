import math

import numpy as np
import pytest

from adagibbs.adaptation import (
    BATCH_SIZE,
    ComponentwiseAdaptation,
    acceptance_fractions,
    adaptation_step_size,
    diminishing_monitor,
    weight_update,
)
from adagibbs.ladder import ladder_update_rule, schedule_a
from adagibbs.samplers import adap_rs_adap_mwg_run, gaussian_random_walk
from adagibbs.targets import ContinuousProductTarget
from adagibbs.weights import SelectionWeights, make_selection_weights
from oracles import recording


def test_adaptation_step_size():
    assert adaptation_step_size(1) == pytest.approx(0.1)
    assert adaptation_step_size(400) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        adaptation_step_size(0)


def test_acceptance_fractions_are_nan_where_nothing_was_proposed():
    fractions = acceptance_fractions((3, 0, 2), (4, 0, 2))
    assert fractions[0] == 0.75 and fractions[2] == 1.0
    assert math.isnan(fractions[1])


def test_rr_update_direction_and_clamp():
    adaptation = ComponentwiseAdaptation((1.0, 1.0), 0.25)
    origin = (0.0, 0.0)
    for n in range(1, BATCH_SIZE + 1):
        adaptation.observer(n, origin, 0, True)  # coordinate 0, all accepted
    assert adaptation.log_scales == pytest.approx([0.1, 0.0])
    assert adaptation.log_scales[1] == 0.0  # never proposed: unchanged
    assert adaptation.proposal_variances == (math.exp(adaptation.log_scales[0]), 1.0)
    # the step is 0.1 up to batch 100, so batch 101 reaches the clamp at 10
    for n in range(BATCH_SIZE + 1, 105 * BATCH_SIZE + 1):
        adaptation.observer(n, origin, 0, True)
    log = adaptation.batch_log
    assert len(log) == 105
    for entry in log[:99]:
        assert entry["variances"][0] == pytest.approx(math.exp(0.1 * entry["batch"]))
        assert entry["variances"][0] < math.exp(10.0)
    assert [entry["variances"][0] for entry in log[100:]] == [math.exp(10.0)] * 5
    assert adaptation.log_scales[0] == 10.0
    for n in range(105 * BATCH_SIZE + 1, 106 * BATCH_SIZE + 1):
        adaptation.observer(n, origin, 0, False)  # none accepted: step down
    assert adaptation.log_scales[0] == pytest.approx(10.0 - 106**-0.5)
    assert adaptation.proposal_variances[0] == math.exp(adaptation.log_scales[0])


def test_weight_update_examples():
    w = weight_update((1.0, 1.0), (1.0, 1.0), 0.1)
    assert w.weights == pytest.approx((0.5, 0.5))
    w = weight_update((1.0, 1.0), (1.0, 2.0), 0.1)
    assert w.weights == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
    w = weight_update((1.0, 1.0), (0.0, 1.0), 0.1)
    assert w.weights == pytest.approx((0.1, 0.9))
    w = weight_update((4.0, 1.0), (1.0, 1.0), 0.1)
    assert w.weights == pytest.approx((2.0 / 3.0, 1.0 / 3.0))


def test_weight_update_preserves_score_ordering():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        variances = rng.uniform(0.1, 4.0, size=d)
        a = rng.uniform(0.1, 2.0, size=d)
        w = np.asarray(weight_update(tuple(variances), a, 0.02).weights)
        scores = np.sqrt(variances * a * a)
        order = np.argsort(scores, kind="stable")
        assert np.all(np.diff(w[order]) >= -1e-15)


def run_componentwise(n_batches, seed, scales=(1.0, 2.0)):
    """Run the doubly adaptive sampler under ``ComponentwiseAdaptation``:
    returns the adaptation, the trajectory and the ``(alphas, gammas)`` its
    rules handed the loop, one per step."""
    target = ContinuousProductTarget(scales)
    adaptation = ComponentwiseAdaptation((1.0,) * len(scales), 0.1)
    d = len(scales)
    alpha0 = SelectionWeights((1.0 / d,) * d, 0.1)
    alphas, gammas = [], []
    trajectory = adap_rs_adap_mwg_run(
        target,
        gaussian_random_walk,
        recording(adaptation.weight_rule, alphas),
        recording(adaptation.proposal_rule, gammas),
        (0.0,) * d,
        alpha0,
        adaptation.proposal_variances,
        n_batches * BATCH_SIZE,
        seed,
        observer=adaptation.observer,
    )
    return adaptation, trajectory, (alphas, gammas)


def replay_batches(trajectory, a, epsilon):
    """Straight-line recomputation of every batch refresh of a run from its
    coordinates and acceptances: per-batch proposal and acceptance counts,
    and at each boundary the log-scale step of every proposed coordinate,
    then the square-root weights."""
    d = trajectory.d
    log_scales = [0.0] * d
    proposals, accepts = [0] * d, [0] * d
    entries = []
    for n, (i, ok) in enumerate(zip(trajectory.coordinates, trajectory.accepted), start=1):
        proposals[i] += 1
        accepts[i] += int(ok)
        if n % 50:
            continue
        b = n // 50
        fractions = tuple(
            acc / p if p > 0 else math.nan for acc, p in zip(accepts, proposals)
        )
        step = min(0.1, b**-0.5)
        for k in range(d):
            if proposals[k] > 0:
                up = accepts[k] / proposals[k] > 0.44
                ls = log_scales[k] + (step if up else -step)
                log_scales[k] = min(max(ls, -10.0), 10.0)
        variances = tuple(math.exp(ls) for ls in log_scales)
        raw = [abs(ak) * math.sqrt(v) for ak, v in zip(a, variances)]
        entries.append(
            {
                "batch": b,
                "weights": make_selection_weights(raw, epsilon).weights,
                "variances": variances,
                "acceptance": fractions,
                "proposals": tuple(proposals),
                "accepts": tuple(accepts),
            }
        )
        proposals, accepts = [0] * d, [0] * d
    return entries


@pytest.mark.parametrize("seed", [41, 43])
def test_batch_refresh_matches_straight_line_replay(seed):
    n_batches = 120
    adaptation, traj, used = run_componentwise(n_batches, seed=seed)
    entries = replay_batches(traj, (1.0, 1.0), 0.1)
    assert len(entries) == len(adaptation.batch_log) == n_batches
    for got, want in zip(adaptation.batch_log, entries):
        assert not any(math.isnan(f) for f in want["acceptance"])
        assert got == want
    # each batch's weights and variances drive the next batch's steps
    gammas = [(1.0, 1.0)] + [e["variances"] for e in entries]
    alphas = [(0.5, 0.5)] + [e["weights"] for e in entries]
    used_alphas, used_gammas = used
    assert len(used_alphas) == len(used_gammas) == traj.n_steps
    for n in range(traj.n_steps):
        assert used_gammas[n] == gammas[n // 50]
        assert used_alphas[n].weights == alphas[n // 50]


def test_rules_hand_out_one_object_per_batch():
    n_batches = 40
    adaptation, _, (alphas, gammas) = run_componentwise(n_batches, seed=47)
    assert len({id(g) for g in gammas}) <= n_batches + 1
    assert len({id(w) for w in alphas}) <= n_batches + 1
    assert gammas[-1] is adaptation.batch_log[-2]["variances"]


def test_rr_acceptance_enters_target_band():
    adaptation, _, _ = run_componentwise(300, seed=17)
    window = adaptation.batch_log[200:]
    for i in range(2):
        accepts = sum(e["accepts"][i] for e in window)
        proposals = sum(e["proposals"][i] for e in window)
        fraction = accepts / proposals
        assert 0.34 <= fraction <= 0.54


def test_rr_scale_replay_is_deterministic():
    adaptation_a, traj_a, _ = run_componentwise(50, seed=23)
    adaptation_b, traj_b, _ = run_componentwise(50, seed=23)
    assert np.array_equal(traj_a.states, traj_b.states)
    assert adaptation_a.batch_log == adaptation_b.batch_log
    assert adaptation_a.log_scales == adaptation_b.log_scales


def test_monitor_constant_weights():
    history = [SelectionWeights((0.5, 0.5), 0.1)] * 20
    report = diminishing_monitor(history)
    assert np.all(report.gaps == 0.0)
    assert not report.nondecreasing_tail
    assert np.all(report.tail_max == 0.0)


def test_monitor_ladder_rule_gap_bound():
    # the weight rule's step-to-step change is controlled by the tuning
    # sequence: within blocks only state flips move it, by at most 16/a_n
    rng = np.random.default_rng(31)
    history = []
    state = (1, 1)
    for n in range(1, 2_001):
        history.append(ladder_update_rule(n, None, state))
        if rng.random() < 0.4:
            i, j = state
            state = (i + 1, i) if i == j else (i, i)
    report = diminishing_monitor(history)
    for n, gap in enumerate(report.gaps, start=2):
        assert gap <= 16.0 / schedule_a(n) + 1e-12
    assert not report.nondecreasing_tail


def test_monitor_flags_growing_tail():
    history = [SelectionWeights((0.5 - 0.001 * k, 0.5 + 0.001 * k), 0.1) for k in range(40)]
    report = diminishing_monitor(history)
    assert report.nondecreasing_tail  # constant-size steps never die out


def test_monitor_refuses_plain_tuples():
    with pytest.raises(AttributeError):
        diminishing_monitor([(0.5, 0.5), (0.4, 0.6)])


def test_rr_weight_gap_shrinks_with_the_step():
    """Diminishing adaptation on the tuner the program runs: the batch
    step ``min(0.1, b^{-1/2})`` shrinks, and the weight changes shrink with
    it.  With the step held at 0.1 the last window's maximum stays within a
    few percent of the first's, so the flag alone (False either way) would
    not tell the two apart."""
    adaptation, _, _ = run_componentwise(512, seed=37)
    weights = [
        SelectionWeights(entry["weights"], adaptation.epsilon)
        for entry in adaptation.batch_log
    ]
    report = diminishing_monitor(weights)
    assert len(report.window_max) == 8
    assert not report.nondecreasing_tail
    assert report.window_max[-1] < 0.6 * report.window_max[0]
