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
from oracles import RAISED_COSINE_VARIANCE, recording


def drive(adaptation, states, coordinate=0, accepted=True):
    """Feed the observer a run that proposes ``coordinate`` at every step."""
    adaptation.observer(0, states[0], None, None)
    for n, x in enumerate(states[1:], start=1):
        adaptation.observer(n, x, coordinate, accepted)


def test_streaming_variance_matches_batch_recompute():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(20 * BATCH_SIZE + 1, 3)) * np.array([1.0, 0.3, 7.0])
    adaptation = ComponentwiseAdaptation("hst", (1.0, 1.0, 1.0), 0.1)
    drive(adaptation, [tuple(row) for row in data])
    assert len(adaptation.batch_log) == 20
    for i in range(3):
        sample_variance = float(np.var(data[:, i], ddof=1))
        assert adaptation.proposal_variances[i] == pytest.approx(
            5.76 * (sample_variance + 0.05), rel=1e-12
        )


def test_hst_variance_examples():
    adaptation = ComponentwiseAdaptation("hst", (1.0,), 1.0)
    assert adaptation.proposal_variances == pytest.approx((0.288,))
    drive(adaptation, [(3.0,)] * (BATCH_SIZE + 1))  # constant states: s^2 = 0
    assert adaptation.proposal_variances == pytest.approx((0.288,))
    states = [(float(2 * (n % 2)),) for n in range(BATCH_SIZE + 1)]
    adaptation = ComponentwiseAdaptation("hst", (1.0,), 1.0)
    drive(adaptation, states)
    s2 = float(np.var([x[0] for x in states], ddof=1))
    assert adaptation.proposal_variances == pytest.approx((5.76 * (s2 + 0.05),))
    assert type(adaptation.proposal_variances) is tuple


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
    adaptation = ComponentwiseAdaptation("rr", (1.0, 1.0), 0.25)
    origin = (0.0, 0.0)
    drive(adaptation, [origin] * (BATCH_SIZE + 1))  # coordinate 0, all accepted
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


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        ComponentwiseAdaptation("other", (1.0, 1.0), 0.1)


def run_componentwise(variant, n_batches, seed, scales=(1.0, 2.0)):
    """Run the doubly adaptive sampler under ``ComponentwiseAdaptation``:
    returns the adaptation, the trajectory and the ``(alphas, gammas)`` its
    rules handed the loop, one per step."""
    target = ContinuousProductTarget(scales)
    adaptation = ComponentwiseAdaptation(variant, (1.0,) * len(scales), 0.1)
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


def replay_batches(variant, trajectory, a, epsilon):
    """Straight-line recomputation of every batch refresh of a run from its
    states, coordinates and acceptances: Welford moments over every state
    (the initial one included), per-batch proposal and acceptance counts,
    and at each boundary the rr log-scale step or the hst moment variance,
    then the square-root weights."""
    d = trajectory.d
    count, means, m2 = 0, [0.0] * d, [0.0] * d
    log_scales = [0.0] * d
    proposals, accepts = [0] * d, [0] * d
    entries = []
    for n, x in enumerate(trajectory.states.tolist()):
        count += 1
        for k in range(d):
            delta = x[k] - means[k]
            means[k] += delta / count
            m2[k] += delta * (x[k] - means[k])
        if n == 0:
            continue
        i = trajectory.coordinates[n - 1]
        proposals[i] += 1
        accepts[i] += int(trajectory.accepted[n - 1])
        if n % 50:
            continue
        b = n // 50
        fractions = tuple(
            acc / p if p > 0 else math.nan for acc, p in zip(accepts, proposals)
        )
        if variant == "rr":
            step = min(0.1, b**-0.5)
            for k in range(d):
                if proposals[k] > 0:
                    up = accepts[k] / proposals[k] > 0.44
                    ls = log_scales[k] + (step if up else -step)
                    log_scales[k] = min(max(ls, -10.0), 10.0)
            variances = tuple(math.exp(ls) for ls in log_scales)
        else:
            variances = tuple(
                2.4**2 * ((m2[k] / (count - 1) if count >= 2 else 0.0) + 0.05)
                for k in range(d)
            )
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


@pytest.mark.parametrize("variant, seed", [("hst", 41), ("rr", 43)])
def test_batch_refresh_matches_straight_line_replay(variant, seed):
    n_batches = 120
    adaptation, traj, used = run_componentwise(variant, n_batches, seed=seed)
    entries = replay_batches(variant, traj, (1.0, 1.0), 0.1)
    assert len(entries) == len(adaptation.batch_log) == n_batches
    for got, want in zip(adaptation.batch_log, entries):
        assert not any(math.isnan(f) for f in want["acceptance"])
        assert got == want
    # each batch's weights and variances drive the next batch's steps
    first_variance = 1.0 if variant == "rr" else 2.4**2 * 0.05
    gammas = [(first_variance,) * 2] + [e["variances"] for e in entries]
    alphas = [(0.5, 0.5)] + [e["weights"] for e in entries]
    used_alphas, used_gammas = used
    assert len(used_alphas) == len(used_gammas) == traj.n_steps
    for n in range(traj.n_steps):
        assert used_gammas[n] == gammas[n // 50]
        assert used_alphas[n].weights == alphas[n // 50]


@pytest.mark.parametrize("variant", ["hst", "rr"])
def test_rules_hand_out_one_object_per_batch(variant):
    n_batches = 40
    adaptation, _, (alphas, gammas) = run_componentwise(variant, n_batches, seed=47)
    assert len({id(g) for g in gammas}) <= n_batches + 1
    assert len({id(w) for w in alphas}) <= n_batches + 1
    assert gammas[-1] is adaptation.batch_log[-2]["variances"]


def test_hst_variance_stabilises_near_moment_rule():
    adaptation, _, _ = run_componentwise("hst", 400, seed=13)
    for i, scale in enumerate((1.0, 2.0)):
        expected = 5.76 * (RAISED_COSINE_VARIANCE / scale**2 + 0.05)
        final = adaptation.proposal_variances[i]
        assert final == pytest.approx(expected, rel=0.15)


def test_rr_acceptance_enters_target_band():
    adaptation, _, _ = run_componentwise("rr", 300, seed=17)
    window = adaptation.batch_log[200:]
    for i in range(2):
        accepts = sum(e["accepts"][i] for e in window)
        proposals = sum(e["proposals"][i] for e in window)
        fraction = accepts / proposals
        assert 0.34 <= fraction <= 0.54


def test_rr_scale_replay_is_deterministic():
    adaptation_a, traj_a, _ = run_componentwise("rr", 50, seed=23)
    adaptation_b, traj_b, _ = run_componentwise("rr", 50, seed=23)
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


def test_hst_weight_gap_decays_like_reciprocal_time():
    adaptation, _, _ = run_componentwise("hst", 512, seed=37)
    weights = [
        SelectionWeights(entry["weights"], adaptation.epsilon)
        for entry in adaptation.batch_log
    ]
    report = diminishing_monitor(weights)
    gaps = report.gaps
    # window maxima over geometric batch ranges should shrink roughly like
    # 1/b; a log-log slope comfortably below -0.5 is the pass condition
    batches = np.arange(1, len(gaps) + 1)
    mask = gaps > 0
    slope = np.polyfit(np.log(batches[mask]), np.log(gaps[mask]), 1)[0]
    assert slope < -0.5
