import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagibbs.weights import (
    InvalidEpsilonError,
    InvalidWeightsError,
    SelectionWeights,
    make_selection_weights,
    mixture_decomposition,
    sup_distance,
)


def test_symmetric_input_already_feasible_is_unchanged():
    w = make_selection_weights((1.0, 1.0), 0.1)
    assert w.weights == (0.5, 0.5)
    assert w.epsilon == 0.1


def test_floor_forces_zero_entry_up():
    w = make_selection_weights((0.0, 1.0), 0.1)
    assert w.weights == pytest.approx((0.1, 0.9), abs=1e-15)


def test_three_entry_normalisation():
    w = make_selection_weights((1.0, 2.0, 3.0), 0.05)
    assert w.weights == pytest.approx((1 / 6, 1 / 3, 1 / 2), abs=1e-15)
    assert min(w.weights) >= 0.05


def test_all_zero_input_rejected():
    with pytest.raises(InvalidWeightsError):
        make_selection_weights((0.0, 0.0), 0.1)


def test_negative_input_rejected():
    with pytest.raises(InvalidWeightsError):
        make_selection_weights((-0.5, 1.5), 0.1)


def test_epsilon_above_reciprocal_dimension_rejected():
    with pytest.raises(InvalidEpsilonError):
        make_selection_weights((1.0, 1.0), 0.6)
    with pytest.raises(InvalidEpsilonError):
        make_selection_weights((1.0, 1.0), 0.0)


def test_selection_weights_invariants_enforced():
    with pytest.raises(InvalidWeightsError):
        SelectionWeights((0.05, 0.95), 0.1)
    with pytest.raises(InvalidWeightsError):
        SelectionWeights((0.4, 0.4), 0.1)
    with pytest.raises(InvalidWeightsError):
        SelectionWeights((math.nan, 1.0), 0.1)


def test_degenerate_budget_returns_uniform():
    w = make_selection_weights((5.0, 1.0, 1.0), 1.0 / 3.0)
    assert w.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)


def test_single_coordinate():
    w = make_selection_weights((3.0,), 1.0)
    assert w.weights == (1.0,)


@given(
    raw=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=6).filter(
        lambda v: sum(v) > 1e-6
    ),
    eps_frac=st.floats(0.05, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_projection_idempotent(raw, eps_frac):
    eps = eps_frac / len(raw)
    w = make_selection_weights(raw, eps)
    again = make_selection_weights(w.weights, eps)
    assert again.weights == w.weights


def _feasible_point(rng, d, eps):
    # Independent construction of a floored-simplex point.
    v = rng.dirichlet(np.ones(d))
    return eps + (1.0 - d * eps) * v


def test_projection_is_euclidean_nearest_point():
    # Oracle: the projection is closer to the input than any feasible point.
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.01, 0.9)) / d
        raw = rng.uniform(0.0, 1.0, size=d)
        if raw.sum() <= 1e-9:
            continue
        target = raw / raw.sum()
        proj = np.asarray(make_selection_weights(raw, eps).weights)
        for _ in range(20):
            other = _feasible_point(rng, d, eps)
            assert np.linalg.norm(target - proj) <= np.linalg.norm(target - other) + 1e-12


def test_projection_preserves_argmax_order():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        eps = float(rng.uniform(0.05, 0.9)) / d
        raw = rng.uniform(0.0, 1.0, size=d) + 1e-6
        w = np.asarray(make_selection_weights(raw, eps).weights)
        order_in = np.argsort(raw, kind="stable")
        assert np.all(np.diff(w[order_in]) >= -1e-15)


def test_mixture_identity_case():
    alpha = SelectionWeights((0.5, 0.5), 0.1)
    mix = mixture_decomposition(alpha, alpha)
    assert mix.r == 1.0
    assert mix.q == (0.5, 0.5)


def test_mixture_hand_case():
    alpha = SelectionWeights((0.5, 0.5), 0.1)
    alpha_prime = SelectionWeights((0.4, 0.6), 0.1)
    mix = mixture_decomposition(alpha, alpha_prime)
    assert mix.r == pytest.approx(0.8, abs=1e-15)
    assert mix.q == pytest.approx((0.0, 1.0), abs=1e-12)
    recon = [mix.r * a + (1 - mix.r) * q for a, q in zip(alpha.weights, mix.q)]
    assert recon == pytest.approx(alpha_prime.weights, abs=1e-15)


def test_mixture_dimension_mismatch():
    with pytest.raises(ValueError):
        mixture_decomposition(
            SelectionWeights((0.5, 0.5), 0.1),
            SelectionWeights((0.4, 0.3, 0.3), 0.1),
        )


@given(data=st.data(), d=st.integers(2, 5))
@settings(max_examples=200, deadline=None)
def test_mixture_reconstruction_and_lower_bound(data, d):
    eps = data.draw(st.floats(0.02, 0.9)) / d
    raw_a = data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    raw_b = data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    alpha = make_selection_weights(raw_a, eps)
    alpha_prime = make_selection_weights(raw_b, eps)
    mix = mixture_decomposition(alpha, alpha_prime)
    residual = max(
        abs(ap - (mix.r * a + (1 - mix.r) * q))
        for a, ap, q in zip(alpha.weights, alpha_prime.weights, mix.q)
    )
    assert residual <= 1e-12
    if mix.r < 1.0:
        assert min(mix.q) >= 0.0
        assert math.fsum(mix.q) == pytest.approx(1.0, abs=1e-12)
    gap = sup_distance(alpha.weights, alpha_prime.weights)
    assert mix.r >= eps / (eps + gap) - 1e-12


def test_sup_distance():
    assert sup_distance((0.5, 0.5), (0.4, 0.6)) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sup_distance((0.5, 0.5), (1.0,))


def test_cumulative_sums_are_computed_once_per_object():
    w = make_selection_weights((0.2, 0.3, 0.5), 0.1)
    first = w.cumulative
    assert first == (0.2, 0.5, 1.0)
    assert w.cumulative is first
    assert w == make_selection_weights((0.2, 0.3, 0.5), 0.1)  # the cache is not a field
