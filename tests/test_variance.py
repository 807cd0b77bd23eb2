import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adagibbs.kernels import (
    DistributionVector,
    TransitionMatrix,
    random_reversible_chain,
)
from adagibbs.adaptation import weight_update
from adagibbs.bounds import metropolis_kernel_matrix
from adagibbs.targets import FiniteProductTarget
from adagibbs import variance
from adagibbs.variance import (
    ReversibleChain,
    _autocovariances,
    asvar_decomposition,
    center_observable,
    iact_estimate,
    lazy_variance,
    scan_autocorrelation_relation,
    spectral_asymptotic_variance,
    spectral_decomposition,
    stationary_variance,
)
from oracles import assert_bitwise_equal, autocovariance_oracle, iact_oracle


def reversible_pair(seed, n=6):
    rng = np.random.default_rng(seed)
    kernel, pi = random_reversible_chain(rng, n)
    return ReversibleChain(kernel, pi), rng


def test_reversible_chain_rejects_detailed_balance_failure():
    states = ((0,), (1,))
    kernel = TransitionMatrix(states, [[0.2, 0.8], [0.5, 0.5]])
    pi = DistributionVector(states, [0.5, 0.5])
    with pytest.raises(ValueError):
        ReversibleChain(kernel, pi)


def test_iid_chain_variance_is_stationary_variance():
    pi_vals = np.array([0.2, 0.3, 0.5])
    states = tuple((k,) for k in range(3))
    kernel = TransitionMatrix(states, np.tile(pi_vals, (3, 1)))
    chain = ReversibleChain(kernel, DistributionVector(states, pi_vals))
    h = np.array([1.0, -2.0, 3.0])
    h = h - pi_vals @ h
    assert spectral_asymptotic_variance(chain, h) == pytest.approx(
        stationary_variance(chain, h), abs=1e-12
    )


def test_antithetic_flip_chain_has_zero_variance():
    states = ((0,), (1,))
    kernel = TransitionMatrix(states, [[0.0, 1.0], [1.0, 0.0]])
    chain = ReversibleChain(kernel, DistributionVector(states, [0.5, 0.5]))
    h = np.array([1.0, -1.0])
    assert spectral_asymptotic_variance(chain, h) == pytest.approx(0.0, abs=1e-14)


def test_spectral_variance_matches_autocovariance_series():
    chain, _ = reversible_pair(101)
    h = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 0.1])
    h = center_observable(chain, h)
    spectral = spectral_asymptotic_variance(chain, h)

    # truncated autocovariance oracle: pi h^2 (1 + 2 sum rho_k)
    decomposition = spectral_decomposition(chain)
    lambda2 = sorted(abs(decomposition.eigenvalues))[-2]
    k_max = int(math.log(1e-14) / math.log(max(lambda2, 1e-6))) + 1
    pi = chain.pi.probs
    var0 = float(pi @ (h * h))
    acc = 0.0
    power = np.eye(chain.n)
    for _ in range(k_max):
        power = power @ chain.kernel.matrix
        acc += float(pi @ (h * (power @ h)))
    series = var0 + 2.0 * acc
    assert spectral == pytest.approx(series, abs=1e-8)


def test_reducible_chain_with_uncentred_blocks_is_reported():
    states = tuple((k,) for k in range(4))
    block = np.array([[0.5, 0.5], [0.5, 0.5]])
    m = np.zeros((4, 4))
    m[:2, :2] = block
    m[2:, 2:] = block
    kernel = TransitionMatrix(states, m)
    pi = DistributionVector(states, [0.25] * 4)
    chain = ReversibleChain(kernel, pi)
    h = np.array([1.0, 1.0, -1.0, -1.0])  # centred globally, not per block
    with pytest.raises(ValueError):
        spectral_asymptotic_variance(chain, h)


def test_parseval_mass_identity():
    chain, rng = reversible_pair(202)
    h = center_observable(chain, rng.normal(size=chain.n))
    weights = spectral_decomposition(chain).weights(h)
    assert weights.sum() == pytest.approx(stationary_variance(chain, h), abs=1e-10)


def test_lazy_variance_examples():
    assert lazy_variance(2.0, 1.0, 1.0) == 2.0
    assert lazy_variance(2.0, 0.5, 1.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        lazy_variance(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        lazy_variance(2.0, 1.1, 1.0)


def test_lazy_identity_end_to_end():
    chain, rng = reversible_pair(303)
    h = center_observable(chain, rng.normal(size=chain.n))
    sigma2 = spectral_asymptotic_variance(chain, h)
    pi_h2 = stationary_variance(chain, h)
    for delta in (0.1, 0.25, 0.5, 0.9, 1.0):
        mixed = TransitionMatrix(
            chain.kernel.states,
            (1.0 - delta) * np.eye(chain.n) + delta * chain.kernel.matrix,
        )
        direct = spectral_asymptotic_variance(ReversibleChain(mixed, chain.pi), h)
        assert direct == pytest.approx(lazy_variance(sigma2, delta, pi_h2), abs=1e-10)


@given(
    sigma2=st.floats(0.01, 50.0),
    pi_h2=st.floats(0.01, 50.0),
    d1=st.floats(0.05, 1.0),
    d2=st.floats(0.05, 1.0),
)
@example(
    sigma2=19.66882219726166,
    pi_h2=24.489779087908293,
    d1=0.07809621576856171,
    d2=math.nextafter(0.07809621576856171, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_lazy_variance_monotone_in_laziness(sigma2, pi_h2, d1, d2):
    # The slope in delta is -(sigma2 + pi_h2) / delta**2 <= -0.02, so a gap
    # above 1e-9 moves the value by at least 2e-11, far above rounding; closer
    # deltas (down to one ulp apart) may round to the same float.
    lo, hi = sorted((d1, d2))
    at_lo = lazy_variance(sigma2, lo, pi_h2)
    at_hi = lazy_variance(sigma2, hi, pi_h2)
    assert at_lo >= at_hi
    if hi - lo > 1e-9:
        assert at_lo > at_hi


def test_scan_autocorrelation_examples():
    assert scan_autocorrelation_relation(3.0, 1.0) == pytest.approx(3.0)
    alpha = 0.4
    assert scan_autocorrelation_relation(1.0, alpha) == pytest.approx((2 - alpha) / alpha)
    with pytest.raises(ValueError):
        scan_autocorrelation_relation(1.0, 0.0)


def test_scan_relation_consistent_with_lazy_identity_on_product_chain():
    """Extract one coordinate's Metropolis kernel from a product target and
    check that the scan relation is the lazy identity in disguise."""
    values = (0, 1, 2)
    masses = (1.0, 2.5, 1.5)
    target = FiniteProductTarget(
        (values, (0, 1)), mass=lambda x: masses[x[0]] * (1.0 + 0.5 * x[1])
    )
    pi_coord = np.asarray(masses) / sum(masses)
    q = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    p_metrop = metropolis_kernel_matrix(pi_coord, q)
    states = tuple((v,) for v in values)
    chain_metrop = ReversibleChain(
        TransitionMatrix(states, p_metrop), DistributionVector(states, pi_coord)
    )
    h = center_observable(chain_metrop, np.array([0.0, 1.0, 2.0]))
    pi_h2 = stationary_variance(chain_metrop, h)
    tau_tilde = spectral_asymptotic_variance(chain_metrop, h) / pi_h2
    for alpha_i in (0.2, 0.5, 0.8):
        lazy_kernel = TransitionMatrix(
            states, (1.0 - alpha_i) * np.eye(3) + alpha_i * p_metrop
        )
        tau_scan = spectral_asymptotic_variance(
            ReversibleChain(lazy_kernel, chain_metrop.pi), h
        ) / pi_h2
        assert tau_scan == pytest.approx(
            scan_autocorrelation_relation(tau_tilde, alpha_i), abs=1e-10
        )


def test_asvar_decomposition_examples():
    assert asvar_decomposition((1.0,), (2.0,), (4.0,), 3.0) == pytest.approx(
        1.0 * 4.0 * 3.0 / 16.0
    )
    assert asvar_decomposition((5.0, 7.0), (0.0, 0.0), (1.0, 2.0), 1.0) == 0.0
    assert asvar_decomposition((2.0, 3.0), (1.0, 1.0), (1.0, 2.0), 1.0) == pytest.approx(2.75)
    with pytest.raises(ValueError):
        asvar_decomposition((1.0,), (1.0, 2.0), (1.0,), 1.0)


def test_optimal_weights_examples():
    uniform = weight_update((2.0, 2.0), (1.0, 1.0), 0.1)
    assert uniform.weights == pytest.approx((0.5, 0.5))
    skewed = weight_update((1.0, 4.0), (1.0, 1.0), 0.1)
    assert skewed.weights == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
    floored = weight_update((1.0, 1.0), (0.0, 1.0), 0.1)
    assert floored.weights == pytest.approx((0.1, 0.9))


def test_optimal_weights_minimise_weighted_inverse_sum():
    rng = np.random.default_rng(404)
    v = rng.uniform(0.2, 3.0, size=3)
    a = rng.uniform(0.2, 2.0, size=3)
    best = weight_update(v, a, 0.02)

    def objective(alpha):
        return sum(vi * ai * ai / w for vi, ai, w in zip(v, a, alpha))

    target = objective(best.weights)
    grid = np.linspace(0.02, 0.96, 40)
    for w1 in grid:
        for w2 in grid:
            w3 = 1.0 - w1 - w2
            if w3 < 0.02:
                continue
            assert target <= objective((w1, w2, w3)) + 1e-9


def test_iact_iid_is_one():
    rng = np.random.default_rng(505)
    trace = rng.normal(size=100_000)
    assert iact_estimate(trace) == pytest.approx(1.0, abs=0.1)


def test_iact_ar1_matches_closed_form():
    rng = np.random.default_rng(606)
    rho = 0.5
    n = 100_000
    noise = rng.normal(size=n)
    x = np.empty(n)
    x[0] = noise[0]
    for k in range(1, n):
        x[k] = rho * x[k - 1] + noise[k]
    expected = (1 + rho) / (1 - rho)
    assert iact_estimate(x) == pytest.approx(expected, rel=0.15)


def test_iact_finite_chain_matches_spectral_oracle():
    chain, rng = reversible_pair(707, n=5)
    h = center_observable(chain, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    tau_spectral = spectral_asymptotic_variance(chain, h) / stationary_variance(chain, h)

    # simulate the chain
    n_steps = 1_000_000
    cum = np.cumsum(chain.kernel.matrix, axis=1)
    u = rng.random(n_steps)
    idx = np.empty(n_steps, dtype=np.int64)
    state = 0
    for k in range(n_steps):
        state = int(np.searchsorted(cum[state], u[k], side="right"))
        idx[k] = state
    values = np.array([0.0, 1.0, 2.0, 3.0, 4.0])[idx]
    assert iact_estimate(values) == pytest.approx(tau_spectral, rel=0.15)


def test_iact_input_validation():
    with pytest.raises(ValueError):
        iact_estimate(np.ones(5_000))
    with pytest.raises(ValueError):
        iact_estimate(np.arange(10))


@pytest.mark.parametrize("value", [0.1, 1 / 3, 0.7, 2.2, 0.3, -5.0])
def test_iact_refuses_a_constant_trace_whose_mean_rounds(value):
    """A constant trace has no autocorrelation time, whatever its value.
    For 0.1, 1/3, 0.7 and 2.2 the float mean of 5000 copies is not the
    value, so centring leaves rounding dust rather than zeros: constancy is
    read from the raw trace."""
    trace = np.full(5_000, value)
    with pytest.raises(ValueError, match="constant trace"):
        iact_estimate(trace)


def ar1_trace(phi, n, seed):
    """``n`` points of the AR(1) recursion ``x_k = phi x_{k-1} + e_k`` from
    ``x_0 = e_0``, with standard normal ``e``."""
    noise = np.random.default_rng(seed).normal(size=n).tolist()
    return np.array(list(itertools.accumulate(noise, lambda prev, e: phi * prev + e)))


def full_size(n):
    """The least power of two at or above ``2n``: every lag exact."""
    return 1 << (2 * n - 1).bit_length()


@pytest.mark.parametrize("n", [1_000, 3_001, 12_345, 100_003])
def test_autocovariances_at_the_full_size_equal_the_oracle_bit_for_bit(n):
    """At the oracle's transform size the autocovariances, which free their
    buffers early, are the same floats as the plain statement in
    ``oracles``, on lengths that are not powers of two (so the FFT is
    zero-padded)."""
    x = ar1_trace(0.9, n, n)
    assert_bitwise_equal(_autocovariances(x, full_size(n)), autocovariance_oracle(x))


@pytest.mark.parametrize("n", [1_000, 2_047, 2_049, 12_345, 65_535, 65_536, 100_003, 262_145])
@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, 0.99, 0.999])
def test_iact_matches_the_full_length_oracle(phi, n):
    """The estimate transforms only a window of lags, doubling it while the
    pairs stay positive, and so is the rule over all ``n`` lags up to FFT
    rounding; the lengths include ``2**k - 1``, ``2**k`` and ``2**k + 1``."""
    x = ar1_trace(phi, n, n + int(1000 * phi))
    got = iact_estimate(x)
    assert type(got) is float
    assert got == pytest.approx(iact_oracle(x), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [1_000, 1_024, 1_500, 2_047, 2_049, 3_001])
@pytest.mark.parametrize("doubled", [False, True])
def test_autocovariances_are_every_exact_lag(n, doubled):
    """At the first window's size (the least power of two above ``n``) and
    at twice it, the lags returned, ``0 .. min(size - n, n - 1)``, are the
    direct sums ``sum_t y_t y_{t+k} / n`` of the centred trace, the last one
    included, and no wrapped lag is returned.  The trace starts and ends far
    from its mean, so a wrapped lag would be off by about ``y_0 y_{n-1} / n``."""
    x = ar1_trace(0.99, n, n)
    x[0], x[-1] = x.mean() + 40.0, x.mean() - 40.0
    size = (1 << n.bit_length()) * (2 if doubled else 1)
    y = x - x.mean()
    acov = _autocovariances(x, size)
    assert len(acov) == min(size - n + 1, n)
    direct = np.array([np.dot(y[: n - k], y[k:]) / n for k in range(len(acov))])
    np.testing.assert_allclose(acov, direct, rtol=0.0, atol=1e-12 * direct[0])


def test_iact_doubles_its_window_while_the_pairs_stay_positive(monkeypatch):
    """At ``n = 2**12 - 1`` the first transform, of ``2**12`` points, holds
    only lags 0 and 1, and at ``phi = 0.999`` their pair is positive, so the
    estimate must transform again at twice the size, where every lag is
    exact, and read the pairs from there."""
    n = 2**12 - 1
    x = ar1_trace(0.999, n, 24)
    sizes = []

    def recorded(trace, size):
        sizes.append(size)
        return _autocovariances(trace, size)

    monkeypatch.setattr(variance, "_autocovariances", recorded)
    got = iact_estimate(x)
    assert sizes == [2**12, 2**13]
    assert got == pytest.approx(iact_oracle(x), rel=1e-15, abs=0.0)
    assert got > 100.0


def test_iact_memory_is_a_window_transform():
    """The transform of the first window (``2**17`` points for ``n = 100003``)
    and its spectra peak below 32 bytes a point; the full-length transform
    at ``2**18`` points peaks above 48, and the oracle above 64."""
    n = 100_003
    x = ar1_trace(0.9, n, 5)
    tracemalloc.start()
    try:
        iact_estimate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n
