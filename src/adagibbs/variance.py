"""Asymptotic variance of reversible chains: exact spectral form and estimators.

For a reversible kernel the asymptotic variance of an ergodic average is an
integral of ``(1 + x) / (1 - x)`` against the spectral measure of the
observable; on finite spaces that measure is a finite sum over the
eigendecomposition of the stationarity-symmetrised kernel, so the variance is
computable exactly.  The keystone identity checked here relates a kernel's
variance to that of its lazy mixtures, which is what ties a coordinate's
within-scan autocorrelation time to its selection weight and yields the
square-root rule for optimal weights.

From a sampled trace the variance is estimated by the integrated
autocorrelation time, whose initial-positive-sequence rule reads lags only
up to its first nonpositive pair of autocorrelations.  The lags come from a
zero-padded FFT, whose lags ``0 .. size - n`` are free of wrap-round, so the
transform is sized to a window of lags (the least power of two above ``n``)
and doubled only while the pairs in the window stay positive; one doubling
makes every lag exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import DistributionVector, TransitionMatrix

REVERSIBILITY_TOL = 1e-10
CENTERING_TOL = 1e-12
IACT_MIN_POINTS = 1000


@dataclass(frozen=True)
class ReversibleChain:
    """Kernel plus stationary vector, with detailed balance verified entrywise."""

    kernel: TransitionMatrix
    pi: DistributionVector

    def __post_init__(self):
        if self.kernel.states != self.pi.states:
            raise ValueError("kernel and stationary vector enumerate different states")
        flux = self.pi.probs[:, np.newaxis] * self.kernel.matrix
        gap = np.abs(flux - flux.T).max()
        if gap > REVERSIBILITY_TOL:
            raise ValueError(f"detailed balance fails by {gap!r}")

    @property
    def n(self) -> int:
        return self.kernel.n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendata of the symmetrised kernel, orthonormal in the pi-weighted
    inner product; observables project onto it via :meth:`weights`."""

    eigenvalues: np.ndarray
    _vectors: np.ndarray
    _sqrt_pi: np.ndarray

    def weights(self, h: np.ndarray) -> np.ndarray:
        """Spectral mass of observable ``h`` on each eigendirection; for
        centred ``h`` the masses sum to ``pi h^2`` (Parseval)."""
        return (self._vectors.T @ (self._sqrt_pi * np.asarray(h, dtype=np.float64))) ** 2


def spectral_decomposition(chain: ReversibleChain) -> SpectralDecomposition:
    """Real eigendecomposition of ``D^{1/2} P D^{-1/2}`` with ``D = diag(pi)``.

    Reversibility makes this matrix symmetric, so the spectrum is real and
    confined to [-1, 1] up to roundoff (clipped).
    """
    sqrt_pi = np.sqrt(chain.pi.probs)
    sym = sqrt_pi[:, np.newaxis] * chain.kernel.matrix / sqrt_pi[np.newaxis, :]
    sym = 0.5 * (sym + sym.T)
    eigenvalues, vectors = np.linalg.eigh(sym)
    eigenvalues = np.clip(eigenvalues, -1.0, 1.0)
    return SpectralDecomposition(eigenvalues, vectors, sqrt_pi)


def stationary_variance(chain: ReversibleChain, h: np.ndarray) -> float:
    """``pi h^2`` for a centred observable (the i.i.d. variance floor)."""
    h = np.asarray(h, dtype=np.float64)
    return float(chain.pi.probs @ (h * h))


def center_observable(chain: ReversibleChain, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    mean = float(chain.pi.probs @ h)
    if abs(mean) <= CENTERING_TOL:
        return h
    return h - mean


def spectral_asymptotic_variance(chain: ReversibleChain, h: np.ndarray) -> float:
    """Exact asymptotic variance of the ergodic average of ``h``.

    Sums ``w_j (1 + lambda_j) / (1 - lambda_j)`` over the eigendirections;
    components at ``lambda = -1`` contribute zero, while spectral mass at
    ``lambda = 1`` beyond tolerance means the observable was not centred or
    the chain is reducible, which is reported as an error.
    """
    h = center_observable(chain, h)
    decomposition = spectral_decomposition(chain)
    w = decomposition.weights(h)
    scale = max(float(w.sum()), 1.0)
    total = 0.0
    for lam, wj in zip(decomposition.eigenvalues, w):
        if lam >= 1.0 - 1e-12:
            if wj > 1e-10 * scale:
                raise ValueError(
                    f"spectral mass {wj!r} on an eigenvalue at 1; observable not "
                    "centred or chain reducible"
                )
            continue
        total += wj * (1.0 + lam) / (1.0 - lam)
    return float(total)


def lazy_variance(sigma2: float, delta: float, pi_h2: float) -> float:
    """Asymptotic variance of the lazy mixture ``(1-delta) Id + delta P``
    from the variance under ``P``: ``sigma2/delta + (1-delta)/delta * pi h^2``."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"laziness delta must lie in (0, 1], got {delta}")
    return sigma2 / delta + (1.0 - delta) / delta * pi_h2


def scan_autocorrelation_relation(tau_tilde: float, alpha_i: float) -> float:
    """Autocorrelation time of a coordinate inside a random scan, from the
    time ``tau_tilde`` of its dedicated kernel: ``tau_tilde/alpha + (1-alpha)/alpha``."""
    if not 0.0 < alpha_i <= 1.0:
        raise ValueError(f"selection probability must lie in (0, 1], got {alpha_i}")
    return tau_tilde / alpha_i + (1.0 - alpha_i) / alpha_i


def asvar_decomposition(
    tau: Sequence[float], a: Sequence[float], scales: Sequence[float], sigma2_g: float
) -> float:
    """Total asymptotic variance of a linear observable on a scaled product
    target: ``sum_i tau_i a_i^2 sigma2_g / C_i^2``."""
    if not len(tau) == len(a) == len(scales):
        raise ValueError("tau, a and scales must share the dimension")
    return math.fsum(
        t * ai * ai * sigma2_g / (c * c) for t, ai, c in zip(tau, a, scales)
    )


def _autocovariances(x: np.ndarray, size: int) -> np.ndarray:
    """Lags ``0 .. min(size - n, n - 1)`` of the autocovariance of ``x``
    about its mean, with the biased ``1/n`` normalisation, from an FFT
    zero-padded to ``size >= n`` points.

    The transform is circular: its lag ``k`` also sums the products that
    wrap round the end, and those exist only for ``k > size - n``, so the
    lags returned are exact and no others are.  The centred copy and then
    the forward spectrum are freed before the inverse transform; the product
    stays out of place, since an in-place multiply rounds differently."""
    n = len(x)
    f = np.fft.rfft(x - x.mean(), size)
    f = f * np.conjugate(f)
    return np.fft.irfft(f, size)[: min(size - n + 1, n)] / n


def iact_estimate(trace: Sequence[float]) -> float:
    """Integrated autocorrelation time by the initial-positive-sequence rule.

    Lag autocovariances are summed in adjacent pairs until a pair turns
    nonpositive; for reversible chains those pair sums are provably positive,
    which makes the truncation parameter-free.  Needs at least
    ``IACT_MIN_POINTS`` (1000) points and a non-constant trace.

    The rule reads only the lags up to its first nonpositive pair, usually a
    few hundred, so the FFT is sized to a window of lags, not to all ``n``:
    first the least power of two above ``n``, whose lags ``0 .. size - n``
    are exact (see :func:`_autocovariances`).  A nonpositive pair inside
    the window ends the sum just where the full lags would end it.  While
    every pair in the window is positive the size doubles and the pairs are
    summed afresh; a size of at least ``2n - 1`` makes all ``n`` lags exact,
    and the first doubling reaches it.  So the estimate is the rule over the
    full autocovariance and differs from it only in FFT rounding.
    """
    x = np.asarray(trace, dtype=np.float64)
    n = len(x)
    if n < IACT_MIN_POINTS:
        raise ValueError(f"trace too short for an IACT estimate: {n} < {IACT_MIN_POINTS}")
    # On the raw trace: centring a constant trace whose value is not its own
    # float mean leaves rounding dust, not zeros.
    if x.min() == x.max():
        raise ValueError("constant trace has no autocorrelation time")
    size = 1 << n.bit_length()  # the least power of two above n
    while True:
        rho = _autocovariances(x, size)
        rho /= rho[0]
        total = 0.0
        m = 0
        while 2 * m + 1 < len(rho):
            pair = rho[2 * m] + rho[2 * m + 1]
            if pair <= 0.0:
                return float(2.0 * total - 1.0)
            total += pair
            m += 1
        if len(rho) == n:  # all n lags were exact: the rule has run out
            return float(2.0 * total - 1.0)
        size *= 2
