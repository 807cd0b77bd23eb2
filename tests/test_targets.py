import numpy as np
import pytest

from adagibbs.targets import (
    ContinuousProductTarget,
    FiniteProductTarget,
    TargetError,
    raised_cosine,
)
from oracles import RAISED_COSINE_VARIANCE


def two_coord_target():
    masses = {
        (0, 0): 1.0, (0, 1): 2.0, (0, 2): 0.5,
        (1, 0): 3.0, (1, 1): 1.5, (1, 2): 2.5,
    }
    return FiniteProductTarget(((0, 1), (0, 1, 2)), masses.__getitem__), masses


def test_enumeration_and_mass():
    target, masses = two_coord_target()
    assert target.d == 2
    assert len(target.states) == 6
    assert target.mass((1, 0)) == 3.0
    assert target.mass((9, 9)) == 0.0
    assert target.contains((0, 2))
    assert not target.contains((2, 0))
    np.testing.assert_allclose(target.probabilities().sum(), 1.0, atol=1e-15)


def test_conditional_matches_direct_normalisation():
    target, masses = two_coord_target()
    values, probs = target.conditional(1, (1, 0))
    assert values == (0, 1, 2)
    total = masses[(1, 0)] + masses[(1, 1)] + masses[(1, 2)]
    expected = (masses[(1, 0)] / total, masses[(1, 1)] / total, masses[(1, 2)] / total)
    assert probs == pytest.approx(expected, abs=1e-15)
    _, cum = target.conditional_cdf(1, (1, 0))
    assert cum[-1] == 1.0
    assert cum == pytest.approx(np.cumsum(expected), abs=1e-12)


def test_finite_conditional_density_is_the_mass_with_one_value_replaced():
    target, masses = two_coord_target()
    assert target.conditional_density(1, (1, 0), 2) == masses[(1, 2)]
    assert target.conditional_density(0, (1, 2), 0) == masses[(0, 2)]
    assert target.conditional_density(1, (0, 0), 7) == 0.0  # outside the space
    assert not getattr(target, "INDEPENDENT_COORDINATES", False)
    assert ContinuousProductTarget.INDEPENDENT_COORDINATES


def test_support_predicate_restricts_space():
    ladder = FiniteProductTarget(
        ((1, 2, 3), (1, 2, 3)),
        mass=lambda x: x[1] ** -2.0,
        support=lambda x: x[0] == x[1] or x[0] == x[1] + 1,
    )
    assert len(ladder.states) == 5
    values, probs = ladder.conditional(0, (1, 1))
    assert values == (1, 2)
    assert probs == (0.5, 0.5)
    # no admissible second value from (3, 3) other than {2, 3}
    values, probs = ladder.conditional(1, (3, 3))
    assert values == (2, 3)


def test_zero_mass_state_rejected():
    with pytest.raises(TargetError):
        FiniteProductTarget(((0, 1),), mass=lambda x: float(x[0]))


def test_raised_cosine_density_constants():
    # a density on [-1, 1] with variance RAISED_COSINE_VARIANCE, by the
    # trapezoid rule: the density and its first derivative vanish at both
    # ends, so the end corrections are zero and the rule is accurate
    z, h = np.linspace(-1.0, 1.0, 2_001, retstep=True)
    g = np.array([raised_cosine(v) for v in z])
    total, mean, second = (h * float(np.sum(g * z**k)) for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-10)
    assert second - mean**2 == pytest.approx(RAISED_COSINE_VARIANCE, abs=1e-10)
    target = ContinuousProductTarget((1.0, 2.0))
    assert target.conditional_density(1, (0.0, 0.0), 0.3) == 2.0 * raised_cosine(2.0 * 0.3)
    assert target.conditional_density(1, (0.0, 0.0), 0.0) == pytest.approx(2.0 * raised_cosine(0.0))
    assert target.conditional_density(0, (0.0, 0.0), 2.0) == 0.0


def test_scales_must_be_positive():
    with pytest.raises(TargetError):
        ContinuousProductTarget((1.0, -2.0))
