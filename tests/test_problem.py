import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpaintlab import InpaintingProblem, MaskOperator, log_likelihood, make_observation


def test_mask_validation():
    with pytest.raises(ValueError):
        MaskOperator([0, 2, 1])
    m = MaskOperator([1, 0, 1, 1])
    assert m.observed_count == 3
    np.testing.assert_array_equal(m.observed_idx, [0, 2, 3])


def test_mask_index_is_computed_once_and_read_only():
    bits = np.random.default_rng(3).integers(0, 2, size=40)
    m = MaskOperator(bits)
    assert m.observed_idx is m.observed_idx
    np.testing.assert_array_equal(m.observed_idx, np.flatnonzero(bits))
    assert m.observed_count == np.count_nonzero(bits) == m.m.sum()
    with pytest.raises(ValueError, match="read-only"):
        m.observed_idx[0] = 1
    empty = MaskOperator([0, 0])
    assert empty.observed_count == 0 and empty.observed_idx.size == 0


def test_make_observation_masks():
    prob = make_observation(np.array([1.0, 2.0]), MaskOperator([1, 0]), 0.1)
    np.testing.assert_allclose(prob.y, [1.0, 0.0])


def test_full_mask_observes_everything():
    x = np.array([0.5, -1.0, 2.0])
    prob = make_observation(x, MaskOperator([1, 1, 1]), 0.3)
    np.testing.assert_allclose(prob.y, x)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        make_observation(np.array([1.0]), MaskOperator([1]), 0.0)
    with pytest.raises(ValueError):
        InpaintingProblem(MaskOperator([1]), np.array([1.0]), -0.5)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_gamma_must_be_finite(gamma):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="finite"):
        make_observation(np.array([1.0, 2.0]), MaskOperator([1, 0]), gamma, rng=rng)
    with pytest.raises(ValueError, match="finite"):
        InpaintingProblem(MaskOperator([1, 0]), np.array([1.0, 0.0]), gamma)


# the largest double whose square is finite, and the next one up
ROOT_MAX = math.sqrt(sys.float_info.max)
ABOVE_ROOT_MAX = math.nextafter(ROOT_MAX, math.inf)


def test_gamma_must_have_a_finite_square():
    # gamma**2 enters the likelihood, the oracle and the steps: a gamma
    # whose square overflows is rejected where it enters, and the largest
    # one whose square is finite, or one whose square underflows, is not
    assert ROOT_MAX * ROOT_MAX < math.inf and ABOVE_ROOT_MAX * ABOVE_ROOT_MAX == math.inf
    rng = np.random.default_rng(0)
    mask, x, y = MaskOperator([1, 0]), np.array([1.0, 2.0]), np.array([1.0, 0.0])
    for gamma in (ABOVE_ROOT_MAX, 1e300, np.float64(1e300)):
        with pytest.raises(ValueError, match="finite square"):
            make_observation(x, mask, gamma, rng=rng)
        with pytest.raises(ValueError, match="finite square"):
            InpaintingProblem(mask, y, gamma)
    for gamma in (ROOT_MAX, 1e-200):
        assert make_observation(x, mask, gamma).gamma == gamma
        assert InpaintingProblem(mask, y, gamma).gamma == gamma


def test_empty_mask_warns_but_works():
    with pytest.warns(UserWarning):
        prob = make_observation(np.array([1.0, 2.0]), MaskOperator([0, 0]), 0.1)
    np.testing.assert_allclose(prob.y, 0.0)


def test_noisy_observation_touches_observed_only():
    rng = np.random.default_rng(0)
    x = np.zeros(6)
    mask = MaskOperator([1, 1, 1, 0, 0, 0])
    prob = make_observation(x, mask, 0.5, rng=rng)
    assert np.all(prob.y[3:] == 0.0)
    assert np.any(prob.y[:3] != 0.0)


def test_y_zero_off_support_enforced():
    with pytest.raises(ValueError):
        InpaintingProblem(MaskOperator([1, 0]), np.array([1.0, 0.5]), 0.1)


@pytest.mark.parametrize("y", [
    pytest.param([np.nan, 0.0], id="y-nan"),
    pytest.param([np.inf, 0.0], id="y-inf"),
])
def test_non_finite_problem_rejected(y):
    # a non-finite y would reach the samples through final replacement or
    # blended's replay, past every per-step check
    with pytest.raises(ValueError, match="^y must be finite"):
        InpaintingProblem(MaskOperator([1, 0]), np.array(y), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_observation_rejects_non_finite_x_star(bad):
    # off the support: checked before m * x_star, where 0 * inf would warn
    with pytest.raises(ValueError, match="^x_star must be finite"):
        make_observation(np.array([1.0, bad]), MaskOperator([1, 0]), 0.1)


def test_log_likelihood_exact_fit():
    x = np.array([0.3, -0.7, 1.0])
    prob = make_observation(x, MaskOperator([1, 0, 1]), 0.2)
    assert log_likelihood(prob, x) == 0.0


def test_log_likelihood_value():
    # (2 - 1)^2 / 2 with gamma = 1
    prob = InpaintingProblem(MaskOperator([1, 0]), np.array([2.0, 0.0]), 1.0)
    assert log_likelihood(prob, np.array([1.0, 7.0])) == pytest.approx(-0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.floats(-100, 100), min_size=2, max_size=2),
)
def test_log_likelihood_mask_agnostic(x0_list, hidden):
    prob = InpaintingProblem(MaskOperator([1, 1, 0, 0]), np.array([0.5, -0.5, 0, 0]), 0.7)
    x0 = np.array(x0_list)
    perturbed = x0.copy()
    perturbed[2:] = hidden
    assert log_likelihood(prob, x0) == log_likelihood(prob, perturbed)


def test_log_likelihood_gamma_scaling():
    prob1 = InpaintingProblem(MaskOperator([1, 0]), np.array([2.0, 0.0]), 1.0)
    prob3 = InpaintingProblem(MaskOperator([1, 0]), np.array([2.0, 0.0]), 3.0)
    x0 = np.array([0.4, 1.0])
    assert log_likelihood(prob3, x0) == pytest.approx(log_likelihood(prob1, x0) / 9.0)


def test_log_likelihood_batched():
    prob = InpaintingProblem(MaskOperator([1, 0]), np.array([2.0, 0.0]), 1.0)
    vals = log_likelihood(prob, np.array([[1.0, 7.0], [2.0, 0.0]]))
    np.testing.assert_allclose(vals, [-0.5, 0.0])


def _nan_loglik():
    problem = make_observation(np.zeros(2), MaskOperator([1, 0]), 0.5)
    log_likelihood(problem, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: InpaintingProblem(MaskOperator([1, 0]), np.zeros(3), 0.5),
     "observation and mask dimensions differ"),
    (_nan_loglik, "x0 must be finite"),
], ids=["dimensions", "non-finite-x0"])
def test_problem_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
