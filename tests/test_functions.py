import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import DiagQuadratic
from sbo.errors import ConfigurationError, ContractViolation
from sbo.functions import (LeastSquares, MoreauLogSum, ScaledSqNorm,
                           SmoothFunction, ZeroFunction)


def central_diff(fn, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def assert_gradient_matches_fd(func, points, rtol=1e-5):
    for x in points:
        g = func.gradient(x)
        fd = central_diff(func.value, x)
        scale = max(np.linalg.norm(g), 1.0)
        assert np.linalg.norm(g - fd) <= rtol * scale


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------


def test_ls_value_cases():
    ls = LeastSquares(np.eye(2), np.array([3.0, 4.0]))
    assert ls.value(np.array([3.0, 4.0])) == 0.0
    ls0 = LeastSquares(np.eye(2), np.zeros(2))
    assert ls0.value(np.array([3.0, 4.0])) == pytest.approx(12.5)
    ls2 = LeastSquares(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    assert ls2.value(np.array([1.0, 1.0])) == pytest.approx(20.0)


def test_ls_gradient_cases():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([1.0, 1.0])
    ls = LeastSquares(a, b)
    x_fit = np.linalg.solve(a, b)
    assert np.allclose(ls.gradient(x_fit), 0.0, atol=1e-12)
    ls0 = LeastSquares(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(ls0.gradient(x), x)
    assert np.allclose(ls.gradient(np.array([1.0, 1.0])), [20.0, 28.0])


def test_ls_gradient_finite_difference():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 4))
    ls = LeastSquares(a, rng.standard_normal(5))
    assert_gradient_matches_fd(ls, rng.standard_normal((20, 4)))


def test_ls_lipschitz_cached_and_inflated():
    a = np.diag([1.0, 2.0, 3.0])
    ls = LeastSquares(a, np.zeros(3))
    assert ls.lipschitz == pytest.approx(1.01 * 9.0, rel=1e-6)


def test_ls_dimension_checks():
    ls = LeastSquares(np.eye(2), np.zeros(2))
    with pytest.raises(ContractViolation):
        ls.value(np.ones(3))
    with pytest.raises(ContractViolation):
        LeastSquares(np.eye(2), np.zeros(3))


# ---------------------------------------------------------------------------
# scaled squared norm
# ---------------------------------------------------------------------------


def test_sqnorm_quadratic_identity_exact():
    rng = np.random.default_rng(1)
    f = ScaledSqNorm(2.5, center=rng.standard_normal(6))
    for _ in range(20):
        x, y = rng.standard_normal((2, 6))
        lhs = f.value(x) - f.value(y) - float(f.gradient(y) @ (x - y))
        rhs = 0.5 * 2.5 * float((x - y) @ (x - y))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_sqnorm_constants_and_fd():
    rng = np.random.default_rng(2)
    f = ScaledSqNorm(0.7, dimension=4)
    assert f.lipschitz == f.strong_convexity == 0.7
    assert_gradient_matches_fd(f, rng.standard_normal((20, 4)))


def test_a_nan_weight_or_delta_is_refused_by_name():
    with pytest.raises(ContractViolation, match="weight"):
        ScaledSqNorm(math.nan, dimension=3)
    with pytest.raises(ConfigurationError, match="delta"):
        MoreauLogSum(math.nan, 0.1, 2)
    with pytest.raises(ConfigurationError, match="epsilon"):
        MoreauLogSum(0.01, math.nan, 2)


# ---------------------------------------------------------------------------
# Moreau envelope of the log-sum penalty
# ---------------------------------------------------------------------------


def test_moreau_zero_point():
    m = MoreauLogSum(0.01, 0.1, 3)
    assert m.value(np.zeros(3)) == 0.0
    assert np.array_equal(m.gradient(np.zeros(3)), np.zeros(3))


def test_moreau_dead_zone_closed_form():
    # prox collapses to 0 below delta/epsilon, so value = x^2/(2 delta)
    m = MoreauLogSum(0.01, 0.1, 1)
    x = np.array([0.05])
    assert m.value(x) == pytest.approx(0.125, abs=1e-15)
    assert m.gradient(x)[0] == pytest.approx(5.0, abs=1e-12)


def test_moreau_value_grid_infimal_convolution_oracle():
    delta, eps = 0.01, 0.1
    m = MoreauLogSum(delta, eps, 1)
    u = np.arange(-2.0, 2.0, 1e-5)
    pen = np.log1p(np.abs(u) / eps)
    for x in (0.05, 0.5, -0.73, 1.4):
        oracle = np.min(pen + (x - u) ** 2 / (2 * delta))
        assert m.value(np.array([x])) == pytest.approx(oracle, abs=1e-6)


def test_moreau_gradient_finite_difference():
    rng = np.random.default_rng(3)
    m = MoreauLogSum(0.01, 0.1, 5)
    # keep FD points away from the prox kink at |x| = delta/epsilon
    pts = [x for x in rng.uniform(-2, 2, size=(40, 5))
           if np.abs(np.abs(x) - 0.1).min() > 1e-3][:20]
    assert_gradient_matches_fd(m, pts)


def test_moreau_envelope_below_penalty_and_even():
    rng = np.random.default_rng(4)
    m = MoreauLogSum(0.01, 0.1, 4)
    for x in rng.uniform(-3, 3, size=(30, 4)):
        assert m.value(x) <= m.penalty(x) + 1e-12
        assert m.value(np.abs(x)) == pytest.approx(m.value(-np.abs(x)), rel=1e-12)


def test_moreau_constants_and_validation():
    m = MoreauLogSum(0.01, 0.1, 2)
    assert m.lipschitz == pytest.approx(100.0)
    assert m.strong_convexity == 0.0
    assert m.nonconvex
    with pytest.raises(ConfigurationError):
        MoreauLogSum(0.04, 0.1, 2)  # sqrt(delta) = 0.2 > 0.1


# ---------------------------------------------------------------------------
# zero function
# ---------------------------------------------------------------------------


def test_zero_function():
    z = ZeroFunction(3)
    x = np.ones(3)
    assert z.value(x) == 0.0
    assert np.array_equal(z.gradient(x), np.zeros(3))
    assert z.lipschitz == z.strong_convexity == 0.0


def test_smooth_function_without_a_gradient_is_refused_naming_the_class():
    # each of gradient and gradient_map falls back to the other
    class NoGradient(SmoothFunction):
        dimension = 2

    with pytest.raises(NotImplementedError, match="^NoGradient defines neither"):
        NoGradient().gradient(np.ones(2))
    with pytest.raises(NotImplementedError, match="^NoGradient defines neither"):
        NoGradient().gradient_map()
    # a subclass that defines only gradient serves gradient_map too
    assert np.array_equal(DiagQuadratic([1.0, 2.0]).gradient_map()(np.ones(2)),
                          [1.0, 2.0])


# ---------------------------------------------------------------------------
# all three smooth terms on random instances
# ---------------------------------------------------------------------------

_COORD = st.floats(-3.0, 3.0)


@st.composite
def _least_squares(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (m, n), elements=_COORD))
    return LeastSquares(a, draw(arrays(np.float64, m, elements=_COORD)))


@st.composite
def _scaled_sq_norm(draw):
    n = draw(st.integers(1, 6))
    return ScaledSqNorm(draw(st.floats(0.1, 10.0)),
                        center=draw(arrays(np.float64, n, elements=_COORD)))


@st.composite
def _moreau_log_sum(draw):
    # sqrt(delta) <= epsilon: delta = s * epsilon^2 with s <= 1
    epsilon = draw(st.floats(0.05, 1.0))
    delta = draw(st.floats(0.05, 1.0)) * epsilon * epsilon
    return MoreauLogSum(delta, epsilon, draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(func=st.one_of(_least_squares(), _scaled_sq_norm(), _moreau_log_sum()),
       data=st.data())
def test_gradient_matches_finite_differences_on_random_instances(func, data):
    x = data.draw(arrays(np.float64, func.dimension, elements=_COORD))
    if isinstance(func, MoreauLogSum):
        # central differences need the prox kink |x_i| = delta/epsilon
        # farther away than the step
        assume(np.abs(np.abs(x) - func.delta / func.epsilon).min() > 1e-3)
    assert_gradient_matches_fd(func, [x])
    assert func.gradient_map()(x).tobytes() == func.gradient(x).tobytes()


@pytest.mark.parametrize("call,named", [
    (lambda: ScaledSqNorm(1.0), "ScaledSqNorm: give a center or a dimension"),
    (lambda: ScaledSqNorm(0.0, dimension=2), "ScaledSqNorm: weight must be positive"),
], ids=["no center or dimension", "weight 0"])
def test_function_refusals_name_their_condition(call, named):
    with pytest.raises(ContractViolation, match=re.escape(named)):
        call()
