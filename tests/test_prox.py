import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbo.errors import ConfigurationError, ContractViolation
from sbo.prox import (BallProx, BoxProx, CombinedProx, L1Prox, LogSumProx,
                      ZeroProx, prox_ball, prox_box, prox_l1, prox_logsum)


def grid_argmin(g, gamma, x, lo=-2.0, hi=2.0, step=1e-4):
    """Brute-force 1-D prox oracle: argmin of gamma*g(u) + 0.5*(u-x)^2."""
    u = np.arange(lo, hi + step, step)
    return u[np.argmin(gamma * g(u) + 0.5 * (u - x) ** 2)]


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------


def test_prox_l1_zero_threshold_is_identity():
    x = np.array([1.5, -2.0, 0.0])
    assert np.array_equal(prox_l1(0.0, x), x)


def test_prox_l1_closed_form():
    assert np.array_equal(prox_l1(1.0, np.array([2.0, -0.5, 0.0])), [1.0, 0.0, 0.0])


def test_prox_l1_grid_oracle_single_point():
    got = prox_l1(0.3, np.array([0.7]))[0]
    want = grid_argmin(np.abs, 0.3, 0.7)
    assert abs(got - want) <= 1e-3


def test_prox_l1_grid_oracle_seeded():
    rng = np.random.default_rng(2)
    for x in rng.uniform(-1.8, 1.8, size=20):
        got = prox_l1(0.4, np.array([x]))[0]
        assert abs(got - grid_argmin(np.abs, 0.4, x)) <= 1e-3


def test_prox_l1_subgradient_characterization():
    # z = prox means x - z in gamma * d|.|(z): |x-z| <= gamma, equality off zero
    rng = np.random.default_rng(3)
    gamma = 0.37
    x = rng.uniform(-2, 2, size=50)
    z = prox_l1(gamma, x)
    moved = x - z
    assert np.all(np.abs(moved) <= gamma + 1e-15)
    off = z != 0
    assert np.allclose(np.abs(moved[off]), gamma)
    assert np.all(np.sign(moved[off]) == np.sign(z[off]))


def test_prox_l1_support_shrinks_with_threshold():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=60)
    prev = None
    for th in (0.1, 0.4, 0.8, 1.6):
        support = set(np.nonzero(prox_l1(th, x))[0])
        if prev is not None:
            assert support <= prev
        prev = support


def test_prox_l1_rejects_negative_threshold():
    with pytest.raises(ContractViolation):
        prox_l1(-0.1, np.zeros(2))


# ---------------------------------------------------------------------------
# ball / box projections
# ---------------------------------------------------------------------------


def test_prox_ball_cases():
    inside = np.array([0.3, -0.4])
    assert np.array_equal(prox_ball(1.0, inside), inside)
    assert np.allclose(prox_ball(1.0, np.array([3.0, 4.0])), [0.6, 0.8])
    assert np.array_equal(prox_ball(1.0, np.zeros(3)), np.zeros(3))


def test_prox_ball_grid_oracle_1d():
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.9, 1.9, size=20):
        got = prox_ball(0.7, np.array([x]))[0]
        want = grid_argmin(lambda u: np.where(np.abs(u) <= 0.7, 0.0, 1e9), 1.0, x)
        assert abs(got - want) <= 1e-3


def test_prox_box_cases():
    lo, hi = -np.ones(3), np.ones(3)
    inside = np.array([0.2, -0.5, 0.9])
    assert np.array_equal(prox_box(lo, hi, inside), inside)
    clamped = prox_box(lo, hi, np.array([2.0, -3.0, 0.5]))
    assert np.array_equal(clamped, [1.0, -1.0, 0.5])
    # idempotence
    assert np.array_equal(prox_box(lo, hi, clamped), clamped)


def test_prox_box_invalid_bounds():
    with pytest.raises(ContractViolation):
        prox_box(np.array([1.0]), np.array([-1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# log-sum prox
# ---------------------------------------------------------------------------


def test_prox_logsum_dead_zone_value():
    # |x| <= delta/epsilon collapses to zero, including the boundary tie
    # (the threshold as the floats compute it: 0.01/0.1 is one ulp below 0.1)
    threshold = 0.01 / 0.1
    out = prox_logsum(0.01, 0.1, np.array([0.05, -0.09, threshold, -threshold]))
    assert np.array_equal(out, np.zeros(4))


def test_prox_logsum_closed_form_value():
    got = prox_logsum(0.01, 0.1, np.array([0.5]))[0]
    expected = 0.5 * (0.5 - 0.1 + math.sqrt((0.5 + 0.1) ** 2 - 4 * 0.01))
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.5 * (0.4 + math.sqrt(0.32)), abs=1e-15)


def test_prox_logsum_grid_oracle():
    delta, eps = 0.01, 0.1

    def pen(u):
        return delta * np.log1p(np.abs(u) / eps)

    rng = np.random.default_rng(6)
    xs = np.concatenate([rng.uniform(-1.8, 1.8, size=17), [0.5, 0.1, -0.1]])
    for x in xs:
        got = prox_logsum(delta, eps, np.array([x]))[0]
        want = grid_argmin(pen, 1.0, x, step=1e-5)
        assert abs(got - want) <= 1e-3


def test_prox_logsum_odd_symmetry():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=40)
    assert np.allclose(prox_logsum(0.01, 0.1, -x), -prox_logsum(0.01, 0.1, x))


def test_prox_logsum_parameter_validation():
    with pytest.raises(ConfigurationError):
        prox_logsum(0.0, 0.1, np.zeros(1))
    with pytest.raises(ConfigurationError, match="sqrt"):
        prox_logsum(0.04, 0.1, np.zeros(1))


def test_prox_logsum_can_expand():
    # the penalty is nonconvex: its prox is NOT nonexpansive (the convex
    # prox terms below are); pin the counterexample
    a = prox_logsum(0.01, 0.1, np.array([0.5]))[0]
    b = prox_logsum(0.01, 0.1, np.array([0.6]))[0]
    assert abs(a - b) > 0.1


# ---------------------------------------------------------------------------
# nonexpansiveness of the convex proxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("term,gamma", [
    (ZeroProx(), 1.0),
    (L1Prox(0.7), 0.9),
    (BallProx(1.3), 1.0),
    (BoxProx(-np.ones(8), np.ones(8)), 1.0),
])
def test_firm_nonexpansiveness_convex_proxes(term, gamma):
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y = rng.uniform(-3, 3, size=(2, 8))
        px, py = term.prox(gamma, x), term.prox(gamma, y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_sign_zero_convention():
    assert prox_l1(0.5, np.array([0.0]))[0] == 0.0
    assert prox_logsum(0.01, 0.1, np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# combined prox
# ---------------------------------------------------------------------------


def test_combined_zero_lower_reduces_to_merged_soft_threshold():
    comb = CombinedProx(ZeroProx(), L1Prox(0.5))
    x = np.array([2.0, -0.3, 0.1])
    got = comb.prox(0.8, 2.0, x)
    assert np.allclose(got, prox_l1(0.8 * 2.0 * 0.5, x))


def test_combined_ball_lower_ignores_eta():
    comb = CombinedProx(BallProx(1.0), ZeroProx())
    got = comb.prox(0.5, 3.0, np.array([3.0, 4.0]))
    assert np.allclose(got, [0.6, 0.8])


def test_combined_l1_lower_hand_case():
    comb = CombinedProx(L1Prox(1.0), ZeroProx())
    got = comb.prox(0.5, 7.0, np.array([1.2, -0.1]))
    assert np.allclose(got, [0.7, 0.0])


def test_combined_l1_l1_merges_weights():
    comb = CombinedProx(L1Prox(0.3), L1Prox(0.2))
    x = np.array([1.0, -2.0])
    got = comb.prox(0.5, 2.0, x)
    assert np.allclose(got, prox_l1(0.5 * (0.3 + 2.0 * 0.2), x))


def test_combined_eta_zero_upper_only_is_identity():
    comb = CombinedProx(ZeroProx(), L1Prox(1.0))
    x = np.array([0.4, -0.2])
    assert np.array_equal(comb.prox(1.0, 0.0, x), x)


def test_combined_unsupported_pair_rejected_at_build():
    with pytest.raises(ConfigurationError, match="supported pairs"):
        CombinedProx(BallProx(1.0), L1Prox(1.0))
    with pytest.raises(ConfigurationError):
        CombinedProx(L1Prox(1.0), BallProx(1.0))


def test_combined_value_and_logsum_term():
    term = LogSumProx(0.1)
    assert term.value(np.array([0.0, 0.0])) == 0.0
    # the combined prox minimizes gamma*(omega_h + eta*omega_f)(u) + 0.5*||u - x||^2
    comb = CombinedProx(L1Prox(0.5), L1Prox(0.25))
    gamma, eta, x = 0.8, 3.0, np.array([1.0, -0.2, 0.9])

    def objective(u):
        value = comb.omega_h.value(u) + eta * comb.omega_f.value(u)
        return gamma * value + 0.5 * float((u - x) @ (u - x))

    p = comb.prox(gamma, eta, x)
    assert objective(np.array([1.0, -1.0, 0.0])) == pytest.approx(
        0.8 * (1.0 + 3.0 * 0.5) + 0.5 * (0.0 + 0.64 + 0.81))
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert objective(p) <= objective(p + 1e-3 * rng.standard_normal(3))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _vectors(elements=_FINITE, n=8):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(1e-3, 1e2), x=_vectors())
def test_l1_moreau_decomposition(t, x):
    # x = prox_{t|.|}(x) + t * prox_{|.|^*/t}(x / t), the conjugate's prox
    # being the projection onto [-1, 1]
    assert np.allclose(prox_l1(t, x) + t * np.clip(x / t, -1.0, 1.0), x,
                       rtol=0.0, atol=1e-12)


_CONVEX_TERMS = [L1Prox(0.7), BallProx(1.3), BoxProx(-np.ones(8), np.ones(8))]


@settings(max_examples=100, deadline=None)
@given(which=st.integers(0, len(_CONVEX_TERMS) - 1), gamma=st.floats(1e-3, 10.0),
       x=_vectors(), y=_vectors())
def test_convex_proxes_are_firmly_nonexpansive(which, gamma, x, y):
    px = _CONVEX_TERMS[which].prox(gamma, x)
    py = _CONVEX_TERMS[which].prox(gamma, y)
    d = px - py
    assert d @ d <= d @ (x - y) + 1e-9 * (1.0 + (x - y) @ (x - y))


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(1e-3, 10.0), x=_vectors(st.floats(-1.0, 1.0)))
def test_prox_fixed_points(gamma, x):
    inside = x / (1.0 + math.sqrt(x @ x))
    assert np.array_equal(BallProx(1.0).prox(gamma, inside), inside)
    assert np.array_equal(BoxProx(-np.ones(8), np.ones(8)).prox(gamma, x), x)
    assert np.array_equal(L1Prox(0.7).prox(gamma, np.zeros(8)), np.zeros(8))


def _sign_form_l1(t, v):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(0.0, 1e3),
       v=_vectors(st.one_of(st.floats(), st.floats(-2.0, 2.0),
                            st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                             math.nan]))))
def test_prox_l1_agrees_with_the_sign_form(t, v):
    with np.errstate(invalid="ignore"):
        assert np.array_equal(prox_l1(t, v), _sign_form_l1(t, v), equal_nan=True)
