import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_prox_l1_treats_a_negative_zero_threshold_as_zero():
    v = np.array([0.0, -0.0, 5e-324, -1.5, math.inf])
    assert prox_l1(-0.0, v).tobytes() == prox_l1(0.0, v).tobytes()


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


def test_ball_value_is_inf_past_its_slack_and_0_where_prox_ball_lands():
    ball = BallProx(1.3)
    rng = np.random.default_rng(2)
    for scale in (1e-3, 1.0, 1e3, 1e150):
        x = scale * rng.standard_normal(5)
        assert ball.value(prox_ball(1.3, x)) == 0.0
        unit = x / np.linalg.norm(x)
        assert ball.value(1.3 * (1.0 + 1e-13) * unit) == 0.0
        assert ball.value(1.3 * (1.0 + 1e-11) * unit) == math.inf
    assert ball.value(np.array([3.0, 4.0])) == math.inf
    # past ||x|| ~ 1.3e154 the squares overflow: the ball measures x as
    # prox_ball does, without a warning, and keeps its slack there
    huge, x = BallProx(1e200), np.full(4, 1e155)
    assert np.array_equal(prox_ball(1e200, x), x)
    assert huge.value(x) == 0.0
    assert huge.value(np.full(4, 0.5e200 * (1.0 + 1e-13))) == 0.0
    assert huge.value(np.full(4, 0.5e200 * (1.0 + 1e-11))) == math.inf


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


def test_box_prox_refuses_a_vector_of_another_length():
    box = BoxProx(-np.ones(3), np.ones(3))
    for x in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ContractViolation, match="box prox: the vector and the bounds "
                                                    "differ in length"):
            box.prox(1.0, x)


def test_box_value_refuses_a_vector_of_another_length():
    box = BoxProx(-np.ones(3), np.ones(3))
    for x in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ContractViolation, match="box value: the vector and the bounds "
                                                    "differ in length"):
            box.value(x)
    assert box.value(np.zeros(3)) == 0.0
    assert box.value(np.full(3, 2.0)) == math.inf


def test_box_prox_keeps_its_own_copy_of_the_bounds():
    lower, upper = -np.ones(3), np.ones(3)
    box = BoxProx(lower, upper)
    lower[:], upper[:] = 5.0, 6.0
    x = np.array([2.0, -2.0, 0.5])
    assert box.prox(1.0, x).tobytes() == np.array([1.0, -1.0, 0.5]).tobytes()
    # a stride-0 bound is copied, so a tie of zeros gives the bound's zero
    flat = np.broadcast_to(-0.0, 3)
    assert BoxProx(flat, flat).prox(1.0, np.zeros(3)).tobytes() == np.full(3, -0.0).tobytes()


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


_X3 = np.ones(3)


# A NaN parameter fails every comparison, so each guard is written to fail
# on NaN as well; each call passes one NaN and the message names it.
@pytest.mark.parametrize("call, error, name", [
    (lambda: prox_l1(math.nan, _X3), ContractViolation, "threshold"),
    (lambda: prox_ball(math.nan, _X3), ContractViolation, "radius"),
    (lambda: prox_box(np.array([0.0, math.nan, 0.0]), _X3, _X3), ContractViolation,
     "lower <= upper"),
    (lambda: prox_box(-_X3, np.array([1.0, 1.0, math.nan]), _X3), ContractViolation,
     "lower <= upper"),
    (lambda: prox_logsum(math.nan, 0.1, _X3), ConfigurationError, "delta"),
    (lambda: prox_logsum(0.01, math.nan, _X3), ConfigurationError,
     "epsilon is not a number"),
    (lambda: L1Prox(math.nan), ContractViolation, "weight"),
    (lambda: BallProx(math.nan), ContractViolation, "radius"),
    (lambda: BoxProx([0.0, math.nan], [1.0, 1.0]), ContractViolation, "lower <= upper"),
    (lambda: LogSumProx(math.nan), ConfigurationError, "epsilon"),
    (lambda: CombinedProx(L1Prox(1.0), ZeroProx()).prox(1.0, math.nan, _X3),
     ContractViolation, "eta"),
    (lambda: CombinedProx(L1Prox(1.0), ZeroProx()).bind(math.nan, np.empty(3)),
     ContractViolation, "gamma"),
], ids=["prox_l1", "prox_ball", "prox_box-lower", "prox_box-upper", "prox_logsum-delta",
        "prox_logsum-epsilon", "L1Prox", "BallProx", "BoxProx", "LogSumProx",
        "CombinedProx.prox", "CombinedProx.bind"])
def test_a_nan_parameter_is_refused_by_name(call, error, name):
    with pytest.raises(error, match=re.escape(name)):
        call()


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


@settings(max_examples=200, deadline=None)
@given(radius=st.floats(1e-3, 1e3), exponent=st.floats(0.0, 300.0),
       d=_vectors(st.floats(-1.0, 1.0)).filter(lambda d: np.abs(d).max() > 1e-3))
@example(radius=1.0, exponent=200.0, d=np.ones(8))
def test_prox_ball_at_any_finite_scale(radius, exponent, d):
    # past a norm of ~1.3e154 the squares overflow; the projection must
    # still be radius * d / ||d||, not 0, and no overflow warning may escape
    # (the suite turns warnings into errors, so no np.errstate here)
    v = 10.0 ** exponent * d
    got = prox_ball(radius, v)
    if 10.0 ** exponent * np.linalg.norm(d) <= radius:
        assert np.array_equal(got, v)
    else:
        assert np.allclose(got, radius * d / np.linalg.norm(d), rtol=1e-13,
                           atol=1e-13 * radius)


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


# Every supported (lower, upper) pair of CombinedProx. The log-sum term's
# prox needs its scale <= epsilon^2 = 100, which gamma * eta below keeps.
_LOWER_TERMS = [L1Prox(0.7), BallProx(1.3), BoxProx(-np.ones(8), np.ones(8)),
                LogSumProx(10.0)]
_SUPPORTED_PAIRS = ([(ZeroProx(), ZeroProx())]
                    + [(ZeroProx(), term) for term in _LOWER_TERMS]
                    + [(term, ZeroProx()) for term in _LOWER_TERMS]
                    + [(L1Prox(0.3), L1Prox(0.2))])


def _pair_id(pair):
    return f"({pair[0].kind}, {pair[1].kind})"


def _pair_oracle(h, f, gamma, eta, v):
    """The prox of gamma*(h + eta*f) at v from the terms' own prox."""
    if h.kind == "l1" and f.kind == "l1":
        return prox_l1(gamma * (h.weight + eta * f.weight), v)
    if f.kind == "zero" and h.kind != "zero":
        return h.prox(gamma, v)
    return v if eta == 0.0 else f.prox(gamma * eta, v)


@pytest.mark.parametrize("pair", _SUPPORTED_PAIRS, ids=_pair_id)
@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1e-3, 10.0), eta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       v=_vectors(st.floats(-3.0, 3.0)))
@example(gamma=1e-200, eta=1e-200, v=np.full(8, 2.0))
def test_combined_prox_of_every_pair_is_the_terms_own_prox_bit_for_bit(pair, gamma, eta, v):
    h, f = pair
    want = _pair_oracle(h, f, gamma, eta, v).tobytes()
    assert CombinedProx(h, f).bind(gamma, np.empty_like(v))(eta, v.copy()).tobytes() == want
    assert CombinedProx(h, f).prox(gamma, eta, v).tobytes() == want
    if gamma * eta == 0.0 and h.kind == "zero":
        # eta = 0, or gamma*eta underflows to 0: the upper term has no weight
        prox = CombinedProx(h, f).bind(gamma, np.empty_like(v))
        assert prox(eta, v.copy()).tobytes() == v.tobytes()


# The clamps are numpy's clip ufunc; these pin their bytes, the sign of a
# zero included, to the float forms np.minimum and np.maximum give.
_SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308,
                        exclude_min=True, exclude_max=True)
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
_ENTRIES = st.one_of(_SPECIAL, _SUBNORMALS, st.floats(allow_nan=False, allow_infinity=False))
_THRESHOLDS = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(1e-300, 1e300))


def _minmax_soft_threshold(t, v):
    return v - np.maximum(np.minimum(v, t), -t)


def _l1_closures(t, shape):
    """The bound closure of each l1 pair at gamma = eta = 1, whose threshold
    is then t itself, for vectors of the given shape."""
    pairs = [(L1Prox(t), ZeroProx()), (ZeroProx(), L1Prox(t)),
             (L1Prox(t), L1Prox(0.0)), (L1Prox(0.0), L1Prox(t))]
    return [CombinedProx(h, f).bind(1.0, np.empty(shape)) for h, f in pairs]


@settings(max_examples=300, deadline=None)
@given(t=_THRESHOLDS, v=st.lists(_ENTRIES, max_size=12).map(np.array))
@example(t=0.0, v=np.array([0.0, -0.0, 5e-324, -5e-324]))
@example(t=5e-324, v=np.array([5e-324, -5e-324, 0.0, -0.0, 1e-310]))
def test_soft_thresholds_keep_the_bytes_of_the_minmax_form(t, v):
    with np.errstate(invalid="ignore"):
        want = _minmax_soft_threshold(t, v).tobytes()
        assert prox_l1(t, v).tobytes() == want
        for prox in _l1_closures(t, v.shape):
            assert prox(1.0, v.copy()).tobytes() == want


_BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324]),
                    _SUBNORMALS, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_ENTRIES, _BOUNDS, _BOUNDS,
                               st.sampled_from([None, 0.0, -0.0])), min_size=1, max_size=12))
@example(rows=[(x, 0.0, 0.0, z) for x in (0.0, -0.0) for z in (0.0, -0.0)])
def test_prox_box_keeps_the_bytes_of_the_minmax_form(rows):
    x = np.array([row[0] for row in rows])
    a, b = np.array([row[1] for row in rows]), np.array([row[2] for row in rows])
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    for i, (_, _, _, zero) in enumerate(rows):
        if zero is not None:  # lower == upper == +-0.0
            lower[i] = upper[i] = zero
    want = np.minimum(np.maximum(x, lower), upper).tobytes()
    assert prox_box(lower, upper, x).tobytes() == want
    assert BoxProx(lower, upper).prox(1.0, x).tobytes() == want
    # bounds broadcast with stride 0 take the ufunc's other loop
    for zero in (0.0, -0.0):
        flat = np.broadcast_to(zero, x.shape)
        want = np.minimum(np.maximum(x, flat), flat).tobytes()
        assert prox_box(flat, flat, x).tobytes() == want


@pytest.mark.parametrize("call,named", [
    (lambda: prox_box(np.zeros(2), np.ones(3), np.zeros(2)),
     "prox_box: bounds must match the vector length"),
    (lambda: prox_box(np.zeros(3), np.ones(3), np.zeros(2)),
     "prox_box: bounds must match the vector length"),
    (lambda: BoxProx(np.zeros(2), np.ones(3)), "box bounds must be two vectors of equal length"),
    (lambda: BoxProx(np.zeros((2, 2)), np.ones((2, 2))),
     "box bounds must be two vectors of equal length"),
], ids=["prox_box lower", "prox_box x", "BoxProx lengths", "BoxProx matrices"])
def test_box_refusals_name_their_condition(call, named):
    with pytest.raises(ContractViolation, match=re.escape(named)):
        call()
