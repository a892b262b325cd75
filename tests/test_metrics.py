import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import quad_problem
from sbo.bilevel import (CompositeObjective, accelerated_constants, accelerated_run,
                         projection_problem)
from sbo.errors import ConfigurationError, ContractViolation
from sbo.functions import LeastSquares
from sbo.metrics import (dist_to_lower_set, fit_rate, infeasibility, residual_norm,
                         suboptimality)
from sbo.problems import (PROJECTOR_WEIGHT, gen_l1_weak_sharp, inverse_problem,
                          ls_ball_projector)
from sbo.prox import BallProx
from sbo.solvers import DiminishingSchedule, SolverConfig, solve_ir_ista


# ---------------------------------------------------------------------------
# pointwise metrics
# ---------------------------------------------------------------------------


def test_infeasibility_cases(rd_instance):
    ref = rd_instance.reference
    # at the min-norm solution the gap vanishes
    assert infeasibility(rd_instance, ref.x_star) == pytest.approx(0.0, abs=1e-9)
    # simple quadratic: h = ||x||^2/2, h* = 0
    p = quad_problem([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    from sbo.bilevel import ReferenceTruth
    p.reference = ReferenceTruth(h_star=0.0)
    assert infeasibility(p, np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_metrics_return_none_without_reference():
    p = quad_problem([1.0], [0.0], [1.0], [1.0])
    x = np.array([1.0])
    assert infeasibility(p, x) is None
    assert suboptimality(p, x) is None
    assert dist_to_lower_set(p, x) is None
    assert residual_norm(p, x, 0.1) is None


def test_suboptimality_cases(rd_instance):
    ref = rd_instance.reference
    assert suboptimality(rd_instance, ref.x_star) == pytest.approx(0.0, abs=1e-10)
    ws = gen_l1_weak_sharp(4, np.array([1.0, -2.0, 0.5, 0.0]))
    assert suboptimality(ws, np.zeros(4)) == pytest.approx(0.0)
    # f = ||x||^2/2 against x* = 0: value 2 at (2, 0, 0, 0) minus f* = ||c||^2/2
    x = np.array([2.0, 0.0, 0.0, 0.0])
    expected = ws.upper.value(x) - ws.reference.f_star
    assert suboptimality(ws, x) == pytest.approx(expected)


def test_suboptimality_negative_at_infeasible_points_is_bounded():
    c = np.array([2.0, -1.0, 0.5])
    ws = gen_l1_weak_sharp(3, c)
    rng = np.random.default_rng(0)
    g_norm = ws.reference.subgradient.norm
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        sub = suboptimality(ws, x)
        d = dist_to_lower_set(ws, x)
        assert sub >= -g_norm * d - 1e-10


def test_dist_to_lower_set_cases(rd_instance):
    ref = rd_instance.reference
    assert dist_to_lower_set(rd_instance, ref.x_star) == pytest.approx(0.0, abs=1e-9)
    ws = gen_l1_weak_sharp(3, np.ones(3))
    x = np.array([3.0, 4.0, 0.0])
    assert dist_to_lower_set(ws, x) == pytest.approx(5.0)


def test_exact_affine_projector_properties(rd_instance):
    rng = np.random.default_rng(1)
    proj = rd_instance.reference.projector
    for _ in range(20):
        x = rng.standard_normal(rd_instance.dimension) * 3
        px = proj(x)
        assert np.allclose(proj(px), px, atol=1e-12)
        assert rd_instance.lower.value(px) <= 1e-12


def test_quadratic_growth_certificate(rd_instance):
    ref = rd_instance.reference
    alpha = ref.weak_sharp.alpha
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(rd_instance.dimension) * 2
        gap = infeasibility(rd_instance, x)
        d = dist_to_lower_set(rd_instance, x)
        assert alpha * d * d <= gap + 1e-8


def test_optimum_lower_bound_inequality_samplewise(rd_instance_l1):
    # strong-convexity lower bound on the upper gap at arbitrary points
    p = rd_instance_l1
    ref = p.reference
    g_norm = ref.subgradient.norm
    mu = p.upper.smooth.strong_convexity
    slack = 1e-8 + 10.0 * ref.f_star_tol
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(p.dimension)
        lower_bound = (-g_norm * dist_to_lower_set(p, x)
                       + 0.5 * mu * float((x - ref.x_star) @ (x - ref.x_star)))
        assert lower_bound <= suboptimality(p, x) + slack


def test_residual_norm_cases():
    ws = gen_l1_weak_sharp(3, np.zeros(3))  # grad f(0) = 0 and X* = {0}
    assert residual_norm(ws, np.zeros(3), 0.5) == pytest.approx(0.0)
    ws2 = gen_l1_weak_sharp(3, np.ones(3))
    x = np.array([0.3, -0.4, 0.0])
    # X* = {0}: G = (x - 0)/gamma
    assert residual_norm(ws2, x, 0.25) == pytest.approx(np.linalg.norm(x) / 0.25)


def test_residual_norm_refuses_a_nan_gamma_hat_by_name():
    with pytest.raises(ContractViolation, match="gamma_hat"):
        residual_norm(gen_l1_weak_sharp(3, np.ones(3)), np.zeros(3), math.nan)


def test_residual_zero_iff_stationary(rd_instance):
    # stationary for min f over the affine set: x* attains it (lam = 0 member)
    ref = rd_instance.reference
    gamma_hat = 0.4 / rd_instance.upper.smooth.lipschitz
    assert residual_norm(rd_instance, ref.x_star, gamma_hat) == \
        pytest.approx(0.0, abs=1e-8)
    x = ref.x_star + 0.5 * np.ones(rd_instance.dimension)
    assert residual_norm(rd_instance, x, gamma_hat) > 1e-3


def test_approximate_projector_matches_exact(rd_instance):
    # the iterative projector: the accelerated run on the pair
    # (lower, 0.5*||u - x||^2) at a tiny constant weight
    proj_exact = rd_instance.reference.projector
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(rd_instance.dimension)
        (approx, _), = accelerated_run(projection_problem(rd_instance.lower, x), 1e-7, x,
                                       [60_000])
        assert np.linalg.norm(approx - proj_exact(x)) <= 1e-2


def _ls_ball_query(which, n, eta, scale, active, seed):
    """A Fredholm system, a query x and a ball radius that cuts the
    unconstrained minimizer off (active) or holds it with room (inactive)."""
    a, b = inverse_problem(which, n)
    x = scale * np.random.default_rng(seed).standard_normal(n)
    free = np.linalg.solve(a.T @ a + eta * np.eye(n), a.T @ b + eta * x)
    radius = (0.5 if active else 2.0) * float(np.linalg.norm(free))
    return a, b, x, radius


def _iterative_ls_ball(a, b, radius, eta, x):
    lower = CompositeObjective(LeastSquares(a, b), BallProx(radius))
    return next(accelerated_run(projection_problem(lower, x), eta, x, [50_000]))[0]


def _longdouble_ls_ball(a, b, radius, eta, x):
    """The iteration of `_iterative_ls_ball` written out in np.longdouble,
    with its float64 step size and momentum, ending once the iterate stops
    changing. Its rounding floor lies far below the float64 run's, which
    can end over 1e-12 from the exact projection (phillips at eta = 1e-2)."""
    lower = CompositeObjective(LeastSquares(a, b), BallProx(radius))
    gamma, _, momentum = accelerated_constants(projection_problem(lower, x), eta)
    ld = np.longdouble
    a, b, x = (np.asarray(v, dtype=ld) for v in (a, b, x))
    gamma, eta, momentum, radius = ld(gamma), ld(eta), ld(momentum), ld(radius)
    u = y = x
    for _ in range(50_000):
        v = y - gamma * (a.T @ (a @ y - b) + eta * (y - x))
        norm = np.sqrt(v @ v)
        u_next = v if norm <= radius else (radius / norm) * v
        if np.array_equal(u_next, u):
            break
        y = u_next + momentum * (u_next - u)
        u = u_next
    return u


def _assert_kkt(a, b, radius, eta, x, u, active):
    """u is feasible and, with a multiplier mu >= 0 that vanishes inside the
    ball, solves (A^T A + eta I + mu I) u = A^T b + eta x to 1e-10."""
    m = a.T @ a + eta * np.eye(x.size)
    rhs = a.T @ b + eta * x
    if active:
        assert np.linalg.norm(u) == pytest.approx(radius, rel=1e-14)
        mu = float((rhs - m @ u) @ u) / float(u @ u)
        assert mu > 0.0
    else:
        assert np.linalg.norm(u) < radius
        mu = 0.0
    assert np.linalg.norm(m @ u + mu * u - rhs) <= 1e-10


_FREDHOLM = dict(which=st.sampled_from(["phillips", "baart", "foxgood"]),
                 n=st.sampled_from([8, 16]), scale=st.floats(0.1, 10.0),
                 active=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(log_eta=st.floats(-8.0, 0.0), **_FREDHOLM)
def test_ls_ball_projector_solves_kkt(log_eta, which, n, scale, active, seed):
    eta = 10.0 ** log_eta
    a, b, x, radius = _ls_ball_query(which, n, eta, scale, active, seed)
    u = ls_ball_projector(np.linalg.svd(a), b, radius, eta)(x)
    _assert_kkt(a, b, radius, eta, x, u, active)


# The iterative projector contracts by 1 - sqrt(eta/L) per iteration, so 50k
# of them reach 1e-12 from any query once eta >= 1e-2, in long double (the
# example's float64 run ends 1.19e-12 away, its long double run 5.3e-14); at
# the instances' weight they do so only where the ball is well active, which
# the unit ball of the nonconvex instances is (checked below).
@settings(max_examples=6, deadline=None)
@given(log_eta=st.floats(-2.0, 0.0), **_FREDHOLM)
@example(log_eta=-2.0, which="phillips", n=16, scale=5.0, active=False, seed=3)
def test_ls_ball_projector_matches_iterative(log_eta, which, n, scale, active, seed):
    eta = 10.0 ** log_eta
    a, b, x, radius = _ls_ball_query(which, n, eta, scale, active, seed)
    u = ls_ball_projector(np.linalg.svd(a), b, radius, eta)(x)
    _assert_kkt(a, b, radius, eta, x, u, active)
    assert np.linalg.norm(u - _longdouble_ls_ball(a, b, radius, eta, x)) <= 1e-12


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("which", ["phillips", "baart", "foxgood"])
def test_ls_ball_projector_matches_iterative_at_instance_weight(which, n):
    a, b = inverse_problem(which, n)
    x = np.random.default_rng(n).standard_normal(n)
    u = ls_ball_projector(np.linalg.svd(a), b, 1.0, PROJECTOR_WEIGHT)(x)
    _assert_kkt(a, b, 1.0, PROJECTOR_WEIGHT, x, u, active=True)
    assert np.linalg.norm(u - _iterative_ls_ball(a, b, 1.0, PROJECTOR_WEIGHT, x)) <= 1e-12


def _bisection_ls_ball_projector(svd, b, radius, eta):
    """The oracle: `ls_ball_projector` as it was written before its Newton
    search, a bisection of [0, ||r||/radius] for the ball multiplier."""
    u_mat, s, vt = svd
    pad = (0, vt.shape[0] - s.size)
    d = eta + np.pad(s * s, pad)
    sb = np.pad(s * (u_mat.T @ b)[:s.size], pad)

    def norm(v):
        return math.sqrt(v.dot(v))

    def project(x):
        r = sb + eta * (vt @ x)
        lo = mu = 0.0
        if norm(r / d) > radius:
            mu = norm(r) / radius
            while lo < 0.5 * (lo + mu) < mu:
                mid = 0.5 * (lo + mu)
                lo, mu = (mid, mu) if norm(r / (d + mid)) > radius else (lo, mid)
        return vt.T @ (r / (d + mu))

    return project


# The free minimizers have norms 0.4 to 3.3, so small queries leave the ball
# inactive for a large radius and active for a small one; large ones make it
# active. The examples pin both.
@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["phillips", "baart", "foxgood"]),
       n=st.sampled_from([4, 8, 16, 32]), log_eta=st.floats(-9.0, 0.0),
       radius=st.floats(0.1, 10.0),
       scale=st.just(0.0) | st.floats(-3.0, 150.0).map(lambda t: 10.0 ** t),
       seed=st.integers(0, 2**32 - 1))
@example(which="phillips", n=8, log_eta=-3.0, radius=10.0, scale=0.0, seed=0)
@example(which="baart", n=16, log_eta=-6.0, radius=5.0, scale=1e-2, seed=1)
@example(which="foxgood", n=32, log_eta=-6.0, radius=0.1, scale=1.0, seed=2)
@example(which="phillips", n=32, log_eta=-9.0, radius=1.0, scale=1e150, seed=3)
def test_ls_ball_projector_has_the_bits_of_the_bisection(which, n, log_eta, radius,
                                                         scale, seed):
    a, b = inverse_problem(which, n)
    svd, eta = np.linalg.svd(a), 10.0 ** log_eta
    x = scale * np.random.default_rng(seed).standard_normal(n)
    u = ls_ball_projector(svd, b, radius, eta)(x)
    assert u.tobytes() == _bisection_ls_ball_projector(svd, b, radius, eta)(x).tobytes()


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_ls_ball_projector_answers_a_query_whose_squares_overflow(scale):
    a, b = inverse_problem("phillips", 16)
    x = np.full(16, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = ls_ball_projector(np.linalg.svd(a), b, 1.0, PROJECTOR_WEIGHT)(x)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(u - np.full(16, 0.25)) <= 1e-12  # x / ||x|| = ones / 4


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_exact_power_laws():
    ks = range(1, 2001)
    fit1 = fit_rate([(k, 7.0 / k) for k in ks], (1, 2000))
    assert fit1.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit1.r_squared == pytest.approx(1.0, abs=1e-12)
    fit2 = fit_rate([(k, 3.0 / k**2) for k in ks], (1, 2000))
    assert fit2.slope == pytest.approx(-2.0, abs=1e-6)


def test_fit_rate_perturbed_power_law():
    ks = range(1, 3001)
    fit = fit_rate([(k, (5.0 / k) * (1 + 0.01 * math.sin(k))) for k in ks],
                   (1, 3000))
    assert fit.slope == pytest.approx(-1.0, abs=0.02)


def test_fit_rate_scaling_invariance():
    samples = [(k, 2.0 / k**1.5) for k in range(1, 500)]
    base = fit_rate(samples, (1, 499)).slope
    scaled = fit_rate([(k, 1e6 * v) for k, v in samples], (1, 499)).slope
    assert scaled == pytest.approx(base, abs=1e-12)


def test_fit_rate_requires_positive_samples():
    with pytest.raises(ConfigurationError, match="at least 5"):
        fit_rate([(k, -1.0) for k in range(1, 100)], (1, 99))
    with pytest.raises(ConfigurationError):
        fit_rate([(1, 1.0), (2, 0.5)], (1, 2))
    # explicit lower bar for cross-run fits
    fit = fit_rate([(10, 1.0), (100, 0.1), (1000, 0.01)], (10, 1000),
                   min_samples=3)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_refuses_samples_at_one_k():
    # np.polyfit would fit a rank-deficient line through them
    with pytest.raises(ConfigurationError, match="at two or more k"):
        fit_rate([(100, 0.5), (100, 0.4), (100, 0.3)], (1, 1000), min_samples=3)


def test_fit_rate_skips_none_and_nonpositive_samples():
    samples = [(k, 1.0 / k) for k in range(1, 50)]
    samples += [(60, None), (70, -2.0)]
    fit = fit_rate(samples, (1, 100))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fit_rate_skips_non_finite_samples(bad):
    # an infinite sample would give slope nan and a RuntimeWarning
    law = [(k, 3.0 / k**2) for k in range(1, 200)]
    want = fit_rate(law, (1, 1000))
    got = fit_rate(law[:100] + [(150, bad)] + law[100:], (1, 1000))
    assert [float.hex(v) for v in (got.slope, got.intercept, got.r_squared)] == (
        [float.hex(v) for v in (want.slope, want.intercept, want.r_squared)])
    assert got.n_samples == want.n_samples == 199
    with pytest.raises(ConfigurationError, match="needs at least 5 positive samples"):
        fit_rate([(k, bad) for k in range(1, 100)], (1, 99))


def test_trace_metrics_flow_through_solver(rd_instance):
    rep = solve_ir_ista(rd_instance,
                        SolverConfig(big_k=300, schedule=DiminishingSchedule()))
    last = rep.trace[-1]
    assert last.infeas is not None and last.infeas >= -1e-10
    assert last.subopt is not None
    assert last.dist_lower is not None  # exact projector: computed in-trace
    assert last.dist_xstar_sq is not None
