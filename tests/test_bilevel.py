import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GradientTurnsNan, quad_problem
from sbo.bilevel import (BilevelProblem, CompositeObjective, accelerated_constants,
                         accelerated_run, min_norm_l1_subgradient,
                         projection_problem)
from sbo.errors import ConfigurationError, ContractViolation, DivergenceError
from sbo.functions import LeastSquares, MoreauLogSum, ScaledSqNorm, ZeroFunction
from sbo.problems import (gen_l1_weak_sharp, gen_nonconvex_sec6,
                          gen_rank_deficient_ls, gen_sec61_inverse)
from sbo.prox import BallProx, L1Prox, ZeroProx
from sbo.solvers import FixedEtaSchedule, SolverConfig, solve_r_vfista


def make_1d_problem():
    # h = x^2/2 over R, f = (x-2)^2/2
    return quad_problem([1.0], [0.0], [1.0], [2.0], x0=np.array([3.0]))


def test_regularized_value_eta_zero_is_lower():
    p = make_1d_problem()
    x = np.array([1.5])
    assert p.regularized_value(0.0, x) == p.lower.value(x)


def test_regularized_value_linearity():
    p = make_1d_problem()
    x = np.array([1.0])
    # h(1) = 0.5, f(1) = 0.5 -> value at eta = 3 is 0.5 + 1.5
    assert p.regularized_value(3.0, x) == pytest.approx(2.0)


def test_regularized_value_term_by_term_oracle():
    rng = np.random.default_rng(0)
    p = quad_problem(rng.uniform(0.5, 2, 6), rng.standard_normal(6),
                     rng.uniform(0.5, 2, 6), rng.standard_normal(6),
                     omega_h=L1Prox(0.3), omega_f=L1Prox(0.2))
    for _ in range(10):
        eta = rng.uniform(0, 2)
        x = rng.standard_normal(6)
        direct = (p.lower.smooth.value(x) + eta * p.upper.smooth.value(x)
                  + p.lower.nonsmooth.value(x) + eta * p.upper.nonsmooth.value(x))
        assert p.regularized_value(eta, x) == pytest.approx(direct, abs=1e-12)


def test_regularized_gradient_eta_zero_and_stationary():
    p = make_1d_problem()
    x = np.array([0.7])
    assert np.allclose(p.regularized_gradient(0.0, x), p.lower.smooth.gradient(x))
    # both gradients vanish at their own centers only; a joint zero: take
    # f and h centered at the same point
    q = quad_problem([1.0], [0.5], [2.0], [0.5])
    assert np.allclose(q.regularized_gradient(1.7, np.array([0.5])), [0.0])


def test_regularized_gradient_finite_difference():
    rng = np.random.default_rng(1)
    p = quad_problem(rng.uniform(0.5, 2, 5), rng.standard_normal(5),
                     rng.uniform(0.5, 2, 5), rng.standard_normal(5))
    for _ in range(10):
        eta = rng.uniform(0.1, 2)
        x = rng.standard_normal(5)
        g = p.regularized_gradient(eta, x)
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1e-6
            fd[i] = (p.regularized_smooth_value(eta, x + e)
                     - p.regularized_smooth_value(eta, x - e)) / 2e-6
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_q_eta_step_hand_case():
    p = make_1d_problem()
    # grad at 3: h' = 3, f' = 1; step = 3 - 0.5*(3 + 1) = 1
    got = p.q_eta_step(1.0, 0.5, np.array([3.0]))
    assert got[0] == pytest.approx(1.0)


def test_q_eta_step_fixed_point_of_long_prox_gradient_run():
    rng = np.random.default_rng(2)
    p = quad_problem([1.0, 2.0], [0.3, -0.2], [1.0, 1.0], [1.0, 1.0],
                     omega_h=L1Prox(0.2))
    eta, gamma = 0.7, 1.0 / p.surrogate_lipschitz(0.7)
    x = rng.standard_normal(2)
    for _ in range(100_000):
        x = p.q_eta_step(eta, gamma, x)
    assert np.linalg.norm(p.q_eta_step(eta, gamma, x) - x) <= 1e-8


def test_q_eta_step_sufficient_decrease():
    rng = np.random.default_rng(3)
    p = quad_problem(rng.uniform(0.5, 2, 4), rng.standard_normal(4),
                     rng.uniform(0.5, 2, 4), rng.standard_normal(4),
                     omega_f=L1Prox(0.4))
    for _ in range(20):
        eta = rng.uniform(0.05, 3)
        gamma = 1.0 / p.surrogate_lipschitz(eta)
        x = rng.standard_normal(4)
        x_next = p.q_eta_step(eta, gamma, x)
        assert (p.regularized_value(eta, x_next)
                <= p.regularized_value(eta, x) + 1e-12)


def test_dimension_checks_everywhere():
    p = make_1d_problem()
    with pytest.raises(ContractViolation):
        p.regularized_gradient(1.0, np.ones(2))
    with pytest.raises(ContractViolation):
        p.q_eta_step(1.0, -0.5, np.ones(1))
    with pytest.raises(ContractViolation):
        p.regularized_value(-1.0, np.ones(1))
    with pytest.raises(ContractViolation):
        BilevelProblem(
            CompositeObjective(ZeroFunction(2), ZeroProx()),
            CompositeObjective(ZeroFunction(3), ZeroProx()),
        )


def test_unsupported_prox_pair_rejected_at_problem_build():
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), L1Prox(1.0))
    lower = CompositeObjective(ZeroFunction(2), BallProx(1.0))
    with pytest.raises(ConfigurationError, match="supported pairs"):
        BilevelProblem(upper, lower)


def test_min_norm_l1_subgradient():
    grad = np.array([2.0, -0.3, 0.8])
    x_star = np.array([1.0, 0.0, 0.0])
    g = min_norm_l1_subgradient(grad, 0.5, x_star)
    # active coordinate gets grad + lam*sign, zeros get soft threshold
    assert np.allclose(g, [2.5, 0.0, 0.3])
    # membership: g - grad must lie in lam * [-1, 1] with sign matching x*
    s = (g - grad) / 0.5
    assert np.all(np.abs(s) <= 1 + 1e-12)
    assert s[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------


def _ipr_anchor_problem():
    """The sub-problem of one ipr_vfista inner loop: the ball-constrained
    phillips lower level with the anchor 0.5*||. - z||^2."""
    lower = gen_nonconvex_sec6(16, "phillips").lower
    return projection_problem(lower, np.random.default_rng(3).standard_normal(16))


_KERNEL_PROBLEMS = {
    "rank_deficient_ls lam=0": gen_rank_deficient_ls(12, 5, seed=2, lam=0.0),
    "rank_deficient_ls lam=0.1": gen_rank_deficient_ls(12, 5, seed=2, lam=0.1),
    "rank_deficient_ls mu_f=2": gen_rank_deficient_ls(12, 5, seed=2, mu_f=2.0),
    "l1_weak_sharp": gen_l1_weak_sharp(12, np.linspace(-2.0, 2.0, 12)),
    "sec61_phillips": gen_sec61_inverse("phillips", 16, mu_f=1.0, lam=1.0),
    "ipr anchor": _ipr_anchor_problem(),
    "l1-l1 pair": quad_problem(np.linspace(0.5, 2.0, 6), np.zeros(6),
                               np.ones(6), np.linspace(-1.0, 1.0, 6),
                               omega_h=L1Prox(0.3), omega_f=L1Prox(0.2)),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_KERNEL_PROBLEMS)),
       gamma_scale=st.floats(1e-3, 1.0),
       eta=st.one_of(st.just(0.0), st.floats(1e-12, 10.0)),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_step_kernel_is_the_prox_gradient_step_bit_for_bit(name, gamma_scale, eta,
                                                           scale, seed):
    p = _KERNEL_PROBLEMS[name]
    gamma = gamma_scale / max(p.surrogate_lipschitz(eta), 1e-3)
    x = scale * np.random.default_rng(seed).standard_normal(p.dimension)
    grad = p.lower.smooth.gradient(x) + eta * p.upper.smooth.gradient(x)
    want = p.combined_prox.prox(gamma, eta, x - gamma * grad)
    got = p.step_map(gamma)(eta, x)
    assert np.array_equal(got, want)
    assert np.array_equal(p.q_eta_step(eta, gamma, x), want)
    assert got is not x


def test_step_kernel_matches_the_hand_written_ipr_inner_step():
    p = _ipr_anchor_problem()
    lower, z = p.lower, p.upper.smooth.center
    rng = np.random.default_rng(4)
    for eta in (1e-6, 1e-2, 3.0):
        gamma = 1.0 / (lower.smooth.lipschitz + eta)
        step = p.step_map(gamma)
        for scale in (0.01, 1.0, 100.0):
            y = scale * rng.standard_normal(p.dimension)
            grad = lower.smooth.gradient(y) + eta * (y - z)
            want = lower.nonsmooth.prox(gamma, y - gamma * grad)
            assert np.array_equal(step(eta, y), want)


# ---------------------------------------------------------------------------
# the accelerated run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["rank_deficient_ls lam=0.1", "rank_deficient_ls mu_f=2",
                                  "l1_weak_sharp", "sec61_phillips", "ipr anchor",
                                  "l1-l1 pair"])
@pytest.mark.parametrize("eta,iters", [(1e-6, 300), (0.5, 40), (3.0, 1)])
def test_accelerated_run_is_the_r_vfista_loop_bit_for_bit(name, eta, iters):
    p = _KERNEL_PROBLEMS[name]
    x0 = p.initial_point.copy()
    rep = solve_r_vfista(p, SolverConfig(big_k=iters, schedule=FixedEtaSchedule(eta),
                                         trace_every=iters))
    assert np.array_equal(accelerated_run(p, eta, x0, iters), rep.x_final)
    assert np.array_equal(x0, p.initial_point)  # x0 is not written to
    gamma, kappa, momentum = accelerated_constants(p, eta)
    assert (gamma, kappa, momentum) == (rep.config["gamma"], rep.config["kappa"],
                                        rep.config["momentum"])


def test_accelerated_run_refuses_what_the_accelerated_solver_refuses():
    p = make_1d_problem()
    x0 = np.array([3.0])
    for eta in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError, match="eta > 0"):
            accelerated_run(p, eta, x0, 5)
    with pytest.raises(ConfigurationError, match="iters >= 1"):
        accelerated_run(p, 1.0, x0, 0)
    nonconvex = BilevelProblem(CompositeObjective(MoreauLogSum(1e-2, 1e-1, 1), ZeroProx()),
                               p.lower)
    with pytest.raises(ConfigurationError, match="strongly convex"):
        accelerated_run(nonconvex, 1.0, x0, 5)
    with pytest.raises(ContractViolation):
        accelerated_run(p, 1.0, np.ones(2), 5)


def test_accelerated_run_divergence_names_its_step():
    # one lower gradient per step: the 4th is NaN, at step 3
    lower = CompositeObjective(GradientTurnsNan(np.array([1.0, 2.0]), 3), ZeroProx())
    p = BilevelProblem(CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx()),
                       lower)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="non-finite iterate at step 3") as err:
            accelerated_run(p, 0.5, np.ones(2), 10)
    assert err.value.k == 3
    assert np.isfinite(err.value.last_finite).all()


def _ball_problem_started_at_1e160():
    # a finite start whose squares overflow; the ball projection takes it
    lower = CompositeObjective(LeastSquares(np.eye(4), np.zeros(4)), BallProx(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=4), ZeroProx())
    return BilevelProblem(upper, lower, initial_point=np.full(4, 1e160))


def test_accelerated_loops_take_a_start_whose_squares_overflow_without_warning():
    # pytest turns warnings into errors: an overflow warning would fail this
    p = _ball_problem_started_at_1e160()
    x = accelerated_run(p, 0.5, p.initial_point, 3)
    assert np.linalg.norm(x) <= 1.0 + 1e-12
    rep = solve_r_vfista(p, SolverConfig(big_k=3, schedule=FixedEtaSchedule(0.5)))
    assert np.linalg.norm(rep.x_final) <= 1.0 + 1e-12
    assert rep.x_final.tobytes() == x.tobytes()


def test_step_map_checks_gamma_once():
    p = make_1d_problem()
    for gamma in (0.0, -1.0):
        with pytest.raises(ContractViolation):
            p.step_map(gamma)
