import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DiagQuadratic, quad_problem
from sbo.bilevel import BilevelProblem, CompositeObjective
from sbo.errors import ConfigurationError, DivergenceError
from sbo.functions import MoreauLogSum, ScaledSqNorm, ZeroFunction
from sbo.prox import BallProx, L1Prox, ZeroProx
from sbo.solvers import (ConstantIstaSchedule, ConstantVfistaSchedule,
                         DiminishingSchedule, FixedEtaSchedule, NcConfig,
                         SolverConfig, _check_finite, schedule_eta,
                         solve_fista_baseline, solve_ipr_vfista, solve_ir_ista,
                         solve_r_vfista)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_diminishing_example():
    s = DiminishingSchedule()
    # L_f = 2, mu_f = 1, gamma = 0.25: eta0_u = 4, eta0_l = 4
    assert schedule_eta(s, 0, 0.25, 2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert schedule_eta(s, 4, 0.25, 2.0, 1.0, 1.0) == pytest.approx(0.5)


def test_schedule_constant_ista_example():
    s = ConstantIstaSchedule(p=1.0, big_k=100)
    got = schedule_eta(s, 0, 0.25, 1.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 * math.log(100.0) / 25.0)
    assert got == pytest.approx(0.3684136149191245, abs=1e-9)
    # k-independence
    assert schedule_eta(s, 57, 0.25, 1.0, 1.0, 1.0) == got


def test_schedule_constant_vfista_example():
    s = ConstantVfistaSchedule(p=3.0, eta_bar=1.0, big_k=100)
    got = schedule_eta(s, 0, 0.0, 2.0, 2.0, 1.0)
    expected = 4.0 * (4.0 * math.log(100.0) / 100.0) ** 2
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.13572859162824702, abs=1e-12)


def test_schedule_constant_ista_infeasible_named():
    s = ConstantIstaSchedule(p=9.0, big_k=10)
    with pytest.raises(ConfigurationError, match=r"K/ln\(K\)"):
        schedule_eta(s, 0, 0.25, 1.0, 1.0, 1.0)


def test_schedule_constant_vfista_validation():
    with pytest.raises(ConfigurationError, match="p > 2"):
        schedule_eta(ConstantVfistaSchedule(p=2.0, big_k=100), 0, 0.0, 1, 1, 1)
    with pytest.raises(ConfigurationError, match=r"\(K/ln\(K\)\)\^2"):
        schedule_eta(ConstantVfistaSchedule(p=30.0, big_k=8), 0, 0.0, 1, 1, 1)


# ---------------------------------------------------------------------------
# averaging solver
# ---------------------------------------------------------------------------


def make_theta_problem():
    # L_f = 2, mu_f = 1 -> eta0_l = 4; L_h = 1
    return quad_problem([1.0, 1.0], [0.0, 0.0], [1.0, 2.0], [1.0, 1.0],
                        x0=np.array([3.0, -1.0]))


def test_ir_ista_first_step_hand_value():
    p = quad_problem([1.0], [0.0], [1.0], [2.0], x0=np.array([3.0]))
    seen = {}

    def cb(k, **kw):
        if k == 1:
            seen.update(kw)

    solve_ir_ista(p, SolverConfig(big_k=2, schedule=DiminishingSchedule(),
                                  gamma=0.25), callback=cb)
    # eta_0 = (1/0.25)/2 = 2; x1 = 3 - 0.25*(3 + 2*(3-2)) = 1.75
    assert seen["eta"] == pytest.approx(2.0)
    assert seen["x"][0] == pytest.approx(1.75)
    assert seen["x_bar"][0] == pytest.approx(1.75)  # first average = x1


def test_ir_ista_theta_trajectory():
    p = make_theta_problem()
    thetas = []
    solve_ir_ista(p, SolverConfig(big_k=11, schedule=DiminishingSchedule(),
                                  gamma=0.25),
                  callback=lambda k, **kw: thetas.append(kw["theta"]))
    for k, theta in enumerate(thetas):
        assert theta == pytest.approx((4.0 + k) / 3.0, rel=1e-12)


def test_ir_ista_weight_sum_identity():
    p = make_theta_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=1000, schedule=DiminishingSchedule(),
                                        gamma=0.25))
    expected = 1000.0 / (0.25 * (2 * 2.0 - 1.0))
    assert rep.extras["Gamma_K"] == pytest.approx(expected, rel=1e-9)


def test_ir_ista_theta_product_identity():
    p = make_theta_problem()
    gamma, mu = 0.25, 1.0
    etas, thetas = [], []

    def cb(k, **kw):
        etas.append(kw["eta"])
        thetas.append(kw["theta"])

    solve_ir_ista(p, SolverConfig(big_k=101, schedule=DiminishingSchedule(),
                                  gamma=gamma), callback=cb)
    prod = 1.0
    for k in range(101):
        prod *= 1.0 - etas[k] * gamma * mu
        assert thetas[k] == pytest.approx(1.0 / prod, rel=1e-12)
        assert thetas[k] > 1.0


def test_ir_ista_averaging_identity_direct_sum():
    p = quad_problem([1.0, 0.5], [0.2, -0.1], [1.0, 1.0], [1.0, -1.0],
                     omega_f=L1Prox(0.3), x0=np.array([2.0, 2.0]))
    xs, ws = [], []

    def cb(k, **kw):
        xs.append(kw["x"].copy())
        ws.append(kw["eta"] * kw["theta"])

    rep = solve_ir_ista(p, SolverConfig(big_k=10_000, schedule=DiminishingSchedule()),
                        callback=cb)
    direct = sum(w * x for w, x in zip(ws, xs)) / sum(ws)
    assert np.linalg.norm(rep.x_final - direct) <= 1e-10 * np.linalg.norm(direct)


def test_ir_ista_converges_to_bilevel_solution():
    # lower argmin {x: x = 0 in coord 0}, upper pulls coord 1 to 1
    p = quad_problem([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                     x0=np.array([2.0, -2.0]))
    # lower h = x0^2/2 (flat in x1) -> X* = {x0 = 0}; upper -> x* = (0, 1)
    rep = solve_ir_ista(p, SolverConfig(big_k=60_000, schedule=DiminishingSchedule()))
    assert np.allclose(rep.x_final, [0.0, 1.0], atol=2e-2)


def test_ir_ista_rejects_bad_configs():
    p = make_theta_problem()
    with pytest.raises(ConfigurationError, match="strongly convex"):
        bad = quad_problem([1.0], [0.0], [0.0], [0.0])  # mu_f = 0
        solve_ir_ista(bad, SolverConfig(big_k=5, schedule=DiminishingSchedule()))
    with pytest.raises(ConfigurationError, match="gamma <= 1/"):
        solve_ir_ista(p, SolverConfig(big_k=5, schedule=FixedEtaSchedule(1.0),
                                      gamma=5.0))
    with pytest.raises(ConfigurationError):
        solve_ir_ista(p, SolverConfig(big_k=5,
                                      schedule=ConstantVfistaSchedule(p=3.0)))


def test_ir_ista_trace_strictly_increasing_and_theta_column():
    p = make_theta_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=500, schedule=DiminishingSchedule(),
                                        gamma=0.25))
    ks = [r.k for r in rep.trace]
    assert ks == sorted(set(ks))
    assert rep.trace[-1].k == 500
    assert rep.trace[-1].theta == pytest.approx((4.0 + 499.0) / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# accelerated solver
# ---------------------------------------------------------------------------


def test_r_vfista_hand_iteration():
    p = quad_problem([1.0], [0.0], [1.0], [2.0], x0=np.array([3.0]))
    seen = {}

    def cb(k, **kw):
        if k == 1:
            seen.update(kw)

    rep = solve_r_vfista(p, SolverConfig(big_k=2, schedule=FixedEtaSchedule(1.0)),
                         callback=cb)
    assert rep.config["gamma"] == pytest.approx(0.5)
    assert rep.config["kappa"] == pytest.approx(2.0)
    assert rep.config["momentum"] == pytest.approx(0.1715728752538097, abs=1e-12)
    assert seen["x"][0] == pytest.approx(1.0)
    assert seen["y"][0] == pytest.approx(0.6568542494923801, abs=1e-12)


def test_r_vfista_momentum_third_at_kappa_four():
    # L_h = 3, L_f = mu_f = 1, eta = 1 -> kappa = 4, momentum = 1/3
    p = quad_problem([3.0, 3.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    rep = solve_r_vfista(p, SolverConfig(big_k=1, schedule=FixedEtaSchedule(1.0)))
    assert rep.config["kappa"] == pytest.approx(4.0)
    assert rep.config["momentum"] == pytest.approx(1.0 / 3.0)


def test_r_vfista_surrogate_geometric_contraction_bound():
    # closed-form quadratic surrogate minimizer; bound checked at every k
    wh, ch = np.array([1.0, 3.0]), np.array([0.5, -0.5])
    wf, cf = np.array([2.0, 2.0]), np.array([1.0, 2.0])
    p = quad_problem(wh, ch, wf, cf, x0=np.array([4.0, -3.0]))
    eta = 0.5
    w_eta = wh + eta * wf
    x_eta = (wh * ch + eta * wf * cf) / w_eta

    def g_bar(x):
        return p.regularized_value(eta, x)

    g_star = g_bar(x_eta)
    kappa = (3.0 + eta * 2.0) / (eta * 2.0)
    rate = 1.0 - 1.0 / math.sqrt(kappa)
    x0 = np.array([4.0, -3.0])
    init = g_bar(x0) - g_star + 0.5 * eta * 2.0 * float((x0 - x_eta) @ (x0 - x_eta))
    gaps = []
    solve_r_vfista(p, SolverConfig(big_k=200, schedule=FixedEtaSchedule(eta)),
                   callback=lambda k, **kw: gaps.append((k, g_bar(kw["x"]) - g_star)))
    for k, gap in gaps:
        assert gap <= rate**k * init * (1.0 + 1e-9) + 1e-12


def test_r_vfista_rejects_gamma_override_and_wrong_schedule():
    p = quad_problem([1.0], [0.0], [1.0], [2.0])
    with pytest.raises(ConfigurationError, match="exactly"):
        solve_r_vfista(p, SolverConfig(big_k=3, schedule=FixedEtaSchedule(1.0),
                                       gamma=0.3))
    with pytest.raises(ConfigurationError):
        solve_r_vfista(p, SolverConfig(big_k=3, schedule=DiminishingSchedule()))


def test_r_vfista_rejects_nonconvex_upper():
    upper = CompositeObjective(MoreauLogSum(1e-2, 1e-1, 2), ZeroProx())
    lower = CompositeObjective(ZeroFunction(2), L1Prox(1.0))
    p = BilevelProblem(upper, lower)
    with pytest.raises(ConfigurationError, match="strongly convex"):
        solve_r_vfista(p, SolverConfig(big_k=3, schedule=FixedEtaSchedule(1.0)))


# ---------------------------------------------------------------------------
# divergence guard
# ---------------------------------------------------------------------------


class LyingQuadratic(DiagQuadratic):
    """Claims a Lipschitz constant far below the true curvature."""

    def __init__(self, weights, center=None):
        super().__init__(weights, center)
        self.lipschitz = 0.1


def test_divergence_guard_aborts_with_diagnostics():
    lower = CompositeObjective(LyingQuadratic(np.array([10.0, 10.0])), ZeroProx())
    upper = CompositeObjective(DiagQuadratic(np.array([1.0, 1.0]),
                                             np.array([1.0, 1.0])), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.array([1.0, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            solve_ir_ista(p, SolverConfig(big_k=5000,
                                          schedule=DiminishingSchedule()))
    assert np.isfinite(err.value.last_finite).all()
    assert err.value.k >= 1


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_already_optimal():
    c = np.array([1.0, -2.0])
    obj = CompositeObjective(ScaledSqNorm(1.0, center=c), ZeroProx())
    x, v = solve_fista_baseline(obj, 5, 1.0, x0=c)
    assert np.array_equal(x, c)
    assert v == 0.0


def test_baseline_consistent_invertible_system():
    from sbo.functions import LeastSquares

    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = a @ np.array([1.0, 2.0])
    obj = CompositeObjective(LeastSquares(a, b), ZeroProx())
    x, v = solve_fista_baseline(obj, 600, 1.0 / obj.smooth.lipschitz,
                                x0=np.zeros(2))
    assert v <= 1e-10


def test_baseline_rank_deficient_matches_pseudoinverse_oracle():
    from sbo.functions import LeastSquares
    from sbo.linalg import min_norm_ls

    rng = np.random.default_rng(9)
    u, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    s = np.concatenate([1.0 / np.arange(1.0, 9.0), np.zeros(12)])
    a = (u * s) @ v.T
    b = rng.standard_normal(20)  # not in range(A): positive optimal value
    obj = CompositeObjective(LeastSquares(a, b), ZeroProx())
    x, v_best = solve_fista_baseline(obj, 100_000, 1.0 / obj.smooth.lipschitz,
                                     x0=np.zeros(20))
    r = a @ min_norm_ls(a, b) - b
    oracle = 0.5 * float(r @ r)
    assert v_best == pytest.approx(oracle, abs=1e-8)


def test_baseline_validates_gamma():
    obj = CompositeObjective(ScaledSqNorm(2.0, dimension=2), ZeroProx())
    with pytest.raises(ConfigurationError):
        solve_fista_baseline(obj, 10, 5.0)


# ---------------------------------------------------------------------------
# inexactly projected outer solver
# ---------------------------------------------------------------------------


def test_ipr_budget_sequence_and_eta_values():
    # L_h = 2 exactly
    lower = CompositeObjective(DiagQuadratic(np.array([2.0, 2.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(2))
    seen = []
    rep = solve_ipr_vfista(
        p, NcConfig(big_k=4, a=2, eta_bar=1.0),
        callback=lambda k, **kw: seen.append((kw["j_budget"], kw["eta"])))
    assert [j for j, _ in seen] == [1, 4, 9, 16]
    assert rep.extras["total_inner"] == 30
    # J_0 = 1: ln floored at ln 2
    assert seen[0][1] == pytest.approx(48.0 * math.log(2.0) ** 2, rel=1e-12)
    assert seen[1][1] == pytest.approx(48.0 * (math.log(4.0) / 4.0) ** 2, rel=1e-12)
    assert seen[1][1] == pytest.approx(5.765436167018416, abs=1e-12)


def test_ipr_stationary_fixed_point():
    # x0 in X* with grad f(x0) = 0 stays put up to inner-solve tolerance
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 1.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(2))
    rep = solve_ipr_vfista(p, NcConfig(big_k=4, a=2))
    assert np.linalg.norm(rep.x_final) <= 1e-10


def test_ipr_iterates_stay_in_lower_domain():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])), BallProx(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, center=np.array([0.0, 3.0])),
                               ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.array([0.5, 0.0]))
    rep = solve_ipr_vfista(p, NcConfig(big_k=6, a=2))
    for r in rep.trace:
        assert r.h_bar < math.inf
    assert np.linalg.norm(rep.x_final) <= 1.0 + 1e-9
    # bilevel solution: closest ball point to (0,3) within {x0 = 0}
    assert np.allclose(rep.x_final, [0.0, 1.0], atol=1e-4)


def test_ipr_rejects_upper_nonsmooth_and_small_k():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0])), ZeroProx())
    upper_bad = CompositeObjective(ScaledSqNorm(1.0, dimension=1), L1Prox(1.0))
    with pytest.raises(ConfigurationError, match="no upper nonsmooth"):
        solve_ipr_vfista(BilevelProblem(upper_bad, lower,
                                        initial_point=np.zeros(1)),
                         NcConfig(big_k=4))

    upper_steep = CompositeObjective(MoreauLogSum(1e-2, 1e-1, 1), ZeroProx())
    p = BilevelProblem(upper_steep, lower, initial_point=np.zeros(1))
    with pytest.raises(ConfigurationError, match=r"K >= 4\*L_f\^2"):
        solve_ipr_vfista(p, NcConfig(big_k=16, a=2))
    # explicit escape hatch runs
    rep = solve_ipr_vfista(p, NcConfig(big_k=16, a=2, allow_large_step=True))
    assert rep.config["allow_large_step"]


def test_ipr_inner_budget_cap():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=1), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(1))
    # sum_{k=1}^{200} k^2 = 2,686,700 inner iterations exceed the 2M cap
    with pytest.raises(ConfigurationError, match="cap 2000000; lower K or a$"):
        solve_ipr_vfista(p, NcConfig(big_k=200, a=2))


def test_ipr_validates_a_and_eta_bar():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=1), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(1))
    with pytest.raises(ConfigurationError, match="a >= 2"):
        solve_ipr_vfista(p, NcConfig(big_k=4, a=1))
    with pytest.raises(ConfigurationError, match="eta_bar"):
        solve_ipr_vfista(p, NcConfig(big_k=4, eta_bar=0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([1e200, -1e200, 1e154])),
                min_size=1, max_size=6))
def test_fast_finiteness_check_gives_the_full_verdict(entries):
    x = np.array(entries)
    finite = bool(np.isfinite(x).all())
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _check_finite(x, 0, x, "test")
            caught = False
        except DivergenceError:
            caught = True
    assert caught == (not finite)


class GradientTurnsNan(DiagQuadratic):
    """Its gradient is NaN from call number `good_calls` + 1 on."""

    def __init__(self, weights, good_calls):
        super().__init__(weights)
        self.calls, self.good_calls = 0, good_calls

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g if self.calls <= self.good_calls else np.full_like(g, np.nan)


def test_ipr_divergence_in_the_outer_gradient_step_is_caught_at_its_step():
    # one upper gradient per outer step: the third is NaN, at outer step 2
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])), ZeroProx())
    upper = CompositeObjective(GradientTurnsNan(np.array([1.0, 1.0]), 2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.ones(2))
    with pytest.raises(DivergenceError, match="gradient step z at step 2") as err:
        solve_ipr_vfista(p, NcConfig(big_k=4, a=2))
    assert err.value.k == 2
    assert [r.k for r in err.value.trace] == [0, 1, 2]
    assert np.isfinite(err.value.last_finite).all()


def test_ipr_divergence_inside_the_inner_loop_names_the_inner_step():
    # inner budgets 1, 4, 9: the lower gradient's 7th call is inner step 1
    # of outer step 2
    lower = CompositeObjective(GradientTurnsNan(np.array([1.0, 0.0]), 6), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.ones(2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="inner iterate 1 at step 2") as err:
            solve_ipr_vfista(p, NcConfig(big_k=4, a=2))
    assert err.value.k == 2
    assert [r.k for r in err.value.trace] == [0, 1, 2]
    assert np.isfinite(err.value.last_finite).all()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_solver_runs_are_deterministic():
    p = make_theta_problem()
    cfg = SolverConfig(big_k=2000, schedule=DiminishingSchedule(), gamma=0.25)
    r1 = solve_ir_ista(p, cfg)
    r2 = solve_ir_ista(p, cfg)
    assert np.array_equal(r1.x_final, r2.x_final)
    assert [(t.k, t.f_bar, t.h_bar) for t in r1.trace] == \
           [(t.k, t.f_bar, t.h_bar) for t in r2.trace]
