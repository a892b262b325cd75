import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbo.solvers as solvers_mod
from conftest import DiagQuadratic, GradientTurnsNan, quad_problem
from sbo.bilevel import (BilevelProblem, CompositeObjective, ReferenceTruth,
                         accelerated_run, check_finite)
from sbo.errors import ConfigurationError, DivergenceError
from sbo.functions import MoreauLogSum, ScaledSqNorm, ZeroFunction
from sbo.problems import InstanceSpec, build_instance, ls_ball_projector
from sbo.prox import BallProx, L1Prox, ZeroProx
from sbo.solvers import (ConstantIstaSchedule, ConstantVfistaSchedule,
                         DiminishingSchedule, FixedEtaSchedule, NcConfig,
                         SolverConfig, _log_constant_weight_sum,
                         solve_fista_baseline, solve_ipr_vfista, solve_ir_ista,
                         solve_r_vfista)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_diminishing_example():
    s = DiminishingSchedule()
    # L_f = 2, mu_f = 1, gamma = 0.25: eta0_u = 4, eta0_l = 4
    assert s.resolve(0.25, 2.0, 1.0, 1.0, 100)[0](0) == pytest.approx(1.0)
    assert s.resolve(0.25, 2.0, 1.0, 1.0, 100)[0](4) == pytest.approx(0.5)


def test_schedule_constant_ista_example():
    s = ConstantIstaSchedule(p=1.0)
    got = s.resolve(0.25, 1.0, 1.0, 1.0, 100)[0](0)
    assert got == pytest.approx(2.0 * math.log(100.0) / 25.0)
    assert got == pytest.approx(0.3684136149191245, abs=1e-9)
    # k-independence
    assert s.resolve(0.25, 1.0, 1.0, 1.0, 100)[0](57) == got


def test_schedule_constant_vfista_example():
    s = ConstantVfistaSchedule(p=3.0)
    got = s.resolve(0.0, 2.0, 2.0, 1.0, 100)[0](0)
    expected = 4.0 * (4.0 * math.log(100.0) / 100.0) ** 2
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.13572859162824702, abs=1e-12)


def test_schedule_constant_ista_infeasible_named():
    s = ConstantIstaSchedule(p=9.0)
    with pytest.raises(ConfigurationError, match=r"K/ln\(K\)"):
        s.resolve(0.25, 1.0, 1.0, 1.0, 10)


def test_schedule_constant_vfista_validation():
    with pytest.raises(ConfigurationError, match="p > 2"):
        ConstantVfistaSchedule(p=2.0).resolve(0.0, 1, 1, 1, 100)
    with pytest.raises(ConfigurationError, match=r"\(K/ln\(K\)\)\^2"):
        ConstantVfistaSchedule(p=30.0).resolve(0.0, 1, 1, 1, 8)


# ---------------------------------------------------------------------------
# averaging solver
# ---------------------------------------------------------------------------


def make_theta_problem():
    # L_f = 2, mu_f = 1 -> eta0_l = 4; L_h = 1
    return quad_problem([1.0, 1.0], [0.0, 0.0], [1.0, 2.0], [1.0, 1.0],
                        x0=np.array([3.0, -1.0]))


def test_ir_ista_first_step_hand_value():
    p = quad_problem([1.0], [0.0], [1.0], [2.0], x0=np.array([3.0]))
    rep = solve_ir_ista(p, SolverConfig(big_k=1, schedule=DiminishingSchedule(),
                                        gamma=0.25))
    # eta_0 = (1/0.25)/2 = 2; x1 = 3 - 0.25*(3 + 2*(3-2)) = 1.75
    assert rep.trace[0].eta == pytest.approx(2.0)
    assert rep.extras["x_last"][0] == pytest.approx(1.75)
    assert rep.x_final[0] == pytest.approx(1.75)  # first average = x1


def test_ir_ista_theta_trajectory():
    p = make_theta_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=11, schedule=DiminishingSchedule(),
                                        gamma=0.25, trace_every=1))
    thetas = [r.theta for r in rep.trace]
    assert len(thetas) == 11
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
    rep = solve_ir_ista(p, SolverConfig(big_k=101, schedule=DiminishingSchedule(),
                                        gamma=gamma, trace_every=1))
    etas, thetas = [r.eta for r in rep.trace], [r.theta for r in rep.trace]
    prod = 1.0
    for k in range(101):
        prod *= 1.0 - etas[k] * gamma * mu
        assert thetas[k] == pytest.approx(1.0 / prod, rel=1e-12)
        assert thetas[k] > 1.0


def test_ir_ista_averaging_identity_direct_sum():
    p = quad_problem([1.0, 0.5], [0.2, -0.1], [1.0, 1.0], [1.0, -1.0],
                     omega_f=L1Prox(0.3), x0=np.array([2.0, 2.0]))
    rep = solve_ir_ista(p, SolverConfig(big_k=10_000, schedule=DiminishingSchedule(),
                                        trace_every=1))
    gamma = rep.config["gamma"]
    x, xs, ws = p.initial_point, [], []
    for r in rep.trace:
        x = p.q_eta_step(r.eta, gamma, x)
        xs.append(x)
        ws.append(r.eta * r.theta)
    direct = sum(w * x for w, x in zip(ws, xs)) / sum(ws)
    assert np.linalg.norm(rep.x_final - direct) <= 1e-10 * np.linalg.norm(direct)


@pytest.mark.parametrize("eta,big_k", [(0.5, 1), (0.5, 200), (1e-9, 5000), (1.0, 2300)])
def test_ir_ista_constant_weight_sum_closed_form(eta, big_k):
    # gamma = 0.25, mu_f = 1: theta grows by 1/(1 - eta/4) per step
    p = make_theta_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=big_k, schedule=FixedEtaSchedule(eta),
                                        gamma=0.25))
    assert math.exp(_log_constant_weight_sum(eta, 0.25, big_k)) == pytest.approx(
        rep.extras["Gamma_K"], rel=1e-9)


def test_constant_weight_sum_where_eta_gamma_mu_f_underflows():
    # eta*gamma*mu_f rounds to 0, so theta stays 1 and Gamma_K = eta*K
    assert 1e-200 * 1e-200 == 0.0
    assert _log_constant_weight_sum(1e-200, 1e-200, 1000) == math.log(1e-200 * 1000)


def test_ir_ista_refuses_weights_that_would_overflow():
    # theta grows by 4/3 per step: Gamma_K ~ 4 * (4/3)^K passes 1e300 at
    # K ~ 2396 and theta itself overflows at K ~ 2467
    p = make_theta_problem()
    with pytest.raises(ConfigurationError, match=r"10\^375\.\d, beyond the bound 1e\+300"):
        solve_ir_ista(p, SolverConfig(big_k=3000, schedule=FixedEtaSchedule(1.0),
                                      gamma=0.25))
    rep = solve_ir_ista(p, SolverConfig(big_k=2390, schedule=FixedEtaSchedule(1.0),
                                        gamma=0.25))
    assert 1e298 < rep.extras["Gamma_K"] < 1e300


def test_elapsed_ns_counts_solver_time_only(monkeypatch):
    # every record takes >= 30 ms; elapsed_ns must not count them, and the
    # report's metrics_ns must
    infeasibility = solvers_mod._metrics.infeasibility

    def slow_infeasibility(*args):
        time.sleep(0.03)
        return infeasibility(*args)

    monkeypatch.setattr(solvers_mod._metrics, "infeasibility", slow_infeasibility)
    p = make_theta_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=5, schedule=DiminishingSchedule(),
                                        gamma=0.25, trace_every=1))
    elapsed = [r.elapsed_ns for r in rep.trace]
    assert elapsed == sorted(elapsed)
    assert elapsed[-1] < 30_000_000
    assert rep.metrics_ns >= 5 * 30_000_000
    assert elapsed[-1] + rep.metrics_ns <= rep.wall_ns


def test_ir_ista_converges_to_bilevel_solution():
    # lower argmin {x: x = 0 in coord 0}, upper pulls coord 1 to 1
    p = quad_problem([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                     x0=np.array([2.0, -2.0]))
    # lower h = x0^2/2 (flat in x1) -> X* = {x0 = 0}; upper -> x* = (0, 1)
    rep = solve_ir_ista(p, SolverConfig(big_k=60_000, schedule=DiminishingSchedule()))
    assert np.allclose(rep.x_final, [0.0, 1.0], atol=2e-2)


@pytest.mark.parametrize("call, name", [
    (lambda: ConstantIstaSchedule(p=math.nan).resolve(0.25, 1.0, 1.0, 1.0, 100), "p > 0"),
    (lambda: ConstantVfistaSchedule(p=math.nan).resolve(0.0, 1.0, 1.0, 1.0, 100), "p > 2"),
    (lambda: FixedEtaSchedule(math.nan).resolve(0.25, 1.0, 1.0, 1.0, 100), "eta > 0"),
    (lambda: solve_ir_ista(make_theta_problem(), SolverConfig(
        big_k=5, schedule=FixedEtaSchedule(1.0), gamma=math.nan)), "gamma"),
    (lambda: solve_fista_baseline(make_theta_problem().upper, 5, math.nan), "gamma"),
], ids=["ConstantIstaSchedule", "ConstantVfistaSchedule", "FixedEtaSchedule",
        "solve_ir_ista", "solve_fista_baseline"])
def test_a_nan_parameter_is_refused_by_name(call, name):
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        call()


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


BLOCKED_F_WEIGHTS, BLOCKED_F_CENTER = np.array([1.0, 2.0, 1.5]), np.array([1.0, -1.0, 0.5])


def blocked_problem(nan_after=None, fill=np.nan):
    # a 3-D problem with an l1 upper term; with nan_after, the upper
    # gradient turns to fill after that many calls (one per step)
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.5, 0.0])), ZeroProx())
    upper = (DiagQuadratic(BLOCKED_F_WEIGHTS, BLOCKED_F_CENTER) if nan_after is None else
             GradientTurnsNan(BLOCKED_F_WEIGHTS, nan_after, fill, BLOCKED_F_CENTER))
    return BilevelProblem(CompositeObjective(upper, L1Prox(0.3)), lower,
                          initial_point=np.array([2.0, -1.0, 3.0]))


def test_ir_ista_trace_every_step_sees_the_sequential_average_bit_for_bit():
    # with trace_every = 1 every step is flushed on its own, so x_bar is the
    # recursion S += w * x_{k+1}, Gamma += w one step at a time
    p = blocked_problem()
    rep = solve_ir_ista(p, SolverConfig(big_k=300, schedule=DiminishingSchedule(),
                                        trace_every=1))
    gamma = rep.config["gamma"]
    x, s_sum, g_sum = p.initial_point, np.zeros(3), 0.0
    for r in rep.trace:
        x = p.q_eta_step(r.eta, gamma, x)
        w = r.eta * r.theta
        s_sum = s_sum + w * x
        g_sum += w
        assert r.f_bar == p.upper.value(s_sum / g_sum)
    assert [r.k for r in rep.trace] == list(range(1, 301))
    assert rep.extras["Gamma_K"] == g_sum
    assert rep.x_final.tobytes() == (s_sum / g_sum).tobytes()


def test_ir_ista_blocked_average_matches_the_sequential_sum():
    # trace points every 997 steps: most flushes add 64 rows at once, whose
    # sum BLAS may round otherwise than the sequential sum; 1e-13 relative
    p = blocked_problem()
    cfg = SolverConfig(big_k=5000, schedule=DiminishingSchedule(), trace_every=997)
    rep = solve_ir_ista(p, cfg)
    gamma = rep.config["gamma"]
    upper, lower = p.upper.smooth, p.lower.smooth
    mu_f = upper.strong_convexity
    eta_of, _ = cfg.schedule.resolve(gamma, upper.lipschitz, lower.lipschitz, mu_f, 5000)
    step = p.step_map(gamma)
    x, theta, s_sum, g_sum = p.initial_point, 1.0, np.zeros(3), 0.0
    for k in range(5000):
        eta = eta_of(k)
        x = step(eta, x, np.empty_like(x))
        theta /= 1.0 - eta * gamma * mu_f
        s_sum += eta * theta * x
        g_sum += eta * theta
    assert [r.k for r in rep.trace] == [997, 1994, 2991, 3988, 4985, 5000]
    assert rep.extras["x_last"].tobytes() == x.tobytes()
    assert rep.extras["Gamma_K"] == g_sum
    direct = s_sum / g_sum
    assert np.linalg.norm(rep.x_final - direct) <= 1e-13 * np.linalg.norm(direct)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
@pytest.mark.parametrize("trace_every", [30, 1000])
def test_ir_ista_divergence_inside_a_block_is_caught_at_its_step(fill, trace_every):
    # one upper gradient per step: step 100 is the first non-finite iterate,
    # row 36 of the block of steps 64..127; the steps after it run on until
    # the flush without a numpy warning (pytest turns one into an error)
    with pytest.raises(DivergenceError, match="averaging solver: non-finite iterate "
                                              "at step 100$") as err:
        solve_ir_ista(blocked_problem(100, fill),
                      SolverConfig(big_k=1000, schedule=DiminishingSchedule(),
                                   trace_every=trace_every))
    assert err.value.k == 100
    assert [r.k for r in err.value.trace] == list(range(trace_every, 101, trace_every))
    clean = solve_ir_ista(blocked_problem(),
                          SolverConfig(big_k=100, schedule=DiminishingSchedule()))
    assert err.value.last_finite.tobytes() == clean.extras["x_last"].tobytes()
    assert err.value.config == {**clean.config, "K": 1000}  # the resolved config


@pytest.mark.parametrize("bad_step,trace_every", [
    (64, 200),  # step 64 opens the second full block
    (90, 30),   # step 90 opens a block of 30 steps after a trace point
    (64, 1),    # every block is one step, read from row 0 and written to row 1
])
def test_ir_ista_divergence_at_the_first_step_of_a_block_keeps_the_iterate_before(
        bad_step, trace_every):
    # last_finite is the iterate before the block, which row 0 keeps while
    # the block's steps write rows 1 on and the flush finds the bad row
    with pytest.raises(DivergenceError, match=f"at step {bad_step}$") as err:
        solve_ir_ista(blocked_problem(bad_step),
                      SolverConfig(big_k=200, schedule=DiminishingSchedule(),
                                   trace_every=trace_every))
    clean = solve_ir_ista(blocked_problem(),
                          SolverConfig(big_k=bad_step, schedule=DiminishingSchedule()))
    assert err.value.last_finite.tobytes() == clean.extras["x_last"].tobytes()


@pytest.mark.parametrize("big_k,trace_every", [(128, 128), (150, 30), (40, 1)])
def test_ir_ista_returns_iterates_that_no_block_row_holds(big_k, trace_every):
    # the steps write into the rows of the averaging block: x_last is the
    # last step's row copied out, and x_final a new array
    p = blocked_problem()
    cfg = SolverConfig(big_k=big_k, schedule=DiminishingSchedule(), trace_every=trace_every)
    rep = solve_ir_ista(p, cfg)
    gamma = rep.config["gamma"]
    eta_of, _ = cfg.schedule.resolve(gamma, p.upper.smooth.lipschitz,
                                     p.lower.smooth.lipschitz,
                                     p.upper.smooth.strong_convexity, big_k)
    x = p.initial_point
    for k in range(big_k):
        x = p.q_eta_step(eta_of(k), gamma, x)
    x_last, x_final = rep.extras["x_last"], rep.x_final
    assert x_last.tobytes() == x.tobytes()
    assert x_last.base is None and x_final.base is None


def test_ir_ista_finite_iterates_whose_squares_overflow_are_not_divergence():
    # |x| ~ 1e200: the block's one-dot test overflows and np.isfinite
    # settles it; the metric values of the trace overflow, hence the errstate
    p = make_theta_problem()
    p.initial_point = np.array([1e200, -1e200])
    with np.errstate(over="ignore"):
        rep = solve_ir_ista(p, SolverConfig(big_k=100, schedule=DiminishingSchedule(),
                                            gamma=0.25, trace_every=100))
    assert np.isfinite(rep.x_final).all() and np.isfinite(rep.extras["x_last"]).all()


# ---------------------------------------------------------------------------
# accelerated solver
# ---------------------------------------------------------------------------


def test_r_vfista_divergence_is_caught_at_its_step_with_the_resolved_config():
    # one lower gradient per step: the sixth, at step 5, is NaN
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())

    def problem(lower_smooth):
        return BilevelProblem(upper, CompositeObjective(lower_smooth, ZeroProx()),
                              initial_point=np.ones(2))

    cfg = SolverConfig(big_k=50, schedule=FixedEtaSchedule(0.5))
    with pytest.raises(DivergenceError, match="accelerated solver: non-finite "
                                              "iterate at step 5$") as err:
        solve_r_vfista(problem(GradientTurnsNan(np.array([1.0, 0.0]), 5)), cfg)
    clean = solve_r_vfista(problem(DiagQuadratic(np.array([1.0, 0.0]))), cfg)
    assert err.value.config == clean.config


def test_r_vfista_divergence_inside_a_stretch_names_the_global_step():
    # trace points 10, 20, ...: the NaN at step 15 lies inside the second stretch
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    lower = CompositeObjective(GradientTurnsNan(np.array([1.0, 0.0]), 15), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.ones(2))
    cfg = SolverConfig(big_k=50, schedule=FixedEtaSchedule(0.5), trace_every=10)
    with pytest.raises(DivergenceError, match="^accelerated solver: non-finite "
                                              "iterate at step 15$") as err:
        solve_r_vfista(p, cfg)
    assert err.value.k == 15 and [r.k for r in err.value.trace] == [10]
    assert np.isfinite(err.value.last_finite).all()


def test_r_vfista_hand_iteration():
    p = quad_problem([1.0], [0.0], [1.0], [2.0], x0=np.array([3.0]))
    rep = solve_r_vfista(p, SolverConfig(big_k=1, schedule=FixedEtaSchedule(1.0)))
    assert rep.config["gamma"] == pytest.approx(0.5)
    assert rep.config["kappa"] == pytest.approx(2.0)
    assert rep.config["momentum"] == pytest.approx(0.1715728752538097, abs=1e-12)
    assert rep.x_final[0] == pytest.approx(1.0)
    assert rep.extras["y_last"][0] == pytest.approx(0.6568542494923801, abs=1e-12)


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
    rep = solve_r_vfista(p, SolverConfig(big_k=200, schedule=FixedEtaSchedule(eta),
                                         trace_every=1))
    assert len(rep.trace) == 200
    for r in rep.trace:  # h_bar + eta * f_bar is g_bar(x_k) bit for bit
        gap = r.h_bar + eta * r.f_bar - g_star
        assert gap <= rate**r.k * init * (1.0 + 1e-9) + 1e-12


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


def test_r_vfista_past_2_to_the_63_steps_stops_at_exact_integer_steps():
    # a cast of the trace stops to int64 would wrap to -2^63 here; the run
    # sits at x* from its first step, so each stretch ends by its period
    problem = build_instance(InstanceSpec("l1_weak_sharp", 20, 3))
    ref = problem.reference
    eta = ref.weak_sharp.alpha / (2.0 * ref.subgradient.norm)
    big_k = 10**19 + 1
    rep = solve_r_vfista(problem, SolverConfig(big_k, FixedEtaSchedule(eta)))
    ks = [r.k for r in rep.trace]
    assert ks[0] == 1 and ks[-1] == big_k and ks == sorted(set(ks))
    assert all(type(k) is int for k in ks)
    assert rep.trace[-1].subopt == 0.0


def declaring_lipschitz(lipschitz):
    """The problem of make_theta_problem whose upper part declares L_f."""
    problem = make_theta_problem()
    problem.upper.smooth.lipschitz = lipschitz
    return problem


def one_dim(upper, lower):
    return BilevelProblem(CompositeObjective(upper, ZeroProx()),
                          CompositeObjective(lower, ZeroProx()), initial_point=np.zeros(1))


@pytest.mark.parametrize("call,named", [
    (lambda: solve_ipr_vfista(one_dim(ZeroFunction(1), DiagQuadratic([1.0])),
                              NcConfig(big_k=4)), "outer loop requires a finite L_f > 0"),
    (lambda: solve_ipr_vfista(one_dim(ScaledSqNorm(1.0, dimension=1),
                                      MoreauLogSum(1e-2, 1e-1, 1)), NcConfig(big_k=4)),
     "lower-level smooth part must be convex"),
    (lambda: solve_fista_baseline(CompositeObjective(MoreauLogSum(1e-2, 1e-1, 2), ZeroProx()),
                                  5, 1e-2), "baseline requires a convex objective"),
    # L_f = 0.4 < mu_f/2: the schedule's eta0_l = 2*L_f/mu_f = 0.8
    (lambda: solve_ir_ista(declaring_lipschitz(0.4), SolverConfig(5, DiminishingSchedule())),
     "diminishing schedule requires 2*L_f/mu_f > 1"),
    # the constant accelerated schedule's feasibility test squares K/ln K and p + 1
    (lambda: ConstantVfistaSchedule(3.0).resolve(0.0, 1.0, 1.0, 1.0, 10**157),
     "solver.K is too large"),
    (lambda: ConstantVfistaSchedule(1e200).resolve(0.0, 1.0, 1.0, 1.0, 100),
     "solver.p is too large"),
    # eta*mu_f underflows to 0; kappa = (L_h + eta*L_f)/(eta*mu_f) overflows
    (lambda: solve_r_vfista(quad_problem([1.0], [0.0], [0.5], [0.0]),
                            SolverConfig(5, FixedEtaSchedule(5e-324))), "solver.eta = 5e-324"),
    (lambda: solve_r_vfista(quad_problem([1.0], [0.0], [1.0], [0.0]),
                            SolverConfig(5, FixedEtaSchedule(1e-320))), "solver.eta = 1e-320"),
], ids=["ipr_vfista L_f = 0", "ipr_vfista nonconvex lower", "baseline nonconvex",
        "diminishing 2*L_f/mu_f <= 1", "vfista schedule K", "vfista schedule p",
        "r_vfista eta*mu_f = 0", "r_vfista kappa = inf"])
def test_solver_refusals_name_their_condition(call, named):
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        call()


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
    rep = solve_ipr_vfista(p, NcConfig(big_k=4))
    etas = [r.eta for r in rep.trace[1:]]  # the record at k = 0 precedes any step
    assert rep.extras["total_inner"] == 30  # J_k = 1, 4, 9, 16
    # J_0 = 1: ln floored at ln 2
    assert etas[0] == pytest.approx(48.0 * math.log(2.0) ** 2, rel=1e-12)
    assert etas[1] == pytest.approx(48.0 * (math.log(4.0) / 4.0) ** 2, rel=1e-12)
    assert etas[1] == pytest.approx(5.765436167018416, abs=1e-12)
    for j, eta in zip((9, 16), etas[2:], strict=True):
        assert eta == pytest.approx(48.0 * (math.log(j) / j) ** 2, rel=1e-12)


def test_ipr_stationary_fixed_point():
    # x0 in X* with grad f(x0) = 0 stays put up to inner-solve tolerance
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 1.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(2))
    rep = solve_ipr_vfista(p, NcConfig(big_k=4))
    assert np.linalg.norm(rep.x_final) <= 1e-10


def test_ipr_iterates_stay_in_lower_domain():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])), BallProx(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, center=np.array([0.0, 3.0])),
                               ZeroProx())

    def project(x):  # onto X* = {x : x_0 = 0, |x_1| <= 1}
        return np.array([0.0, min(max(x[1], -1.0), 1.0)])

    ref = ReferenceTruth(h_star=0.0, projector=project, projector_kind="approximate")
    p = BilevelProblem(upper, lower, reference=ref, initial_point=np.array([0.5, 0.0]))
    rep = solve_ipr_vfista(p, NcConfig(big_k=16))
    # an approximate projector is read at every record, as an exact one is
    assert [r.k for r in rep.trace] == list(range(17))
    assert all(r.dist_lower is not None for r in rep.trace)
    assert rep.trace[0].dist_lower == 0.5
    x = rep.x_final
    assert rep.trace[-1].dist_lower == float(np.linalg.norm(x - project(x)))
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
        solve_ipr_vfista(p, NcConfig(big_k=16))
    # explicit escape hatch runs
    rep = solve_ipr_vfista(p, NcConfig(big_k=16, allow_large_step=True))
    assert rep.config["allow_large_step"]


def test_ipr_inner_budget_cap():
    lower = CompositeObjective(DiagQuadratic(np.array([1.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=1), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(1))
    # sum_{k=1}^{200} k^2 = 2,686,700 inner iterations exceed the 2M cap
    with pytest.raises(ConfigurationError, match="cap 2000000; lower K$"):
        solve_ipr_vfista(p, NcConfig(big_k=200))


def test_ipr_total_inner_follows_the_budget_exponent(monkeypatch):
    lower = CompositeObjective(DiagQuadratic(np.array([2.0, 2.0])), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.zeros(2))
    budgets = []

    def recording_run(problem, eta, x0, stops):
        budgets.extend(stops)
        return accelerated_run(problem, eta, x0, stops)

    monkeypatch.setattr(solvers_mod, "INNER_BUDGET_EXPONENT", 3)
    monkeypatch.setattr(solvers_mod, "accelerated_run", recording_run)
    rep = solve_ipr_vfista(p, NcConfig(big_k=4))
    assert budgets == [1, 8, 27, 64]
    assert rep.extras["total_inner"] == rep.config["total_inner"] == sum(budgets)
    assert rep.config["a"] == 3
    # sum_{k=1}^{53} k^3 = 2,047,761 passes the cap, which a = 2 reaches at K = 182
    with pytest.raises(ConfigurationError, match="K = 53 exceeds the cap 2000000; lower K$"):
        solve_ipr_vfista(p, NcConfig(big_k=53))


@pytest.mark.parametrize("which", ["phillips", "baart", "foxgood"])
def test_ipr_inner_runs_are_exact_to_rounding_from_outer_step_4(monkeypatch, which):
    # claim (iii)'s inexactness, measured on the shipped config's solver:
    # each inner run's x_{k+1} against the closed-form minimizer of its
    # surrogate 0.5*||A u - b||^2 + (eta_k/2)*||u - z_k||^2 over the unit
    # ball. At J_k = (k+1)^2 only the first few outer steps are inexact.
    problem = build_instance(InstanceSpec(f"nonconvex_{which}", 32))
    inner = []

    def recording_run(problem, eta, x0, stops):
        (x, y), = accelerated_run(problem, eta, x0, stops)
        inner.append((problem.upper.smooth.center.copy(), eta, x.copy()))
        return iter([(x, y)])

    monkeypatch.setattr(solvers_mod, "accelerated_run", recording_run)
    solve_ipr_vfista(problem, NcConfig(big_k=32, allow_large_step=True))
    lower = problem.lower.smooth
    svd = np.linalg.svd(lower.a)
    errors = []
    for z, eta, xhat in inner:
        exact = ls_ball_projector(svd, lower.b, 1.0, eta)(z)
        errors.append(np.linalg.norm(xhat - exact) / np.linalg.norm(exact))
    print(f"{which} inner relative errors by k:", " ".join(f"{e:.1e}" for e in errors))
    assert len(errors) == 32
    assert errors[0] >= 1e-3
    assert max(errors[4:]) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([1e200, -1e200, 1e154])),
                min_size=1, max_size=6))
def test_fast_finiteness_check_gives_the_full_verdict(entries):
    x = np.array(entries)
    finite = bool(np.isfinite(x).all())
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            check_finite(x, 0, x, "test")
            caught = False
        except DivergenceError:
            caught = True
    assert caught == (not finite)


def test_ipr_divergence_in_the_outer_gradient_step_is_caught_at_its_step():
    # one upper gradient per outer step: the third is NaN, at outer step 2
    lower = CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])), ZeroProx())
    upper = CompositeObjective(GradientTurnsNan(np.array([1.0, 1.0]), 2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.ones(2))
    with pytest.raises(DivergenceError, match="gradient step z at step 2") as err:
        solve_ipr_vfista(p, NcConfig(big_k=4))
    assert err.value.k == 2
    assert [r.k for r in err.value.trace] == [0, 1, 2]
    assert np.isfinite(err.value.last_finite).all()
    clean = BilevelProblem(CompositeObjective(DiagQuadratic(np.array([1.0, 1.0])),
                                              ZeroProx()), lower, initial_point=np.ones(2))
    assert err.value.config == solve_ipr_vfista(clean, NcConfig(big_k=4)).config


def test_ipr_divergence_inside_the_inner_loop_names_the_inner_step():
    # inner budgets 1, 4, 9: the lower gradient's 7th call is inner step 1
    # of outer step 2
    lower = CompositeObjective(GradientTurnsNan(np.array([1.0, 0.0]), 6), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx())
    p = BilevelProblem(upper, lower, initial_point=np.ones(2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="inner iterate 1 at step 2") as err:
            solve_ipr_vfista(p, NcConfig(big_k=4))
    assert err.value.k == 2
    assert [r.k for r in err.value.trace] == [0, 1, 2]
    assert np.isfinite(err.value.last_finite).all()
    clean = BilevelProblem(upper, CompositeObjective(DiagQuadratic(np.array([1.0, 0.0])),
                                                     ZeroProx()), initial_point=np.ones(2))
    assert err.value.config == solve_ipr_vfista(clean, NcConfig(big_k=4)).config


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
