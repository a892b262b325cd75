"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Covers the exact algebraic identities of the averaging
weights, brute-force prox/gradient oracles, the empirical convergence-rate
exponents of all three solvers at their stated tolerances, growth
certificates, generator fixtures, and byte-level determinism.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from conftest import DiagQuadratic, quad_problem
from sbo.bilevel import BilevelProblem, CompositeObjective, ReferenceTruth
from sbo.cli import main as cli_main
from sbo.functions import LeastSquares, MoreauLogSum, ScaledSqNorm, ZeroFunction
from sbo.metrics import fit_rate
from sbo.problems import (gen_baart, gen_foxgood, gen_phillips, gen_rank_deficient_ls,
                          load_instance)
from sbo.prox import (L1Prox, ZeroProx, prox_ball, prox_box, prox_l1,
                      prox_logsum)
from sbo.solvers import (ConstantIstaSchedule, ConstantVfistaSchedule,
                         DiminishingSchedule, FixedEtaSchedule, NcConfig,
                         SolverConfig, solve_ipr_vfista, solve_ir_ista,
                         solve_r_vfista)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


@pytest.fixture(scope="module")
def ir_ista_long_run(acceptance_instance):
    cfg = SolverConfig(big_k=100_000, schedule=DiminishingSchedule())
    return solve_ir_ista(acceptance_instance, cfg)


# ---------------------------------------------------------------------------
# 1. exact identities of the averaging weights
# ---------------------------------------------------------------------------


def test_01_weight_identities():
    t0 = time.perf_counter()
    checks = []
    for (wl, wf, gamma) in [
        (1.0, [1.0, 2.0], 0.25),   # L_f = 2, mu_f = 1 -> eta0_l = 4
        (0.5, [1.0, 1.0], 0.4),    # L_f = mu_f = 1    -> eta0_l = 2
    ]:
        p = quad_problem([wl, wl], [0.0, 0.0], wf, [1.0, -1.0],
                         x0=np.array([2.0, 2.0]))
        l_f = max(wf)
        mu_f = min(wf)
        eta0_l = 2.0 * l_f / mu_f
        rep = solve_ir_ista(
            p, SolverConfig(big_k=1000, schedule=DiminishingSchedule(),
                            gamma=gamma, trace_every=1))
        x, xs, ws = p.initial_point, [], []
        for k, r in enumerate(rep.trace):
            expected = (eta0_l + k) / (eta0_l - 1.0)
            checks.append(abs(r.theta - expected) <= 1e-9 * expected)
            x = p.q_eta_step(r.eta, gamma, x)
            xs.append(x)
            ws.append(r.eta * r.theta)
        wsum_expected = 1000.0 / (gamma * (2.0 * l_f - mu_f))
        checks.append(abs(rep.extras["Gamma_K"] - wsum_expected)
                      <= 1e-9 * wsum_expected)
        direct = sum(w * x for w, x in zip(ws, xs)) / sum(ws)
        rel = np.linalg.norm(rep.x_final - direct) / np.linalg.norm(direct)
        checks.append(rel <= 1e-10)
    elapsed = time.perf_counter() - t0
    announce(1, all(checks) and elapsed < 1.0,
             f"weight/averaging identities exact on 2 parameterizations "
             f"({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 2. prox maps against brute-force grid minimization
# ---------------------------------------------------------------------------


def test_02_prox_grid_oracles():
    t0 = time.perf_counter()
    u = np.arange(-2.0, 2.0 + 1e-4, 1e-4)
    rng = np.random.default_rng(12)
    xs = rng.uniform(-1.9, 1.9, size=20)
    ok = True

    def grid_min(pen, x, gamma=1.0):
        return u[np.argmin(gamma * pen + 0.5 * (u - x) ** 2)]

    for x in xs:
        got = prox_l1(0.4, np.array([x]))[0]
        ok &= abs(got - grid_min(0.4 * np.abs(u) / 0.4, x, 0.4)) <= 1e-3
        got = prox_ball(0.7, np.array([x]))[0]
        ok &= abs(got - grid_min(np.where(np.abs(u) <= 0.7, 0.0, 1e12), x)) <= 1e-3
        got = prox_box(np.array([-0.5]), np.array([0.8]), np.array([x]))[0]
        ok &= abs(got - grid_min(np.where((u >= -0.5) & (u <= 0.8), 0.0, 1e12),
                                 x)) <= 1e-3
        got = prox_logsum(0.01, 0.1, np.array([x]))[0]
        pen = 0.01 * np.log1p(np.abs(u) / 0.1)
        ok &= abs(got - grid_min(pen, x)) <= 1e-3
        # closed form must hold simultaneously
        ax = abs(x)
        closed = 0.0 if ax <= 0.1 else math.copysign(
            0.5 * (ax - 0.1 + math.sqrt((ax + 0.1) ** 2 - 0.04)), x)
        ok &= abs(got - closed) <= 1e-12
    elapsed = time.perf_counter() - t0
    announce(2, ok and elapsed < 10.0,
             f"every prox matches the 1e-4-step grid oracle within 1e-3 on 20 "
             f"seeded points; log-sum closed form agrees ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 3. gradients against central finite differences
# ---------------------------------------------------------------------------


def test_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6))
    funcs = [
        LeastSquares(a, rng.standard_normal(6)),
        ScaledSqNorm(1.3, center=rng.standard_normal(6)),
        MoreauLogSum(0.01, 0.1, 6),
        ZeroFunction(6),
    ]
    ok = True
    for func in funcs:
        tested = 0
        while tested < 20:
            x = rng.uniform(-2, 2, size=6)
            if isinstance(func, MoreauLogSum):
                if np.abs(np.abs(x) - 0.1).min() <= 1e-3:
                    continue  # keep FD away from the prox kink
                p = prox_logsum(0.01, 0.1, x)
                ok &= np.allclose(func.gradient(x), (x - p) / 0.01, atol=1e-12)
            g = func.gradient(x)
            fd = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = 1e-6
                fd[i] = (func.value(x + e) - func.value(x - e)) / 2e-6
            ok &= np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            tested += 1
    elapsed = time.perf_counter() - t0
    announce(3, ok and elapsed < 5.0,
             f"all gradients (envelope formula included) match central "
             f"differences to 1e-5 on 20 seeded points each ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# 4. averaging solver: sublinear rates on the rank-deficient instance
# ---------------------------------------------------------------------------


def test_04_ir_ista_sublinear_rates(acceptance_instance, ir_ista_long_run):
    rep = ir_ista_long_run
    fit = fit_rate([(r.k, r.infeas) for r in rep.trace], (100, 100_000))
    slope_ok = -1.25 <= fit.slope <= -0.75
    nonneg_ok = all(r.infeas >= -1e-8 for r in rep.trace)

    # upper-level gap never exceeds its proven envelope u1/k
    ref = acceptance_instance.reference
    x0 = acceptance_instance.initial_point
    mu_f = acceptance_instance.upper.smooth.strong_convexity
    l_f = acceptance_instance.upper.smooth.lipschitz
    u1 = 0.5 * float((x0 - ref.x_star) @ (x0 - ref.x_star)) * (2 * l_f - mu_f)
    bound_ok = all(r.subopt <= u1 / r.k + ref.f_star_tol + 1e-9
                   for r in rep.trace)

    positives = [(r.k, r.subopt) for r in rep.trace
                 if 100 <= r.k and r.subopt is not None and r.subopt > 0]
    if len(positives) >= 5:
        env = fit_rate(positives, (100, 100_000))
        envelope_ok = env.slope <= -0.75
        env_note = f"envelope slope {env.slope:+.3f} <= -0.75"
    else:
        envelope_ok = True  # gap stays below its bound from the negative side
        env_note = (f"upper gap <= u1/k at every sample "
                    f"({len(positives)} positive samples)")
    announce(4, slope_ok and nonneg_ok and bound_ok and envelope_ok,
             f"infeasibility slope {fit.slope:+.3f} in -1+/-0.25 "
             f"(r2={fit.r_squared:.3f}); min infeas >= -1e-8; {env_note}")


# ---------------------------------------------------------------------------
# 5. constant-weight averaging solver across budgets
# ---------------------------------------------------------------------------


def test_05_constant_weight_rate(acceptance_instance):
    pts = []
    for big_k in (1_000, 10_000, 100_000):
        rep = solve_ir_ista(
            acceptance_instance,
            SolverConfig(big_k=big_k, schedule=ConstantIstaSchedule(p=1.0)))
        pts.append((big_k, rep.trace[-1].infeas))
    fit = fit_rate(pts, (1_000, 100_000), min_samples=3)
    ok = -1.3 <= fit.slope <= -0.7
    announce(5, ok,
             f"constant-weight infeasibility slope {fit.slope:+.3f} in "
             f"-1+/-0.3 over K in {{1e3, 1e4, 1e5}}")


# ---------------------------------------------------------------------------
# 6. accelerated solver: quadratically decaying infeasibility
# ---------------------------------------------------------------------------


def test_06_accelerated_rate(acceptance_instance):
    pts = []
    for big_k in (100, 316, 1_000, 3_162, 10_000):
        rep = solve_r_vfista(
            acceptance_instance,
            SolverConfig(big_k=big_k,
                         schedule=ConstantVfistaSchedule(p=3.0)))
        pts.append((big_k, rep.trace[-1].infeas))
    fit = fit_rate(pts, (100, 10_000))
    ok = -2.3 <= fit.slope <= -1.7
    announce(6, ok,
             f"accelerated infeasibility slope {fit.slope:+.3f} in -2+/-0.3 "
             f"over K in [1e2, 1e4] (r2={fit.r_squared:.3f})")


# ---------------------------------------------------------------------------
# 7. linear rate under order-1 weak sharpness
# ---------------------------------------------------------------------------


def contraction_factor(values):
    """(v1 / v0)^(1 / (k1 - k0)) between the first and the last positive
    value of (k, v) pairs, and how many positive values there are. A run
    that reaches x* in finitely many steps contracts only until then, so the
    window is the steps where the distance is positive."""
    window = [(k, v) for k, v in values if v > 0.0]
    if len(window) < 2:
        return math.nan, len(window)
    (k0, v0), (k1, v1) = window[0], window[-1]
    return (v1 / v0) ** (1.0 / (k1 - k0)), len(window)


def test_07_weak_sharp_linear_rate():
    # lower 0.5*sum_i w_i x_i^2 + ||x||_1 with w in [1, 2]: X* = {0} is weak
    # sharp of order 1 with alpha = 1, since h(x) - h* >= ||x||_1 >= ||x||_2.
    # The start lies far from X*, so both solvers take many steps to reach it
    rng = np.random.default_rng(20)
    n, alpha = 20, 1.0
    c = rng.standard_normal(n)
    lower = CompositeObjective(DiagQuadratic(np.geomspace(1.0, 2.0, n)), L1Prox(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, center=c), ZeroProx())
    x_star = np.zeros(n)
    p = BilevelProblem(upper, lower, reference=ReferenceTruth(x_star=x_star),
                       initial_point=1e6 * np.ones(n))
    eta = alpha / (2.0 * np.linalg.norm(c))

    l_h = p.lower.smooth.lipschitz
    l_f = mu_f = 1.0
    kappa = (l_h + eta * l_f) / (eta * mu_f)
    big_k = int(math.ceil(20.0 * math.sqrt(kappa) * math.log(1e10)))

    rep = solve_r_vfista(
        p, SolverConfig(big_k=big_k, schedule=FixedEtaSchedule(eta), trace_every=1))
    factor, count = contraction_factor([(r.k, r.dist_xstar_sq) for r in rep.trace])
    bound = (1.0 - 1.0 / math.sqrt(kappa)) + 0.05
    final_sq = float((rep.x_final - x_star) @ (rep.x_final - x_star))
    acc_ok = count >= 10 and factor <= bound and final_sq <= 1e-10

    # same instance under the constant-weight averaging solver, whose
    # records are taken at the average
    rep2 = solve_ir_ista(
        p, SolverConfig(big_k=big_k, schedule=FixedEtaSchedule(eta), trace_every=1))
    gamma2 = rep2.config["gamma"]
    bound2 = (1.0 - eta * gamma2 * mu_f) + 0.05
    factor2, count2 = contraction_factor([(r.k, r.dist_xstar_sq) for r in rep2.trace])
    ista_ok = count2 >= 10 and factor2 <= bound2

    announce(7, acc_ok and ista_ok,
             f"accelerated contraction {factor:.3f} <= {bound:.3f} over "
             f"{count} >= 10 positive distances, final dist^2 {final_sq:.1e} "
             f"<= 1e-10 within K={big_k}; averaging contraction {factor2:.3f} "
             f"<= {bound2:.3f} over {count2} >= 10 positive distances")


# ---------------------------------------------------------------------------
# 8. nonconvex outer loop: residual and feasibility decay across budgets
# ---------------------------------------------------------------------------


def test_08_nonconvex_rates(nonconvex_instance):
    res_pts, dist_pts = [], []
    rep = None
    for big_k in (16, 32, 64):
        rep = solve_ipr_vfista(
            nonconvex_instance,
            NcConfig(big_k=big_k, allow_large_step=True))
        res_pts.append((big_k, rep.extras["best_residual_sq"]))
        dist_pts.append((big_k, rep.trace[-1].dist_lower))
    res_fit = fit_rate(res_pts, (16, 64), min_samples=3)
    dist_fit = fit_rate(dist_pts, (16, 64), min_samples=3)
    # within-run feasibility decay of the K = 64 run (log-log slope of the
    # distance samples against the outer index)
    within = [(r.k, r.dist_lower) for r in rep.trace if r.dist_lower]
    within_fit = fit_rate(within, (2, 64), min_samples=5)
    ok = (res_fit.slope <= -0.4 and dist_fit.slope <= -1.5
          and within_fit.slope <= -1.0)
    announce(8, ok,
             f"windowed min residual^2 slope {res_fit.slope:+.3f} <= -0.4; "
             f"dist-to-solution-set slope {dist_fit.slope:+.3f} <= -1.5 "
             f"over K in {{16, 32, 64}}; within-run dist slope "
             f"{within_fit.slope:+.3f} <= -1.0")


# ---------------------------------------------------------------------------
# 9. quadratic-growth certificates along the long run
# ---------------------------------------------------------------------------


def test_09_growth_certificates(acceptance_instance, ir_ista_long_run):
    alpha = acceptance_instance.reference.weak_sharp.alpha
    checked = 0
    ok = True
    for r in ir_ista_long_run.trace:
        if r.dist_lower is None:
            continue
        ok &= alpha * r.dist_lower**2 <= r.infeas + 1e-8
        checked += 1
    announce(9, ok and checked >= 100,
             f"alpha*dist^2 <= lower gap + 1e-8 at {checked} traced points "
             f"(alpha = {alpha:.2e})")


# ---------------------------------------------------------------------------
# 10. generator fixtures
# ---------------------------------------------------------------------------


def test_10_generator_fixtures():
    ok = True
    for name, gen, tol in (("phillips", gen_phillips, 1e-10),
                           ("baart", gen_baart, 1e-8),
                           ("foxgood", gen_foxgood, 1e-8)):
        _, _, a_ref, b_ref = load_instance(FIXTURES / f"{name}_n8.txt")
        a, b = gen(8)
        ok &= np.abs(a - a_ref).max() <= tol and np.abs(b - b_ref).max() <= tol
    a8, _ = gen_phillips(8)
    sym = np.abs(a8 - a8.T).max()
    ok &= sym <= 1e-12
    announce(10, ok,
             f"generators match committed fixtures entrywise; "
             f"symmetry defect {sym:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# 11. byte-level determinism of the harness
# ---------------------------------------------------------------------------


def test_11_determinism(tmp_path):
    ok = True
    configs = {
        "ws": {"instance.name": "l1_weak_sharp", "instance.n": "20",
               "instance.seed": "3", "solver.name": "r_vfista",
               "solver.K": "400", "solver.eta": "weak_sharp"},
        "rd": {"instance.name": "rank_deficient_ls", "instance.n": "12",
               "instance.seed": "7", "instance.rank": "5",
               "solver.name": "ir_ista", "solver.K": "3000"},
    }
    for tag, body in configs.items():
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{tag}_{attempt}"
            cfg = tmp_path / f"{tag}_{attempt}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in body.items())
                           + f"output.dir = {out}\n")
            assert cli_main(["run", str(cfg)]) == 0
            blobs.append((out / "trace.csv").read_bytes())
        ok &= blobs[0] == blobs[1]
    announce(11, ok, "reruns of acceptance configs give byte-identical traces")


# ---------------------------------------------------------------------------
# 12. the linear rates' dependence on the condition number
# ---------------------------------------------------------------------------


def test_12_condition_number_laws():
    # constant-eta runs on rank_deficient_ls with lam = 0, measured against
    # their own target x_eta = (A^T A + eta I)^-1 A^T b; rho is the per-step
    # contraction of the distance over the second half of each run (the
    # averaging solver's records are at its average), and the slope of
    # log(1 - rho) against log kappa is the power of kappa in the rate
    t0 = time.perf_counter()
    p = gen_rank_deficient_ls(20, rank=10, lam=0.0)
    a, b = p.lower.smooth.a, p.lower.smooth.b
    l_h, l_f, mu_f = p.lower.smooth.lipschitz, 1.0, 1.0
    slopes = {}
    for solver, etas, steps in ((solve_r_vfista, np.geomspace(1e-1, 1e-4, 4), math.sqrt),
                                (solve_ir_ista, np.geomspace(0.3, 0.003, 5), lambda k: k)):
        pts = []
        for eta in etas:
            p.reference = ReferenceTruth(
                x_star=np.linalg.solve(a.T @ a + eta * np.eye(20), a.T @ b))
            kappa = (l_h + eta * l_f) / (eta * mu_f)
            rep = solver(p, SolverConfig(big_k=math.ceil(20.0 * steps(kappa)),
                                         schedule=FixedEtaSchedule(eta), trace_every=1))
            tail = rep.trace[len(rep.trace) // 2:]
            factor, _ = contraction_factor([(r.k, r.dist_xstar_sq) for r in tail])
            pts.append((math.log(kappa), math.log(1.0 - math.sqrt(factor))))
        slopes[solver] = np.polyfit(*zip(*pts), 1)[0]
    elapsed = time.perf_counter() - t0
    acc, ista = slopes[solve_r_vfista], slopes[solve_ir_ista]
    announce(12, abs(acc + 0.5) <= 0.1 and abs(ista + 1.0) <= 0.1,
             f"log(1 - rho) against log kappa: accelerated slope {acc:+.3f} in "
             f"-0.5+/-0.1 over kappa in [11, 1e4], averaging slope {ista:+.3f} "
             f"in -1+/-0.1 over kappa in [4, 340] ({elapsed:.2f} s)")
