"""The step kernel and the loops that run it, bit for bit against loops
written out here with Python-float operands.

The kernel passes its scalars (gamma, eta, the soft-threshold bounds, the
ball's scale, the momentum, a ScaledSqNorm weight) to numpy as 0-d arrays.
The loops below make the same ufunc calls in the same order on the same
values with float operands instead, so every iterate must have the same
bytes. The step writes into an array the caller hands it and into buffers
its closure owns: the contract test checks it over every supported prox
pair, with out a new array and with out the step's own y, and the last test
interleaves closures bound for several problems and two for each, so that
a buffer shared between closures, or one left stale, fails it.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbo.bilevel import (BilevelProblem, CompositeObjective, accelerated_constants,
                         accelerated_run, projection_problem)
from sbo.functions import LeastSquares, ScaledSqNorm, ZeroFunction
from sbo.problems import gen_l1_weak_sharp, gen_nonconvex_sec6, gen_rank_deficient_ls
from sbo.prox import BallProx, BoxProx, L1Prox, LogSumProx, ZeroProx, prox_logsum
from sbo.solvers import FixedEtaSchedule, SolverConfig, solve_ir_ista, solve_r_vfista


def float_gradient(smooth, y):
    if isinstance(smooth, LeastSquares):
        return smooth.a.T.dot(smooth.a.dot(y) - smooth.b)
    if isinstance(smooth, ZeroFunction):
        return np.zeros(smooth.dimension)
    assert isinstance(smooth, ScaledSqNorm)
    d = y if not smooth.center.any() else y - smooth.center
    return d if smooth.weight == 1.0 else smooth.weight * d


def float_soft_threshold(t, v):
    return v - np.maximum(np.minimum(v, t), -t)


def float_term_prox(term, scale, v):
    """prox of scale*term at v, for the terms the problems below use. At
    scale 0.0 every term but l1, which thresholds at 0, keeps v."""
    if term.kind == "l1":
        return float_soft_threshold(scale * term.weight, v)
    if scale == 0.0:
        return v
    if term.kind == "ball":
        norm = math.sqrt(v.dot(v))
        return v if norm <= term.radius else (term.radius / norm) * v
    if term.kind == "box":
        return np.minimum(np.maximum(v, term.lower), term.upper)
    if term.kind == "logsum":
        return prox_logsum(scale, term.epsilon, v)
    assert term.kind == "zero"
    return v


def float_step(problem, gamma, eta, y):
    grad = (float_gradient(problem.lower.smooth, y)
            + eta * float_gradient(problem.upper.smooth, y))
    v = y - gamma * grad
    h, f = problem.lower.nonsmooth, problem.upper.nonsmooth
    if h.kind == "zero":  # upper only
        return v if eta == 0.0 else float_term_prox(f, gamma * eta, v)
    if f.kind == "zero":  # lower only
        return float_term_prox(h, gamma, v)
    return float_soft_threshold(gamma * (h.weight + eta * f.weight), v)  # l1-l1


def float_accelerated(problem, eta, x0, iters):
    """(x, y) after `iters` accelerated steps at the constant weight eta."""
    gamma, _, momentum = accelerated_constants(problem, eta)
    x = y = np.asarray(x0, dtype=float)
    for _ in range(iters):
        x_next = float_step(problem, gamma, eta, y)
        y = x_next + momentum * (x_next - x)
        x = x_next
    return x, y


def _rank_deficient():
    return gen_rank_deficient_ls(20, 10, seed=5, lam=0.1)


def _ipr_anchor():
    """One ipr_vfista inner sub-problem whose anchor lies far outside the
    unit ball of the lower level, so the ball stays active."""
    lower = gen_nonconvex_sec6(16, "phillips").lower
    return projection_problem(lower, 5.0 * np.random.default_rng(8).standard_normal(16))


def _l1_l1_pair():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 10))
    lower = CompositeObjective(LeastSquares(a, rng.standard_normal(8)), L1Prox(0.3))
    upper = CompositeObjective(ScaledSqNorm(1.7, center=rng.standard_normal(10)),
                               L1Prox(0.2))
    return BilevelProblem(upper, lower)


PROBLEMS = {
    "rank_deficient_ls (upper l1)": _rank_deficient(),
    "rank_deficient_ls mu_f=2": gen_rank_deficient_ls(20, 10, seed=5, mu_f=2.0, lam=0.1),
    "l1_weak_sharp (lower l1)": gen_l1_weak_sharp(10, np.linspace(-2.0, 2.0, 10)),
    "ipr anchor (lower ball)": _ipr_anchor(),
    "l1-l1 pair": _l1_l1_pair(),
}
ETAS = st.one_of(st.just(0.0), st.floats(1e-9, 10.0))
GAMMA_SCALES = st.floats(1e-3, 1.0)


def _gamma(problem, scale, etas):
    return scale / max(problem.surrogate_lipschitz(max(etas)), 1e-3)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), gamma_scale=GAMMA_SCALES,
       etas=st.lists(ETAS, min_size=2, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_step_map_is_the_float_step_bit_for_bit_as_eta_changes(name, gamma_scale,
                                                               etas, seed):
    # eta = 0 on the upper-only path returns the gradient point itself
    p = PROBLEMS[name]
    gamma = _gamma(p, gamma_scale, etas)
    step = p.step_map(gamma)
    y = 3.0 * np.random.default_rng(seed).standard_normal(p.dimension)
    for eta in etas:
        got = step(eta, y, np.empty_like(y))
        assert got.tobytes() == float_step(p, gamma, eta, y).tobytes()
        y = got


def _pair_problem(h, f):
    """The lower term h and the upper term f on a least-squares lower part
    and an off-center, non-unit ScaledSqNorm upper part."""
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 8))
    return BilevelProblem(
        CompositeObjective(ScaledSqNorm(1.3, center=rng.standard_normal(8)), f),
        CompositeObjective(LeastSquares(a, rng.standard_normal(6)), h))


def _terms():
    return [ZeroProx(), L1Prox(0.3), BallProx(1.5),
            BoxProx(np.full(8, -0.5), np.full(8, 0.8)), LogSumProx(5.0)]


# the 10 supported prox pairs: (zero, any), (any, zero) and (l1, l1)
PAIR_PROBLEMS = {f"({h.kind}, {f.kind})": _pair_problem(h, f)
                 for h in _terms() for f in _terms()
                 if "zero" in (h.kind, f.kind) or h.kind == f.kind == "l1"}
assert len(PAIR_PROBLEMS) == 10
CONTRACT_PROBLEMS = {**PROBLEMS, **PAIR_PROBLEMS}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CONTRACT_PROBLEMS)), gamma_scale=GAMMA_SCALES,
       etas=st.lists(ETAS, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
# gamma * eta underflows to 0.0 while eta > 0: the upper-only pairs keep
# v but for l1, which thresholds at 0
@example(name="(zero, l1)", gamma_scale=1e-3, etas=[5e-324], seed=0)
@example(name="(zero, ball)", gamma_scale=1e-3, etas=[5e-324], seed=0)
@example(name="(zero, box)", gamma_scale=1e-3, etas=[5e-324], seed=0)
@example(name="(zero, logsum)", gamma_scale=1e-3, etas=[5e-324], seed=0)
def test_step_writes_the_float_step_into_out_and_only_reads_y(name, gamma_scale, etas,
                                                             seed):
    # out is a separate array, then y itself (the docstring allows it); the
    # eta sequence repeats values as other objects and as the same object
    p = CONTRACT_PROBLEMS[name]
    gamma = _gamma(p, gamma_scale, etas)
    step = p.step_map(gamma)
    y = 3.0 * np.random.default_rng(seed).standard_normal(p.dimension)
    out = np.full(p.dimension, np.nan)
    for eta in etas + etas[:1]:
        want, y_bytes = float_step(p, gamma, eta, y).tobytes(), y.tobytes()
        assert step(eta, y, out) is out
        assert out.tobytes() == want
        assert y.tobytes() == y_bytes
        same = y.copy()
        assert step(eta, same, same) is same
        assert same.tobytes() == want
        y = out.copy()


LONG_RUN_PROBLEMS = ("rank_deficient_ls (upper l1)", "ipr anchor (lower ball)")


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(LONG_RUN_PROBLEMS), eta=st.floats(1e-6, 1.0))
def test_accelerated_run_is_the_float_loop_bit_for_bit_over_1000_steps(name, eta):
    p = PROBLEMS[name]
    x0 = np.linspace(-1.0, 1.0, p.dimension)
    (got, _), = accelerated_run(p, eta, x0, [1000])
    want, _ = float_accelerated(p, eta, x0, 1000)
    assert got.tobytes() == want.tobytes()
    if name.startswith("ipr"):  # the ball's scaling branch ran
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(LONG_RUN_PROBLEMS), eta=st.floats(1e-6, 1.0))
def test_solve_r_vfista_is_the_float_loop_bit_for_bit_over_1000_steps(name, eta):
    p = PROBLEMS[name]
    report = solve_r_vfista(p, SolverConfig(big_k=1000, schedule=FixedEtaSchedule(eta),
                                            trace_every=250))
    want_x, want_y = float_accelerated(p, eta, p.initial_point, 1000)
    assert report.x_final.tobytes() == want_x.tobytes()
    assert report.extras["y_last"].tobytes() == want_y.tobytes()


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), gamma_scale=st.floats(0.1, 0.9),
       eta=st.floats(1e-3, 1.0))
def test_solve_ir_ista_steps_are_the_float_steps_bit_for_bit_over_200_steps(
        name, gamma_scale, eta):
    # gamma_scale < 1 keeps eta*gamma*mu_f < 1 where L_h = 0 and mu_f = L_f
    p = PROBLEMS[name]
    gamma = _gamma(p, gamma_scale, [eta])
    report = solve_ir_ista(p, SolverConfig(big_k=200, schedule=FixedEtaSchedule(eta),
                                           gamma=gamma, trace_every=50))
    x = p.initial_point
    for _ in range(200):
        x = float_step(p, gamma, eta, x)
    assert report.extras["x_last"].tobytes() == x.tobytes()


@settings(max_examples=30, deadline=None)
@given(gamma_scales=st.lists(GAMMA_SCALES, min_size=len(PROBLEMS),
                             max_size=len(PROBLEMS)),
       etas=st.lists(ETAS, min_size=3, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_closures_bound_for_several_problems_keep_their_own_operands(gamma_scales,
                                                                     etas, seed):
    # every closure is bound before any runs, two for each problem at two
    # gammas, then they take turns, each with its own eta sequence and each
    # eta for two turns, so that a closure meets its eta object again after
    # the others ran: shared or stale operands or buffers would leak one
    # closure's gamma, eta, threshold or gradient into another's step
    rng = np.random.default_rng(seed)
    runs = []
    for i, (p, scale) in enumerate(zip(PROBLEMS.values(), gamma_scales)):
        for j, gamma in enumerate((_gamma(p, scale, etas), _gamma(p, 0.5 * scale, etas))):
            shift = (2 * i + j) % len(etas)
            runs.append([p, gamma, p.step_map(gamma), etas[shift:] + etas[:shift],
                         3.0 * rng.standard_normal(p.dimension)])
    for turn in range(2 * len(etas)):
        for run in runs:
            p, gamma, step, run_etas, y = run
            eta = run_etas[turn // 2]
            got = step(eta, y, np.empty_like(y))
            assert got.tobytes() == float_step(p, gamma, eta, y).tobytes()
            run[4] = got
