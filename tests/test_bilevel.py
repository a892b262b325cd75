import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GradientTurnsNan, quad_problem
from sbo import solvers
from sbo.bilevel import (CYCLE_WINDOW, BilevelProblem, CompositeObjective,
                         accelerated_constants, accelerated_run, projection_problem)
from sbo.cli import parse_kv_file, run_from_config
from sbo.errors import ConfigurationError, ContractViolation, DivergenceError
from sbo.functions import LeastSquares, ScaledSqNorm, ZeroFunction
from sbo.problems import (InstanceSpec, build_instance, gen_l1_weak_sharp,
                          gen_nonconvex_sec6, gen_rank_deficient_ls, gen_sec61_inverse)
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
        p.q_eta_step(1.0, 0.5, np.ones(2))
    with pytest.raises(ContractViolation):
        p.q_eta_step(1.0, -0.5, np.ones(1))
    with pytest.raises(ContractViolation):
        p.regularized_value(-1.0, np.ones(1))
    with pytest.raises(ContractViolation):
        BilevelProblem(
            CompositeObjective(ZeroFunction(2), ZeroProx()),
            CompositeObjective(ZeroFunction(3), ZeroProx()),
        )


def test_a_nan_eta_or_strong_convexity_is_refused_by_name():
    p = make_1d_problem()
    with pytest.raises(ContractViolation, match="eta"):
        p.q_eta_step(float("nan"), 0.5, np.ones(1))
    with pytest.raises(ContractViolation, match="eta"):
        p.regularized_value(float("nan"), np.ones(1))
    nan_mu = quad_problem([1.0], [0.0], [float("nan")], [0.0])
    with pytest.raises(ConfigurationError, match=r"strongly convex.*mu_f"):
        solve_r_vfista(nan_mu, SolverConfig(5, FixedEtaSchedule(1.0)))


def test_unsupported_prox_pair_rejected_at_problem_build():
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=2), L1Prox(1.0))
    lower = CompositeObjective(ZeroFunction(2), BallProx(1.0))
    with pytest.raises(ConfigurationError, match="supported pairs"):
        BilevelProblem(upper, lower)


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
    got = p.step_map(gamma)(eta, x, np.empty_like(x))
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
            assert np.array_equal(step(eta, y, np.empty_like(y)), want)


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
    assert np.array_equal(next(accelerated_run(p, eta, x0, [iters]))[0], rep.x_final)
    assert np.array_equal(x0, p.initial_point)  # x0 is not written to
    gamma, kappa, momentum = accelerated_constants(p, eta)
    assert (gamma, kappa, momentum) == (rep.config["gamma"], rep.config["kappa"],
                                        rep.config["momentum"])


@pytest.mark.parametrize("name", ["rank_deficient_ls lam=0.1", "ipr anchor", "l1-l1 pair"])
@pytest.mark.parametrize("stops", [(1,), (7, 8), (3, 50, 51, 60)])
def test_accelerated_run_yields_the_bits_of_the_full_loop_at_each_stop(name, stops):
    p, eta = _KERNEL_PROBLEMS[name], 0.5
    run = accelerated_run(p, eta, p.initial_point, stops)
    for stop, (x, y) in zip(stops, run, strict=True):
        want_x, want_y = full_accelerated_loop(p, eta, p.initial_point, stop, with_y=True)
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("name", ["rank_deficient_ls lam=0.1", "ipr anchor", "l1-l1 pair"])
@pytest.mark.parametrize("iters", [1, 2, 7])
def test_accelerated_run_writes_no_array_it_is_given(name, iters):
    # the run copies x0 when it is called and steps in three arrays of its
    # own: x0 keeps its bytes, and a write to x0 after the call changes
    # nothing the run yields
    p, eta = _KERNEL_PROBLEMS[name], 0.5
    x0 = np.random.default_rng(iters).standard_normal(p.dimension)
    given = x0.tobytes()
    want = [full_accelerated_loop(p, eta, x0, stop).tobytes() for stop in (iters, 2 * iters)]
    run = accelerated_run(p, eta, x0, [iters, 2 * iters])
    for (x, y), want_x in zip(run, want, strict=True):
        assert x0.tobytes() == given and x.tobytes() == want_x
        assert not any(np.shares_memory(a, x0) for a in (x, y))
    run = accelerated_run(p, eta, x0, [iters])
    x0[:] = np.nan
    assert next(run)[0].tobytes() == want[0]


@pytest.mark.parametrize("stops", [[10], [2, 10], [3, 4], [1, 2, 3, 4, 5]])
def test_accelerated_run_divergence_names_its_step(stops):
    # one lower gradient per step: the 4th is NaN, at step 3 of the run,
    # whichever stretch it falls in; outside a solver run no trace or
    # config is attached
    lower = CompositeObjective(GradientTurnsNan(np.array([1.0, 2.0]), 3), ZeroProx())
    p = BilevelProblem(CompositeObjective(ScaledSqNorm(1.0, dimension=2), ZeroProx()),
                       lower)
    yields = 0
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="^accelerated solver: non-finite iterate "
                                                  "at step 3$") as err:
            for _ in accelerated_run(p, 0.5, np.ones(2), stops):
                yields += 1
    assert yields == sum(stop <= 3 for stop in stops)
    assert err.value.k == 3
    assert np.isfinite(err.value.last_finite).all()
    assert err.value.trace == [] and err.value.config == {}


def _ball_problem_started_at_1e160():
    # a finite start whose squares overflow; the ball projection takes it
    lower = CompositeObjective(LeastSquares(np.eye(4), np.zeros(4)), BallProx(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, dimension=4), ZeroProx())
    return BilevelProblem(upper, lower, initial_point=np.full(4, 1e160))


def test_accelerated_loops_take_a_start_whose_squares_overflow_without_warning():
    # pytest turns warnings into errors: an overflow warning would fail this
    p = _ball_problem_started_at_1e160()
    (x, _), = accelerated_run(p, 0.5, p.initial_point, [3])
    assert np.linalg.norm(x) <= 1.0 + 1e-12
    rep = solve_r_vfista(p, SolverConfig(big_k=3, schedule=FixedEtaSchedule(0.5)))
    assert np.linalg.norm(rep.x_final) <= 1.0 + 1e-12
    assert rep.x_final.tobytes() == x.tobytes()


def test_accelerated_run_leaves_the_callers_errstate_between_yields():
    # the squares of the start overflow in the first step, which the run
    # ignores though the caller raises on overflow; between yields the
    # caller's errstate holds
    p = _ball_problem_started_at_1e160()
    with np.errstate(over="raise"):
        before = np.geterr()
        for _ in accelerated_run(p, 0.5, p.initial_point, [1, 2, 5]):
            assert np.geterr() == before


def test_step_map_checks_gamma_once():
    p = make_1d_problem()
    for gamma in (0.0, -1.0):
        with pytest.raises(ContractViolation):
            p.step_map(gamma)


# ---------------------------------------------------------------------------
# the accelerated run's exit on a repeated state
# ---------------------------------------------------------------------------

IPR_CONFIG = (pathlib.Path(__file__).resolve().parent.parent
              / "configs" / "nonconvex_phillips_ipr.cfg")


def full_accelerated_loop(problem, eta, x0, iters, with_y=False):
    """All `iters` steps of `accelerated_run`, with no test for a repeat:
    the last iterate, and with `with_y` also the extrapolated point."""
    gamma, _, momentum = accelerated_constants(problem, eta)
    step, momentum = problem.step_map(gamma), np.array(momentum)
    x = y = np.asarray(x0, dtype=float)
    for _ in range(iters):
        x_next = step(eta, y, np.empty_like(y))
        y = x_next + momentum * (x_next - x)
        x = x_next
    return (x, y) if with_y else x


def first_repeat_steps(problem, eta, x0, iters):
    """The steps a run of `iters` steps from x0 computes when it ends one
    period after its state first repeats: the full loop, with the state
    after every step from step 1 on kept in a dict."""
    gamma, _, momentum = accelerated_constants(problem, eta)
    step, momentum = problem.step_map(gamma), np.array(momentum)
    x = y = np.asarray(x0, dtype=float)
    seen = {}
    for j in range(1, iters + 1):
        x_next = step(eta, y, np.empty_like(y))
        y = x_next + momentum * (x_next - x)
        state = x_next.tobytes(), x.tobytes()
        if state in seen:
            return j + (iters - j) % (j - seen[state])
        seen[state] = j
        x = x_next
    return iters


def count_steps(monkeypatch, owner):
    """A list that grows by one at each step of the step maps `owner` (a
    problem, or the BilevelProblem class) binds from now on."""
    steps, bind = [], owner.step_map

    def step_map(*args):
        step = bind(*args)

        def counted(eta, y, out):
            steps.append(None)
            return step(eta, y, out)
        return counted

    monkeypatch.setattr(owner, "step_map", step_map)
    return steps


@pytest.fixture(scope="module")
def ipr_inner_runs(tmp_path_factory):
    """(problem, eta, x0, iters) of the inner runs of the shipped
    nonconvex_phillips_ipr config, by instance name and outer step."""
    runs = {}
    for name in ("nonconvex_phillips", "nonconvex_baart"):
        recorded = runs[name] = []

        def recording_run(problem, eta, x0, stops, recorded=recorded):
            (iters,) = stops
            recorded.append((problem, eta, x0, iters))
            return accelerated_run(problem, eta, x0, stops)

        cfg = {**parse_kv_file(IPR_CONFIG), "instance.name": name,
               "output.dir": str(tmp_path_factory.mktemp(name))}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "accelerated_run", recording_run)
            run_from_config(cfg)
    return runs


@pytest.mark.parametrize("name,k,period", [
    ("nonconvex_phillips", 31, 3),   # J = 1024: the state after step 70 is that after 67
    ("nonconvex_phillips", 27, 12),  # J = 784: after 107 it is that after 95
    ("nonconvex_phillips", 19, 1),   # J = 400: after 92 it is that after 91
    ("nonconvex_baart", 31, None),   # never repeats
])
def test_accelerated_run_has_the_bits_of_the_full_loop_on_ipr_inner_runs(
        monkeypatch, ipr_inner_runs, name, k, period):
    p, eta, x0, iters = ipr_inner_runs[name][k]
    assert iters == (k + 1) ** 2
    want = full_accelerated_loop(p, eta, x0, iters)
    steps = count_steps(monkeypatch, p)
    assert next(accelerated_run(p, eta, x0, [iters]))[0].tobytes() == want.tobytes()
    if period is None:
        assert len(steps) == iters
    else:
        assert len(steps) < 200 < iters
        # the iterates cycle with that period and no shorter one
        cycle = [full_accelerated_loop(p, eta, x0, j).tobytes()
                 for j in range(300, 301 + period)]
        assert cycle[0] == cycle[-1] and cycle[0] not in cycle[1:-1]


def test_accelerated_run_ends_a_period_3_cycle_at_every_remainder(ipr_inner_runs):
    p, eta, x0, _ = ipr_inner_runs["nonconvex_phillips"][31]
    for iters in range(64, 76):  # the repeat is seen at step 70
        assert (next(accelerated_run(p, eta, x0, [iters]))[0].tobytes()
                == full_accelerated_loop(p, eta, x0, iters).tobytes())


def test_accelerated_run_stops_at_a_weak_sharp_fixed_point(monkeypatch):
    p = build_instance(InstanceSpec("l1_weak_sharp", 20, seed=3))
    eta = p.reference.weak_sharp.alpha / (2.0 * p.reference.subgradient.norm)
    want = full_accelerated_loop(p, eta, p.initial_point, 500)
    steps = count_steps(monkeypatch, p)
    assert next(accelerated_run(p, eta, p.initial_point, [500]))[0].tobytes() == want.tobytes()
    assert len(steps) == 3  # x_3 = x_2 = x_1


def _momentum_free_problem(dimension, step):
    """A problem whose accelerated run has momentum 0 (L_h = 0, L_f = mu_f)
    and whose step map is `step`."""
    p = BilevelProblem(CompositeObjective(ScaledSqNorm(1.0, dimension=dimension), ZeroProx()),
                       CompositeObjective(ZeroFunction(dimension), ZeroProx()))
    assert accelerated_constants(p, 0.5)[2] == 0.0
    p.step_map = lambda gamma: lambda eta, y, out: _written(out, step(y))
    return p


def _written(out, value):
    out[...] = value
    return out


@pytest.mark.parametrize("iters", [1, 2, 3, 5, 6])
def test_accelerated_run_keeps_states_apart_that_differ_in_the_sign_of_a_zero(iters):
    # x_j = (-1)^j * 0.0: as values every state is the same, as bits the
    # states alternate
    p = _momentum_free_problem(1, np.negative)
    want = full_accelerated_loop(p, 0.5, np.zeros(1), iters)
    assert np.signbit(want[0]) == (iters % 2 == 1)
    assert next(accelerated_run(p, 0.5, np.zeros(1), [iters]))[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("iters,computed", [(12, 12), (100, 9)])
def test_accelerated_run_takes_an_equal_norm_for_no_repeat(monkeypatch, iters, computed):
    # a rotation of 7 small integers: every step has the same squared norm
    # and the state repeats after 7 steps. Step 2 has the squared norm of
    # the checkpoint at step 1 but not its bytes, so the window opens there
    # and the state after step 8, that after step 1, is seen one period
    # after the run enters the cycle: 100 steps shrink to
    # 8 + (100 - 8) mod 7 = 9. Quarter-spaced checkpoints alone see it only
    # at step 36, 7 steps after the checkpoint at 29
    p = _momentum_free_problem(7, lambda y: np.roll(y, 1))
    x0 = np.arange(1.0, 8.0)
    steps = count_steps(monkeypatch, p)
    assert next(accelerated_run(p, 0.5, x0, [iters]))[0].tobytes() == (
        np.roll(x0, iters).tobytes())
    assert len(steps) == computed


def _table_walk(states, mu, steps):
    """A step map for `_momentum_free_problem` that ignores y and walks
    `states`: x_j = states[j] for j < len(states), then around states[mu:]
    again. Each bound step starts over at states[1] and appends to `steps`.
    The states are distinct as bytes, so x_{j+1} is a function of x_j."""
    lam = len(states) - mu

    def step_map(gamma):
        j = 0

        def step(eta, y, out):
            nonlocal j
            j += 1
            steps.append(None)
            return _written(out, states[j if j < len(states) else mu + (j - mu) % lam])
        return step
    return step_map


@settings(max_examples=200, deadline=None)
@given(mu=st.integers(0, 300), lam=st.integers(1, 40), iters=st.integers(1, 2000),
       seed=st.integers(0, 2**32 - 1))
def test_accelerated_run_sees_a_cycle_within_its_bound(mu, lam, iters, seed):
    # states of 6 entries in {-0.0, 0.0, 1.0}: few squared norms, so most
    # steps compare bytes, and many states differ only in the sign of a zero
    codes = np.random.default_rng(seed).choice(3 ** 6, mu + lam, replace=False)
    digits = codes[:, None] // 3 ** np.arange(6) % 3
    states = list(np.array([-0.0, 0.0, 1.0])[digits])
    steps = []
    p = _momentum_free_problem(6, None)
    p.step_map = _table_walk(states, mu, steps)
    want = full_accelerated_loop(p, 0.5, states[0], iters)
    steps.clear()
    assert next(accelerated_run(p, 0.5, states[0], [iters]))[0].tobytes() == want.tobytes()
    assert len(steps) <= min(iters, 1.25 * max(mu, 4 * lam) + 2 * lam)


def _equal_norm_states(count, dimension, seed):
    """`count` distinct states of `dimension` entries, all of squared norm
    dimension - 2: entries in {-1, 1} but for the last two, which are 0.0
    or -0.0, so some states differ only in the sign of a zero."""
    codes = np.random.default_rng(seed).choice(2 ** dimension, count, replace=False)
    bits = codes[:, None] // 2 ** np.arange(dimension) % 2
    states = np.where(bits == 1, 1.0, -1.0)
    states[:, -2:] *= 0.0
    return list(states)


@settings(max_examples=150, deadline=None)
@given(mu=st.integers(0, 300), lam=st.integers(1, CYCLE_WINDOW), iters=st.integers(1, 1200),
       seed=st.integers(0, 2**32 - 1))
@example(mu=300, lam=CYCLE_WINDOW, iters=1200, seed=0)
@example(mu=0, lam=CYCLE_WINDOW, iters=600, seed=1)
def test_accelerated_run_sees_a_short_cycle_one_period_after_it_starts(mu, lam, iters, seed):
    # every state has the squared norm of every checkpoint, so the window
    # opens at step 2 and holds every later state: a period within the
    # window is seen at the step where the state first repeats
    states = _equal_norm_states(mu + lam, 10, seed)
    steps = []
    p = _momentum_free_problem(10, None)
    p.step_map = _table_walk(states, mu, steps)
    want = full_accelerated_loop(p, 0.5, states[0], iters)
    computed = first_repeat_steps(p, 0.5, states[0], iters)
    steps.clear()
    assert next(accelerated_run(p, 0.5, states[0], [iters]))[0].tobytes() == want.tobytes()
    assert len(steps) == computed


def test_the_window_of_states_holds_at_most_two_generations():
    # 12 windows of distinct states of one squared norm: the window is open
    # from step 2 and never sees a repeat. Its two generations keep at most
    # CYCLE_WINDOW states and the checkpoint each, every state two strings
    # of 12 doubles (129 bytes each as objects), their tuple, the step index
    # and a dict slot: under 512 bytes a state. Keeping all 3,072 states
    # would take more than four times the bound
    iters = 12 * CYCLE_WINDOW
    states = _equal_norm_states(iters + 1, 12, 0)
    steps = []
    p = _momentum_free_problem(12, None)
    p.step_map = _table_walk(states, iters, steps)
    tracemalloc.start()
    try:
        (x, _), = accelerated_run(p, 0.5, states[0], [iters])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.tobytes() == states[iters].tobytes() and len(steps) == iters
    assert peak < 2 * (CYCLE_WINDOW + 1) * 512


def test_the_shipped_ipr_config_computes_under_a_quarter_of_its_inner_budget(
        monkeypatch, tmp_path, ipr_inner_runs):
    # sum_{k<32} (k+1)^2 = 11440 budgeted steps; 2176 computed, each inner
    # run ending one period after its state first repeats
    oracle = sum(first_repeat_steps(*run) for run in ipr_inner_runs["nonconvex_phillips"])
    steps = count_steps(monkeypatch, BilevelProblem)
    run_from_config({**parse_kv_file(IPR_CONFIG), "output.dir": str(tmp_path)})
    assert len(steps) == oracle
    assert len(steps) < 11440 / 4


R_VFISTA_CONFIG = IPR_CONFIG.parent / "r_vfista_weak_sharp.cfg"


def test_the_shipped_r_vfista_config_computes_under_two_fifths_of_its_steps(monkeypatch,
                                                                            tmp_path):
    # each stretch between trace points checkpoints afresh, and the iterates
    # sit at x* from step 1 on: a stretch of two or more steps sees the fixed
    # point at its second step, so 196 of the 500 steps are computed
    steps = count_steps(monkeypatch, BilevelProblem)
    run_from_config({**parse_kv_file(R_VFISTA_CONFIG), "output.dir": str(tmp_path)})
    assert len(steps) <= 196


@pytest.mark.parametrize("call,error,named", [
    (lambda: BilevelProblem(make_1d_problem().upper, make_1d_problem().lower,
                            initial_point=np.zeros(2)),
     ContractViolation, "initial point has the wrong length"),
    # eta*mu_f underflows to 0, or kappa = (L_h + eta*L_f)/(eta*mu_f) overflows
    (lambda: accelerated_constants(make_1d_problem(), 0.0), ConfigurationError,
     "eta = 0.0 leaves the accelerated steps no finite kappa"),
    (lambda: accelerated_constants(make_1d_problem(), 1e-320, "solver.eta"),
     ConfigurationError, "solver.eta = 1e-320 leaves the accelerated steps no finite kappa"),
], ids=["initial point length", "eta = 0", "kappa = inf"])
def test_bilevel_refusals_name_their_condition(call, error, named):
    with pytest.raises(error, match=re.escape(named)):
        call()
