import inspect
import math
import pathlib
import re
import string
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sbo.bilevel import accelerated_run, projection_problem
from sbo.errors import ConfigurationError, ParseError
from sbo.linalg import min_norm_ls
from sbo.metrics import dist_to_lower_set, infeasibility
import sbo.problems as problems_mod
from sbo.problems import (InstanceSpec, build_instance, gen_baart, gen_foxgood,
                          gen_l1_weak_sharp, gen_phillips,
                          gen_rank_deficient_ls, gen_sec61_inverse,
                          inverse_problem, load_instance, ls_ball_projector,
                          parse_items, parse_kv_lines, parse_value,
                          save_instance, typed_items)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------------------
# Fredholm discretizations
# ---------------------------------------------------------------------------


def phillips_solution(n: int) -> np.ndarray:
    """Galerkin coefficients of phillips' exact solution f(t) = phi(t)."""
    h = 12.0 / n
    c = math.pi / 3.0
    edges = np.linspace(-6.0, 6.0, n + 1)

    def anti(t: np.ndarray) -> np.ndarray:
        clipped = np.clip(t, -3.0, 3.0)
        return clipped + np.sin(c * clipped) / c

    return (anti(edges[1:]) - anti(edges[:-1])) / math.sqrt(h)


def baart_solution(n: int) -> np.ndarray:
    """Galerkin coefficients of baart's exact solution f(t) = sin t."""
    ht = math.pi / n
    t_edges = ht * np.arange(n + 1)
    return (np.cos(t_edges[:-1]) - np.cos(t_edges[1:])) / math.sqrt(ht)


def foxgood_solution(n: int) -> np.ndarray:
    """Midpoint values of foxgood's exact solution f(t) = t."""
    h = 1.0 / n
    return h * (np.arange(1, n + 1) - 0.5)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_phillips_symmetry(n):
    a, _ = gen_phillips(n)
    assert np.abs(a - a.T).max() <= 1e-12


def test_phillips_fixture_match():
    _, _, a_ref, b_ref = load_instance(FIXTURES / "phillips_n8.txt")
    a, b = gen_phillips(8)
    assert np.abs(a - a_ref).max() <= 1e-10
    assert np.abs(b - b_ref).max() <= 1e-10


def test_phillips_discretization_consistency():
    a, b = gen_phillips(32)
    x = phillips_solution(32)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 5e-2


def test_phillips_rejects_bad_n():
    with pytest.raises(ConfigurationError):
        gen_phillips(10)
    with pytest.raises(ConfigurationError):
        gen_phillips(2)


@pytest.mark.parametrize("name,gen", [("baart", gen_baart), ("foxgood", gen_foxgood)])
def test_fixture_match_baart_foxgood(name, gen):
    _, _, a_ref, b_ref = load_instance(FIXTURES / f"{name}_n8.txt")
    a, b = gen(8)
    assert np.abs(a - a_ref).max() <= 1e-8
    assert np.abs(b - b_ref).max() <= 1e-8


@pytest.mark.parametrize("gen", [gen_baart, gen_foxgood])
def test_condition_number_grows(gen):
    c8 = np.linalg.cond(gen(8)[0])
    c16 = np.linalg.cond(gen(16)[0])
    assert c16 > c8 > 1e3


@pytest.mark.parametrize("gen", [gen_baart, gen_foxgood])
def test_rhs_numerically_in_range(gen):
    a, b = gen(8)
    x = min_norm_ls(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-6


def test_baart_rejects_odd_n():
    with pytest.raises(ConfigurationError):
        gen_baart(7)
    with pytest.raises(ConfigurationError):
        gen_foxgood(3)


def test_solutions_consistent_small_residual():
    for gen, sol, n in ((gen_baart, baart_solution, 16),
                        (gen_foxgood, foxgood_solution, 16)):
        a, b = gen(n)
        x = sol(n)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 5e-2


# ---------------------------------------------------------------------------
# rank-deficient least-squares family
# ---------------------------------------------------------------------------


def test_rank_deficient_analytic_truths():
    p = gen_rank_deficient_ls(10, 3, seed=5, mu_f=2.0, lam=0.0)
    ref = p.reference
    ls = p.lower.smooth
    x_dag = min_norm_ls(ls.a, ls.b)
    assert np.allclose(ref.x_star, x_dag)
    assert ref.f_star == pytest.approx(1.0 * float(x_dag @ x_dag))
    assert ref.h_star == pytest.approx(0.0, abs=1e-20)
    assert ref.weak_sharp.order == 2.0
    assert ref.weak_sharp.alpha == pytest.approx(0.5 * (1.0 / 3.0) ** 2)


# (12, 4, 11) is the lower level of conftest's rd_instance
@pytest.mark.parametrize("n, rank, seed", [(10, 3, 5), (12, 4, 11)])
def test_rank_deficient_growth_certificate(n, rank, seed):
    p = gen_rank_deficient_ls(n, rank, seed=seed)
    alpha = p.reference.weak_sharp.alpha
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(n) * 2.0
        d = dist_to_lower_set(p, x)
        assert alpha * d * d <= infeasibility(p, x) + 1e-8


def test_rank_deficient_projector_invariants():
    p = gen_rank_deficient_ls(10, 3, seed=5)
    proj = p.reference.projector
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(10)
        px = proj(x)
        assert np.allclose(proj(px), px, atol=1e-12)
        assert p.lower.value(px) <= 1e-12


def test_rank_deficient_determinism_bit_for_bit():
    p1 = gen_rank_deficient_ls(9, 4, seed=3, lam=0.2)
    p2 = gen_rank_deficient_ls(9, 4, seed=3, lam=0.2)
    assert np.array_equal(p1.lower.smooth.a, p2.lower.smooth.a)
    assert np.array_equal(p1.lower.smooth.b, p2.lower.smooth.b)


def test_rank_deficient_certified_f_star_against_cvxpy(rd_instance_l1):
    cvxpy = pytest.importorskip("cvxpy")
    p = rd_instance_l1
    ref = p.reference
    ls = p.lower.smooth
    x = cvxpy.Variable(p.dimension)
    mu = p.upper.smooth.weight
    objective = 0.5 * mu * cvxpy.sum_squares(x) + 0.1 * cvxpy.norm1(x)
    constraint = [ls.a @ x == ls.b]
    problem = cvxpy.Problem(cvxpy.Minimize(objective), constraint)
    problem.solve()
    assert problem.value == pytest.approx(ref.f_star,
                                          abs=ref.f_star_tol + 1e-6)
    assert ref.notes["f_star_method"] == "dual_newton"


def _soft(v, lam):
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), rank_share=st.floats(0.0, 1.0),
       mu=st.floats(0.1, 10.0), lam=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       scale=st.floats(1e-3, 1e3))
# a draw whose s = (g - mu x)/lam carries ~eps (|g| + mu |x|)/lam = 4.1e-9
# of rounding, with a gap of 9.0e-8 on a primal of 5.5e6
@example(seed=131113783, n=2, rank_share=0.0, mu=8.25, lam=0.001, scale=983.75)
def test_certify_l1_selection_is_feasible_certified_and_kkt(seed, n, rank_share, mu, lam,
                                                            scale):
    rank = 1 + int(rank_share * (n - 2))
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    c = w.T @ (scale * rng.standard_normal(n))
    x, gap, y = problems_mod.certify_l1_selection(w, c, mu, lam)
    assert np.linalg.norm(w.T @ x - c) <= 1e-12 * max(1.0, np.linalg.norm(c))
    # weak duality, recomputed here: primal(x) - D(y) bounds primal(x) - f*
    primal = 0.5 * mu * float(x @ x) + lam * float(np.abs(x).sum())
    soft = _soft(w @ y, lam)
    dual = float(y @ c) - float(soft @ soft) / (2.0 * mu)
    f_star_tol = gap + 1e-12 * max(1.0, abs(primal))
    assert primal - dual <= f_star_tol
    assert gap <= 1e-10 * max(1.0, abs(primal))
    # KKT: (W y - mu x)/lam lies in d||x||_1, up to the feasibility
    # correction x - x(y), x(y) = soft(W y, lam)/mu, and up to the rounding
    # of s, a few eps (|g| + mu |x|)/lam per entry. The correction is bounded
    # without reading y: D is concave and its gradient c - W^T x(y) is
    # (1/mu)-Lipschitz (soft is nonexpansive, W has orthonormal columns), so
    # ||x - x(y)|| = ||grad D(y)|| <= sqrt(2 gap/mu), with the gap ceiling
    # asserted above
    g = w @ y
    if lam == 0.0:
        assert np.linalg.norm(g - mu * x) <= 1e-12 * max(1.0, np.linalg.norm(g))
        x_dag = min_norm_ls(w.T, c)
        assert np.linalg.norm(x - x_dag) <= 1e-12 * max(1.0, np.linalg.norm(x_dag))
    else:
        moved_max = math.sqrt(2e-10 * max(1.0, abs(primal)) / mu)
        rounding = 8.0 * np.finfo(float).eps * (np.abs(g) + mu * np.abs(x)) / lam
        s, slack = (g - mu * x) / lam, mu * moved_max / lam + rounding
        assert np.all(np.abs(s) <= 1.0 + slack)
        on = np.abs(x) > 2.0 * moved_max
        assert np.all(np.abs(s[on] - np.sign(x[on])) <= slack[on])


def _dual_bound(problem) -> float:
    """A lower bound on the upper optimum of a rank_deficient_ls instance
    from its reference subgradient g* = W y alone. For every feasible x,
    y^T c = (W y)^T x, so the dual value at y is
    g*^T x - ||soft(g*, lam)||^2 / (2 mu), with x = P(0) for the feasible x."""
    ref = problem.reference
    lam = getattr(problem.upper.nonsmooth, "weight", 0.0)
    g = ref.subgradient.g_star
    # g* lies in range(W), the normal space of the feasible set
    p0 = ref.projector(np.zeros(problem.dimension))
    assert np.linalg.norm(ref.projector(g) - p0) <= 1e-12 * max(1.0, np.linalg.norm(g))
    soft = _soft(g, lam)
    return float(g @ p0) - float(soft @ soft) / (2.0 * problem.upper.smooth.weight)


@pytest.mark.parametrize("lam", [0.0, 0.1, 2.0])
@pytest.mark.parametrize("n, rank, seed, mu_f", [(12, 4, 11, 1.0), (50, 25, 7, 1.0),
                                                  (30, 3, 2, 0.5)])
def test_rank_deficient_reference_is_certified(n, rank, seed, mu_f, lam):
    p = gen_rank_deficient_ls(n, rank, seed=seed, mu_f=mu_f, lam=lam)
    ref = p.reference
    assert ref.notes["f_star_method"] == "dual_newton"
    assert p.lower.value(ref.x_star) <= 1e-20
    assert ref.f_star == p.upper.value(ref.x_star)
    assert ref.f_star_tol <= 1e-10 * max(1.0, abs(ref.f_star))
    assert ref.f_star - _dual_bound(p) <= ref.f_star_tol
    assert ref.subgradient.norm == pytest.approx(np.linalg.norm(ref.subgradient.g_star))


def test_manufactured_f_star_lies_within_its_tolerance_of_the_certified_value():
    # the instance of compare_traces.py's MANUFACTURE_RUN: 20000 steps leave
    # its f_star 6.6e-3 above the optimum
    made = gen_rank_deficient_ls(20, 10, seed=0, lam=0.1, f_star_budget=20_000)
    certified = gen_rank_deficient_ls(20, 10, seed=0, lam=0.1)
    lower, upper = _dual_bound(certified), certified.reference.f_star
    ref = made.reference
    assert ref.notes["f_star_method"] == "manufactured"
    assert ref.f_star - ref.f_star_tol <= lower <= upper <= ref.f_star + ref.f_star_tol


def test_rank_deficient_rejects_bad_rank():
    with pytest.raises(ConfigurationError):
        gen_rank_deficient_ls(5, 5, seed=0)


@pytest.mark.parametrize("budget", [2.5, 2.0, True, np.float64(3.0)], ids=repr)
def test_rank_deficient_refuses_a_non_integer_f_star_budget_by_name(budget):
    # build_instance types the key as an int; a library call is refused here,
    # before any step of the manufacture
    with pytest.raises(ConfigurationError, match=re.escape(
            f"f_star_budget must be an integer; got {budget!r}")):
        gen_rank_deficient_ls(12, 4, f_star_budget=budget)
    made = gen_rank_deficient_ls(12, 4, f_star_budget=np.int64(3)).reference
    assert made.notes["f_star_budget"] == 3


# ---------------------------------------------------------------------------
# weak-sharp l1 instance
# ---------------------------------------------------------------------------


def test_weak_sharp_alpha_certificate():
    p = gen_l1_weak_sharp(6, np.ones(6))
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.standard_normal(6)
        assert p.lower.value(x) - 0.0 >= 1.0 * np.linalg.norm(x) - 1e-12


def test_weak_sharp_truths_and_eta_gate():
    c = np.array([3.0, -4.0])
    p = gen_l1_weak_sharp(2, c)
    ref = p.reference
    assert np.array_equal(ref.x_star, np.zeros(2))
    assert ref.f_star == pytest.approx(12.5)
    assert np.array_equal(ref.subgradient.g_star, -c)
    eta_gate = ref.weak_sharp.alpha / (2.0 * ref.subgradient.norm)
    assert eta_gate == pytest.approx(1.0 / (2.0 * 5.0))


# ---------------------------------------------------------------------------
# convex selection instances on the Fredholm systems
# ---------------------------------------------------------------------------


def test_sec61_instance_shape():
    p = gen_sec61_inverse("phillips", 8, mu_f=1.0, lam=1.0)
    assert p.reference.h_star == 0.0
    assert p.lower.value(np.zeros(8)) > 0.0
    assert np.array_equal(p.initial_point, np.ones(8))


# ---------------------------------------------------------------------------
# smooth nonconvex configuration
# ---------------------------------------------------------------------------


def test_nonconvex_initial_point_feasible(nonconvex_instance):
    x0 = nonconvex_instance.initial_point
    assert np.linalg.norm(x0) == pytest.approx(1.0, abs=1e-12)
    assert nonconvex_instance.lower.value(x0) < math.inf


def test_nonconvex_reference_stability(nonconvex_instance):
    # an independent iterative solve of the same tiny-weight problem agrees
    # with the closed-form optimum
    p = nonconvex_instance
    ref = p.reference
    assert ref.notes["h_star_method"] == ref.notes["projector_method"] == "closed_form"
    x0 = p.initial_point
    (iterative, _), = accelerated_run(projection_problem(p.lower, x0),
                                      ref.notes["h_star_eta"], x0, [100_000])
    h_iterative = p.lower.value(iterative)
    assert abs(h_iterative - ref.h_star) <= 1e-6 * abs(ref.h_star)


def test_nonconvex_empirical_growth_reported(nonconvex_instance):
    # feasible samples off the solution set lie strictly above h_star
    p = nonconvex_instance
    h_star = p.reference.h_star
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(p.dimension)
        x = x / max(1.0, np.linalg.norm(x))
        assert p.lower.value(x) - h_star > 0.0


def test_nonconvex_rejects_bad_smoothing():
    with pytest.raises(ConfigurationError, match="sqrt"):
        build_instance(InstanceSpec("nonconvex_phillips", 8, params={
            "delta": "0.04", "epsilon": "0.1"}))


@pytest.mark.parametrize("which", ["phillips", "baart", "foxgood"])
def test_nonconvex_lower_solution_set_is_one_kkt_point(which):
    # the ball binds (||x_dag|| > 1), so the minimizer x* of h over the unit
    # ball has a multiplier mu > 0 and h + (mu/2)(||x||^2 - 1) is mu-strongly
    # convex: X* = {x*}, and h(x) - h* >= (mu/2)||x - x*||^2 on the ball
    p = build_instance(InstanceSpec(f"nonconvex_{which}", 32))
    a, b = inverse_problem(which, 32)
    x_star = ls_ball_projector(np.linalg.svd(a), b, 1.0, 0.0)(p.initial_point)
    h = p.lower.smooth
    grad = h.gradient(x_star)
    mu = -float(grad @ x_star)
    assert abs(np.linalg.norm(x_star) - 1.0) <= 1e-14
    assert mu > 0.0
    assert np.linalg.norm(grad + mu * x_star) <= 1e-13
    ref = p.reference
    assert 0.0 <= ref.h_star - h.value(x_star) <= ref.h_star_tol


# ---------------------------------------------------------------------------
# h_star against an independent h*
# ---------------------------------------------------------------------------


def _ball_ls_minimum(a, b, radius=1.0):
    """min of 0.5*||A x - b||^2 over ||x|| <= radius, from eigh(A^T A): the
    minimizer is Q c / (lam + mu) with c = Q^T A^T b and the multiplier mu
    bisected on ||c / (lam + mu)|| = radius when the ball is active."""
    lam, q = np.linalg.eigh(a.T @ a)
    lam = np.maximum(lam, 0.0)
    c = q.T @ (a.T @ b)
    mu = 0.0
    if lam.min() == 0.0 or np.linalg.norm(c / lam) > radius:
        lo, mu = 0.0, np.linalg.norm(c) / radius
        while lo < 0.5 * (lo + mu) < mu:
            mid = 0.5 * (lo + mu)
            lo, mu = (mid, mu) if np.linalg.norm(c / (lam + mid)) > radius else (lo, mid)
    r = a @ (q @ (c / (lam + mu))) - b
    return 0.5 * float(r @ r)


def _h_star_bracket(name, n):
    """An interval [lo, hi] that holds the true lower optimal value h* of
    the instance, computed without the generator's reference."""
    if name.startswith("nonconvex_"):
        h = _ball_ls_minimum(*inverse_problem(name.removeprefix("nonconvex_"), n))
        return h, h
    if name.startswith("sec61_"):
        # h* >= 0, and the value at any point bounds it from above
        a, b = inverse_problem(name.removeprefix("sec61_"), n)
        r = a @ np.linalg.lstsq(a, b, rcond=None)[0] - b
        return 0.0, 0.5 * float(r @ r)
    return 0.0, 0.0  # rank_deficient_ls: b in range(A); l1_weak_sharp: ||0||_1


@pytest.mark.parametrize("name,n,seed", [
    *[(f"{kind}_{w}", n, None) for kind in ("nonconvex", "sec61")
      for w in ("phillips", "baart", "foxgood") for n in (16, 32)],
    *[("rank_deficient_ls", n, seed) for n in (12, 50) for seed in (0, 7)],
    *[("l1_weak_sharp", 20, seed) for seed in (0, 3)],
])
def test_h_star_is_within_its_tolerance_of_an_independent_h_star(name, n, seed):
    ref = build_instance(InstanceSpec(name, n, seed=seed)).reference
    lo, hi = _h_star_bracket(name, n)
    ulps = 4.0 * np.spacing(max(abs(ref.h_star), hi))
    # h_star is not below h*, and no h* in [lo, hi] is past h_star_tol from it
    assert ref.h_star >= lo - ulps
    assert ref.h_star - lo <= ref.h_star_tol + ulps
    assert hi - ref.h_star <= ref.h_star_tol + ulps


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def test_instance_roundtrip_bit_equality(tmp_path):
    a, b = gen_phillips(8)
    path = tmp_path / "phillips.txt"
    save_instance(path, "phillips", {"n": 8}, a, b)
    name, params, a2, b2 = load_instance(path)
    assert name == "phillips" and params == {"n": "8"}
    assert np.array_equal(a, a2)
    assert np.array_equal(b, b2)
    # byte-identical rewrite
    save_instance(tmp_path / "again.txt", "phillips", {"n": 8}, a2, b2)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_instance_without_matrix(tmp_path):
    c = np.array([1.0, -0.25])
    path = tmp_path / "c.txt"
    save_instance(path, "l1_weak_sharp", {"n": 2}, None, c)
    name, params, a, b = load_instance(path)
    assert a is None
    assert np.array_equal(b, c)


def test_load_rejects_lines_after_the_vector_block(tmp_path):
    path = tmp_path / "inst.txt"
    save_instance(path, "l1_weak_sharp", {"n": 2}, None, np.array([1.0, 2.0]))
    path.write_text(path.read_text() + "\n\n")  # trailing blank lines are fine
    assert load_instance(path)[0] == "l1_weak_sharp"
    path.write_text(path.read_text() + "garbage line\n")
    with pytest.raises(ParseError, match="line 10"):
        load_instance(path)


def test_load_rejects_inconsistent_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("name = x\n\n2 2\n1.0 2.0\n3.0\n\n1 1\n0.0\n")
    with pytest.raises(ParseError, match="line 5"):
        load_instance(path)
    path2 = tmp_path / "bad2.txt"
    path2.write_text("no header here\n")
    with pytest.raises(ParseError):
        load_instance(path2)


@pytest.mark.parametrize("text,message", [
    ("n = 2\n\n0 0\n\n1 2\n1.0 2.0\n", "line 1: missing 'name = ...' header line"),
    ("name = x\n\n", "line 3: missing matrix block"),
    ("name = x\n\n0 0\n1 2\n1.0 2.0\n",
     "line 4: expected a blank line before the vector block"),
    ("name = x\n\n0 0\n\n2 1\n1.0\n2.0\n", "line 5: vector block must have header '1 n'"),
    ("name = x\nn =\n\n0 0\n\n1 1\n1.0\n", "line 2: entry 'n =' has an empty value"),
    ("name = x\n\n0 0\n\n1 99999999999999\n1.0 2.0 3.0\n",
     "line 6: expected 99999999999999 entries, found 3"),
], ids=["no name", "no matrix block", "no blank line", "vector header", "empty value",
        "huge vector header"])
def test_load_refuses_a_malformed_file_naming_the_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_instance(path)


def test_load_rejects_a_file_not_in_utf8_naming_path_and_line(tmp_path):
    path = tmp_path / "inst.txt"
    save_instance(path, "l1_weak_sharp", {"n": 2}, None, np.array([1.0, 2.0]))
    path.write_bytes(path.read_bytes().replace(b"n = 2", b"n = \xff"))
    with pytest.raises(ParseError, match="line 2") as err:
        load_instance(path)
    assert "utf-8" in str(err.value) and str(path) in str(err.value)


def test_build_instance_registry():
    p = build_instance(InstanceSpec("l1_weak_sharp", 5, seed=2))
    assert p.dimension == 5
    p2 = build_instance(InstanceSpec("rank_deficient_ls", 8, seed=1,
                                     params={"rank": "3", "lam": "0"}))
    assert p2.reference.x_star is not None
    with pytest.raises(ConfigurationError, match="unknown instance"):
        build_instance(InstanceSpec("nope", 4))


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_TEXT = string.ascii_letters + string.digits + "._-+:,"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
@given(a=st.none() | arrays(np.float64, st.tuples(st.integers(1, 5),
                                                  st.integers(1, 5)),
                            elements=_finite),
       b=arrays(np.float64, st.integers(1, 6), elements=_finite),
       params=st.dictionaries(st.text(_TEXT, min_size=1).filter(lambda k: k != "name"),
                              st.text(_TEXT + " =", min_size=1).map(str.strip).filter(bool),
                              max_size=5),
       name=st.text(_TEXT, min_size=1))
def test_instance_roundtrip_property(tmp_path, a, b, params, name):
    path = tmp_path / "inst.txt"
    save_instance(path, name, params, a, b)
    name2, params2, a2, b2 = load_instance(path)
    assert name2 == name and params2 == params
    # bit-exact, signed zeros and subnormals included
    if a is None:
        assert a2 is None
    else:
        assert a2.shape == a.shape and a2.tobytes() == a.tobytes()
    assert b2.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,seed,params,named", [
    ("rank_deficient_ls", 1, {"lamda": "5"}, "instance key 'lamda'"),
    ("rank_deficient_ls", 1, {"noise_std": "0.5"}, "instance key 'noise_std'"),
    ("rank_deficient_ls", 1, {"f_star_eta": "1e-9"}, "instance key 'f_star_eta'"),
    ("rank_deficient_ls", 1, {"lam": "nan"}, "instance key 'lam'"),
    ("rank_deficient_ls", 1, {"mu_f": "-inf"}, "instance key 'mu_f'"),
    ("rank_deficient_ls", 1, {"rank": "2.5"}, "instance key 'rank'"),
    ("sec61_phillips", 1, {}, "instance key 'seed'"),
    ("rank_deficient_ls", 1, {"rank": 2.5}, "instance key 'rank'"),
    ("nonconvex_phillips", None, {"with_reference": "0"}, "instance key 'with_reference'"),
])
def test_build_instance_refuses_unknown_or_bad_key(name, seed, params, named):
    with pytest.raises(ConfigurationError, match=named):
        build_instance(InstanceSpec(name, 8, seed=seed, params=params))


def test_build_instance_takes_integral_numbers_for_integer_keys():
    for rank in (2, "2", 2.0):
        p = build_instance(InstanceSpec("rank_deficient_ls", 8, seed=1,
                                        params={"rank": rank, "lam": 0}))
        assert np.linalg.matrix_rank(p.lower.smooth.a) == 2


def test_build_instance_reads_each_generators_signature_once(monkeypatch):
    # the first build of a generator reads its signature; later builds, and
    # the refusals they make, take the kinds it gave
    calls = []

    def signature(generator, **kwargs):
        calls.append(generator)
        return inspect.signature(generator, **kwargs)

    problems_mod._parameter_kinds.cache_clear()
    monkeypatch.setattr(problems_mod, "inspect", types.SimpleNamespace(signature=signature))
    spec = InstanceSpec("nonconvex_phillips", 8, params={"delta": "0.005"})
    first, second = build_instance(spec), build_instance(spec)
    assert first.lower.smooth.a.tobytes() == second.lower.smooth.a.tobytes()
    assert calls == [problems_mod.gen_nonconvex_sec6]
    with pytest.raises(ConfigurationError, match="instance key 'with_reference'"):
        build_instance(InstanceSpec("nonconvex_baart", 8, params={"with_reference": "0"}))
    build_instance(InstanceSpec("sec61_phillips", 8))
    assert calls == [problems_mod.gen_nonconvex_sec6, problems_mod.gen_sec61_inverse]


# parse_value reads every config, instance and suite key; its refusals
# start with `what`, the name of the key
_WHAT = st.text(min_size=1)


def _refusal(what, text, kind):
    with pytest.raises(ConfigurationError) as err:
        parse_value(what, text, kind)
    assert str(err.value).startswith(f"{what} must be ")
    return str(err.value)


@given(x=st.floats(allow_nan=False, allow_infinity=False), what=_WHAT)
def test_parse_value_round_trips_finite_floats(x, what):
    for text in (repr(x), str(x), x):
        got = parse_value(what, text)
        assert got == x and math.copysign(1.0, got) == math.copysign(1.0, x)


@given(i=st.integers(), what=_WHAT)
def test_parse_value_round_trips_ints_and_takes_only_0_and_1_as_flags(i, what):
    exact_float = [float(i)] if abs(i) <= 2 ** 53 else []
    for text in [repr(i), str(i), i, *exact_float]:
        assert parse_value(what, text, int) == i
        if i in (0, 1):
            assert parse_value(what, text, bool) is bool(i)
        else:
            assert "0 or 1" in _refusal(what, text, bool)


@given(text=st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e999",
                             math.nan, math.inf, -math.inf]),
       kind=st.sampled_from([float, int, bool]), what=_WHAT)
def test_parse_value_refuses_non_finite_values(text, kind, what):
    _refusal(what, text, kind)


@given(x=st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != int(x)),
       kind=st.sampled_from([int, bool]), what=_WHAT)
def test_parse_value_refuses_non_integral_values_for_ints_and_flags(x, kind, what):
    for text in (repr(x), str(x), x):
        _refusal(what, text, kind)


# parse_items splits every text input into key=value items, and typed_items
# types them; their refusals name the item or the key
_KEY = st.text(string.ascii_letters + string.digits + "._-", min_size=1)
_VALUE = st.text(string.ascii_letters + string.digits + "._-=:+ ", min_size=1).map(
    str.strip).filter(bool)


@given(items=st.dictionaries(_KEY, _VALUE, max_size=6), pad=st.sampled_from(["", " ", "  "]))
def test_parse_items_round_trips_stripped_items(items, pad):
    texts = [f"{pad}{key}{pad}={pad}{value}{pad}" for key, value in items.items()]
    assert parse_items(texts, "item") == items
    assert parse_kv_lines(texts) == items


@pytest.mark.parametrize("items,given,message", [
    (["a=1", "b"], (), "item 'b' is not key=value"),
    (["a=1", " = 2"], (), "item ' = 2' has an empty key"),
    (["a=1", "b = "], (), "item 'b = ' has an empty value"),
    (["a=1", "b=2", "a = 3"], (), "item 'a = 3' gives a duplicate key 'a'"),
    (["a=1", "name=x"], ("name",), "item 'name=x' gives a duplicate key 'name'"),
])
def test_parse_items_refuses_a_bad_item_naming_it(items, given, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        parse_items(items, "item", given)


def test_parse_kv_lines_refuses_a_bad_line_naming_it():
    for lines, message in [(["a = 1", "# c", "a = 2"], "line 3: entry 'a = 2' gives a "
                                                       "duplicate key 'a'"),
                           (["a = 1  # c", "b = # c"], "line 2: entry 'b =' has an empty value")]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_kv_lines(lines)


def test_typed_items_types_the_values_and_refuses_a_key_naming_the_keys_taken():
    kinds = {"label": str, "n": int, "tol": float, "flag": bool}
    assert typed_items({"label": "x", "n": "3", "tol": "0.5", "flag": "1"}, kinds,
                       "row key") == {"label": "x", "n": 3, "tol": 0.5, "flag": True}
    with pytest.raises(ConfigurationError, match=re.escape(
            "unknown row key 'nn'; it takes flag, label, n, tol")):
        typed_items({"n": "3", "nn": "4"}, kinds, "row key")
    with pytest.raises(ConfigurationError, match=re.escape("row key 'n' must be an integer")):
        typed_items({"n": "3.5"}, kinds, "row key")


def test_typed_items_refuses_an_absent_required_key_by_name():
    kinds = {"label": str, "n": int}
    assert typed_items({"n": "3"}, kinds, "row key", required=("n",)) == {"n": 3}
    with pytest.raises(ConfigurationError, match=re.escape("missing row key 'label'")):
        typed_items({"n": "3"}, kinds, "row key", required=("n", "label"))


# ---------------------------------------------------------------------------
# the memory guard: every family refuses, before it allocates, an n whose
# build would peak past physical memory
# ---------------------------------------------------------------------------

_FAMILY_BUILDS = {
    **{f"gen_{w}": (lambda w: lambda n: inverse_problem(w, n))(w)
       for w in ("phillips", "foxgood", "baart")},
    **{name: (lambda name: lambda n: build_instance(InstanceSpec(name, n)))(name)
       for name in ("rank_deficient_ls", "sec61_phillips", "sec61_foxgood", "sec61_baart",
                    "nonconvex_phillips", "nonconvex_foxgood", "nonconvex_baart")},
    "l1_weak_sharp": lambda n: build_instance(InstanceSpec("l1_weak_sharp", n, seed=0)),
}
_GUARD_N = {"gen_phillips": 512, "gen_foxgood": 512, "gen_baart": 256,
            "l1_weak_sharp": 100_000}


@pytest.mark.parametrize("family", sorted(_FAMILY_BUILDS))
def test_the_memory_guard_refuses_a_build_whose_traced_peak_passes_memory(
        monkeypatch, family):
    # the guard's bytes cover the build's tracemalloc peak: with a physical
    # memory of exactly that peak (reported by a stand-in os.sysconf; nothing
    # near the real memory is allocated) the build is refused
    build, n = _FAMILY_BUILDS[family], _GUARD_N.get(family, 128)
    build(n)  # once untraced, so one-time allocations are not counted
    tracemalloc.start()
    try:
        build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak}
    monkeypatch.setattr(problems_mod.os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigurationError, match=f"^instance.n = {n} is too large: its "
                                                 "build peaks at about"):
        build(n)


@pytest.mark.parametrize("call,named", [
    (lambda: gen_sec61_inverse("shaw", 8), "unknown inverse problem 'shaw'"),
    (lambda: gen_l1_weak_sharp(4, np.zeros(3)), "center c must have length n"),
    # the f_star manufacture's weight 1e-9 at mu_f = 1e-300: kappa overflows
    (lambda: gen_rank_deficient_ls(8, 4, mu_f=1e-300, f_star_budget=10),
     "eta = 1e-09 leaves the accelerated steps no finite kappa"),
], ids=["sec61 unknown which", "l1_weak_sharp center length", "manufacture kappa"])
def test_generator_refusals_name_their_condition(call, named):
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        call()
