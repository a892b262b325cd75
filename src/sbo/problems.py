"""Instance generators.

Three classic severely ill-posed first-kind Fredholm discretizations
(phillips, baart, foxgood) reimplemented from their integral-equation
definitions; a seeded rank-deficient least-squares family with fully known
reference truth; a weak-sharp l1 lower-level construction; and the smooth
nonconvex configuration (Moreau-smoothed log-sum penalty over a
ball-constrained least-squares solution set). Plus the instance text format.
This is the module that builds reference truth: each generator attaches its
instance's, and `metrics` only reads it.

Every generator is a pure function of (name, n, seed, params): rebuilding an
instance is bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, get_args

import numpy as np

from .bilevel import (BilevelProblem, CompositeObjective, ReferenceTruth,
                      SubgradientAtOpt, WeakSharp, accelerated_run)
from .errors import ConfigurationError, ParseError
from .functions import LeastSquares, MoreauLogSum, ScaledSqNorm, ZeroFunction
from .linalg import format_matrix, format_vector, min_norm_ls, parse_matrix_lines
from .prox import BallProx, L1Prox, ZeroProx, prox_l1


@dataclass
class InstanceSpec:
    name: str
    n: int
    seed: Optional[int] = None
    params: dict = field(default_factory=dict)


def parse_value(what: str, text, kind: type = float):
    """`text` as an int inside the float range, a finite float or a 0/1
    flag (kind int, float or bool; kind str keeps the text), or a
    ConfigurationError that names it as `what`. A float given for an int or
    a flag must be integral. An int past the float range would overflow
    where a reader takes its float, e.g. a step count's square root."""
    try:
        value = (int if kind is bool else kind)(text)
    except (TypeError, ValueError, OverflowError):
        value = None
    if (value is None or kind is float and not math.isfinite(value)
            or kind is not float and isinstance(text, float) and value != text
            or kind is bool and value not in (0, 1)
            or kind is int and not abs(value) <= sys.float_info.max):
        must = {int: f"an integer of magnitude <= {sys.float_info.max:.2g}",
                float: "a finite number", bool: "0 or 1"}[kind]
        raise ConfigurationError(f"{what} must be {must}; got {text!r}")
    return bool(value) if kind is bool else value


def parse_items(items, what: str, given=()) -> dict[str, str]:
    """The key=value `items`, stripped, by key: the one splitter of every
    text input. An item with no '=', an empty key or value, or a key given
    before (in `items` or in `given`) is refused, naming the item as `what`."""
    out: dict[str, str] = {}
    for item in items:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not (eq and key and value) or key in out or key in given:
            problem = ("is not key=value" if not eq else "has an empty key" if not key
                       else "has an empty value" if not value
                       else f"gives a duplicate key {key!r}")
            raise ConfigurationError(f"{what} {item!r} {problem}")
        out[key] = value
    return out


def typed_items(items: dict, kinds: dict, what: str, required=()) -> dict:
    """`items` with each value parsed by `parse_value` as kinds[key]. A key
    of `required` that is absent is refused, and then a key not in `kinds`,
    naming it as `what` (and the keys taken)."""
    for key in required:
        if key not in items:
            raise ConfigurationError(f"missing {what} {key!r}")
    for key in items:
        if key not in kinds:
            raise ConfigurationError(
                f"unknown {what} {key!r}; it takes {', '.join(sorted(kinds))}")
    return {key: parse_value(f"{what} {key!r}", text, kinds[key])
            for key, text in items.items()}


# ---------------------------------------------------------------------------
# Fredholm test matrices
# ---------------------------------------------------------------------------

_GL_ORDER = 24  # fixed-order Gauss-Legendre panels; integrands are analytic
                # per cell, so this is accurate to ~1e-15


def _refuse_beyond_memory(n: int, floats: int) -> None:
    """ConfigurationError naming instance.n if a build that peaks at `floats`
    float64 values would pass physical memory. Each family calls it before
    its first n-sized allocation, with the larger of its tracemalloc peak and
    its peak RSS rise (which sees LAPACK's work arrays): numpy refuses only
    arrays past the address space, and a process past physical memory is killed."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * floats > memory:
        raise ConfigurationError(
            f"instance.n = {n} is too large: its build peaks at about "
            f"{8 * floats:.3g} bytes, past the {memory:.3g} bytes of physical memory")


def _gl_nodes(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes/weights mapped onto the intervals [a_i, b_i]."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * x[None, :], half * w[None, :]


def gen_phillips(n: int):
    """Galerkin box-function discretization on [-6, 6] of the convolution
    kernel K(s,t) = phi(s-t), phi(u) = 1 + cos(pi*u/3) on |u| < 3 (zero
    outside), with right-hand side
    g(s) = (6-|s|)(1 + cos(pi*s/3)/2) + 9 sin(pi*|s|/3)/(2 pi).
    The matrix entries are exact (second differences of an antiderivative),
    so A is exactly symmetric Toeplitz. n must be a multiple of 4.
    """
    if n < 4 or n % 4 != 0:
        raise ConfigurationError(f"phillips requires n >= 4 divisible by 4, got {n}")
    _refuse_beyond_memory(n, (2 * n + 16) * n)  # the index matrix and A
    h = 12.0 / n
    c = math.pi / 3.0

    def big_g(u: np.ndarray) -> np.ndarray:
        # second antiderivative of phi, linear (slope +-3) outside [-3, 3]
        inside = np.abs(u) <= 3.0
        out = np.where(
            inside,
            0.5 * u * u - (9.0 / math.pi**2) * np.cos(c * u),
            4.5 + 9.0 / math.pi**2 + 3.0 * (np.abs(u) - 3.0),
        )
        return out

    offsets = h * np.arange(n)
    row = (big_g(offsets + h) - 2.0 * big_g(offsets) + big_g(offsets - h)) / h
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    a = row[idx]

    # right-hand side: exact cell integrals of g on [0, 6], mirrored
    def antideriv(t: np.ndarray) -> np.ndarray:
        # d/dt = g(t) for t >= 0
        return (t * (6.0 - 0.5 * t)
                + ((3.0 - 0.5 * t) * np.sin(c * t) - (2.0 / c) * (np.cos(c * t) - 1.0)) / c)

    edges = np.linspace(0.0, 6.0, n // 2 + 1)
    pos = (antideriv(edges[1:]) - antideriv(edges[:-1])) / math.sqrt(h)
    b = np.concatenate([pos[::-1], pos])
    return a, b


def gen_baart(n: int):
    """Galerkin box-function discretization of
    int_0^pi exp(s cos t) f(t) dt = 2 sinh(s)/s on s in [0, pi/2],
    solution f(t) = sin t. The s-integration is exact; the t-integration
    uses fixed-order Gauss-Legendre panels. n must be even, n >= 4.
    """
    if n < 4 or n % 2 != 0:
        raise ConfigurationError(f"baart requires even n >= 4, got {n}")
    _refuse_beyond_memory(n, (2 * n + 10) * _GL_ORDER * n)  # two n x n x Q arrays
    hs = 0.5 * math.pi / n
    ht = math.pi / n
    s_left = hs * np.arange(n)
    t_edges = ht * np.arange(n + 1)
    tq, tw = _gl_nodes(t_edges[:-1], t_edges[1:])       # (n, Q)
    u = np.cos(tq)                                      # kernel exponent factor

    # int_{s0}^{s0+hs} e^{s u} ds = hs * e^{s0 u} * E(hs u), E(w) = expm1(w)/w
    w = hs * u
    e = np.where(np.abs(w) < 1e-12, 1.0 + 0.5 * w, np.expm1(w) / np.where(w == 0.0, 1.0, w))
    inner = (tw * e)[None, :, :] * np.exp(s_left[:, None, None] * u[None, :, :])
    a = hs * inner.sum(axis=2) / math.sqrt(hs * ht)

    # rhs: cell averages of 2 sinh(s)/s (analytic; GL panels)
    s_edges = hs * np.arange(n + 1)
    sq, sw = _gl_nodes(s_edges[:-1], s_edges[1:])
    vals = 2.0 * np.sinh(sq) / sq
    b = (sw * vals).sum(axis=1) / math.sqrt(hs)
    return a, b


def gen_foxgood(n: int):
    """Midpoint-rule discretization of
    int_0^1 sqrt(s^2 + t^2) f(t) dt = ((1 + s^2)^{3/2} - s^3)/3 on [0, 1],
    solution f(t) = t.
    """
    if n < 4:
        raise ConfigurationError(f"foxgood requires n >= 4, got {n}")
    _refuse_beyond_memory(n, (2 * n + 16) * n)
    h = 1.0 / n
    t = h * (np.arange(1, n + 1) - 0.5)
    a = h * np.sqrt(t[:, None] ** 2 + t[None, :] ** 2)
    b = ((1.0 + t**2) ** 1.5 - t**3) / 3.0
    return a, b


_MATRIX_GENERATORS = {
    "phillips": gen_phillips,
    "baart": gen_baart,
    "foxgood": gen_foxgood,
}


def inverse_problem(which: str, n: int):
    try:
        gen = _MATRIX_GENERATORS[which]
    except KeyError:
        raise ConfigurationError(
            f"unknown inverse problem {which!r}; pick one of {sorted(_MATRIX_GENERATORS)}"
        )
    return gen(n)


# ---------------------------------------------------------------------------
# Bilevel instances
# ---------------------------------------------------------------------------


# Tiny constant weights of the surrogate problems whose minimizers give
# reference values; ReferenceTruth.notes records each one.
F_STAR_WEIGHT = 1e-9     # the f_star manufacture of rank_deficient_ls
PROJECTOR_WEIGHT = 1e-6  # the nonconvex instances' projector and h_star


def certify_l1_selection(w: np.ndarray, c: np.ndarray, mu: float, lam: float):
    """(x, gap, y) for min (mu/2)||x||^2 + lam*||x||_1 subject to W^T x = c,
    W with orthonormal columns: damped semismooth Newton on the dual
    max_y D(y) = y^T c - ||soft(W y, lam)||^2 / (2 mu) (Li, Sun & Toh, "A
    highly efficient semismooth Newton augmented Lagrangian method for
    solving Lasso problems", SIAM J. Optim. 2018), from y = mu*c, the answer
    at lam = 0. x = x(y) + W (c - W^T x(y)), x(y) = soft(W y, lam)/mu, is
    feasible by construction, and gap = primal(x) - D(y) bounds how far
    primal(x) lies above the optimum, but for rounding. W y is a subgradient
    of the objective at the optimum whose negative is normal to the feasible
    set. Newton ends at gap <= 1e-12*max(1, primal(x)) or after 200 steps.
    Its system carries the Levenberg term 1e-3*min(1, ||grad D||)/mu, and
    each step backtracks until D rises by 1e-4 of the predicted rise, less
    1e-15*|D| for rounding: plain Newton stalls where the active set flips,
    and near the optimum the rise sinks below what D resolves."""
    def dual(y):
        wy = w @ y
        x_y = prox_l1(lam, wy) / mu
        return float(y @ c) - 0.5 * mu * float(x_y @ x_y), wy, x_y

    y = mu * c
    value, wy, x_y = dual(y)
    for steps in range(201):
        grad = c - w.T @ x_y
        x = x_y + w @ grad
        primal = 0.5 * mu * float(x @ x) + lam * float(np.abs(x).sum())
        gap = primal - value
        if gap <= 1e-12 * max(1.0, primal) or steps == 200:
            return x, gap, y
        active = w[np.abs(wy) > lam]
        tau = 1e-3 * min(1.0, math.sqrt(grad @ grad)) / mu
        step = np.linalg.solve(active.T @ active / mu + tau * np.eye(c.size), grad)
        t, rise, floor = 1.0, float(grad @ step), value - 1e-15 * abs(value)
        while (trial := dual(y + t * step))[0] < floor + 1e-4 * t * rise and t > 1e-12:
            t *= 0.5
        y = y + t * step
        value, wy, x_y = trial


def _least_squares_selection(a: np.ndarray, b: np.ndarray, mu_f: float, lam: float):
    """(upper, lower, x_dag, h_dag) of min (mu_f/2)||x||^2 + lam*||x||_1 over
    argmin 0.5*||Ax - b||^2: the two composite objectives, the min-norm
    least-squares point x_dag (`min_norm_ls`) and the lower value there."""
    lower = CompositeObjective(LeastSquares(a, b), ZeroProx())
    upper = CompositeObjective(ScaledSqNorm(mu_f, dimension=a.shape[1]),
                               L1Prox(lam) if lam > 0 else ZeroProx())
    x_dag = min_norm_ls(a, b)
    return upper, lower, x_dag, lower.smooth.value(x_dag)


def gen_rank_deficient_ls(n: int, rank: Optional[int] = None, seed: int = 0,
                          mu_f: float = 1.0, lam: float = 0.1,
                          f_star_budget: int = 0) -> BilevelProblem:
    """Seeded A = U diag(1, 1/2, ..., 1/rank, 0, ...) V^T (rank n // 2 when
    not given) with b in range(A). Lower level 0.5*||Ax-b||^2 has the affine
    solution set {A x = b} = {W^T x = c}, W = V[:, :rank] and
    c = W^T x_dag, with exact projector and quadratic growth
    alpha = sigma_rank^2 / 2. Upper level (mu_f/2)||x||^2 + lam*||x||_1.

    The upper-level truth is certified for every lam >= 0 by
    `certify_l1_selection` on (W, c): x_star is its feasible point, f_star
    the upper value there, f_star_tol the duality gap plus
    1e-12*max(1, |f_star|) for rounding, and g* = W y. With
    f_star_budget > 0, x_star and f_star are instead manufactured by
    f_star_budget steps of `bilevel.accelerated_run` from the min-norm point
    at the tiny weight F_STAR_WEIGHT, and f_star_tol grows by their measured
    distance from the certified value (1.03e-3 at seed 7, n = 50, rank 25,
    lam = 0.1 and 100k steps). The manufacture survives only because the
    benchmark's pinned values were computed against it.
    """
    if rank is None:
        rank = n // 2
    if not (1 <= rank < n):
        raise ConfigurationError(f"rank must satisfy 1 <= rank < n, got {rank}")
    _refuse_beyond_memory(n, 12 * n * n)
    if isinstance(f_star_budget, bool) or not isinstance(f_star_budget, (int, np.integer)):
        raise ConfigurationError(f"f_star_budget must be an integer; got {f_star_budget!r}")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = 1.0 / np.arange(1.0, rank + 1.0)
    a = (u[:, :rank] * sigma) @ v[:, :rank].T
    b = a @ rng.standard_normal(n)

    upper, lower, x_dag, h_star = _least_squares_selection(a, b, mu_f, lam)
    null_basis = v[:, rank:]

    def project(x: np.ndarray) -> np.ndarray:
        return x_dag + null_basis @ (null_basis.T @ (x - x_dag))

    ref = ReferenceTruth(
        h_star=h_star, h_star_tol=1e-10,
        weak_sharp=WeakSharp(alpha=0.5 * sigma[-1] ** 2, order=2.0),
        projector=project, projector_kind="exact",
    )
    problem = BilevelProblem(upper, lower, reference=ref)

    w = v[:, :rank]
    ref.x_star, gap, y = certify_l1_selection(w, w.T @ x_dag, mu_f, lam)
    ref.f_star = upper.value(ref.x_star)
    ref.f_star_tol = gap + 1e-12 * max(1.0, abs(ref.f_star))
    g_star = w @ y
    ref.subgradient = SubgradientAtOpt(g_star, float(np.linalg.norm(g_star)))
    ref.notes.update(f_star_method="dual_newton", f_star_gap=gap)
    if f_star_budget > 0:
        (ref.x_star, _), = accelerated_run(problem, F_STAR_WEIGHT, x_dag, [f_star_budget])
        made = upper.value(ref.x_star)
        ref.f_star, ref.f_star_tol = made, ref.f_star_tol + abs(made - ref.f_star)
        ref.notes.update(f_star_method="manufactured", f_star_eta=F_STAR_WEIGHT,
                         f_star_budget=f_star_budget)
    return problem


def gen_l1_weak_sharp(n: int, c: np.ndarray) -> BilevelProblem:
    """Lower level ||x||_1 (solution set {0}, weak sharp of order 1 with
    alpha = 1), upper level 0.5*||x - c||^2. Everything about the solution
    is analytic: x* = 0, f* = ||c||^2/2, subgradient -c."""
    c = np.asarray(c, dtype=float)
    n = int(n)
    if c.shape != (n,):
        raise ConfigurationError("center c must have length n")
    lower = CompositeObjective(ZeroFunction(n), L1Prox(1.0))
    upper = CompositeObjective(ScaledSqNorm(1.0, center=c), ZeroProx())
    ref = ReferenceTruth(
        h_star=0.0, h_star_tol=1e-12,
        f_star=0.5 * float(c @ c), f_star_tol=1e-12,
        x_star=np.zeros(n),
        weak_sharp=WeakSharp(alpha=1.0, order=1.0),
        projector=lambda x: np.zeros(n), projector_kind="exact",
        subgradient=SubgradientAtOpt(-c, float(np.linalg.norm(c))),
    )
    return BilevelProblem(upper, lower, reference=ref)


def gen_sec61_inverse(which: str, n: int, mu_f: float = 1.0,
                      lam: float = 1.0) -> BilevelProblem:
    """The strongly convex selection problem on an ill-posed system:
    upper (mu_f/2)||x||^2 + lam*||x||_1 over the minimizers of
    0.5*||Ax - b||^2 for one of the Fredholm test matrices. The lower optimum
    is numerically 0 (b lies in the numerical range of A); no further truth
    is attached."""
    _refuse_beyond_memory(n, 9 * n * n)  # A, its SVD and LAPACK's work arrays
    upper, lower, _, h_at_dag = _least_squares_selection(*inverse_problem(which, n),
                                                         mu_f, lam)
    ref = ReferenceTruth(h_star=0.0, h_star_tol=max(1e-10, h_at_dag))
    return BilevelProblem(upper, lower, reference=ref)


def ls_ball_projector(svd, b: np.ndarray, radius: float,
                      eta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact tiny-weight projector for the lower level 0.5*||A u - b||^2 on
    the ball ||u|| <= radius, from svd = np.linalg.svd(A) (one factorization
    serves every weight): x -> the exact minimizer of
    0.5*||A u - b||^2 + (eta/2)*||u - x||^2 over the ball, the point the
    `ipr_vfista` inner loop approaches by iteration. That is
    V r / (d + mu) with r = s U^T b + eta V^T x and d = s^2 + eta, where the
    ball multiplier mu is 0 if this point lies in the ball and otherwise the
    root of the decreasing ||r / (d + mu)|| = radius (More & Sorensen,
    "Computing a trust region step", 1983).

    mu comes from Newton on the secular equation 1/||w|| = 1/radius,
    w = r / (d + mu), started at max(0, ||r||/radius - max d), which lies
    below the root; the function is concave, so the iterates rise, capped
    at ||r||/radius. Newton ends at the first mu whose w the ball holds, or
    at the last one below the root once a step stops rising, so ||u|| is
    radius to a few ulps: within 4.4e-16 of it on 900 unit-ball queries at
    PROJECTOR_WEIGHT (n = 32), in 3 to 12 norm evaluations. A finite r
    whose squares overflow takes ||r|| through r scaled by a power of two."""
    u_mat, s, vt = svd
    d = np.full(vt.shape[0], eta)  # rows past s.size: zero singular values of a wide A
    d[:s.size] += s * s
    sb = np.zeros(vt.shape[0])
    sb[:s.size] = s * (u_mat.T @ b)[:s.size]
    d_max = float(d.max())

    def norm(v: np.ndarray) -> float:
        # what np.linalg.norm computes for a 1-D float vector, without its dispatch
        return math.sqrt(v.dot(v))

    def multiplier(r: np.ndarray) -> float:
        hi = norm(r) / radius  # ||r / (d + hi)|| <= radius
        if math.isinf(hi):  # r's squares overflow
            scale = 2.0 ** (math.frexp(float(np.abs(r).max()))[1] - 1)
            hi = norm(r / scale) / radius * scale
        mu = max(0.0, hi - d_max)
        while True:  # Newton from below; at mu = 0 it ends if the ball holds r / d
            dm = d + mu
            w = r / dm
            ww = w.dot(w)
            if not math.sqrt(ww) > radius:
                return mu
            lo = mu
            mu = min(mu + (math.sqrt(ww) / radius - 1.0) * ww / w.dot(w / dm), hi)
            if not lo < mu:
                return lo

    def project(x: np.ndarray) -> np.ndarray:
        r = sb + eta * (vt @ x)
        with np.errstate(over="ignore"):  # squares past the float range
            mu = multiplier(r)
        return vt.T @ (r / (d + mu))

    return project


def gen_nonconvex_sec6(n: int, which: str = "phillips", delta: float = 1e-2,
                       epsilon: float = 1e-1) -> BilevelProblem:
    """Smooth nonconvex selection: upper objective the Moreau envelope of the
    log-sum penalty, lower level 0.5*||Ax - b||^2 restricted to the unit
    ball. Feasible start x0 = ones/sqrt(n). The documented approximate
    projector onto the solution set is the closed-form tiny-weight minimizer
    `ls_ball_projector` at PROJECTOR_WEIGHT, and h_star is the lower
    value at its image of x0.
    """
    _refuse_beyond_memory(n, 9 * n * n)  # as gen_sec61_inverse
    a, b = inverse_problem(which, n)
    lower = CompositeObjective(LeastSquares(a, b), BallProx(1.0))
    upper = CompositeObjective(MoreauLogSum(delta, epsilon, n), ZeroProx())
    x0 = np.ones(n) / math.sqrt(n)
    projector = ls_ball_projector(np.linalg.svd(a), b, 1.0, PROJECTOR_WEIGHT)
    x_ref = projector(x0)
    # the tiny-weight optimum overshoots h* by at most eta * 0.5*dist(x0, X*)^2
    d = x_ref - x0
    bias = PROJECTOR_WEIGHT * 0.5 * float(d @ d)
    ref = ReferenceTruth(
        h_star=lower.value(x_ref), h_star_tol=bias + 1e-10,
        projector=projector, projector_kind="approximate",
        notes={"h_star_method": "closed_form", "h_star_eta": PROJECTOR_WEIGHT,
               "projector_method": "closed_form", "projector_eta": PROJECTOR_WEIGHT},
    )
    return BilevelProblem(upper, lower, reference=ref, initial_point=x0)


# ---------------------------------------------------------------------------
# Instance registry (drives the harness) and file round-trip
# ---------------------------------------------------------------------------


def _gen_l1_weak_sharp_seeded(n: int, seed: int = 0) -> BilevelProblem:
    """`gen_l1_weak_sharp` with a standard normal center drawn from `seed`."""
    _refuse_beyond_memory(n, 5 * n)
    return gen_l1_weak_sharp(n, np.random.default_rng(seed).standard_normal(n))


# The instance keys that must be positive; the other ones must be >= 0.
_POSITIVE_KEYS = ("n", "rank", "mu_f", "delta", "epsilon")

# name -> (generator, fixed arguments). Every other generator parameter but
# n is an instance key: its annotation is the key's kind and its default the
# default.
_INSTANCES = {
    "rank_deficient_ls": (gen_rank_deficient_ls, {}),
    "l1_weak_sharp": (_gen_l1_weak_sharp_seeded, {}),
    **{f"sec61_{w}": (gen_sec61_inverse, {"which": w}) for w in _MATRIX_GENERATORS},
    **{f"nonconvex_{w}": (gen_nonconvex_sec6, {"which": w}) for w in _MATRIX_GENERATORS},
}


@functools.cache
def _parameter_kinds(generator) -> dict:
    """The kind of each parameter of `generator` but n, read from its
    signature at its first build: the annotation, where Optional[int]
    counts as int."""
    return {key: (get_args(p.annotation) or (p.annotation,))[0]
            for key, p in inspect.signature(generator, eval_str=True).parameters.items()
            if key != "n"}


def build_instance(spec: InstanceSpec) -> BilevelProblem:
    """Build a bilevel problem from a named instance specification. Only the
    keys present are parsed; any key the instance does not take, a value out
    of its range and an n too large to allocate are refused, naming the key."""
    try:
        generator, fixed = _INSTANCES[spec.name]
    except KeyError:
        raise ConfigurationError(f"unknown instance name {spec.name!r}")
    kinds = {key: kind for key, kind in _parameter_kinds(generator).items()
             if key not in fixed}
    params = dict(spec.params)
    if spec.seed is not None:
        params["seed"] = spec.seed
    values = {"n": spec.n, **typed_items(params, kinds, f"{spec.name} instance key")}
    for key, value in values.items():
        if value < 0 or value == 0 and key in _POSITIVE_KEYS:
            must = "positive" if key in _POSITIVE_KEYS else "non-negative"
            raise ConfigurationError(f"instance key {key!r} must be {must}; got {value!r}")
    try:
        return generator(**fixed, **values)
    except MemoryError as exc:
        raise ConfigurationError(f"instance.n = {spec.n} is too large: {exc}") from None


def read_text_lines(path) -> list[str]:
    """The lines of the UTF-8 file at path (every text input is read here);
    a ParseError names the path and the line of a byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid utf-8: {exc.reason}",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _content_lines(lines):
    """(lineno, text) of each line of a text input that holds more than a
    comment: '#' starts a comment, the rest is stripped, a blank rest is
    skipped and line numbers count from 1. Configs, instance-file headers
    and suites are read this way."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_kv_lines(lines) -> dict:
    """Flat "key = value" lines (`parse_items`, one item a line), read by
    `_content_lines`. A ParseError names the line."""
    out: dict[str, str] = {}
    for lineno, line in _content_lines(lines):
        try:
            out.update(parse_items([line], "entry", out))
        except ConfigurationError as exc:
            raise ParseError(str(exc), lineno) from None
    return out


def save_instance(path, name: str, params: dict, a: Optional[np.ndarray],
                  b: np.ndarray) -> None:
    """Write "key = value" header lines, a blank line, the matrix block
    ("0 0" when absent), a blank line, then the vector block."""
    lines = [f"name = {name}"]
    for key in sorted(params):
        lines.append(f"{key} = {params[key]}")
    header = "\n".join(lines)
    matrix_block = format_matrix(a) if a is not None else "0 0\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n\n" + matrix_block + "\n" + format_vector(b))


def load_instance(path):
    """Inverse of save_instance: returns (name, params, A or None, b)."""
    lines = read_text_lines(path)
    i = 0
    while i < len(lines) and lines[i].strip():
        i += 1
    params = parse_kv_lines(lines[:i])
    name = params.pop("name", None)
    if name is None:
        raise ParseError("missing 'name = ...' header line", 1)
    i += 1  # skip blank
    if i >= len(lines):
        raise ParseError("missing matrix block", i + 1)
    if lines[i].split() == ["0", "0"]:
        a = None
        i += 1
    else:  # the header's row count says where the block ends
        a = parse_matrix_lines(lines[i:], first_lineno=i + 1)
        i += a.shape[0] + 1
    if i >= len(lines) or lines[i].strip():
        raise ParseError("expected a blank line before the vector block", i + 1)
    i += 1
    vec = parse_matrix_lines(lines[i:], first_lineno=i + 1)
    if vec.shape[0] != 1:
        raise ParseError("vector block must have header '1 n'", i + 1)
    for lineno, line in enumerate(lines[i + 2:], start=i + 3):
        if line.strip():
            raise ParseError(f"unexpected line after the vector block: {line!r}", lineno)
    return name, params, a, vec[0]


def generate_instance_arrays(spec: InstanceSpec):
    """(A, b) arrays for `save_instance`: a Fredholm system by name, or the
    data of the built instance (A and b of rank_deficient_ls; no matrix and
    the center c for l1_weak_sharp)."""
    if spec.name in _MATRIX_GENERATORS:
        if spec.params or spec.seed is not None:
            raise ConfigurationError(f"{spec.name} takes no parameter but n")
        return inverse_problem(spec.name, spec.n)
    if spec.name in _INSTANCES and spec.name not in ("rank_deficient_ls", "l1_weak_sharp"):
        raise ConfigurationError(f"no array form for instance {spec.name!r}")
    problem = build_instance(spec)  # which refuses an unknown name
    if spec.name == "rank_deficient_ls":
        return problem.lower.smooth.a, problem.lower.smooth.b
    return None, problem.upper.smooth.center
