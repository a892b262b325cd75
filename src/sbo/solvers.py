"""The three regularized prox-gradient solvers plus a plain accelerated
baseline for single composite objectives. The manufactured `f_star` of
`problems.gen_rank_deficient_ls` comes from `solve_r_vfista`, not from the
baseline.

* `solve_ir_ista`   -- single-loop prox-gradient on the surrogate with a
  per-iteration regularization weight and geometric iterate averaging;
  covers both the diminishing-weight and constant-weight variants.
* `solve_r_vfista`  -- the accelerated variant with a constant weight and
  strong-convexity momentum.
* `solve_ipr_vfista` -- outer gradient loop on a (possibly nonconvex) smooth
  upper objective with inexact projection onto the lower solution set,
  each projection performed by a budgeted inner run of the accelerated
  variant.
* `solve_fista_baseline` -- standard FISTA on a single composite objective.

Every solver is deterministic given its configuration and emits a trace of
per-iteration records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .bilevel import BilevelProblem, CompositeObjective, projection_problem
from .errors import ConfigurationError, DivergenceError
from . import metrics as _metrics

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Regularization schedules.
#
# A schedule's resolve(gamma, L_f, L_h, mu_f, K) checks its feasibility
# conditions and returns (eta_fn, params): eta_fn(k) is eta_k, and params
# echo the resolved schedule into the run report.
# ---------------------------------------------------------------------------


@dataclass
class DiminishingSchedule:
    """eta_k = eta0_u / (eta0_l + k) with eta0_u = 1/(gamma*mu_f) and
    eta0_l = 2*L_f/mu_f. The two parameters are derived, not free."""

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        u, l = 1.0 / (gamma * mu_f), 2.0 * l_f / mu_f
        if l <= 1.0:
            raise ConfigurationError(
                "diminishing schedule requires 2*L_f/mu_f > 1 (mu_f <= L_f gives >= 2)"
            )
        return (lambda k: u / (l + k),
                {"schedule": "diminishing", "eta0_u": u, "eta0_l": l})


@dataclass
class ConstantIstaSchedule:
    """Constant eta = (p+1)*ln(K) / (gamma*mu_f*K); feasible only when
    K/ln(K) >= 2*(p+1)*L_f/mu_f."""

    p: float
    big_k: Optional[int] = None

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if self.p <= 0:
            raise ConfigurationError("constant-regularization schedule requires p > 0")
        big_k = self.big_k if self.big_k is not None else big_k
        if big_k <= 1:
            raise ConfigurationError("constant-regularization schedule requires K > 1")
        lhs = big_k / math.log(big_k)
        rhs = 2.0 * (self.p + 1.0) * l_f / mu_f
        if lhs < rhs:
            raise ConfigurationError(
                "constant-regularization feasibility violated: requires "
                f"K/ln(K) >= 2*(p+1)*L_f/mu_f; got {lhs:.6g} < {rhs:.6g}"
            )
        eta = (self.p + 1.0) * math.log(big_k) / (gamma * mu_f * big_k)
        return (lambda k: eta,
                {"schedule": "constant_ista", "p": self.p, "K": big_k, "eta": eta})


@dataclass
class ConstantVfistaSchedule:
    """Constant eta = ((L_h + eta_bar*L_f)/mu_f) * ((p+1)*ln(K)/K)^2 for the
    accelerated solver; feasible only when
    (K/ln(K))^2 >= (L_h + eta_bar*L_f)*(p+1)^2 / (mu_f*eta_bar)."""

    p: float
    eta_bar: float = 1.0
    big_k: Optional[int] = None

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if self.p <= 2:
            raise ConfigurationError("accelerated constant schedule requires p > 2")
        if self.eta_bar <= 0:
            raise ConfigurationError("accelerated constant schedule requires eta_bar > 0")
        big_k = self.big_k if self.big_k is not None else big_k
        if big_k <= 1:
            raise ConfigurationError("accelerated constant schedule requires K > 1")
        lhs = (big_k / math.log(big_k)) ** 2
        rhs = (l_h + self.eta_bar * l_f) * (self.p + 1.0) ** 2 / (mu_f * self.eta_bar)
        if lhs < rhs:
            raise ConfigurationError(
                "accelerated constant-regularization feasibility violated: requires "
                f"(K/ln(K))^2 >= (L_h + eta_bar*L_f)*(p+1)^2/(mu_f*eta_bar); "
                f"got {lhs:.6g} < {rhs:.6g}"
            )
        eta = ((l_h + self.eta_bar * l_f) / mu_f) * (
            (self.p + 1.0) * math.log(big_k) / big_k
        ) ** 2
        return (lambda k: eta,
                {"schedule": "constant_vfista", "p": self.p,
                 "eta_bar": self.eta_bar, "K": big_k, "eta": eta})


@dataclass
class FixedEtaSchedule:
    """A user-supplied constant eta (e.g. the weak-sharp threshold)."""

    eta: float

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if self.eta <= 0:
            raise ConfigurationError("fixed schedule requires eta > 0")
        eta = self.eta
        return lambda k: eta, {"schedule": "fixed", "eta": eta}


Schedule = Union[
    DiminishingSchedule, ConstantIstaSchedule, ConstantVfistaSchedule, FixedEtaSchedule
]


def schedule_eta(schedule: Schedule, k: int, gamma: float, l_f: float,
                 l_h: float, mu_f: float) -> float:
    """Evaluate a schedule's eta_k after validating its feasibility
    conditions; constant variants read K from the schedule itself."""
    eta_fn, _ = schedule.resolve(gamma, l_f, l_h, mu_f, getattr(schedule, "big_k", 0) or 0)
    return eta_fn(k)


# ---------------------------------------------------------------------------
# Configurations, trace records, reports
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Shared configuration for the single-loop solvers.

    gamma may be the string "auto": the averaging solver then uses 0.5/L_h
    (the hypothesis under which the diminishing/constant schedules are
    derived; 1/(2*L_f) if L_h == 0) for scheduled runs and 1/(L_h + eta*L_f)
    for fixed-eta runs, while the accelerated solver always uses exactly
    1/(L_h + eta*L_f).
    """

    big_k: int
    schedule: Schedule
    gamma: Union[str, float] = "auto"
    trace_every: Optional[int] = None  # None -> geometric grid of ~200 points
    x0: Optional[np.ndarray] = None


@dataclass
class NcConfig:
    """Configuration of the inexactly projected outer-loop solver."""

    big_k: int
    a: int = 2
    eta_bar: float = 1.0
    box_lower: float = -10.0
    box_upper: float = 10.0
    allow_large_step: bool = False


@dataclass
class TraceRecord:
    k: int
    eta: Optional[float]
    theta: Optional[float]
    f_bar: float
    h_bar: float
    infeas: Optional[float]
    subopt: Optional[float]
    dist_xstar_sq: Optional[float]
    dist_lower: Optional[float]
    residual_sq: Optional[float]
    elapsed_ns: int


@dataclass
class RunReport:
    solver: str
    config: dict
    x_final: np.ndarray
    trace: list
    extras: dict = field(default_factory=dict)
    rate_fits: dict = field(default_factory=dict)
    wall_ns: int = 0
    schema_version: int = SCHEMA_VERSION


def geometric_trace_ks(big_k: int, n_points: int = 200) -> list[int]:
    """~n_points log-spaced integers in [1, K], always including 1 and K."""
    if big_k <= n_points:
        return list(range(1, big_k + 1))
    ks = np.unique(np.round(np.geomspace(1.0, float(big_k), n_points)).astype(int))
    return [int(k) for k in ks]


def _trace_ks(cfg: SolverConfig) -> set[int]:
    if cfg.trace_every is not None:
        if cfg.trace_every < 1:
            raise ConfigurationError("trace_every must be >= 1")
        ks = set(range(cfg.trace_every, cfg.big_k + 1, cfg.trace_every))
        ks.add(cfg.big_k)
        return ks
    return set(geometric_trace_ks(cfg.big_k))


def _eval_record(problem: BilevelProblem, x: np.ndarray, k: int, eta, theta,
                 t0: int, gamma_hat: Optional[float] = None,
                 with_dist: bool = False, with_residual: bool = False) -> TraceRecord:
    ref = problem.reference
    f_bar = problem.upper.value(x)
    h_bar = problem.lower.value(x)
    infeas = _metrics.infeasibility(problem, x, h_bar)
    subopt = _metrics.suboptimality(problem, x, f_bar)
    dist_xsq = dist_lower = residual_sq = None
    if ref is not None:
        if ref.x_star is not None:
            d = x - ref.x_star
            dist_xsq = float(d @ d)
        if with_dist or ref.projector_kind == "exact":
            dist_lower = _metrics.dist_to_lower_set(problem, x)
        if with_residual and ref.projector is not None and gamma_hat is not None:
            g = _metrics.residual_norm(problem, x, gamma_hat)
            residual_sq = g * g
    return TraceRecord(
        k=k, eta=eta, theta=theta, f_bar=f_bar, h_bar=h_bar, infeas=infeas,
        subopt=subopt, dist_xstar_sq=dist_xsq, dist_lower=dist_lower,
        residual_sq=residual_sq, elapsed_ns=time.perf_counter_ns() - t0,
    )


def _check_finite(x: np.ndarray, k: int, last: np.ndarray, solver: str,
                  trace: Optional[list] = None, inner: Optional[int] = None,
                  what: str = "iterate"):
    # x.dot(x) is finite only if every entry is; the full test settles the
    # rare finite x whose squares overflow
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        if inner is not None:
            what = f"inner iterate {inner}"
        raise DivergenceError(
            f"{solver}: non-finite {what} at step {k}", k=k, last_finite=last,
            trace=trace,
        )


def _resolve_x0(problem: BilevelProblem, x0) -> np.ndarray:
    if x0 is None:
        return np.array(problem.initial_point, copy=True)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ConfigurationError("x0 has the wrong length for this problem")
    return np.array(x0, copy=True)


# ---------------------------------------------------------------------------
# Averaging solver (diminishing or constant regularization weight)
# ---------------------------------------------------------------------------


def solve_ir_ista(problem: BilevelProblem, cfg: SolverConfig,
                  callback: Optional[Callable] = None) -> RunReport:
    """Prox-gradient on the regularized surrogate with weighted averaging.

    Per iteration: x_{k+1} = q_step(eta_k, gamma, x_k), then the running
    average x_bar is advanced with weight eta_k * theta_k, where
    theta_{k+1} = theta_k / (1 - eta_{k+1}*gamma*mu_f). Returns the averaged
    iterate; the trace reports metrics of the average.
    """
    upper, lower = problem.upper.smooth, problem.lower.smooth
    mu_f, l_f, l_h = upper.strong_convexity, upper.lipschitz, lower.lipschitz
    if mu_f <= 0 or upper.nonconvex:
        raise ConfigurationError(
            "averaging solver requires a strongly convex smooth upper part (mu_f > 0)"
        )
    if isinstance(cfg.schedule, ConstantVfistaSchedule):
        raise ConfigurationError(
            "the accelerated constant schedule belongs to the accelerated solver"
        )
    if cfg.big_k < 1:
        raise ConfigurationError("K must be >= 1")

    if cfg.gamma == "auto":
        if isinstance(cfg.schedule, FixedEtaSchedule):
            gamma = 1.0 / (l_h + cfg.schedule.eta * l_f)
            if cfg.schedule.eta * gamma * mu_f >= 1.0:
                gamma *= 0.5  # keep 1 - eta*gamma*mu_f > 0 in the corner mu_f = L_f, L_h = 0
        else:
            gamma = 0.5 / l_h if l_h > 0 else 0.5 / l_f
    else:
        gamma = float(cfg.gamma)
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")

    eta_of, sched_params = cfg.schedule.resolve(gamma, l_f, l_h, mu_f, cfg.big_k)
    eta0 = eta_of(0)
    if gamma > 1.0 / (l_h + eta0 * l_f) * (1 + 1e-12):
        raise ConfigurationError(
            "stepsize bound violated: requires gamma <= 1/(L_h + eta_0*L_f); "
            f"got {gamma:.6g} > {1.0 / (l_h + eta0 * l_f):.6g}"
        )
    if eta0 * gamma * mu_f >= 1.0:
        raise ConfigurationError(
            "averaging weights require eta_0*gamma*mu_f < 1; "
            f"got {eta0 * gamma * mu_f:.6g}"
        )

    t0 = time.perf_counter_ns()
    x = _resolve_x0(problem, cfg.x0)
    step = problem.step_map(gamma)
    theta = 1.0 / (1.0 - eta0 * gamma * mu_f)
    gamma_sum = 0.0  # running sum of theta_j * eta_j
    x_bar = x.copy()
    trace_at = _trace_ks(cfg)
    trace: list[TraceRecord] = []
    theta_prev = theta

    for k in range(cfg.big_k):
        eta_k = eta_of(k)
        x_next = step(eta_k, x)
        _check_finite(x_next, k, x, "averaging solver", trace)
        w = eta_k * theta
        gamma_sum_next = gamma_sum + w
        x_bar = (gamma_sum * x_bar + w * x_next) / gamma_sum_next
        theta_prev = theta
        gamma_sum = gamma_sum_next
        theta = theta / (1.0 - eta_of(k + 1) * gamma * mu_f)
        x = x_next
        if callback is not None:
            callback(k + 1, x=x, x_bar=x_bar, eta=eta_k, theta=theta_prev,
                     gamma_sum=gamma_sum)
        if (k + 1) in trace_at:
            trace.append(_eval_record(problem, x_bar, k + 1, eta_k, theta_prev, t0))

    cfg_echo = {"solver": "ir_ista", "K": cfg.big_k, "gamma": gamma, **sched_params}
    return RunReport(
        solver="ir_ista", config=cfg_echo, x_final=x_bar, trace=trace,
        extras={"x_last": x, "Gamma_K": gamma_sum, "theta_last": theta_prev},
        wall_ns=time.perf_counter_ns() - t0,
    )


# ---------------------------------------------------------------------------
# Accelerated solver (constant regularization weight)
# ---------------------------------------------------------------------------


def solve_r_vfista(problem: BilevelProblem, cfg: SolverConfig,
                   callback: Optional[Callable] = None) -> RunReport:
    """Accelerated prox-gradient on the surrogate with constant weight eta,
    stepsize exactly 1/(L_h + eta*L_f), and momentum factor
    (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = (L_h + eta*L_f)/(eta*mu_f).
    Returns the last iterate (no averaging).
    """
    upper, lower = problem.upper.smooth, problem.lower.smooth
    mu_f, l_f, l_h = upper.strong_convexity, upper.lipschitz, lower.lipschitz
    if mu_f <= 0 or upper.nonconvex:
        raise ConfigurationError(
            "accelerated solver requires a strongly convex smooth upper part (mu_f > 0)"
        )
    if not isinstance(cfg.schedule, (ConstantVfistaSchedule, FixedEtaSchedule)):
        raise ConfigurationError(
            "accelerated solver takes the accelerated constant schedule or an explicit eta"
        )
    if cfg.big_k < 1:
        raise ConfigurationError("K must be >= 1")
    eta_of, sched_params = cfg.schedule.resolve(0.0, l_f, l_h, mu_f, cfg.big_k)
    eta = eta_of(0)
    gamma = 1.0 / (l_h + eta * l_f)
    if cfg.gamma != "auto" and not math.isclose(float(cfg.gamma), gamma, rel_tol=1e-12):
        raise ConfigurationError(
            "accelerated solver uses gamma = 1/(L_h + eta*L_f) exactly; "
            f"leave gamma = 'auto' (would be {gamma:.6g})"
        )
    kappa = (l_h + eta * l_f) / (eta * mu_f)
    momentum = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)

    t0 = time.perf_counter_ns()
    x = _resolve_x0(problem, cfg.x0)
    y = x.copy()
    step = problem.step_map(gamma)
    trace_at = _trace_ks(cfg)
    trace: list[TraceRecord] = []

    for k in range(cfg.big_k):
        x_next = step(eta, y)
        _check_finite(x_next, k, x, "accelerated solver", trace)
        y = x_next + momentum * (x_next - x)
        x = x_next
        if callback is not None:
            callback(k + 1, x=x, y=y, eta=eta)
        if (k + 1) in trace_at:
            trace.append(_eval_record(problem, x, k + 1, eta, None, t0))

    cfg_echo = {
        "solver": "r_vfista", "K": cfg.big_k, "gamma": gamma, "kappa": kappa,
        "momentum": momentum, **sched_params,
    }
    return RunReport(
        solver="r_vfista", config=cfg_echo, x_final=x, trace=trace,
        extras={"y_last": y},
        wall_ns=time.perf_counter_ns() - t0,
    )


# ---------------------------------------------------------------------------
# Inexactly projected outer loop for a smooth (possibly nonconvex) upper part
# ---------------------------------------------------------------------------

# Number of outer indices at which the projector-based dist_lower column is
# evaluated (log-spaced, plus K).
DIST_POINTS = 12
# Cap on the inner iterations sum_k (k+1)^a of one run.
MAX_TOTAL_INNER = 2_000_000


def solve_ipr_vfista(problem: BilevelProblem, cfg: NcConfig,
                     callback: Optional[Callable] = None) -> RunReport:
    """Outer gradient steps z_k = xhat_k - gamma_hat * grad f(xhat_k), each
    followed by an inexact projection of z_k onto the lower solution set:
    J_k = (k+1)^a inner iterations of the accelerated solver applied to the
    pair (lower objective, 0.5*||. - z_k||^2) with the published weight
    eta_k = 16*(L_h + eta_bar) * (ln J_k / J_k)^2.

    The report's extras carry the minimum of the squared residual-map norm
    over the window k in [floor(K/2), K-1] plus its index and iterate. A
    non-finite z_k or inner iterate raises DivergenceError at the outer
    index k, with the trace up to k.
    """
    upper, lower = problem.upper.smooth, problem.lower.smooth
    if upper.lipschitz <= 0 or not math.isfinite(upper.lipschitz):
        raise ConfigurationError("outer loop requires a finite L_f > 0")
    if lower.nonconvex:
        raise ConfigurationError("lower-level smooth part must be convex")
    if problem.upper.nonsmooth.kind != "zero":
        raise ConfigurationError(
            "outer solver addresses problems with no upper nonsmooth term"
        )
    if cfg.big_k < 1:
        raise ConfigurationError("K must be >= 1")
    if cfg.a < 2 or int(cfg.a) != cfg.a:
        raise ConfigurationError("inner-budget exponent requires integer a >= 2")
    if cfg.eta_bar <= 0:
        raise ConfigurationError("eta_bar must be positive")

    l_f, l_h = upper.lipschitz, lower.lipschitz
    big_k = cfg.big_k
    gamma_hat = 1.0 / math.sqrt(big_k)
    if gamma_hat > 1.0 / (2.0 * l_f) and not cfg.allow_large_step:
        raise ConfigurationError(
            "outer stepsize bound violated: requires gamma_hat = 1/sqrt(K) <= 1/(2*L_f), "
            f"i.e. K >= 4*L_f^2 = {4.0 * l_f * l_f:.6g}; got K = {big_k} "
            f"(gamma_hat = {gamma_hat:.6g} > {1.0 / (2.0 * l_f):.6g}). "
            "Set allow_large_step to run anyway."
        )
    a = int(cfg.a)
    total_inner = sum((k + 1) ** a for k in range(big_k))
    if total_inner > MAX_TOTAL_INNER:
        raise ConfigurationError(
            f"inner budget sum_k (k+1)^a = {total_inner} exceeds the cap "
            f"{MAX_TOTAL_INNER}; lower K or a"
        )

    ref = problem.reference
    projector = ref.projector if ref is not None else None
    window_start = big_k // 2
    dist_ks = set(geometric_trace_ks(big_k, DIST_POINTS)) | {big_k}
    box_lower = np.full(problem.dimension, float(cfg.box_lower))
    box_upper = np.full(problem.dimension, float(cfg.box_upper))
    if np.any(box_lower >= box_upper):
        raise ConfigurationError("box bounds require box_lower < box_upper")

    t0 = time.perf_counter_ns()
    xhat = np.array(problem.initial_point, copy=True)
    start = np.clip(xhat, box_lower, box_upper)
    trace: list[TraceRecord] = [
        _eval_record(problem, xhat, 0, None, None, t0, gamma_hat=gamma_hat,
                     with_dist=projector is not None, with_residual=False)
    ]
    best = {"residual_sq": math.inf, "k": -1, "x": xhat.copy()}

    for k in range(big_k):
        grad_f = upper.gradient(xhat)
        z = xhat - gamma_hat * grad_f
        _check_finite(z, k, xhat, "outer solver", trace, what="gradient step z")
        j_budget = (k + 1) ** a
        ln_j = max(math.log(j_budget), math.log(2.0))  # J_0 = 1 would give eta = 0
        eta_k = 16.0 * (l_h + cfg.eta_bar) * (ln_j / j_budget) ** 2
        kappa_k = (l_h + eta_k) / eta_k
        gamma_k = 1.0 / (l_h + eta_k)
        momentum = (math.sqrt(kappa_k) - 1.0) / (math.sqrt(kappa_k) + 1.0)

        step = projection_problem(problem.lower, z, initial_point=start).step_map(gamma_k)
        x_prev = start
        y = start
        x_cur = start
        for j in range(j_budget):
            x_cur = step(eta_k, y)
            _check_finite(x_cur, k, xhat, "outer solver", trace, inner=j)
            y = x_cur + momentum * (x_cur - x_prev)
            x_prev = x_cur

        xhat = x_cur
        start = np.clip(x_cur, box_lower, box_upper)
        want_residual = projector is not None and k >= window_start
        want_dist = projector is not None and (k + 1) in dist_ks
        rec = _eval_record(
            problem, xhat, k + 1, eta_k, None, t0, gamma_hat=gamma_hat,
            with_dist=want_dist, with_residual=want_residual,
        )
        trace.append(rec)
        if want_residual and rec.residual_sq < best["residual_sq"]:
            best = {"residual_sq": rec.residual_sq, "k": k, "x": xhat.copy()}
        if callback is not None:
            callback(k + 1, x_hat=xhat, z=z, eta=eta_k, j_budget=j_budget)

    cfg_echo = {
        "solver": "ipr_vfista", "K": big_k, "a": a, "eta_bar": cfg.eta_bar,
        "gamma_hat": gamma_hat, "box_lower": cfg.box_lower,
        "box_upper": cfg.box_upper, "total_inner": total_inner,
        "allow_large_step": cfg.allow_large_step,
    }
    extras = {"total_inner": total_inner}
    if best["k"] >= 0:
        extras.update(
            best_residual_sq=best["residual_sq"], best_residual_k=best["k"],
            x_best_residual=best["x"],
        )
    return RunReport(
        solver="ipr_vfista", config=cfg_echo, x_final=xhat, trace=trace,
        extras=extras, wall_ns=time.perf_counter_ns() - t0,
    )


# ---------------------------------------------------------------------------
# Plain accelerated baseline on a single composite objective
# ---------------------------------------------------------------------------


def solve_fista_baseline(obj: CompositeObjective, big_k: int, gamma: float,
                         x0: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """Standard accelerated prox-gradient on one composite convex objective
    with t-sequence momentum and best-value tracking. Returns the best
    iterate seen and its objective value.
    """
    if gamma <= 0 or (obj.smooth.lipschitz > 0 and gamma > 1.0 / obj.smooth.lipschitz * (1 + 1e-12)):
        raise ConfigurationError(
            f"baseline requires 0 < gamma <= 1/L = {1.0 / max(obj.smooth.lipschitz, 1e-300):.6g}"
        )
    if obj.smooth.nonconvex:
        raise ConfigurationError("baseline requires a convex objective")
    x = np.ones(obj.dimension) if x0 is None else np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    best_x, best_v = x.copy(), obj.value(x)
    for k in range(big_k):
        x_next = obj.nonsmooth.prox(gamma, y - gamma * obj.smooth.gradient(y))
        _check_finite(x_next, k, x, "baseline")
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        v = obj.value(x)
        if v < best_v:
            best_v, best_x = v, x.copy()
    return best_x, best_v
