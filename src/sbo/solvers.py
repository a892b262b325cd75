"""The three regularized prox-gradient solvers plus a plain accelerated
baseline for single composite objectives.

* `solve_ir_ista`   -- single-loop prox-gradient on the surrogate with a
  per-iteration regularization weight and geometric iterate averaging;
  covers both the diminishing-weight and constant-weight variants.
* `solve_r_vfista`  -- the accelerated variant with a constant weight and
  strong-convexity momentum.
* `solve_ipr_vfista` -- outer gradient loop on a (possibly nonconvex) smooth
  upper objective with inexact projection onto the lower solution set,
  each projection performed by a budgeted inner run of the accelerated
  variant (`bilevel.accelerated_run`, as for the iterative references).
* `solve_fista_baseline` -- standard FISTA on a single composite objective.

Every solver is deterministic given its configuration and emits a trace of
per-iteration records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .bilevel import (BilevelProblem, CompositeObjective, accelerated_constants,
                      accelerated_run, check_finite, projection_problem,
                      require_strongly_convex_upper)
from .errors import ConfigurationError, DivergenceError
from . import metrics as _metrics
from .prox import _clip

SCHEMA_VERSION = 1

# The bound eta_bar in the weights of `solve_r_vfista` and `solve_ipr_vfista`,
# and the exponent a of the inner budgets J_k = (k+1)^a of `solve_ipr_vfista`.
ETA_BAR = 1.0
INNER_BUDGET_EXPONENT = 2


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

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if not self.p > 0:
            raise ConfigurationError("constant-regularization schedule requires p > 0")
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
    accelerated solver, with eta_bar = ETA_BAR; feasible only when
    (K/ln(K))^2 >= (L_h + eta_bar*L_f)*(p+1)^2 / (mu_f*eta_bar)."""

    p: float

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if not self.p > 2:
            raise ConfigurationError("accelerated constant schedule requires p > 2")
        if big_k <= 1:
            raise ConfigurationError("accelerated constant schedule requires K > 1")
        lhs = (big_k / math.log(big_k)) ** 2
        rhs = (l_h + ETA_BAR * l_f) * (self.p + 1.0) ** 2 / (mu_f * ETA_BAR)
        if lhs < rhs:
            raise ConfigurationError(
                "accelerated constant-regularization feasibility violated: requires "
                f"(K/ln(K))^2 >= (L_h + eta_bar*L_f)*(p+1)^2/(mu_f*eta_bar); "
                f"got {lhs:.6g} < {rhs:.6g}"
            )
        eta = ((l_h + ETA_BAR * l_f) / mu_f) * (
            (self.p + 1.0) * math.log(big_k) / big_k
        ) ** 2
        return (lambda k: eta,
                {"schedule": "constant_vfista", "p": self.p,
                 "eta_bar": ETA_BAR, "K": big_k, "eta": eta})


@dataclass
class FixedEtaSchedule:
    """A user-supplied constant eta (e.g. the weak-sharp threshold)."""

    eta: float

    def resolve(self, gamma: float, l_f: float, l_h: float, mu_f: float, big_k: int):
        if not self.eta > 0:
            raise ConfigurationError("fixed schedule requires eta > 0")
        eta = self.eta
        return lambda k: eta, {"schedule": "fixed", "eta": eta}


Schedule = Union[
    DiminishingSchedule, ConstantIstaSchedule, ConstantVfistaSchedule, FixedEtaSchedule
]


# ---------------------------------------------------------------------------
# Configurations, trace records, reports
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Shared configuration for the single-loop solvers.

    gamma may be the string "auto": the averaging solver then uses 0.5/L_h
    (the hypothesis under which the diminishing/constant schedules are
    derived; 1/(2*L_f) if L_h == 0) for scheduled runs and 1/(L_h + eta*L_f)
    for fixed-eta runs. The accelerated solver always uses exactly
    1/(L_h + eta*L_f) and takes no other gamma than "auto".
    """

    big_k: int
    schedule: Schedule
    gamma: Union[str, float] = "auto"
    trace_every: Optional[int] = None  # None -> geometric grid of ~200 points


@dataclass
class NcConfig:
    """Configuration of the inexactly projected outer-loop solver; its inner
    budgets and weights are fixed by INNER_BUDGET_EXPONENT and ETA_BAR."""

    big_k: int
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
    metrics_ns: int = 0
    build_ns: int = 0  # set by cli.run_from_config: the instance build's time


def trace_stops(big_k: int, every: Optional[int] = None) -> list[int]:
    """The sorted steps at which a run of K >= 1 steps records: every
    `every`-th step plus K, or, when every is None, ~200 log-spaced steps
    in [1, K] that include 1 and K."""
    if big_k < 1:
        raise ConfigurationError("K must be >= 1")
    if every is not None:
        if every < 1:
            raise ConfigurationError("trace_every must be >= 1")
        return sorted({*range(every, big_k + 1, every), big_k})
    if big_k <= 200:
        return list(range(1, big_k + 1))
    ks = np.unique(np.round(np.geomspace(1.0, float(big_k), 200)).astype(int))
    return [int(k) for k in ks]


class _Run:
    """One solver run's record keeper: its trace, its clock and its report.
    The time since the run began splits into the time spent evaluating
    trace records (metrics_ns) and the solver's own time. A DivergenceError
    that leaves its `with` block carries the run's trace so far and its
    resolved config."""

    def __init__(self, problem: BilevelProblem, config: dict):
        self.problem, self.config, self.trace = problem, config, []
        self.t0, self.metrics_ns = time.perf_counter_ns(), 0

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, DivergenceError):
            exc.trace, exc.config = self.trace, self.config

    def record(self, x: np.ndarray, k: int, eta, theta,
               gamma_hat: Optional[float] = None) -> TraceRecord:
        """Appends the trace record of x at step k and returns it; its
        elapsed_ns is the solver time so far, and the time the record takes
        goes to metrics_ns. The projector columns are evaluated where the
        reference has a projector: dist_lower always, residual_sq when
        gamma_hat is given."""
        start = time.perf_counter_ns()
        problem = self.problem
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
            dist_lower = _metrics.dist_to_lower_set(problem, x)
            if gamma_hat is not None:
                g = _metrics.residual_norm(problem, x, gamma_hat)
                residual_sq = None if g is None else g * g
        record = TraceRecord(
            k=k, eta=eta, theta=theta, f_bar=f_bar, h_bar=h_bar, infeas=infeas,
            subopt=subopt, dist_xstar_sq=dist_xsq, dist_lower=dist_lower,
            residual_sq=residual_sq, elapsed_ns=start - self.t0 - self.metrics_ns,
        )
        self.trace.append(record)
        self.metrics_ns += time.perf_counter_ns() - start
        return record

    def report(self, x_final: np.ndarray, extras: dict) -> RunReport:
        """The run's report, timed up to this call."""
        return RunReport(self.config["solver"], self.config, x_final, self.trace, extras,
                         wall_ns=time.perf_counter_ns() - self.t0,
                         metrics_ns=self.metrics_ns)


# ---------------------------------------------------------------------------
# Averaging solver (diminishing or constant regularization weight)
# ---------------------------------------------------------------------------


# The largest sum of averaging weights Gamma_K a run may reach: S_K, the
# weighted sum of iterates, stays finite for iterates up to ~1e8 in norm.
WEIGHT_SUM_MAX = 1e300

# Rows of the block in which the averaging solver stores its iterates until
# it adds them to the weighted sum (see solve_ir_ista).
AVERAGING_BLOCK = 64


def _log_constant_weight_sum(eta: float, gamma_mu: float, big_k: int) -> float:
    """ln Gamma_K for a constant eta, where theta_k = q^(k+1) with
    q = 1/(1 - eta*gamma*mu_f) = e^a:
    Gamma_K = eta * sum_{j=1..K} e^(j*a) = eta * e^(K*a) * (1 - e^(-K*a)) / (1 - e^(-a))."""
    a = -math.log1p(-eta * gamma_mu)
    if a == 0.0:  # eta*gamma*mu_f underflowed to 0: theta stays 1
        return math.log(eta * big_k)
    ka = big_k * a
    return math.log(eta) + ka + math.log(-math.expm1(-ka)) - math.log(-math.expm1(-a))


def solve_ir_ista(problem: BilevelProblem, cfg: SolverConfig) -> RunReport:
    """Prox-gradient on the regularized surrogate with weighted averaging.

    Per iteration: x_{k+1} = q_step(eta_k, gamma, x_k) with weight
    w_k = eta_k * theta_k, where theta_k = theta_{k-1} / (1 - eta_k*gamma*mu_f)
    and theta_{-1} = 1. The loop keeps two running sums, Gamma_k = sum_j w_j
    and S_k = sum_j w_j x_{j+1}, and forms the average x_bar = S_k / Gamma_k
    only where it is read: at a trace point and at the return. Returns the
    averaged iterate; the trace reports metrics of the average.

    A step neither checks nor accumulates its iterate: in a block of
    AVERAGING_BLOCK + 1 rows, whose row 0 holds the iterate before the
    block, step i reads x_k from row i, writes x_{k+1} into row i + 1,
    stores w_k in a weight vector and adds w_k to Gamma_k. So a step
    allocates no array. The block is flushed when it is full, at a trace
    point and at the return. A flush tests the block for finiteness with
    one dot (np.isfinite settles squares that overflow), adds it to S as
    one product w_block^T X_block and copies its last row into row 0, which
    the returned x_last copies out. Its first non-finite row raises
    DivergenceError at that row's step k, with the row before it as
    last_finite and the trace up to k. Up to AVERAGING_BLOCK - 1 steps may
    run past a non-finite iterate before the flush sees it, so the steps
    run under np.errstate(over="ignore", invalid="ignore").

    With a constant eta, theta grows geometrically; a run whose Gamma_K
    would pass WEIGHT_SUM_MAX is refused before the first step.
    """
    require_strongly_convex_upper(problem, "averaging solver")
    upper, lower = problem.upper.smooth, problem.lower.smooth
    mu_f, l_f, l_h = upper.strong_convexity, upper.lipschitz, lower.lipschitz
    if isinstance(cfg.schedule, ConstantVfistaSchedule):
        raise ConfigurationError(
            "the accelerated constant schedule belongs to the accelerated solver"
        )
    stops = trace_stops(cfg.big_k, cfg.trace_every)

    if cfg.gamma == "auto":
        if isinstance(cfg.schedule, FixedEtaSchedule):
            gamma = 1.0 / (l_h + cfg.schedule.eta * l_f)
            if cfg.schedule.eta * gamma * mu_f >= 1.0:
                gamma *= 0.5  # keep 1 - eta*gamma*mu_f > 0 in the corner mu_f = L_f, L_h = 0
        else:
            gamma = 0.5 / l_h if l_h > 0 else 0.5 / l_f
    else:
        gamma = float(cfg.gamma)
    if not gamma > 0:
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
    if isinstance(cfg.schedule, (ConstantIstaSchedule, FixedEtaSchedule)):
        log_sum = _log_constant_weight_sum(eta0, gamma * mu_f, cfg.big_k)
        if log_sum > math.log(WEIGHT_SUM_MAX):
            raise ConfigurationError(
                f"averaging weights overflow: Gamma_K = sum_k eta*theta_k would be "
                f"about 10^{log_sum / math.log(10.0):.1f}, beyond the bound "
                f"{WEIGHT_SUM_MAX:g} (theta grows by 1/(1 - eta*gamma*mu_f) per "
                "step); lower K, p or eta"
            )

    run = _Run(problem, {"solver": "ir_ista", "K": cfg.big_k, "gamma": gamma,
                         **sched_params})
    step = problem.step_map(gamma)
    theta = 1.0
    gamma_sum = 0.0  # Gamma_k, the running sum of eta_j * theta_j
    w_sum = np.zeros(problem.dimension)  # S_k, the sum of eta_j * theta_j * x_{j+1}
    block = np.empty((AVERAGING_BLOCK + 1, problem.dimension))
    block[0] = problem.initial_point
    block_rows = list(block)  # step i reads row i and writes row i + 1
    weights = np.empty(AVERAGING_BLOCK)  # their eta_j * theta_j

    k = 0
    with run:
        for k_trace in stops:
            while k < k_trace:  # one block of steps k .. k+size-1, then its flush
                size = min(AVERAGING_BLOCK, k_trace - k)
                with np.errstate(over="ignore", invalid="ignore"):
                    for i in range(size):
                        eta = eta_of(k + i)
                        step(eta, block_rows[i], block_rows[i + 1])
                        theta /= 1.0 - eta * gamma * mu_f
                        w = eta * theta
                        weights[i] = w
                        gamma_sum += w
                    rows = block[1:size + 1]
                    flat = rows.reshape(-1)
                    if not math.isfinite(flat.dot(flat)):  # find the first bad row
                        for i in range(size):
                            check_finite(block[i + 1], k + i, block[i], "averaging solver")
                w_sum += weights[:size].dot(rows)
                block[0] = block[size]
                k += size
            run.record(w_sum / gamma_sum, k, eta, theta)

    return run.report(w_sum / gamma_sum, {"x_last": block[0].copy(), "Gamma_K": gamma_sum,
                                          "theta_last": theta})


# ---------------------------------------------------------------------------
# Accelerated solver (constant regularization weight)
# ---------------------------------------------------------------------------


def solve_r_vfista(problem: BilevelProblem, cfg: SolverConfig) -> RunReport:
    """Accelerated prox-gradient on the surrogate with constant weight eta,
    stepsize exactly 1/(L_h + eta*L_f), and momentum factor
    (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = (L_h + eta*L_f)/(eta*mu_f)
    (`bilevel.accelerated_constants`). Returns the last iterate (no
    averaging): one `bilevel.accelerated_run` that stops at every trace point.
    A non-finite iterate raises the run's own DivergenceError, "accelerated
    solver: non-finite iterate at step k", to which the solver attaches its
    trace up to k and its resolved config.
    """
    require_strongly_convex_upper(problem, "accelerated solver")
    upper, lower = problem.upper.smooth, problem.lower.smooth
    mu_f, l_f, l_h = upper.strong_convexity, upper.lipschitz, lower.lipschitz
    if not isinstance(cfg.schedule, (ConstantVfistaSchedule, FixedEtaSchedule)):
        raise ConfigurationError(
            "accelerated solver takes the accelerated constant schedule or an explicit eta"
        )
    ks = trace_stops(cfg.big_k, cfg.trace_every)
    eta_of, sched_params = cfg.schedule.resolve(0.0, l_f, l_h, mu_f, cfg.big_k)
    eta = eta_of(0)
    gamma, kappa, momentum = accelerated_constants(problem, eta)
    if cfg.gamma != "auto":
        raise ConfigurationError(
            "accelerated solver uses gamma = 1/(L_h + eta*L_f) exactly; "
            f"leave gamma = 'auto' (would be {gamma:.6g})"
        )
    run = _Run(problem, {"solver": "r_vfista", "K": cfg.big_k, "gamma": gamma,
                         "kappa": kappa, "momentum": momentum, **sched_params})
    with run:
        for k, (x, y) in zip(ks, accelerated_run(problem, eta, problem.initial_point, ks)):
            run.record(x, k, eta, None)
    return run.report(x, {"y_last": y})


# ---------------------------------------------------------------------------
# Inexactly projected outer loop for a smooth (possibly nonconvex) upper part
# ---------------------------------------------------------------------------

# Cap on the inner iterations sum_{k<K} (k+1)^a of one run.
MAX_TOTAL_INNER = 2_000_000
# Each inner run starts from the outer iterate clipped to this box.
INNER_START_BOX = 10.0


def solve_ipr_vfista(problem: BilevelProblem, cfg: NcConfig) -> RunReport:
    """Outer gradient steps z_k = xhat_k - gamma_hat * grad f(xhat_k), each
    followed by an inexact projection of z_k onto the lower solution set:
    J_k = (k+1)^INNER_BUDGET_EXPONENT inner iterations of the accelerated
    solver on the pair (lower objective, 0.5*||. - z_k||^2) with the
    published weight eta_k = 16*(L_h + ETA_BAR) * (ln J_k / J_k)^2.

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
    big_k = cfg.big_k
    if big_k < 1:
        raise ConfigurationError("K must be >= 1")

    l_f, l_h = upper.lipschitz, lower.lipschitz
    gamma_hat = 1.0 / math.sqrt(big_k)
    if gamma_hat > 1.0 / (2.0 * l_f) and not cfg.allow_large_step:
        raise ConfigurationError(
            "outer stepsize bound violated: requires gamma_hat = 1/sqrt(K) <= 1/(2*L_f), "
            f"i.e. K >= 4*L_f^2 = {4.0 * l_f * l_f:.6g}; got K = {big_k} "
            f"(gamma_hat = {gamma_hat:.6g} > {1.0 / (2.0 * l_f):.6g}). "
            "Set allow_large_step to run anyway."
        )
    total_inner = 0  # sum_{k<K} (k+1)^a, summed only up to the cap
    for k in range(big_k):
        total_inner += (k + 1) ** INNER_BUDGET_EXPONENT
        if total_inner > MAX_TOTAL_INNER:
            raise ConfigurationError(
                f"inner budget sum_k (k+1)^a of K = {big_k} exceeds the cap "
                f"{MAX_TOTAL_INNER}; lower K"
            )

    window_start = big_k // 2
    run = _Run(problem, {"solver": "ipr_vfista", "K": big_k, "a": INNER_BUDGET_EXPONENT,
                         "eta_bar": ETA_BAR, "gamma_hat": gamma_hat,
                         "total_inner": total_inner, "allow_large_step": cfg.allow_large_step})
    xhat = np.array(problem.initial_point, copy=True)
    best = {"residual_sq": math.inf, "k": -1, "x": xhat}

    with run:
        run.record(xhat, 0, None, None)
        for k in range(big_k):
            grad_f = upper.gradient(xhat)
            z = xhat - gamma_hat * grad_f
            check_finite(z, k, xhat, "outer solver", what="gradient step z")
            j_budget = (k + 1) ** INNER_BUDGET_EXPONENT
            ln_j = max(math.log(j_budget), math.log(2.0))  # J_0 = 1 would give eta = 0
            eta_k = 16.0 * (l_h + ETA_BAR) * (ln_j / j_budget) ** 2
            try:
                (xhat, _), = accelerated_run(projection_problem(problem.lower, z), eta_k,
                                             _clip(xhat, -INNER_START_BOX, INNER_START_BOX),
                                             [j_budget])
            except DivergenceError as exc:
                raise DivergenceError(
                    f"outer solver: non-finite inner iterate {exc.k} at step {k}", k=k,
                    last_finite=xhat) from None
            rec = run.record(xhat, k + 1, eta_k, None,
                             gamma_hat=gamma_hat if k >= window_start else None)
            if rec.residual_sq is not None and rec.residual_sq < best["residual_sq"]:
                best = {"residual_sq": rec.residual_sq, "k": k, "x": xhat}

    extras = {"total_inner": total_inner}
    if best["k"] >= 0:
        extras.update(
            best_residual_sq=best["residual_sq"], best_residual_k=best["k"],
            x_best_residual=best["x"],
        )
    return run.report(xhat, extras)


# ---------------------------------------------------------------------------
# Plain accelerated baseline on a single composite objective
# ---------------------------------------------------------------------------


def solve_fista_baseline(obj: CompositeObjective, big_k: int, gamma: float,
                         x0: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """Standard accelerated prox-gradient on one composite convex objective
    with t-sequence momentum and best-value tracking. Returns the best
    iterate seen and its objective value.
    """
    if not gamma > 0 or (obj.smooth.lipschitz > 0 and gamma > 1.0 / obj.smooth.lipschitz * (1 + 1e-12)):
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
        check_finite(x_next, k, x, "baseline")
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        v = obj.value(x)
        if v < best_v:
            best_v, best_x = v, x.copy()
    return best_x, best_v
