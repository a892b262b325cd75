"""Problem assembly: composite objectives, the bilevel problem container
with optional reference truth, the eta-regularized surrogate, the step map
all three solvers iterate, and the untraced accelerated run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, DivergenceError
from .functions import ScaledSqNorm, SmoothFunction
from .prox import CombinedProx, ZeroProx

# The states in each of the two generations of an accelerated run's window
# (see accelerated_run)
CYCLE_WINDOW = 256


class CompositeObjective:
    """smooth + prox-friendly nonsmooth part."""

    def __init__(self, smooth: SmoothFunction, nonsmooth):
        self.smooth = smooth
        self.nonsmooth = nonsmooth
        self.dimension = smooth.dimension

    def value(self, x: np.ndarray) -> float:
        return self.smooth.value(x) + self.nonsmooth.value(x)


@dataclass
class WeakSharp:
    """Declared weak-sharp-minima constants of the lower solution set:
    lower_gap(x) >= alpha * dist(x, X*)^order."""

    alpha: float
    order: float


@dataclass
class SubgradientAtOpt:
    """An element of the upper subdifferential at the bilevel solution
    (minimum-norm choice where we construct it)."""

    g_star: np.ndarray
    norm: float


@dataclass
class ReferenceTruth:
    """Ground truth attached to constructed instances; solvers never read it,
    only metric evaluation does. Tolerances record how the values were made:
    analytic values default to 1e-10, certified values carry their duality
    gap, and values taken at a tiny weight recorded in `notes` carry the bias
    that weight implies or their measured distance from a certified value.
    """

    h_star: Optional[float] = None
    h_star_tol: float = 1e-10
    f_star: Optional[float] = None
    f_star_tol: float = 1e-10
    x_star: Optional[np.ndarray] = None
    weak_sharp: Optional[WeakSharp] = None
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None
    projector_kind: str = "exact"  # "exact" | "approximate"
    subgradient: Optional[SubgradientAtOpt] = None
    notes: dict = field(default_factory=dict)


class BilevelProblem:
    """Upper composite objective minimized over the minimizers of the lower
    composite objective. Holds the combined prox of (omega_h, eta*omega_f)
    and optional reference truth for metric evaluation.
    """

    def __init__(self, upper: CompositeObjective, lower: CompositeObjective,
                 reference: Optional[ReferenceTruth] = None,
                 initial_point: Optional[np.ndarray] = None):
        if upper.dimension != lower.dimension:
            raise ContractViolation(
                f"upper dimension {upper.dimension} != lower dimension {lower.dimension}"
            )
        self.upper = upper
        self.lower = lower
        self.dimension = upper.dimension
        self.combined_prox = CombinedProx(lower.nonsmooth, upper.nonsmooth)
        self.reference = reference
        self.initial_point = (
            np.ones(self.dimension) if initial_point is None
            else np.asarray(initial_point, dtype=float)
        )
        if self.initial_point.shape != (self.dimension,):
            raise ContractViolation("initial point has the wrong length")

    # ---- regularized surrogate -------------------------------------------

    def regularized_value(self, eta: float, x: np.ndarray) -> float:
        """Full surrogate value: lower(x) + eta * upper(x), nonsmooth included."""
        if not eta >= 0:
            raise ContractViolation("eta must be >= 0")
        return self.lower.value(x) + eta * self.upper.value(x)

    def q_eta_step(self, eta: float, gamma: float, x: np.ndarray) -> np.ndarray:
        """One prox-gradient step on the surrogate:
        prox of gamma*(omega_h + eta*omega_f) at x - gamma*(grad h + eta*grad f),
        as a new array."""
        if not eta >= 0:
            raise ContractViolation("eta must be >= 0")
        self._check_dim(x)
        return self.step_map(gamma)(eta, x, np.empty(self.dimension))

    def step_map(self, gamma: float
                 ) -> Callable[[float, np.ndarray, np.ndarray], np.ndarray]:
        """The step kernel every solver iterates: step(eta, y, out) writes
        `q_eta_step(eta, gamma, y)` into out and returns out, the one home of
        its arithmetic. y is only read, and out may be y itself: the step
        reads all of y before it writes out. gamma is checked here, once;
        step trusts y and out to be float vectors of length `dimension` and
        eta >= 0. The step allocates no array: the gradients, the prox and
        the step itself write into buffers that belong to this closure. Only
        the prox of the six pairs no instance builds, `MoreauLogSum` and a
        smooth part that defines `gradient` alone compute in new arrays. Its
        scalars meet numpy as 0-d arrays: a ufunc takes them faster than
        Python floats. eta is written into its 0-d operand only when it is
        another object than at the last step, so a constant eta pays once."""
        # gamma * (grad h + eta * grad f), then the prox's scratch
        work = np.empty(self.dimension)
        prox = self.combined_prox.bind(gamma, work)
        grad_h = self.lower.smooth.gradient_map()
        grad_f = self.upper.smooth.gradient_map()
        gamma_op, eta_op = np.array(gamma, dtype=float), np.empty(())
        multiply, add, subtract = np.multiply, np.add, np.subtract
        last = None  # the eta in eta_op

        def step(eta: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
            nonlocal last
            if eta is not last:
                eta_op[()] = last = eta
            g_h = grad_h(y)
            multiply(eta_op, grad_f(y), work)
            add(g_h, work, work)
            multiply(gamma_op, work, work)
            return prox(eta, subtract(y, work, out))

        return step

    def surrogate_lipschitz(self, eta: float) -> float:
        return self.lower.smooth.lipschitz + eta * self.upper.smooth.lipschitz

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape != (self.dimension,):
            raise ContractViolation(
                f"expected a vector of length {self.dimension}, got shape {x.shape}"
            )


def projection_problem(lower: CompositeObjective, z: np.ndarray) -> BilevelProblem:
    """The pair (lower, 0.5*||. - z||^2): at a tiny weight its surrogate's
    minimizer approximates the projection of z onto the lower solution set."""
    anchor = CompositeObjective(ScaledSqNorm(1.0, center=z), ZeroProx())
    return BilevelProblem(anchor, lower)


def accelerated_constants(problem: BilevelProblem, eta: float,
                          key: str = "eta") -> tuple[float, float, float]:
    """(gamma, kappa, momentum) of the accelerated method on the surrogate at
    the constant weight eta: stepsize gamma = 1/(L_h + eta*L_f) and momentum
    (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = (L_h + eta*L_f)/(eta*mu_f).
    An eta for which eta*mu_f underflows to 0 or kappa overflows is refused,
    naming it as `key`."""
    lipschitz, mu_f = problem.surrogate_lipschitz(eta), problem.upper.smooth.strong_convexity
    kappa = lipschitz / (eta * mu_f) if eta * mu_f > 0 else math.inf
    if not math.isfinite(kappa):
        raise ConfigurationError(f"{key} = {eta!r} leaves the accelerated steps no finite "
                                 f"kappa = (L_h + eta*L_f)/(eta*mu_f) at mu_f = {mu_f!r}")
    return 1.0 / lipschitz, kappa, (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)


def accelerated_run(problem: BilevelProblem, eta: float, x0: np.ndarray,
                    stops: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One untraced run of accelerated prox-gradient steps on the surrogate
    at the constant weight eta (`accelerated_constants`) from x0, which it
    copies when it is called: it yields (x, y) after each step count in
    `stops`, where x is the last iterate and y the next step's start. Its
    callers own the argument checks: the upper smooth part is strongly
    convex, eta > 0, x0 has length `dimension` and `stops` is a nonempty
    increasing list of positive integers. x0 is only read: x, the next
    iterate and y are three arrays of the run's own, and it writes the two
    it yields again when it resumes. A non-finite iterate raises
    DivergenceError "accelerated solver: non-finite iterate at step k" with
    its step index as k, and with an empty trace and config, which
    `solvers.solve_r_vfista` attaches. The steps ignore overflow warnings in
    an errstate left before each yield: a finite iterate whose squares
    overflow is settled by `check_finite` and by the ball projection.

    A stretch between stops whose state repeats exactly ends by the cycle's
    period, with the bits of the full run: the state after step j,
    (x_j, x_{j-1}), fixes y_j and so every later step. When the state after
    step j repeats that after step m, the stretch's `iters` steps shrink to
    j + (iters - j) mod (j - m). Each stretch starts afresh and copies the
    state's bytes out of the buffers at checkpoints after its steps 1, 2, 3,
    4, 6, 8, 11, 14, ... (m + m // 4 + 1 follows m). While its window is
    shut a step only compares its squared norm with the checkpoint's. The
    first step where the two are equal opens the window: a dict from states
    to steps, kept as two generations of CYCLE_WINDOW states each and
    seeded, like each later generation, with the checkpoint. From that step
    on each step looks its state up in the window and adds it, and that
    lookup is the only comparison of bytes (-0.0 is not 0.0). A cycle of
    period lam <= CYCLE_WINDOW entered at step mu, with the window open by
    then, is seen at step mu + lam, where the state first repeats. Any
    other is seen where the first checkpoint m >= max(mu, 4 (lam - 1))
    repeats, lam steps after it (that repeat opens a shut window), so a
    stretch computes at most min(iters, 1.25 max(mu, 4 lam) + 2 lam) steps."""
    return _accelerated_stretches(problem, eta, np.array(x0, dtype=float), stops)


def _accelerated_stretches(problem: BilevelProblem, eta: float, x: np.ndarray,
                           stops: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    y, x_next = x.copy(), np.empty(x.shape)
    gamma, _, momentum = accelerated_constants(problem, eta)
    step, momentum = problem.step_map(gamma), np.array(momentum)  # 0-d: see step_map
    multiply, add, subtract = np.multiply, np.add, np.subtract
    for done, stop in zip([0, *stops], stops):
        iters, j, next_mark, mark_sq = stop - done, 0, 1, math.nan
        newer = None  # the window's newer generation (state -> step), once open
        with np.errstate(over="ignore"):
            while j < iters:
                step(eta, y, x_next)
                sq = x_next.dot(x_next)
                if not math.isfinite(sq):
                    check_finite(x_next, done + j, x, "accelerated solver")
                subtract(x_next, x, y)  # y = x_next + momentum * (x_next - x)
                multiply(momentum, y, y)
                add(x_next, y, y)
                j += 1
                if sq == mark_sq:  # the gate; mark_sq is NaN once the window is open
                    newer, older, x_bytes, mark_sq = {mark_state: mark}, {}, x.tobytes(), math.nan
                if newer is not None:
                    state = x_next.tobytes(), x_bytes
                    x_bytes = state[0]
                    seen = newer.setdefault(state, j)
                    if seen == j:
                        seen = older.get(state, j)
                    if seen < j:
                        iters = j + (iters - j) % (j - seen)
                    elif len(newer) > CYCLE_WINDOW:
                        newer, older = {mark_state: mark}, newer
                    if j == next_mark:
                        mark, next_mark, mark_state = j, j + j // 4 + 1, state
                elif j == next_mark:
                    mark, next_mark, mark_sq = j, j + j // 4 + 1, sq
                    mark_state = x_next.tobytes(), x.tobytes()
                x, x_next = x_next, x
        yield x, y


def require_strongly_convex_upper(problem: BilevelProblem, who: str) -> None:
    """ConfigurationError "<who> requires a strongly convex smooth upper
    part" unless mu_f > 0 and the upper smooth part is convex."""
    upper = problem.upper.smooth
    if not upper.strong_convexity > 0 or upper.nonconvex:
        raise ConfigurationError(
            f"{who} requires a strongly convex smooth upper part (mu_f > 0)")


def check_finite(x: np.ndarray, k: int, last: np.ndarray, solver: str,
                 what: str = "iterate") -> None:
    """DivergenceError "<solver>: non-finite <what> at step k" unless x is
    finite, with last as last_finite and an empty trace and config: a
    solver's run record attaches its own (`solvers._Run`)."""
    # x.dot(x) is finite only if every entry is; the full test settles the
    # rare finite x whose squares overflow
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise DivergenceError(f"{solver}: non-finite {what} at step {k}", k=k,
                              last_finite=last)
