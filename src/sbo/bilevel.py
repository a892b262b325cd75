"""Problem assembly: composite objectives, the bilevel problem container
with optional reference truth, the eta-regularized surrogate, the step map
all three solvers iterate, and the untraced accelerated run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolation, DivergenceError
from .functions import ScaledSqNorm, SmoothFunction
from .prox import CombinedProx, ZeroProx


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
    analytic values default to 1e-10, values taken at a tiny weight recorded
    in `notes` carry the bias that weight implies.
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
        if eta < 0:
            raise ContractViolation("eta must be >= 0")
        return self.lower.value(x) + eta * self.upper.value(x)

    def regularized_smooth_value(self, eta: float, x: np.ndarray) -> float:
        """Smooth part only: h(x) + eta * f(x)."""
        return self.lower.smooth.value(x) + eta * self.upper.smooth.value(x)

    def regularized_gradient(self, eta: float, x: np.ndarray) -> np.ndarray:
        """Gradient of the smooth part of the surrogate."""
        if eta < 0:
            raise ContractViolation("eta must be >= 0")
        self._check_dim(x)
        return self.lower.smooth.gradient(x) + eta * self.upper.smooth.gradient(x)

    def q_eta_step(self, eta: float, gamma: float, x: np.ndarray) -> np.ndarray:
        """One prox-gradient step on the surrogate:
        prox of gamma*(omega_h + eta*omega_f) at x - gamma*(grad h + eta*grad f)."""
        if eta < 0:
            raise ContractViolation("eta must be >= 0")
        self._check_dim(x)
        return self.step_map(gamma)(eta, x)

    def step_map(self, gamma: float) -> Callable[[float, np.ndarray], np.ndarray]:
        """The step kernel every solver iterates: step(eta, y) is
        `q_eta_step(eta, gamma, y)`, the one home of its arithmetic. gamma is
        checked here, once; step trusts y to have length `dimension` and
        eta >= 0, and returns a new array."""
        prox = self.combined_prox.bind(gamma)
        grad_h = self.lower.smooth.gradient_unchecked
        grad_f = self.upper.smooth.gradient_unchecked

        def step(eta: float, y: np.ndarray) -> np.ndarray:
            return prox(eta, y - gamma * (grad_h(y) + eta * grad_f(y)))

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


def accelerated_constants(problem: BilevelProblem,
                          eta: float) -> tuple[float, float, float]:
    """(gamma, kappa, momentum) of the accelerated method on the surrogate at
    the constant weight eta: stepsize gamma = 1/(L_h + eta*L_f) and momentum
    (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = (L_h + eta*L_f)/(eta*mu_f)."""
    lipschitz = problem.surrogate_lipschitz(eta)
    kappa = lipschitz / (eta * problem.upper.smooth.strong_convexity)
    return 1.0 / lipschitz, kappa, (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)


def accelerated_run(problem: BilevelProblem, eta: float, x0: np.ndarray,
                    iters: int) -> np.ndarray:
    """The last of `iters` accelerated prox-gradient steps from x0 on the
    surrogate at the constant weight eta (`accelerated_constants`), untraced.
    A non-finite iterate raises DivergenceError with its step index as k.
    The loop ignores overflow warnings: a finite iterate whose squares
    overflow is settled by `check_finite` and by the ball projection."""
    require_strongly_convex_upper(problem, "accelerated run")
    if not (eta > 0 and iters >= 1):
        raise ConfigurationError(
            f"accelerated run requires eta > 0 and iters >= 1; got {eta!r} and {iters!r}")
    x = y = np.asarray(x0, dtype=float)
    problem._check_dim(x)
    gamma, _, momentum = accelerated_constants(problem, eta)
    step = problem.step_map(gamma)
    with np.errstate(over="ignore"):
        for j in range(iters):
            x_next = step(eta, y)
            if not math.isfinite(x_next.dot(x_next)):
                check_finite(x_next, j, x, "accelerated run")
            y = x_next + momentum * (x_next - x)
            x = x_next
    return x


def require_strongly_convex_upper(problem: BilevelProblem, who: str) -> None:
    """ConfigurationError "<who> requires a strongly convex smooth upper
    part" unless mu_f > 0 and the upper smooth part is convex."""
    upper = problem.upper.smooth
    if upper.strong_convexity <= 0 or upper.nonconvex:
        raise ConfigurationError(
            f"{who} requires a strongly convex smooth upper part (mu_f > 0)")


def check_finite(x: np.ndarray, k: int, last: np.ndarray, solver: str,
                 trace: Optional[list] = None, what: str = "iterate") -> None:
    """DivergenceError "<solver>: non-finite <what> at step k" unless x is finite."""
    # x.dot(x) is finite only if every entry is; the full test settles the
    # rare finite x whose squares overflow
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise DivergenceError(
            f"{solver}: non-finite {what} at step {k}", k=k, last_finite=last,
            trace=trace,
        )


def min_norm_l1_subgradient(grad_smooth: np.ndarray, lam: float,
                            x_star: np.ndarray) -> np.ndarray:
    """Minimum-norm element of grad_smooth + lam * d||.||_1 at x_star.

    On coordinates where x_star is numerically zero (|x_i| <= 1e-7) the
    subdifferential is the interval [-lam, lam]; the norm-minimizing choice
    per coordinate is a soft threshold of the smooth gradient.
    """
    g = np.where(
        np.abs(x_star) > 1e-7,
        grad_smooth + lam * np.sign(x_star),
        np.sign(grad_smooth) * np.maximum(np.abs(grad_smooth) - lam, 0.0),
    )
    return g
