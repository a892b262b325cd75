"""Smooth objective terms: each carries a value, a hand-coded gradient, a
Lipschitz constant for the gradient, and a strong-convexity modulus. These
constants are stored at construction (stepsizes are set from them once), not
re-estimated per call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix, as_vector, lipschitz_from_matrix
from .prox import _check_logsum_params, prox_logsum


class SmoothFunction:
    """Base contract: value(x), gradient(x), and the constants solvers read.

    Attributes
    ----------
    dimension : int
    lipschitz : float        gradient Lipschitz constant L (>= mu)
    strong_convexity : float modulus mu (0 for merely convex)
    nonconvex : bool         True when the function is not convex
    """

    dimension: int
    lipschitz: float
    strong_convexity: float
    nonconvex: bool = False

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The gradient at x, after the length check, as a new array."""
        self._check_dim(x)
        g = self.gradient_map()(x)  # a map of its own: its buffers are new
        return np.array(g, copy=True) if g is x else g

    def gradient_map(self) -> Callable[[np.ndarray], np.ndarray]:
        """grad(x) -> the gradient at x without the length check, for a loop
        that checked its iterate once. The result may be x itself or a
        buffer that belongs to this map and that its next call overwrites:
        read it before then, and never write to it. Each call of
        gradient_map makes a map with buffers of its own. A subclass defines
        this or `gradient`."""
        if type(self).gradient is SmoothFunction.gradient:  # else each calls the other
            raise NotImplementedError(
                f"{type(self).__name__} defines neither gradient nor gradient_map")
        return self.gradient

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape != (self.dimension,):
            raise ContractViolation(
                f"{type(self).__name__}: expected a vector of length "
                f"{self.dimension}, got shape {x.shape}"
            )


class ZeroFunction(SmoothFunction):
    """Identically zero; lets a smooth slot vanish in a composite."""

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        self.lipschitz = 0.0
        self.strong_convexity = 0.0

    def value(self, x: np.ndarray) -> float:
        self._check_dim(x)
        return 0.0

    def gradient_map(self) -> Callable[[np.ndarray], np.ndarray]:
        zero = np.zeros(self.dimension)
        return lambda x: zero


class LeastSquares(SmoothFunction):
    """0.5 * ||A x - b||_2^2. L is computed once, by `lipschitz_from_matrix`;
    PowerIterationError if it lies beyond the float range."""

    def __init__(self, a, b):
        self.a = as_matrix(a)
        self.b = as_vector(b)
        if self.a.shape[0] != self.b.shape[0]:
            raise ContractViolation("LeastSquares: A and b row counts differ")
        self.dimension = self.a.shape[1]
        self.lipschitz = lipschitz_from_matrix(self.a)
        self.strong_convexity = 0.0
        self._a_t = self.a.T

    def value(self, x: np.ndarray) -> float:
        self._check_dim(x)
        r = self.a.dot(x) - self.b  # see gradient_map: .dot is @ with less dispatch
        return 0.5 * float(r.dot(r))

    def gradient_map(self) -> Callable[[np.ndarray], np.ndarray]:
        # A^T (A x - b) in two buffers: ndarray.dot makes the same BLAS gemv
        # calls as @, with less dispatch, and writes into its out argument
        a, a_t, b = self.a, self._a_t, self.b
        r, g = np.empty(a.shape[0]), np.empty(self.dimension)

        def grad(x):
            a.dot(x, r)
            np.subtract(r, b, r)
            return a_t.dot(r, g)
        return grad


class ScaledSqNorm(SmoothFunction):
    """(weight/2) * ||x - center||_2^2; L = mu = weight. The value skips the
    subtraction of an all-zero center, and the gradient also the product
    with a unit weight, both exact, so set weight and center at
    construction only."""

    def __init__(self, weight: float, center=None, dimension: int | None = None):
        if not weight > 0:
            raise ContractViolation("ScaledSqNorm: weight must be positive")
        if center is None:
            if dimension is None:
                raise ContractViolation("ScaledSqNorm: give a center or a dimension")
            center = np.zeros(int(dimension))
        self.center = as_vector(center)
        self.dimension = self.center.shape[0]
        self.weight = float(weight)
        self.lipschitz = self.weight
        self.strong_convexity = self.weight
        self._zero_center = not self.center.any()
        self._weight_op = np.array(self.weight)  # 0-d: see BilevelProblem.step_map

    def value(self, x: np.ndarray) -> float:
        self._check_dim(x)
        d = x if self._zero_center else x - self.center
        return 0.5 * self.weight * float(d.dot(d))

    def gradient_map(self) -> Callable[[np.ndarray], np.ndarray]:
        # weight * (x - center), each factor skipped where it is exact
        center, weight = self.center, self._weight_op
        if self._zero_center and self.weight == 1.0:
            return _identity
        d = np.empty(self.dimension)
        if self._zero_center:
            return lambda x: np.multiply(weight, x, d)
        if self.weight == 1.0:
            return lambda x: np.subtract(x, center, d)
        return lambda x: np.multiply(weight, np.subtract(x, center, d), d)


class MoreauLogSum(SmoothFunction):
    """Moreau envelope of l(x) = sum_i log(1 + |x_i|/epsilon) with smoothing
    parameter delta: value(x) = l(p) + ||x - p||^2/(2*delta) and gradient
    (x - p)/delta, where p = prox of delta*l at x. Requires sqrt(delta) <=
    epsilon for the closed-form prox; 1/delta-smooth, nonconvex.
    """

    nonconvex = True

    def __init__(self, delta: float, epsilon: float, dimension: int):
        _check_logsum_params(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.dimension = int(dimension)
        self.lipschitz = 1.0 / self.delta
        self.strong_convexity = 0.0

    def penalty(self, x: np.ndarray) -> float:
        """The underlying log-sum penalty l(x) (upper-bounds the envelope)."""
        return float(np.log1p(np.abs(x) / self.epsilon).sum())

    def _prox_point(self, x: np.ndarray) -> np.ndarray:
        return prox_logsum(self.delta, self.epsilon, x)

    def value(self, x: np.ndarray) -> float:
        self._check_dim(x)
        p = self._prox_point(x)
        d = x - p
        return self.penalty(p) + float(d @ d) / (2.0 * self.delta)

    def gradient_map(self) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: (x - self._prox_point(x)) / self.delta


def _identity(x: np.ndarray) -> np.ndarray:
    return x
