"""Proximal operators for the nonsmooth terms that appear in the solvers,
plus the combined prox of a lower-level term with an eta-scaled upper-level
term, which is what every regularized prox-gradient step applies.

All coordinatewise formulas use sign(0) = 0 (numpy convention), which makes
them total.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractViolation


def prox_l1(threshold: float, x: np.ndarray) -> np.ndarray:
    """Soft threshold: sign(x_i) * max(|x_i| - threshold, 0)."""
    if threshold < 0:
        raise ContractViolation("prox_l1: threshold must be >= 0")
    return _soft_threshold(threshold, x)


def _soft_threshold(t: float, v: np.ndarray) -> np.ndarray:
    """v - clip(v, -t, t). For finite, infinite and NaN entries this is bit
    for bit sign(v)*max(|v| - t, 0): outside [-t, t] both round the same
    v -/+ t once, inside both give zero, but this form gives +0.0 where
    that one gives -0.0."""
    return v - np.maximum(np.minimum(v, t), -t)


def prox_ball(radius: float, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the ball ||x||_2 <= radius."""
    if radius <= 0:
        raise ContractViolation("prox_ball: radius must be positive")
    p = _project_ball(radius, x)
    return np.array(x, copy=True) if p is x else p


def _project_ball(radius: float, v: np.ndarray) -> np.ndarray:
    """The projection, returning v itself when it lies in the ball. The
    norm is sqrt(v.dot(v)), which is what np.linalg.norm computes for a
    vector."""
    norm = math.sqrt(v.dot(v))
    return v if norm <= radius else (radius / norm) * v


def prox_box(lower: np.ndarray, upper: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Componentwise clamp of x into [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != x.shape or upper.shape != x.shape:
        raise ContractViolation("prox_box: bounds must match the vector length")
    if np.any(lower > upper):
        raise ContractViolation("prox_box: requires lower <= upper componentwise")
    return np.minimum(np.maximum(x, lower), upper)


def prox_logsum(delta: float, epsilon: float, x: np.ndarray) -> np.ndarray:
    """Coordinatewise prox of delta * log(1 + |u|/epsilon).

    0 where |x_i| <= delta/epsilon, else
    0.5*sign(x_i)*(|x_i| - epsilon + sqrt((|x_i| + epsilon)^2 - 4*delta)).
    Requires delta > 0 and sqrt(delta) <= epsilon, which makes the map
    single-valued and continuous.
    """
    _check_logsum_params(delta, epsilon)
    ax = np.abs(x)
    inner = np.square(ax + epsilon) - 4.0 * delta
    shrunk = 0.5 * (ax - epsilon + np.sqrt(np.maximum(inner, 0.0)))
    return np.where(ax <= delta / epsilon, 0.0, np.sign(x) * shrunk)


def _check_logsum_params(delta: float, epsilon: float) -> None:
    if delta <= 0:
        raise ConfigurationError("log-sum prox requires delta > 0")
    if math.sqrt(delta) > epsilon:
        raise ConfigurationError(
            f"log-sum prox requires sqrt(delta) <= epsilon; got sqrt({delta}) = "
            f"{math.sqrt(delta):.6g} > {epsilon}"
        )


# ---------------------------------------------------------------------------
# Prox-friendly terms: objects bundling an (extended-real) value with the
# scaled prox map prox_{gamma * g}. The `kind` tag drives combinability.
# `prox` never returns its argument; `prox_owned` takes a vector the caller
# hands over (a temporary of the step kernel) and may return it, unchecked,
# where that saves a copy or a check in the kernel's loop.
# ---------------------------------------------------------------------------


class ZeroProx:
    """The identically-zero term."""

    kind = "zero"

    def value(self, x: np.ndarray) -> float:
        return 0.0

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        return np.array(x, copy=True)

    def prox_owned(self, gamma: float, v: np.ndarray) -> np.ndarray:
        return v


class L1Prox:
    """weight * ||x||_1."""

    kind = "l1"

    def __init__(self, weight: float):
        if weight < 0:
            raise ContractViolation("l1 weight must be >= 0")
        self.weight = float(weight)

    def value(self, x: np.ndarray) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        return prox_l1(gamma * self.weight, x)

    def prox_owned(self, gamma: float, v: np.ndarray) -> np.ndarray:
        return _soft_threshold(gamma * self.weight, v)


class BallProx:
    """Indicator of the Euclidean ball of given radius."""

    kind = "ball"

    def __init__(self, radius: float):
        if radius <= 0:
            raise ContractViolation("ball radius must be positive")
        self.radius = float(radius)

    def value(self, x: np.ndarray) -> float:
        # small slack so points produced by the projection itself pass
        if np.linalg.norm(x) <= self.radius * (1.0 + 1e-12):
            return 0.0
        return math.inf

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        return prox_ball(self.radius, x)

    def prox_owned(self, gamma: float, v: np.ndarray) -> np.ndarray:
        return v if gamma == 0.0 else _project_ball(self.radius, v)


class BoxProx:
    """Indicator of the box [lower, upper]."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ContractViolation("box bounds must be two vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ContractViolation("box bounds require lower <= upper componentwise")

    def value(self, x: np.ndarray) -> float:
        eps = 1e-12 * (1.0 + np.abs(self.lower).max() + np.abs(self.upper).max())
        if np.all(x >= self.lower - eps) and np.all(x <= self.upper + eps):
            return 0.0
        return math.inf

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        return prox_box(self.lower, self.upper, x)

    prox_owned = prox


class LogSumProx:
    """sum_i log(1 + |x_i|/epsilon), nonconvex; prox valid for step <= epsilon^2."""

    kind = "logsum"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ConfigurationError("log-sum penalty requires epsilon > 0")
        self.epsilon = float(epsilon)

    def value(self, x: np.ndarray) -> float:
        return float(np.log1p(np.abs(x) / self.epsilon).sum())

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        return prox_logsum(gamma, self.epsilon, x)

    prox_owned = prox


# Pairs (lower kind, upper kind) for which prox of gamma*(omega_h + eta*omega_f)
# has a closed form. Anything else is rejected when the problem is built --
# approximating a sum-prox silently would corrupt the rate measurements.
_SUPPORTED_NOTE = "(zero, any), (any, zero), (l1, l1), (box, zero), (ball, zero)"


class CombinedProx:
    """Exact prox of gamma * (omega_h + eta * omega_f) for supported pairs."""

    def __init__(self, omega_h, omega_f):
        self.omega_h = omega_h
        self.omega_f = omega_f
        if omega_h.kind == "zero":
            self.tag = "upper-only"
        elif omega_f.kind == "zero":
            self.tag = "lower-only"
        elif omega_h.kind == "l1" and omega_f.kind == "l1":
            self.tag = "l1-l1"
        else:
            raise ConfigurationError(
                f"no closed-form prox for the pair (omega_h={omega_h.kind}, "
                f"omega_f={omega_f.kind}); supported pairs: {_SUPPORTED_NOTE}"
            )

    def prox(self, gamma: float, eta: float, x: np.ndarray) -> np.ndarray:
        prox = self.bind(gamma)
        if eta < 0:
            raise ContractViolation("combined prox requires eta >= 0")
        return prox(eta, np.array(x, copy=True))

    def bind(self, gamma: float) -> Callable[[float, np.ndarray], np.ndarray]:
        """(eta, v) -> prox of gamma*(omega_h + eta*omega_f) at a v the
        caller hands over (the result may be v itself). gamma is checked
        here, once; eta >= 0 is the caller's to ensure."""
        if gamma <= 0:
            raise ContractViolation("combined prox requires gamma > 0")
        h, f = self.omega_h, self.omega_f
        if self.tag == "lower-only":
            return lambda eta, v: h.prox_owned(gamma, v)
        if self.tag == "upper-only":
            return lambda eta, v: v if eta == 0.0 else f.prox_owned(gamma * eta, v)
        # l1-l1: weights merge
        return lambda eta, v: _soft_threshold(gamma * (h.weight + eta * f.weight), v)
