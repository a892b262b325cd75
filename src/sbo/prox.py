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

# numpy's clip ufunc, called bare: np.clip and ndarray.clip reach it through
# Python layers that cost more than the call itself, and a clamp written as
# np.minimum(np.maximum(...)) is two calls.
_clip = np._core.umath.clip


def prox_l1(threshold: float, x: np.ndarray) -> np.ndarray:
    """Soft threshold: sign(x_i) * max(|x_i| - threshold, 0)."""
    if not threshold >= 0:
        raise ContractViolation("prox_l1: threshold must be >= 0")
    v = np.array(x, dtype=float)
    return _soft_threshold(threshold, -threshold, v, np.empty_like(v))


def _soft_threshold(t, neg_t, v: np.ndarray, work: np.ndarray) -> np.ndarray:
    """v - clip(v, -t, t) with neg_t = -t, t >= 0, written over v (and
    returned), with `work` for the clip. For finite, infinite and NaN
    entries this is bit for bit sign(v)*max(|v| - t, 0): outside [-t, t]
    both round the same v -/+ t once, inside both give zero, but this form
    gives +0.0 where that one gives -0.0. With 0-d bounds the clip ufunc
    returns v itself where v equals a bound, so a zero entry gives v - v."""
    _clip(v, neg_t, t, work)
    return np.subtract(v, work, v)


def prox_ball(radius: float, x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the ball ||x||_2 <= radius, for any finite x."""
    if not radius > 0:
        raise ContractViolation("prox_ball: radius must be positive")
    v = np.array(x, dtype=float)
    with np.errstate(over="ignore"):  # squares past the float range take the rescaled path
        return _project_ball(radius, v, np.empty(()))


def _project_ball(radius: float, v: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """The projection, written over v (and returned). The norm is
    sqrt(v.dot(v)), as np.linalg.norm computes it; radius/norm goes into
    the 0-d `ratio`. When the squares overflow (a finite v with norm past
    ~1.3e154), the norm is taken of v / max|v| instead, in an array of its
    own."""
    norm = math.sqrt(v.dot(v))
    if norm <= radius:
        return v
    if math.isinf(norm):
        scale = float(np.abs(v).max())
        if math.isfinite(scale):
            u = v / scale
            unit_norm = math.sqrt(u.dot(u))
            return v if scale * unit_norm <= radius else np.multiply(radius / unit_norm, u, v)
    ratio[()] = radius / norm
    return np.multiply(ratio, v, v)


def prox_box(lower: np.ndarray, upper: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Componentwise clamp of x into [lower, upper]: bit for bit
    np.minimum(np.maximum(x, lower), upper) for an x of one or more
    dimensions. Where x and a bound are zeros of different signs, that
    order returns the bound's zero. The clip ufunc does too when the bounds
    step through memory, but returns x's zero when both have stride 0 (a
    broadcast view, or a 0-d x and bounds), so the bounds are copied; a 0-d
    x keeps its own zero on such a tie."""
    lower = np.array(lower, dtype=float)
    upper = np.array(upper, dtype=float)
    if lower.shape != x.shape or upper.shape != x.shape:
        raise ContractViolation("prox_box: bounds must match the vector length")
    if not np.all(lower <= upper):
        raise ContractViolation("prox_box: requires lower <= upper componentwise")
    return _clip(x, lower, upper)


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
    if not delta > 0:
        raise ConfigurationError("log-sum prox requires delta > 0")
    if math.isnan(epsilon):
        raise ConfigurationError("log-sum prox: epsilon is not a number")
    if not math.sqrt(delta) <= epsilon:
        raise ConfigurationError(
            f"log-sum prox requires sqrt(delta) <= epsilon; got sqrt({delta}) = "
            f"{math.sqrt(delta):.6g} > {epsilon}"
        )


# ---------------------------------------------------------------------------
# Prox-friendly terms: objects bundling an (extended-real) value with the
# scaled prox map prox_{gamma * g}, which never returns its argument. The
# `kind` tag drives combinability: `CombinedProx.bind` picks its map from the
# two terms' kinds.
# ---------------------------------------------------------------------------


class ZeroProx:
    """The identically-zero term."""

    kind = "zero"

    def value(self, x: np.ndarray) -> float:
        return 0.0

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        return np.array(x, copy=True)


class L1Prox:
    """weight * ||x||_1."""

    kind = "l1"

    def __init__(self, weight: float):
        if not weight >= 0:
            raise ContractViolation("l1 weight must be >= 0")
        self.weight = float(weight)

    def value(self, x: np.ndarray) -> float:
        # ndarray.sum is this reduction behind a Python layer
        return self.weight * float(np.add.reduce(np.abs(x), axis=None))

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        return prox_l1(gamma * self.weight, x)


class BallProx:
    """Indicator of the Euclidean ball of given radius."""

    kind = "ball"

    def __init__(self, radius: float):
        if not radius > 0:
            raise ContractViolation("ball radius must be positive")
        self.radius = float(radius)

    def value(self, x: np.ndarray) -> float:
        # small slack so points produced by the projection itself pass
        if math.sqrt(x.dot(x)) <= self.radius * (1.0 + 1e-12):
            return 0.0
        return math.inf

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        return prox_ball(self.radius, x)


class BoxProx:
    """Indicator of the box [lower, upper]; the bounds are copied, as in `prox_box`."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ContractViolation("box bounds must be two vectors of equal length")
        if not np.all(self.lower <= self.upper):
            raise ContractViolation("box bounds require lower <= upper componentwise")

    def value(self, x: np.ndarray) -> float:
        if x.shape != self.lower.shape:
            raise ContractViolation("box value: the vector and the bounds differ in length")
        eps = 1e-12 * (1.0 + np.abs(self.lower).max() + np.abs(self.upper).max())
        if np.all(x >= self.lower - eps) and np.all(x <= self.upper + eps):
            return 0.0
        return math.inf

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        if x.shape != self.lower.shape:  # the bounds were checked once, in __init__
            raise ContractViolation("box prox: the vector and the bounds differ in length")
        return _clip(x, self.lower, self.upper)


class LogSumProx:
    """sum_i log(1 + |x_i|/epsilon), nonconvex; prox valid for step <= epsilon^2."""

    kind = "logsum"

    def __init__(self, epsilon: float):
        if not epsilon > 0:
            raise ConfigurationError("log-sum penalty requires epsilon > 0")
        self.epsilon = float(epsilon)

    def value(self, x: np.ndarray) -> float:
        return float(np.log1p(np.abs(x) / self.epsilon).sum())

    def prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            return np.array(x, copy=True)
        return prox_logsum(gamma, self.epsilon, x)


# Pairs (lower kind, upper kind) for which prox of gamma*(omega_h + eta*omega_f)
# has a closed form. Anything else is rejected when the problem is built --
# approximating a sum-prox silently would corrupt the rate measurements.
_SUPPORTED_NOTE = "(zero, any), (any, zero), (l1, l1)"


class CombinedProx:
    """Exact prox of gamma * (omega_h + eta * omega_f) for supported pairs."""

    def __init__(self, omega_h, omega_f):
        self.omega_h = omega_h
        self.omega_f = omega_f
        kinds = (omega_h.kind, omega_f.kind)
        if "zero" not in kinds and kinds != ("l1", "l1"):
            raise ConfigurationError(
                f"no closed-form prox for the pair (omega_h={omega_h.kind}, "
                f"omega_f={omega_f.kind}); supported pairs: {_SUPPORTED_NOTE}"
            )

    def prox(self, gamma: float, eta: float, x: np.ndarray) -> np.ndarray:
        v = np.array(x, dtype=float)
        prox = self.bind(gamma, np.empty_like(v))
        if not eta >= 0:
            raise ContractViolation("combined prox requires eta >= 0")
        return prox(eta, v)

    def bind(self, gamma: float,
             work: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """prox(eta, v): the prox of gamma*(omega_h + eta*omega_f) at a
        float array v of the shape of `work`, written over v and returned.
        Each call may overwrite `work` (an l1 prox clips into it), so the
        caller hands over an array it does not read across the call. gamma
        is checked here, once; eta >= 0 is the caller's to ensure. The four
        pairs an instance builds, (zero, l1), (l1, zero), (ball, zero) and
        (zero, zero), work in place with 0-d operands of the closure's own,
        and rewrite a threshold that depends on eta only when eta is another
        object than at the last call (-0.0 is never taken for 0.0). The
        other six pairs call their term's prox and copy its result over v."""
        if not gamma > 0:
            raise ContractViolation("combined prox requires gamma > 0")
        h, f = self.omega_h, self.omega_f
        t, neg_t = np.empty(()), np.empty(())  # this closure's own 0-d operands
        last = None  # the eta the thresholds were written for
        if h.kind == "l1" and f.kind == "l1":  # the weights merge
            return lambda eta, v: _overwrite(
                v, prox_l1(gamma * (h.weight + eta * f.weight), v))
        # past (l1, l1), __init__ leaves a zero term on one side or both
        if f.kind == "zero":  # the lower term alone, at the scale gamma > 0
            if h.kind == "l1":
                t[()], neg_t[()] = gamma * h.weight, -(gamma * h.weight)
                return lambda eta, v: _soft_threshold(t, neg_t, v, work)
            if h.kind == "ball":
                radius = h.radius
                return lambda eta, v: _project_ball(radius, v, t)
            if h.kind == "zero":
                return lambda eta, v: v
            return lambda eta, v: _overwrite(v, h.prox(gamma, v))
        # the upper term alone, at the scale gamma * eta: where that is 0.0
        # (eta = 0, or gamma * eta underflows) v stays as it is, but for l1
        # only eta = 0 does
        if f.kind == "l1":
            active = False

            def prox(eta, v):
                nonlocal last, active
                if eta is not last:
                    t[()] = s = gamma * eta * f.weight
                    neg_t[()], active, last = -s, eta != 0.0, eta
                return _soft_threshold(t, neg_t, v, work) if active else v
            return prox
        return lambda eta, v: v if eta == 0.0 else _overwrite(v, f.prox(gamma * eta, v))


def _overwrite(v: np.ndarray, new: np.ndarray) -> np.ndarray:
    np.copyto(v, new)
    return v
