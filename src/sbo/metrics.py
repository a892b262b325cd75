"""Error metrics evaluated against a problem's reference truth, plus
log-log rate fitting for the empirical convergence studies.

Metric functions return None when the required piece of reference truth is
absent; trace assembly renders that as an empty field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bilevel import accelerated_run, projection_problem
from .errors import ConfigurationError, ContractViolation


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple
    n_samples: int


def infeasibility(problem, x: np.ndarray,
                  h_bar: Optional[float] = None) -> Optional[float]:
    """Signed lower-level gap: lower(x) - h_star. Theory keeps it >= 0;
    the sign is retained so a bad reference shows up as a negative dip.
    h_bar, when given, is lower(x) already evaluated."""
    ref = problem.reference
    if ref is None or ref.h_star is None:
        return None
    return (problem.lower.value(x) if h_bar is None else h_bar) - ref.h_star


def suboptimality(problem, x: np.ndarray,
                  f_bar: Optional[float] = None) -> Optional[float]:
    """Signed upper-level gap: upper(x) - f_star. May legitimately be
    negative at points that are infeasible for the lower level. f_bar,
    when given, is upper(x) already evaluated."""
    ref = problem.reference
    if ref is None or ref.f_star is None:
        return None
    return (problem.upper.value(x) if f_bar is None else f_bar) - ref.f_star


def dist_to_lower_set(problem, x: np.ndarray) -> Optional[float]:
    """||x - P(x)|| for the reference projector P onto the lower solution set."""
    ref = problem.reference
    if ref is None or ref.projector is None:
        return None
    return float(np.linalg.norm(x - ref.projector(x)))


def residual_norm(problem, x: np.ndarray, gamma_hat: float) -> Optional[float]:
    """Norm of the projected-gradient residual map
    (x - P(x - gamma_hat * grad f(x))) / gamma_hat; zero exactly at
    stationary points of the bilevel problem."""
    ref = problem.reference
    if ref is None or ref.projector is None:
        return None
    if gamma_hat <= 0:
        raise ContractViolation("residual map requires gamma_hat > 0")
    step = x - gamma_hat * problem.upper.smooth.gradient(x)
    return float(np.linalg.norm(x - ref.projector(step))) / gamma_hat


def fit_rate(samples: Sequence, window: tuple, min_samples: int = 5) -> RateFit:
    """Least-squares line through (ln k, ln value) over positive samples with
    k inside [window[0], window[1]]; the slope is the empirical rate
    exponent. Samples are (k, value) pairs; a None value is skipped.
    """
    k_lo, k_hi = window
    pts = []
    for k, v in samples:
        if v is not None and v > 0 and k_lo <= k <= k_hi and k > 0:
            pts.append((math.log(k), math.log(v)))
    if len(pts) < min_samples:
        raise ConfigurationError(
            f"rate fit needs at least {min_samples} positive samples in "
            f"window [{k_lo}, {k_hi}]; found {len(pts)}"
        )
    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2,
        window=(k_lo, k_hi), n_samples=len(pts),
    )


def default_fit_window(big_k: int) -> tuple:
    """Asymptotic-rate window: the last nine tenths of the run, log-spaced
    samples assumed."""
    return (max(1, big_k // 10), big_k)


def approximate_projector(problem, eta: float,
                          budget: int) -> Callable[[np.ndarray], np.ndarray]:
    """Inexact projection onto the lower solution set: for a query x, the
    untraced `bilevel.accelerated_run` from x on the pair (lower objective,
    0.5*||u - x||^2) with the tiny constant weight eta for budget iterations.
    Labeled "approximate" wherever it is attached to a reference.

    The run contracts its error to the minimizer of that pair only by about
    (1 - sqrt(eta/(L_h + eta)))^budget. At eta = 1e-6 and a 50k budget this
    can stop 1.9e-4 from the minimizer (phillips n=16, a ball twice the norm
    of the unconstrained minimizer), which is why the tests cross-check it
    against `ls_ball_projector` at random queries only at eta >= 1e-2, and
    at eta = 1e-6 only where the ball is well active."""
    return lambda x: accelerated_run(projection_problem(problem.lower, x), eta, x, budget)


def ls_ball_projector(svd, b: np.ndarray, radius: float,
                      eta: float) -> Callable[[np.ndarray], np.ndarray]:
    """Closed form of `approximate_projector` for the lower level
    0.5*||A u - b||^2 on the ball ||u|| <= radius, from svd = np.linalg.svd(A)
    (one factorization serves every weight): x -> the exact minimizer of
    0.5*||A u - b||^2 + (eta/2)*||u - x||^2 over the ball. That is
    V r / (s^2 + eta + mu) with r = s U^T b + eta V^T x, where the ball
    multiplier mu is 0 if this point lies in the ball and otherwise the root
    of the decreasing ||r / (s^2 + eta + mu)|| = radius (More & Sorensen,
    "Computing a trust region step", 1983), bisected to machine precision."""
    u_mat, s, vt = svd
    pad = (0, vt.shape[0] - s.size)  # zero singular values of a wide A
    d = eta + np.pad(s * s, pad)
    sb = np.pad(s * (u_mat.T @ b)[:s.size], pad)

    def norm(v: np.ndarray) -> float:
        # what np.linalg.norm computes for a 1-D float vector, without its dispatch
        return math.sqrt(v.dot(v))

    def project(x: np.ndarray) -> np.ndarray:
        r = sb + eta * (vt @ x)
        lo = mu = 0.0
        if norm(r / d) > radius:  # the ball is active
            mu = norm(r) / radius  # ||r / (d + mu)|| <= radius from here on
            while lo < 0.5 * (lo + mu) < mu:
                mid = 0.5 * (lo + mu)
                lo, mu = (mid, mu) if norm(r / (d + mid)) > radius else (lo, mid)
        return vt.T @ (r / (d + mu))

    return project


def empirical_growth_alpha(problem, points: Sequence[np.ndarray]) -> float:
    """Smallest observed ratio (lower gap) / dist^2 over the given points;
    an empirical quadratic-growth constant, reported rather than asserted."""
    ref = problem.reference
    if ref is None or ref.h_star is None or ref.projector is None:
        raise ConfigurationError("empirical growth needs h_star and a projector")
    ratios = []
    for x in points:
        gap = problem.lower.value(x) - ref.h_star
        d = dist_to_lower_set(problem, x)
        if d is not None and d > 1e-9:
            ratios.append(gap / (d * d))
    if not ratios:
        raise ConfigurationError("no points with positive distance to the set")
    return min(ratios)
