"""Error metrics evaluated against a problem's reference truth, plus
log-log rate fitting for the empirical convergence studies.

Metric functions return None when the required piece of reference truth is
absent; trace assembly renders that as an empty field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    d = x - ref.projector(x)
    return math.sqrt(d.dot(d))  # np.linalg.norm without its dispatch


def residual_norm(problem, x: np.ndarray, gamma_hat: float) -> Optional[float]:
    """Norm of the projected-gradient residual map
    (x - P(x - gamma_hat * grad f(x))) / gamma_hat; zero exactly at
    stationary points of the bilevel problem."""
    ref = problem.reference
    if ref is None or ref.projector is None:
        return None
    if not gamma_hat > 0:
        raise ContractViolation("residual map requires gamma_hat > 0")
    step = x - gamma_hat * problem.upper.smooth.gradient(x)
    d = x - ref.projector(step)
    return math.sqrt(d.dot(d)) / gamma_hat


def fit_rate(samples: Sequence, window: tuple, min_samples: int = 5) -> RateFit:
    """Least-squares line through (ln k, ln value) over the samples with a
    finite positive value and k inside [window[0], window[1]]; the slope is
    the empirical rate exponent. Samples are (k, value) pairs; value may be None.
    """
    k_lo, k_hi = window
    pts = []
    for k, v in samples:
        if v is not None and 0 < v < math.inf and k_lo <= k <= k_hi and k > 0:
            pts.append((math.log(k), math.log(v)))
    distinct_k = len({lk for lk, _ in pts})
    if len(pts) < min_samples or distinct_k < 2:
        raise ConfigurationError(
            f"rate fit needs at least {min_samples} positive samples, at two or more "
            f"k, in window [{k_lo}, {k_hi}]; found {len(pts)} at {distinct_k} k"
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
