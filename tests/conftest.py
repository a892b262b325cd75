import numpy as np
import pytest

from sbo.bilevel import BilevelProblem, CompositeObjective
from sbo.functions import SmoothFunction
from sbo.problems import gen_nonconvex_sec6, gen_rank_deficient_ls
from sbo.prox import ZeroProx


class DiagQuadratic(SmoothFunction):
    """0.5 * sum_i w_i (x_i - c_i)^2 with exact L = max w, mu = min w.

    Test helper: the library's least-squares term inflates its estimated
    Lipschitz constant for stepsize safety, which would perturb the exact
    algebraic identities checked here.
    """

    def __init__(self, weights, center=None):
        self.weights = np.asarray(weights, dtype=float)
        self.dimension = self.weights.shape[0]
        self.center = (np.zeros(self.dimension) if center is None
                       else np.asarray(center, dtype=float))
        self.lipschitz = float(self.weights.max())
        self.strong_convexity = float(self.weights.min())

    def value(self, x):
        d = x - self.center
        return 0.5 * float(self.weights @ (d * d))

    def gradient(self, x):
        return self.weights * (x - self.center)


class GradientTurnsNan(DiagQuadratic):
    """Its gradient is `fill` (NaN unless given) from call number
    `good_calls` + 1 on."""

    def __init__(self, weights, good_calls, fill=np.nan, center=None):
        super().__init__(weights, center)
        self.calls, self.good_calls, self.fill = 0, good_calls, fill

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        return g if self.calls <= self.good_calls else np.full_like(g, self.fill)


def quad_problem(h_weights, h_center, f_weights, f_center,
                 omega_h=None, omega_f=None, x0=None):
    lower = CompositeObjective(DiagQuadratic(h_weights, h_center),
                               omega_h or ZeroProx())
    upper = CompositeObjective(DiagQuadratic(f_weights, f_center),
                               omega_f or ZeroProx())
    return BilevelProblem(upper, lower, initial_point=x0)


@pytest.fixture(scope="session")
def rd_instance():
    """The rank-deficient family member shared by metric tests: cheap build,
    analytic truths only (lam = 0 so x* and f* are exact)."""
    return gen_rank_deficient_ls(12, 4, seed=11, mu_f=1.0, lam=0.0)


@pytest.fixture(scope="session")
def rd_instance_l1():
    """Small lam > 0 member with a manufactured f*."""
    return gen_rank_deficient_ls(12, 4, seed=11, mu_f=1.0, lam=0.1,
                                 f_star_budget=300_000)


@pytest.fixture(scope="session")
def acceptance_instance():
    """The criterion instance: n = 50, rank = 25, lam = 0.1, mu_f = 1."""
    return gen_rank_deficient_ls(50, 25, seed=7, mu_f=1.0, lam=0.1,
                                 f_star_budget=1_500_000)


@pytest.fixture(scope="session")
def nonconvex_instance():
    """The smooth nonconvex configuration on the phillips system, n = 32."""
    return gen_nonconvex_sec6(32, "phillips", delta=1e-2, epsilon=1e-1)
