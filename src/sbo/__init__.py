"""Regularized proximal-gradient solvers for simple bilevel optimization:
minimize an upper objective over the solution set of a lower composite
convex problem, with per-iteration metric traces and empirical
convergence-rate verification.
"""

from .bilevel import (BilevelProblem, CompositeObjective, ReferenceTruth,
                      SubgradientAtOpt, WeakSharp)
from .errors import (ConfigurationError, ContractViolation, DivergenceError,
                     ParseError, PowerIterationError, SboError)
from .functions import (LeastSquares, MoreauLogSum, ScaledSqNorm,
                        SmoothFunction, ZeroFunction)
from .prox import (BallProx, BoxProx, CombinedProx, L1Prox, LogSumProx,
                   ZeroProx, prox_ball, prox_box, prox_l1, prox_logsum)
from .metrics import (dist_to_lower_set, fit_rate, infeasibility,
                      residual_norm, suboptimality)
from .problems import (InstanceSpec, build_instance, gen_baart, gen_foxgood,
                       gen_l1_weak_sharp, gen_nonconvex_sec6, gen_phillips,
                       gen_rank_deficient_ls, gen_sec61_inverse,
                       load_instance, save_instance)
from .solvers import (ConstantIstaSchedule, ConstantVfistaSchedule,
                      DiminishingSchedule, FixedEtaSchedule, NcConfig,
                      RunReport, SolverConfig, TraceRecord, solve_fista_baseline,
                      solve_ipr_vfista, solve_ir_ista, solve_r_vfista)

__version__ = "0.1.0"
