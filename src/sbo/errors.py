"""Exception taxonomy shared by all sbo modules."""


class SboError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(SboError, ValueError):
    """An operation was called with arguments violating its contract
    (dimension mismatch, non-finite input, invalid bounds)."""


class ConfigurationError(SboError, ValueError):
    """A solver / problem configuration is infeasible. The message names
    the violated condition so harness output can surface it verbatim."""


class ParseError(SboError, ValueError):
    """Malformed text input (matrix/vector/instance/config file)."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class DivergenceError(SboError, RuntimeError):
    """A solver iterate left the finite-float range. Carries the index of
    the failing step, the last finite iterate, every trace record taken
    before that step and the solver's resolved configuration. The raiser
    gives the first two; the solver's run record (`solvers._Run`) attaches
    the trace and config as the error leaves the run, so both are empty
    when it is raised outside a solver run, as by a direct
    `bilevel.accelerated_run`. The records' values need not be finite: an
    objective value can overflow to inf many records before the iterate
    leaves the float range. A diverged run's report.txt echoes, as
    `last_finite.*`, the last record whose values are all finite."""

    def __init__(self, message: str, k: int, last_finite, trace=None, config=None):
        super().__init__(message)
        self.k = k
        self.last_finite = last_finite
        self.trace = trace or []
        self.config = config or {}


class PowerIterationError(SboError, RuntimeError):
    """lambda_max(A.T A), or the Lipschitz constant inflated from it, lies
    beyond the float range. Carries the estimate (inf if lambda_max itself
    overflows)."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
