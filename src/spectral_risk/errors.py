"""Exception types shared across the package."""

__all__ = ["DataError", "SingularityError", "NumericalError", "ConvergenceError"]


class DataError(ValueError):
    """Malformed or unusable input data (bad CSV, non-finite samples)."""


class SingularityError(ValueError):
    """A weight function was evaluated at a point where it diverges."""


class NumericalError(RuntimeError):
    """A numerical routine produced an unusable result."""


class ConvergenceError(NumericalError):
    """An iterative scheme ran out of budget before meeting its tolerance.

    Carries the best estimate seen so far and a bound on its error so
    callers can decide whether the partial answer is still useful.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound
