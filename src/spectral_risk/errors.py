"""Exception types shared across the package, and the rules that read a
caller's scalar arguments and raise them."""

import numbers

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


def _is_integer(x) -> bool:
    """True for Python and numpy integers, False for bools and floats."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _integer(name: str, x) -> int:
    """x as a Python int, for an integer; else a ValueError names name and x."""
    if not _is_integer(x):
        raise ValueError(f"{name} must be an integer, not {x!r}")
    return int(x)


def _real(name: str, x) -> float:
    """float(x), for a real number but a bool whose float does not
    overflow; else a ValueError names name, and x unless it overflows."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int or a Fraction beyond the largest double
        raise ValueError(f"{name} must be a real number within the range of a double") from None


def _seed(seed) -> int:
    """seed as a Python int; TypeError for a non-integer, such as None or True."""
    if not _is_integer(seed):
        raise TypeError(f"seed must be a non-negative integer, not {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    return int(seed)


def _instance(name: str, x, cls):
    """x, for an instance of cls; else a TypeError names name and x's type."""
    if not isinstance(x, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, not {type(x).__name__}")
    return x
