"""Shared exception types, and the check every count argument passes.

Every public entry point raises one of these instead of a bare ValueError so
that callers (and the command line driver) can map failures to exit codes.
"""

import numpy as np


class CritlineError(Exception):
    """Base class for all package errors."""


class DomainError(CritlineError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(CritlineError, ValueError):
    """An argument is valid mathematically but outside the supported range."""


class NumericalConsistencyError(CritlineError, ArithmeticError):
    """An internal cross-check failed (a quantity that must vanish did not)."""


class OptimizerError(CritlineError, RuntimeError):
    """The optimizer could not locate a feasible stationary point."""


class PreconditionError(CritlineError, ValueError):
    """A stated precondition of a formula is violated (e.g. N below threshold)."""


def _check_count(name: str, value, lo: float, hi: float = np.inf,
                 hi_name: str = "") -> None:
    """value must be an integer, not a bool, in [lo, hi]; hi_name, if
    given, is the constant the message names as the upper limit."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not lo <= value <= hi):
        top = f"{hi_name} = {hi:g}" if hi_name else f"{hi:g}"
        raise DomainError(f"{name} must be an integer in [{lo}, {top}], "
                          f"got {_plain(value)!r}")


def _plain(value):
    """value with a numpy scalar made the Python number it holds, so a
    message shows 0.5, not np.float64(0.5)."""
    return value.item() if isinstance(value, np.generic) else value
