"""Shared exception types.

Every public entry point raises one of these instead of a bare ValueError so
that callers (and the command line driver) can map failures to exit codes.
"""


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
