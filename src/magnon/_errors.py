"""Exception taxonomy shared across the package.

Kept in one private module so every public module can raise the same types
without import cycles.
"""


class MagnonError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MagnonError, ValueError):
    """Malformed input: bad dimensions, off-grid momenta, broken symmetry."""


class CapacityError(MagnonError):
    """Requested problem size exceeds a hard cap of the dense solvers."""


class NumericalError(MagnonError, ArithmeticError):
    """A computation produced non-finite values or failed to converge."""


class HypothesisError(MagnonError):
    """An analytic bound was requested outside its regime of validity.

    Raised instead of returning a number that would carry no rigor.  Callers
    that can degrade gracefully (e.g. report writers) catch this and flag the
    result rather than fail.
    """
