"""Exception taxonomy and input rules shared across the package.

Kept in one private module so every public module can raise the same types
and apply the same rules without import cycles.  The rules are written once
here: ``inverse_temperature`` (``beta_tilde`` positive and finite), ``spin``
(``2S`` a positive integer; returns ``S``) and ``cutoff`` (a per-site boson
cap ``n_max`` a positive integer).  ``integer`` is the one integer test
behind these and every other count the package takes: a ``bool`` is refused,
though Python counts it as an ``int``.  ``overflow`` is the one message for
a quantity that leaves float range at an extreme temperature.
"""

import math


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


def overflow(quantity: str, beta_tilde) -> NumericalError:
    """The error for ``quantity`` overflowing a float at inverse temperature ``beta_tilde``."""
    return NumericalError(f"{quantity} overflows a float at beta_tilde={beta_tilde!r}")


def inverse_temperature(beta_tilde) -> float:
    """``beta_tilde`` as a float; it must be positive and finite."""
    bt = float(beta_tilde)
    if not 0.0 < bt < math.inf:
        raise ValidationError("beta_tilde must be positive and finite")
    return bt


def integer(value, message: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) in ``[low, high]``.

    Anything else raises ``ValidationError(message)``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValidationError(message)
    return value


def spin(two_s) -> float:
    """The spin ``S`` of ``two_s = 2S``, which must be a positive integer."""
    return integer(two_s, "two_s must be a positive integer") / 2.0


def cutoff(n_max) -> int:
    """The per-site boson cap ``n_max``, which must be a positive integer."""
    return integer(n_max, "n_max must be a positive integer")
