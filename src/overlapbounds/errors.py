"""Exception types shared across the package: each is an ``InputError`` (CLI exit 64) or a ``DomainError`` (exit 2).

Every closed form is evaluated through ``positive_finite``.
"""

import math
from typing import Callable


class OverlapBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(OverlapBoundsError, ValueError):
    """An input violates a stated precondition; the message names the condition."""


class DivergenceError(DomainError):
    """A series or bound does not converge for the given parameters."""


class NonConvergenceError(DomainError):
    """A convergent series could not be certified within the summation guard."""


class TruncationError(DomainError):
    """A simulation truncation does not meet its tail tolerance."""


class FunctionalOverflowError(DomainError, OverflowError):
    """A simulated or summed value overflows double precision."""


def positive_finite(compute: Callable[[], float], what: str) -> float:
    """``compute()``, a closed form, as a double in [5e-324, max], so an upper bound stays one.

    An ``OverflowError`` or a result that is not finite raises ``FunctionalOverflowError`` saying
    that ``what`` overflows double precision; a result that underflows to 0.0 reads 5e-324.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise FunctionalOverflowError(f"{what} overflows double precision")
    return max(value, math.ulp(0.0))


class InputError(OverlapBoundsError, ValueError):
    """Malformed input that is not a mathematical domain violation."""
