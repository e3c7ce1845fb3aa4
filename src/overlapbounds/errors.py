"""Exception types shared across the package: each is an ``InputError`` (CLI exit 64) or a ``DomainError`` (exit 2).

``overflow_checked`` turns a closed form that overflows double precision into a ``FunctionalOverflowError``.
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


def overflow_checked(compute: Callable[[], float], what: str) -> float:
    """``compute()`` when it is a finite number.

    An ``OverflowError`` or a result that is not finite raises ``FunctionalOverflowError``
    saying that ``what`` overflows double precision.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise FunctionalOverflowError(f"{what} overflows double precision")
    return value


class InputError(OverlapBoundsError, ValueError):
    """Malformed input that is not a mathematical domain violation."""
