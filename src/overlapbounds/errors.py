"""Exception types shared across the package."""


class OverlapBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(OverlapBoundsError, ValueError):
    """An input violates a stated precondition; the message names the condition."""


class DivergenceError(DomainError):
    """A series or bound does not converge for the given parameters."""


class NonConvergenceError(DomainError):
    """A convergent series could not be certified within the summation guard."""


class TruncationError(OverlapBoundsError, ValueError):
    """A simulation truncation does not meet its tail tolerance."""


class FunctionalOverflowError(OverlapBoundsError, OverflowError):
    """An empirical functional overflows in double precision."""


class InputError(OverlapBoundsError, ValueError):
    """Malformed input that is not a mathematical domain violation."""
