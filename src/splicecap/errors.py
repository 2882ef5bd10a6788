"""Exception types shared across the package."""

__all__ = [
    "SpliceCapError",
    "ParseError",
    "NotRealizable",
    "InvalidMove",
    "DegenerateOnO",
    "MultiComponentError",
    "InvariantViolation",
]


class SpliceCapError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SpliceCapError, ValueError):
    """Malformed Gauss-code text, record file, or witness script."""


class NotRealizable(SpliceCapError, ValueError):
    """A signed Gauss code with no spherical realization (V - E + F != 2)."""


class InvalidMove(SpliceCapError, ValueError):
    """A splice or insertion applied where its preconditions fail."""


class DegenerateOnO(InvalidMove):
    """Band insertion requested on the simple closed curve; use a kink insertion."""


class MultiComponentError(InvalidMove):
    """An operation that requires a knot projection got a multi-component curve."""


class InvariantViolation(AssertionError):
    """An internal invariant failed: a bug in this package, not bad input.

    It is raised explicitly, so it holds under ``python -O``, and it is no
    :class:`SpliceCapError`, so no caller takes it for an input error or an
    invalid witness.
    """
