"""Exception types shared across the package."""


class SturmdualError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SturmdualError):
    """Input text does not conform to the expected grammar.

    Carries ``position`` (0-based index into the input) when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotInvertibleError(SturmdualError):
    """The substitution does not extend to an automorphism of the free group."""


class DeterminantMinusOneError(SturmdualError):
    """Operation requires determinant +1; analyze the square instead."""


class CoveringError(SturmdualError):
    """Digit sets do not produce an exact non-overlapping interval covering."""


class NonIntervalWindowError(SturmdualError):
    """The window decomposition is not a pair of intervals (substitution not invertible)."""
