"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands declare incompatible vertex sets or variable sets."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class DivisibilityError(ArithmeticError):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class StructuralViolationError(RuntimeError):
    """An identity that is a theorem (positivity, integrality, freeness)
    failed numerically.  Always a bug or a corrupted input, never clamped."""


class LimitExceededError(RuntimeError):
    """Valid input beyond a configured bound: the size of a combinatorial
    search, or the packed-exponent limit of ``ColoredPoly``."""


class QuiverFormatError(ValueError):
    """A quiver description could not be parsed; ``location`` says where."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.location = location
