"""Exception types shared across the package: one per exit code of the CLI."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation: operands
    on different vertex or variable sets, or a quiver description that
    cannot be parsed, included."""


class StructuralViolationError(RuntimeError):
    """An identity that is a theorem (positivity, integrality, freeness,
    block symmetry) failed numerically.  Always a bug or a corrupted input,
    never clamped."""


class LimitExceededError(RuntimeError):
    """Valid input beyond a configured bound: the size of a combinatorial
    search, or the packed-exponent limit of ``ColoredPoly``."""
