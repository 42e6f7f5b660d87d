"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Exponent vector length does not match the ring or order."""


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class DomainError(ValueError):
    """Input outside an operation's domain (zero polynomial, s = 0, ...)."""


class ParseError(ValueError):
    """Syntax error in polynomial text, with 1-based position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class BudgetExceededError(RuntimeError):
    """A resource cap (S-pair count or coefficient size) was hit."""


class InternalCheckError(RuntimeError):
    """A result failed an internal consistency check; a defect, not bad input."""


class NotAConfigurationError(ValueError):
    """Point set admits no grading vector hitting 1 on every point."""


class NonMonomialInitialError(ValueError):
    """The weight vector does not select a single term from some generator."""
