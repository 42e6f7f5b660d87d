"""Exception types shared across the package, each with the exit code the
command-line interface returns for it."""


class VeroneseGBError(Exception):
    """Base of the package's errors: unreadable input unless a subclass says
    otherwise.  ``prefix`` opens the CLI's one-line message."""

    exit_code = 2
    prefix = ""


class DimensionError(VeroneseGBError, ValueError):
    """Exponent vector length does not match the ring or order."""


class RingMismatchError(VeroneseGBError, ValueError):
    """Operands belong to different rings."""


class DomainError(VeroneseGBError, ValueError):
    """Input outside an operation's domain (zero polynomial, s = 0, ...)."""


class ParseError(VeroneseGBError, ValueError):
    """Syntax error in polynomial text, with 1-based position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class BudgetExceededError(VeroneseGBError, RuntimeError):
    """A resource cap (S-pair count or coefficient size) was hit."""

    exit_code = 3


class InternalCheckError(VeroneseGBError, RuntimeError):
    """A result failed an internal consistency check; a defect, not bad input."""

    exit_code = 6
    prefix = "internal check failed: "


class NotAConfigurationError(VeroneseGBError, ValueError):
    """Point set admits no grading vector hitting 1 on every point."""

    exit_code = 5


class NonMonomialInitialError(VeroneseGBError, ValueError):
    """The weight vector does not select a single term from some generator."""

    exit_code = 4
