"""Exception types shared across the package."""


class RatdynError(Exception):
    """Base class for all errors raised by this package."""


class VariableMismatchError(RatdynError):
    """Operands were built over different variable lists."""


class ZeroDenominatorError(RatdynError, ZeroDivisionError):
    """A rational function was asked for with an identically zero denominator."""


class IndeterminacyError(RatdynError):
    """A composition landed entirely inside a pole set."""


class NotDominantError(RatdynError):
    """An operation requiring a dominant system received a degenerate one."""


class PreconditionError(RatdynError):
    """A documented precondition of an operation was violated."""


class WorkLimitError(RatdynError):
    """A computation would go past a fixed cap on its size."""


class SingularMatrixError(RatdynError):
    """An integer matrix that had to be invertible was singular."""


class ParseError(RatdynError):
    """Lexical or syntax error in an expression, with source position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UsageError(RatdynError):
    """Malformed command line: unknown or missing arguments, bad values."""


class SystemFileError(RatdynError):
    """Malformed system description file."""
