"""Exception types shared across the package."""


class MeanmaxError(Exception):
    """Base class for all library errors."""


class DomainError(MeanmaxError):
    """A point lies outside the half-open interval a function is defined on."""


class NonFiniteValueError(MeanmaxError):
    """A function evaluation produced NaN or infinity, or exceeded the overflow guard."""


class UncertifiableTailError(MeanmaxError):
    """Supremum over an unbounded tail cannot be certified (no tail declaration)."""


class UnboundedSupError(MeanmaxError):
    """Supremum requested for a function declared not locally bounded."""


class DegenerateIntervalError(MeanmaxError):
    """Integration interval is empty/reversed, or the measure does not increase on it."""


class QuadratureError(MeanmaxError):
    """Adaptive quadrature failed to converge within its halving or point budget."""


class MissingDerivativeError(MeanmaxError):
    """An operation requiring the measure's derivative got a measure without one."""


class CsvFormatError(MeanmaxError):
    """A CSV function table is malformed."""


class ExpressionError(MeanmaxError):
    """Base class for expression-language errors."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExpressionSyntaxError(ExpressionError):
    """Lexical or grammatical error in an expression string."""


class NonDifferentiableError(ExpressionError):
    """Symbolic derivative requested for a non-differentiable primitive."""
