"""Error taxonomy shared across the package.

Refusals (violated preconditions, caps, degenerate inputs) raise
:class:`PreconditionError`; numeric failures that should never be silently
returned (quadrature non-convergence, series truncation overflow) raise a
:class:`NonConvergenceError` subclass.  The CLI maps the former to exit code
2 and the latter to exit code 3.
"""


class PreconditionError(ValueError):
    """An operation was asked to run outside its stated domain."""


def _count(value, what: str, low: float = 1) -> int:
    """``value`` as an int, once it is a number with an integral value >= ``low``: 3, 3.0, numpy's int64(3) and
    float64(3.0) all give 3.  A fraction, a bool (True is not 1), NaN, an infinity, a string or None is refused."""
    if type(value) is not int:  # a plain int is the common case, checked by the one comparison below
        try:
            n = int(value)  # int("3") is 3, but "3" != 3 below
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != value or type(value).__name__ == "bool":  # Python's bool and numpy's
            raise PreconditionError(f"{what} must be an integer, got {value!r}")
        value = n
    if value < low:
        raise PreconditionError(f"{what} must be >= {low}, got {value}")
    return value


class NonConvergenceError(RuntimeError):
    """A numerical routine could not certify the requested accuracy."""


class QuadratureError(NonConvergenceError):
    """Adaptive quadrature exhausted its budget above tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class SeriesTruncationError(NonConvergenceError):
    """An infinite series/product could not be truncated within its cap."""
