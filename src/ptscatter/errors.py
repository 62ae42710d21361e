"""Exception types shared across the package, and the validators raising them.

The split follows the usual numerics convention: :class:`ArgumentError` flags
inputs that are malformed regardless of their values (wrong shape, NaN/Inf,
out-of-range configuration), while :class:`AssumptionError` flags structurally
valid inputs that fail a mathematical precondition (a matrix that is not an
involution, a spectral point on the wrong side of the real axis, ...).
"""

import math


class ArgumentError(ValueError):
    """Raised when an argument is malformed (shape, finiteness, range)."""


class AssumptionError(ValueError):
    """Raised when a valid-looking input violates a mathematical precondition."""


class SingularMatrixError(AssumptionError):
    """Raised when a matrix that must be inverted is singular or too
    ill-conditioned to invert reliably.

    The offending spectral point, when known, is attached as ``z``.
    """

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


def _finite_complex(name, value) -> complex:
    c = complex(value)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ArgumentError(f"{name} must be finite, got {value!r}")
    return c


def _finite_real(name, value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ArgumentError(f"{name} must be finite, got {value!r}")
    return x


def _check_tol(tol):
    """Reject a tolerance that is not a positive number (NaN included)."""
    if not tol > 0:
        raise ArgumentError("tol must be positive")
