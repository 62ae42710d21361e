"""Exception types shared across the package, and the validators raising them.

The split follows the usual numerics convention: :class:`ArgumentError` flags
inputs that are malformed regardless of their values (wrong shape, entries
that are not numbers, NaN/Inf, out-of-range configuration), while
:class:`AssumptionError` flags structurally valid inputs that fail a
mathematical precondition (a matrix that is not an involution, a spectral
point on the wrong side of the real axis, ...).
"""

import cmath
import math
import operator

import numpy as np


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
    try:
        c = complex(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArgumentError(f"{name} must be a complex number: {exc}") from exc
    if not cmath.isfinite(c):
        raise ArgumentError(f"{name} must be finite, got {value!r}")
    return c


def _finite_real(name, value) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArgumentError(f"{name} must be a real number: {exc}") from exc
    if not math.isfinite(x):
        raise ArgumentError(f"{name} must be finite, got {value!r}")
    return x


def _integer(name, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None


def _instance(name, value, kind):
    """Raise :class:`ArgumentError` naming the parameter and the type it got
    when value is not a kind."""
    if not isinstance(value, kind):
        raise ArgumentError(f"{name} must be of type {kind.__name__}, "
                            f"got {type(value).__name__}")


def _check_tol(tol, name="tol"):
    """Reject a tolerance or limit that is not a positive number (NaN,
    non-numbers and arrays of any size included)."""
    try:
        positive = not isinstance(tol, np.ndarray) and bool(tol > 0)
    except (TypeError, ValueError):
        positive = False
    if not positive:
        raise ArgumentError(f"{name} must be positive")
