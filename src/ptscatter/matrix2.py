"""Closed-form primitives for 2x2 complex matrices.

Every norm, inverse and eigenvalue used in this package reduces to an exact
2x2 formula (trace/determinant discriminants), so nothing here calls an
iterative LAPACK routine.  That keeps all tolerance checks deterministic and
platform independent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, SingularMatrixError, _check_tol


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2x2 complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ArgumentError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ArgumentError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.shape != (2,):
        raise ArgumentError(f"expected a length-2 vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ArgumentError("vector entries must be finite")
    return a


def _det(a) -> complex:
    return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def det(m) -> complex:
    return _det(as_matrix(m))


def operator_norm(m) -> float:
    """Largest singular value, from the eigenvalues of m* m."""
    a = as_matrix(m)
    t = float(np.sum(np.abs(a) ** 2))  # tr(m* m)
    d = abs(det(a)) ** 2               # det(m* m)
    disc = max(t * t / 4.0 - d, 0.0)
    return float(np.sqrt(t / 2.0 + np.sqrt(disc)))


def _det_condition(a) -> tuple[complex, float]:
    """Determinant and condition number s_max / s_min (inf when singular).

    s_min comes from |det a| = s_max * s_min, which avoids the cancellation
    the direct eigenvalue formula suffers for ill-conditioned input.
    """
    d = _det(a)
    absd = abs(d)
    if absd == 0.0:
        return d, math.inf
    frob = float((a.real ** 2 + a.imag ** 2).sum())  # tr(a* a)
    disc = max(frob * frob / 4.0 - absd * absd, 0.0)
    return d, max((frob / 2.0 + math.sqrt(disc)) / absd, 1.0)


def _adjugate(a, condition_limit, z=None, name="matrix"):
    """(adjugate, determinant, condition number) of a 2x2 array; raises
    :class:`SingularMatrixError` carrying ``z`` when a is singular or its
    condition number exceeds ``condition_limit`` (None: no limit)."""
    d, cond = _det_condition(a)
    if cond == math.inf:
        problem = "is singular"
    elif condition_limit is not None and cond > condition_limit:
        problem = f"condition number {cond:.3e} exceeds {condition_limit:g}"
    else:
        return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]), d, cond
    at = "" if z is None else f" at z = {z}"
    raise SingularMatrixError(f"{name} {problem}{at}", z=z)


def condition_number(m) -> float:
    """Spectral condition number s_max / s_min; inf for singular matrices."""
    return _det_condition(as_matrix(m))[1]


def inverse(m, condition_limit: float | None = None, z=None) -> np.ndarray:
    """Adjugate-over-determinant inverse.

    When ``condition_limit`` is given, matrices whose condition number
    exceeds it are rejected with :class:`SingularMatrixError` (carrying the
    spectral point ``z`` if supplied).
    """
    adj, d, _ = _adjugate(as_matrix(m), condition_limit, z)
    return adj / d


def is_hermitian(m, tol: float) -> bool:
    _check_tol(tol)
    a = as_matrix(m)
    return operator_norm(a - a.conj().T) <= tol


def hermitian_eigenvalues(m) -> tuple[float, float]:
    """Eigenvalues (ascending) of a Hermitian 2x2 matrix, closed form.

    Only the real parts of the diagonal and the modulus of the (0, 1) entry
    enter, so an almost-Hermitian matrix is quietly projected; callers that
    need a hard Hermiticity guarantee must check :func:`is_hermitian` first.
    """
    a = as_matrix(m)
    p = a[0, 0].real
    q = a[1, 1].real
    mid = (p + q) / 2.0
    rad = float(np.hypot((p - q) / 2.0, abs(a[0, 1])))
    return (float(mid - rad), float(mid + rad))
