"""Closed-form primitives for 2x2 complex matrices.

Every norm, inverse and eigenvalue used in this package reduces to an exact
2x2 formula (trace/determinant discriminants), so nothing here calls an
iterative LAPACK routine.  That keeps all tolerance checks deterministic and
platform independent.

The one-matrix forms read the four entries once, as Python complex numbers
(``a.ravel().tolist()``), and do their closed-form arithmetic on Python
floats and complex numbers: a numpy call on a 4-entry array costs more than
the arithmetic.  They keep the bits of the numpy expressions they replace,
which rules out three shortcuts:

* the entry moduli of ``operator_norm`` stay ``np.abs(a)``: numpy's complex
  ``abs`` on arrays rounds differently from Python's ``abs`` (libm
  ``hypot``), and the stack form uses ``np.abs``;
* ``math.hypot`` has an algorithm of its own; ``np.hypot(x, y)`` on two
  floats is written ``_hypot(x, y)``, Python's ``abs(complex(x, y))``;
* matrix products stay ``@`` (BLAS accumulates them its own way), and so
  do complex array-by-scalar products and quotients: numpy's loops fuse the
  multiply-adds (and divide through a reciprocal) where Python rounds each
  step.

A matrix is read once.  A helper that needs the entries of a matrix its
caller has already read or validated takes them from the caller (as
``_det_condition`` takes ``p, q, r, s`` from ``_adjugate``'s one
``tolist``) rather than reading or validating the matrix again, and one
read serves both the finiteness test and the determinant of a defect, or
the finiteness test and the eigenvalues of a formed Hermitian matrix.

The underscored stack forms (``_det_conditions``, ``_adjugates``,
``_operator_norms``, ``_hermitian_lows``) apply the same formulas to arrays of
shape (N, 2, 2) and reproduce the one-matrix results bit for bit: products of
complex entries are formed from real parts (numpy's complex array multiply
may fuse them, Python's does not), moduli come from ``np.hypot`` like
Python's ``abs``, and the four-entry sums add left to right, as ``np.sum``
does on one 2x2 matrix.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ArgumentError, SingularMatrixError, _check_tol


def _finite_array(x, shape, name) -> np.ndarray:
    """Coerce to a complex ndarray of the given shape with finite entries."""
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArgumentError(f"expected a {name} of shape {shape} with numeric entries: "
                            f"{exc}") from exc
    if a.shape != shape:
        raise ArgumentError(f"expected a {name} of shape {shape}, got shape {a.shape}")
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise ArgumentError(f"{name} entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2x2 complex ndarray."""
    return _finite_array(m, (2, 2), "matrix")


def as_vector(v) -> np.ndarray:
    return _finite_array(v, (2,), "vector")


def _det(a) -> complex:
    p, q, r, s = a.ravel().tolist()
    return p * s - q * r


def det(m) -> complex:
    return _det(as_matrix(m))


def operator_norm(m) -> float:
    """Largest singular value, from the eigenvalues of m* m.  It calls the
    public det, which validates m again, so that its traced call tree stays
    the one ``benchmarks/test_bench.py::test_spans_record_parents`` pins."""
    a = as_matrix(m)
    return _norm(a, det(a))


def _norm(a, d) -> float:
    """operator_norm of the validated matrix a with determinant d."""
    x0, x1, x2, x3 = np.abs(a).ravel().tolist()
    t = ((x0 * x0 + x1 * x1) + x2 * x2) + x3 * x3  # tr(m* m)
    absd = _hypot(d.real, d.imag)                    # det(m* m) = absd * absd
    disc = max(t * t / 4.0 - absd * absd, 0.0)
    return math.sqrt(t / 2.0 + math.sqrt(disc))


def _formed(what, m, at=""):
    """m, a matrix formed from validated input; an inf or NaN entry raises
    :class:`ArgumentError` naming it, ``the {what} overflows{at}``."""
    _formed_entries(what, m, at)
    return m


def _formed_entries(what, m, at=""):
    """The four entries of the matrix m, checked as :func:`_formed` checks them."""
    entries = m.ravel().tolist()
    if not all(map(cmath.isfinite, entries)):
        raise ArgumentError(f"the {what} overflows{at}")
    return entries


def _defect(name, difference, at="") -> float:
    """operator_norm of the formed matrix difference, the name defect; its
    finiteness test and its determinant share one read of the entries."""
    p, q, r, s = _formed_entries(f"{name} defect", difference, at)
    return _norm(difference, p * s - q * r)


def _sum4(x) -> np.ndarray:
    """Entry sums of a stack of 2x2 real arrays, added left to right."""
    return ((x[:, 0, 0] + x[:, 0, 1]) + x[:, 1, 0]) + x[:, 1, 1]


def _clip0(x) -> np.ndarray:
    """max(x, 0.0) elementwise, NaN and -0.0 kept as Python's max keeps them."""
    return np.where(0.0 > x, 0.0, x)


def _det_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the determinants of a stack of 2x2 arrays."""
    p, q, r, s = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    return ((p.real * s.real - p.imag * s.imag) - (q.real * r.real - q.imag * r.imag),
            (p.real * s.imag + p.imag * s.real) - (q.real * r.imag + q.imag * r.real))


def _operator_norms(a) -> np.ndarray:
    """operator_norm of each matrix of a stack (N, 2, 2)."""
    t = _sum4(np.abs(a) ** 2)
    absd = np.hypot(*_det_parts(a))
    return np.sqrt(t / 2.0 + np.sqrt(_clip0(t * t / 4.0 - absd * absd)))


def _det_condition(p, q, r, s) -> tuple[complex, float]:
    """Determinant and condition number s_max / s_min (inf when singular) of
    the matrix with entries p, q (first row) and r, s (second row).

    s_min comes from |det a| = s_max * s_min, which avoids the cancellation
    the direct eigenvalue formula suffers for ill-conditioned input.  An
    estimate that overflows to inf or NaN counts as singular.
    """
    d = p * s - q * r
    absd = _hypot(d.real, d.imag)
    if absd == 0.0:
        return d, math.inf
    frob = (((p.real * p.real + p.imag * p.imag) + (q.real * q.real + q.imag * q.imag))
            + (r.real * r.real + r.imag * r.imag)) + (s.real * s.real + s.imag * s.imag)
    disc = max(frob * frob / 4.0 - absd * absd, 0.0)
    cond = max((frob / 2.0 + math.sqrt(disc)) / absd, 1.0)
    return d, cond if cond < math.inf else math.inf


def _det_conditions(a) -> tuple[np.ndarray, np.ndarray]:
    """_det_condition of each matrix of a stack (N, 2, 2): complex
    determinants and condition numbers (inf when singular or overflowed).
    Callers run it under ``np.errstate``: singular rows divide by zero."""
    re, im = _det_parts(a)
    absd = np.hypot(re, im)
    frob = _sum4(a.real ** 2 + a.imag ** 2)
    cond = (frob / 2.0 + np.sqrt(_clip0(frob * frob / 4.0 - absd * absd))) / absd
    cond = np.where(1.0 > cond, 1.0, cond)
    d = np.empty(len(a), dtype=complex)
    d.real, d.imag = re, im
    return d, np.where((cond < math.inf) & (absd != 0.0), cond, math.inf)


def _singular_error(cond, condition_limit, z=None, name="matrix"):
    """The :class:`SingularMatrixError` for a condition number that is inf or
    exceeds ``condition_limit`` (None: no limit), carrying ``z``; else None."""
    if cond == math.inf:
        problem = "is singular"
    elif condition_limit is not None and cond > condition_limit:
        problem = f"condition number {cond:.3e} exceeds {condition_limit:g}"
    else:
        return None
    at = "" if z is None else f" at z = {z}"
    return SingularMatrixError(f"{name} {problem}{at}", z=z)


def _adjugate(a, condition_limit, z=None, name="matrix"):
    """(adjugate, determinant, condition number) of a 2x2 array; raises
    :class:`SingularMatrixError` carrying ``z`` when a is singular or its
    condition number exceeds ``condition_limit`` (None: no limit)."""
    p, q, r, s = a.ravel().tolist()
    d, cond = _det_condition(p, q, r, s)
    err = _singular_error(cond, condition_limit, z, name)
    if err is not None:
        raise err
    return np.array([[s, -q], [-r, p]]), d, cond


def _adjugates(a) -> np.ndarray:
    """The adjugate of each matrix of a stack (N, 2, 2), C-contiguous like the
    one _adjugate builds."""
    adj = np.empty_like(a)
    adj[:, 0, 0], adj[:, 0, 1] = a[:, 1, 1], -a[:, 0, 1]
    adj[:, 1, 0], adj[:, 1, 1] = -a[:, 1, 0], a[:, 0, 0]
    return adj


def condition_number(m) -> float:
    """Spectral condition number s_max / s_min; inf for singular matrices."""
    return _det_condition(*as_matrix(m).ravel().tolist())[1]


def inverse(m) -> np.ndarray:
    """Adjugate-over-determinant inverse; a singular m raises
    :class:`SingularMatrixError`."""
    adj, d, _ = _adjugate(as_matrix(m), None)
    return adj / d


@np.errstate(all="ignore")
def is_hermitian(m, tol: float) -> bool:
    _check_tol(tol)
    a = as_matrix(m)
    return _defect("Hermiticity", a - a.conj().T) <= tol


def _hypot(x: float, y: float) -> float:
    """np.hypot(x, y) for two floats: libm hypot, inf where it overflows
    (Python's abs of a complex raises there)."""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def hermitian_eigenvalues(m) -> tuple[float, float]:
    """Eigenvalues (ascending) of a Hermitian 2x2 matrix, closed form.

    Only the real parts of the diagonal and the modulus of the (0, 1) entry
    enter, so an almost-Hermitian matrix is quietly projected; callers that
    need a hard Hermiticity guarantee must check :func:`is_hermitian` first.
    Where p + s or p - s of the diagonal overflows, both are formed from
    p / 2 and s / 2 (halving first everywhere would round subnormals).
    """
    return _hermitian_eigenvalues(as_matrix(m).ravel().tolist())


def _hermitian_eigenvalues(entries) -> tuple[float, float]:
    """hermitian_eigenvalues of the validated matrix with the four entries."""
    p, q, _, s = entries
    p, s = p.real, s.real
    mid, half = (p + s) / 2.0, (p - s) / 2.0
    if math.isinf(mid) or math.isinf(half):
        mid, half = p / 2.0 + s / 2.0, p / 2.0 - s / 2.0
    rad = _hypot(half, _hypot(q.real, q.imag))
    return (mid - rad, mid + rad)


def _hermitian_lows(m) -> np.ndarray:
    """hermitian_eigenvalues(m)[0] for each matrix of a stack (N, 2, 2)."""
    p, q, off = m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1]
    mid, half = (p + q) / 2.0, (p - q) / 2.0
    over = np.isinf(mid) | np.isinf(half)
    if over.any():
        mid, half = np.where(over, p / 2.0 + q / 2.0, mid), np.where(over, p / 2.0 - q / 2.0, half)
    return mid - np.hypot(half, np.hypot(off.real, off.imag))
