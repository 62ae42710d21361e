"""PT, Krein and C symmetry classification on C^2.

The antilinear PT map used throughout is v -> sigma_3 conj(v): entrywise
conjugation (the natural conjugation in a basis of real-valued boundary
functions) followed by the involution P.  On operators it acts by
m -> sigma_3 conj(m) sigma_3, which in Pauli coefficients sends
(a0, a1, a2, a3) to (conj a0, conj a1, -conj a2, conj a3).  An operator is
therefore PT-symmetric exactly when a0, a1, a3 are real and a2 is purely
imaginary.

Every PT-symmetric operator is self-adjoint in some Krein space with
involution P_xi, the angle being pinned by a1 sin(xi) = a3 cos(xi); the
solvers below produce that angle and, for involutive operators, the (xi, chi)
pair of the C-operator presentation cosh(chi) P_xi + i sinh(chi) R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, SIGMA1, SIGMA2, SIGMA3, TWO_PI,
                       KreinMetricParams, _decompose, c_operator, p_xi)
from .errors import ArgumentError, AssumptionError, _check_tol
from .matrix2 import _defect, _finite_array, as_matrix, as_vector


def pt_apply(v) -> np.ndarray:
    """Antilinear PT action on a vector: sigma_3 conj(v)."""
    return SIGMA3 @ np.conj(as_vector(v))


def _pt_images(s) -> np.ndarray:
    """sigma_3 conj(S) sigma_3 for a matrix or each S of a stack (..., 2, 2):
    conj(S) with its off-diagonal entries negated.  The two-product form
    differs from it only in the sign of zero entries, which no norm sees."""
    c = s.conj()
    c[..., 0, 1] = -c[..., 0, 1]
    c[..., 1, 0] = -c[..., 1, 0]
    return c


def pt_conjugate(m) -> np.ndarray:
    """The operator m' with (PT) m = m' (PT), i.e. sigma_3 conj(m) sigma_3."""
    return _pt_images(as_matrix(m))


@np.errstate(all="ignore")
def pt_defect(m) -> float:
    """||pt_conjugate(m) - m||; zero exactly for PT-symmetric m."""
    return _pt_defect(as_matrix(m))


def _pt_defect(a) -> float:
    """pt_defect of the validated matrix a, under the caller's errstate."""
    return _defect("PT", _pt_images(a) - a)


def is_pt_symmetric(m, tol: float = DEFAULT_TOL) -> bool:
    _check_tol(tol)
    return pt_defect(m) <= tol


@np.errstate(all="ignore")
def krein_defect(m, xi: float) -> float:
    """||P_xi m - m* P_xi||, zero iff m is self-adjoint for the indefinite
    inner product [f, g] = (P_xi f, g)."""
    return _krein_defect(as_matrix(m), p_xi(xi))


def _krein_defect(a, j) -> float:
    """||J a - a* J|| for the validated matrix a and an involution J, under
    the caller's errstate."""
    return _defect("Krein", j @ a - a.conj().T @ j)


def is_krein_selfadjoint(m, xi: float, tol: float = DEFAULT_TOL) -> bool:
    _check_tol(tol)
    return krein_defect(m, xi) <= tol


def solve_xi(m, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Angle xi in [0, 2*pi) with a1 sin(xi) = a3 cos(xi), and a degeneracy flag.

    When a1 = a3 = 0 within tol every angle works; (0.0, True) is returned.
    Raises :class:`AssumptionError` for non-PT-symmetric input.
    """
    _check_tol(tol)
    a = as_matrix(m)
    if not is_pt_symmetric(a, tol):
        raise AssumptionError("m is not PT-symmetric; no Krein involution P_xi applies")
    return _xi(a, tol)


def _xi(a, tol) -> tuple[float, bool]:
    """solve_xi of the validated matrix a, known to be PT-symmetric."""
    _, a1, _, a3 = _decompose(a)
    a1, a3 = a1.real, a3.real
    if abs(a1) <= tol and abs(a3) <= tol:
        return 0.0, True
    return math.atan2(a3, a1) % TWO_PI, False


@np.errstate(all="ignore")
def c_symmetry_defect(m, params: KreinMetricParams) -> float:
    """Commutator norm ||C m - m C|| for C = c_operator(params)."""
    a = as_matrix(m)
    c = c_operator(params)
    return _defect("C-symmetry", c @ a - a @ c)


def is_c_symmetric(m, params: KreinMetricParams, tol: float = DEFAULT_TOL) -> bool:
    _check_tol(tol)
    return c_symmetry_defect(m, params) <= tol


@np.errstate(all="ignore")
def c_params_from_matrix(m, tol: float = DEFAULT_TOL) -> KreinMetricParams:
    """Recover (xi, chi) with m = cosh(chi) P_xi + i sinh(chi) R.

    Preconditions, each checked within tol: m^2 = I, m PT-symmetric, and
    m != +-I.  Under those the Pauli coefficients have the pattern
    a1 = cos(xi) cosh(chi), a3 = sin(xi) cosh(chi), a2 = i sinh(chi), so
    chi = asinh(Im a2) and xi = atan2(a3, a1); the reconstruction residual is
    verified before returning.
    """
    _check_tol(tol)
    return _c_params(as_matrix(m), tol)[0]


def _c_params(a, tol) -> tuple[KreinMetricParams, np.ndarray, float]:
    """c_params_from_matrix of the validated matrix a, under the caller's
    errstate, the C-operator of those parameters that reconstructs a, and
    its reconstruction defect."""
    inv_defect = _defect("involution", a @ a - SIGMA0)
    if inv_defect > tol:
        raise AssumptionError(f"m is not an involution: ||m^2 - I|| = {inv_defect:.3e}")
    if _pt_defect(a) > tol:
        raise AssumptionError("m is not PT-symmetric")
    return _c_of_involution(a, tol)


def _c_of_involution(a, tol) -> tuple[KreinMetricParams, np.ndarray, float]:
    """_c_params of the validated matrix a, known to be a PT-symmetric
    involution within tol."""
    if _defect("+I", a - SIGMA0) <= tol or _defect("-I", a + SIGMA0) <= tol:
        raise AssumptionError("m = +-I is trivial; (xi, chi) is not determined")
    _, a1, a2, a3 = _decompose(a)
    chi = math.asinh(a2.imag)
    xi = math.atan2(a3.real, a1.real) % TWO_PI
    params = KreinMetricParams(xi=xi, chi=chi)
    c = c_operator(params)
    residual = _defect("C reconstruction", c - a)
    if residual > tol:
        raise AssumptionError(
            f"m passed the involution and PT checks but does not reconstruct "
            f"as a C-operator (residual {residual:.3e})")
    return params, c, residual


@np.errstate(all="ignore")
def krein_selfadjoint_reduction(m, alpha, tol: float = DEFAULT_TOL) -> float:
    """Reduce self-adjointness w.r.t. a general involution to some P_xi.

    ``alpha`` is the unit 3-vector (a1, a2, a3) of the involution
    J = a1 P + a2 R + a3 iRP.  For m PT-symmetric and self-adjoint w.r.t.
    [f, g] = (J f, g), the returned angle satisfies
    cos(xi) = a1/sqrt(1-a2^2), sin(xi) = a3/sqrt(1-a2^2) and m is then
    self-adjoint w.r.t. P_xi as well (verified before returning).
    """
    _check_tol(tol)
    a = as_matrix(m)
    al = _finite_array(alpha, (3,), "vector")
    if al.imag.any():
        raise ArgumentError("alpha must be real, got a nonzero imaginary part")
    al = al.real.copy()
    if abs(float(al @ al) - 1.0) > 1e-8:
        raise ArgumentError("alpha must be a unit vector")
    a1, a2, a3 = (float(x) for x in al)
    denom_sq = 1.0 - a2 * a2
    if denom_sq <= tol:
        raise AssumptionError("alpha1 = alpha3 = 0: the reduction to P_xi is undefined")
    if not _pt_defect(a) <= tol:
        raise AssumptionError("m is not PT-symmetric")
    j = a1 * SIGMA3 + a2 * SIGMA1 + a3 * SIGMA2
    j_defect = _krein_defect(a, j)
    if j_defect > tol:
        raise AssumptionError(
            f"m is not self-adjoint w.r.t. the given involution (defect {j_defect:.3e})")
    root = math.sqrt(denom_sq)
    xi = math.atan2(a3 / root, a1 / root) % TWO_PI
    defect = _krein_defect(a, p_xi(xi))
    if defect > tol:
        raise AssumptionError(
            f"reduction produced xi = {xi:.6f} but the P_xi defect is {defect:.3e}")
    return xi


@dataclass(frozen=True)
class SymmetryReport:
    """Aggregate classification of one operator.

    ``krein_xi`` is present only for PT-symmetric input; ``c_params`` only
    when the operator is a nontrivial PT-symmetric involution.  ``residuals``
    maps check names to nonnegative defects.
    """

    pt_symmetric: bool
    krein_xi: Optional[float]
    xi_degenerate: bool
    c_params: Optional[KreinMetricParams]
    residuals: dict


@np.errstate(all="ignore")
def symmetry_report(m, tol: float = DEFAULT_TOL) -> SymmetryReport:
    _check_tol(tol)
    a = as_matrix(m)
    residuals = {
        "pt": _pt_defect(a),
        "involution": _defect("involution", a @ a - SIGMA0),
    }
    pt_ok = residuals["pt"] <= tol
    xi: Optional[float] = None
    degenerate = False
    cp: Optional[KreinMetricParams] = None
    if pt_ok:
        xi, degenerate = _xi(a, tol)
        residuals["krein"] = _krein_defect(a, p_xi(xi))
        if not residuals["involution"] > tol:   # _c_params' test, which a NaN passes
            try:
                cp, _, residuals["c_reconstruction"] = _c_of_involution(a, tol)
            except AssumptionError:
                pass
    return SymmetryReport(pt_symmetric=pt_ok, krein_xi=xi, xi_degenerate=degenerate,
                          c_params=cp, residuals=residuals)
