"""The Clifford algebra Cl2 realized on C^2.

The two anti-commuting unitary involutions generating the algebra are
represented by Pauli matrices,

    P -> sigma_3,    R -> sigma_1,    iRP -> sigma_2,

so the basis {I, P, R, iRP} is {sigma_0, sigma_3, sigma_1, sigma_2} and the
algebra is all of M_2(C).  The one-parameter family of PT-symmetric unitary
involutions

    P_xi = e^{i xi R} P = [[cos xi, -i sin xi], [i sin xi, -cos xi]]

together with the hyperbolic rotations e^{chi i R P_xi} builds the
C-operators C = cosh(chi) P_xi + i sinh(chi) R and the positive metric
e^{-chi i R P_xi} used by the rest of the package.  All exponentials of
involutions are evaluated in closed form, cosh/sinh of the parameter, never
through a general-purpose expm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentError, AssumptionError, _check_tol,
                     _finite_complex, _finite_real, _instance)
from .matrix2 import _defect, _finite_array, _formed, as_matrix

DEFAULT_TOL = 1e-10
TWO_PI = 2.0 * math.pi

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
for _s in (SIGMA0, SIGMA1, SIGMA2, SIGMA3):
    _s.setflags(write=False)
del _s


@dataclass(frozen=True)
class PauliCoefficients:
    """Coefficients (a0, a1, a2, a3) of I, P (sigma_3), R (sigma_1), iRP (sigma_2)."""

    a0: complex
    a1: complex
    a2: complex
    a3: complex

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))


@dataclass(frozen=True)
class KreinMetricParams:
    """The pair (xi, chi): xi selects the involution P_xi, chi the hyperbolic
    strength of the C-operator and of the metric.  xi is stored reduced to
    [0, 2*pi); chi is rejected when cosh(chi) overflows (|chi| above about
    710)."""

    xi: float
    chi: float

    def __post_init__(self):
        xi = _finite_real("xi", self.xi)
        chi = _finite_real("chi", self.chi)
        try:
            math.cosh(chi)
        except OverflowError:
            raise ArgumentError(f"chi = {chi!r} is too large: cosh(chi) overflows") from None
        object.__setattr__(self, "xi", xi % TWO_PI)
        object.__setattr__(self, "chi", chi)


def p_xi(xi: float) -> np.ndarray:
    """The PT-symmetric unitary involution e^{i xi R} P.

    Hermitian, squares to the identity, and anti-commutes with R = sigma_1.
    """
    x = _finite_real("xi", xi)
    c, s = math.cos(x), math.sin(x)
    return np.array([[c, -1j * s], [1j * s, -c]], dtype=complex)


@np.errstate(all="ignore")
def pauli_compose(coeffs, xi: float = 0.0) -> np.ndarray:
    """a0*I + a1*P_xi + a2*R + a3*(i R P_xi).

    The default xi = 0 is the plain basis {I, sigma_3, sigma_1, sigma_2};
    nonzero xi expands in the rotated involution pair (P_xi, R) instead.
    An entry that overflows raises :class:`ArgumentError`.
    """
    if isinstance(coeffs, PauliCoefficients):
        a0, a1, a2, a3 = coeffs.a0, coeffs.a1, coeffs.a2, coeffs.a3
    else:
        a0, a1, a2, a3 = _finite_array(coeffs, (4,), "coefficient vector")
    j = p_xi(xi)
    return _formed("Pauli composition",
                   a0 * SIGMA0 + a1 * j + a2 * SIGMA1 + a3 * (1j * (SIGMA1 @ j)))


def pauli_decompose(m, xi: float = 0.0) -> PauliCoefficients:
    """Invert :func:`pauli_compose`; closed-form linear inversion.

    With xi = 0: a0 = (m00+m11)/2, a1 = (m00-m11)/2, a2 = (m01+m10)/2,
    a3 = i(m01-m10)/2.  General xi rotates the (a1, a3) pair by -xi.
    """
    return PauliCoefficients(*_decompose(as_matrix(m), xi))


def _decompose(a, xi=0.0) -> tuple[complex, complex, complex, complex]:
    """The coefficients (a0, a1, a2, a3) that pauli_decompose gives for the
    validated matrix a, each finite."""
    m00, m01, m10, m11 = a.ravel().tolist()
    # Real factors enter as complex(x, 0.0), as numpy promotes them: from
    # Python 3.14 a float times or over a complex skips the zero imaginary
    # part, which can flip the sign of a zero.
    two = complex(2.0, 0.0)
    a0 = (m00 + m11) / two
    s1 = (m00 - m11) / two
    s2 = (m01 + m10) / two
    s3 = 1j * (m01 - m10) / two
    x = _finite_real("xi", xi)
    if x == 0.0:
        return _coefficients(a0, s1, s2, s3)
    c, s = math.cos(x), math.sin(x)
    c, s, ms = complex(c, 0.0), complex(s, 0.0), complex(-s, 0.0)
    return _coefficients(a0, c * s1 + s * s3, s2, ms * s1 + c * s3)


def _coefficients(*values) -> tuple[complex, complex, complex, complex]:
    """values, formed from finite matrix entries; a value that overflowed
    raises :class:`ArgumentError` naming its coefficient rather than the NaN
    or inf it became."""
    for name, v in zip(("a0", "a1", "a2", "a3"), values):
        if not cmath.isfinite(v):
            raise ArgumentError(f"the Pauli coefficient {name} overflows from the given entries")
    return values


def _cosh_sinh(params, name) -> tuple[float, float]:
    """cosh(chi) and sinh(chi) of params, after raising
    :class:`ArgumentError` naming chi and xi when the largest entry of the
    matrix name, cosh(chi) + |sin(xi) sinh(chi)|, overflows."""
    _instance("params", params, KreinMetricParams)
    ch, sh = math.cosh(params.chi), math.sinh(params.chi)
    if ch + abs(math.sin(params.xi) * sh) == math.inf:
        raise ArgumentError(f"the {name} overflows at chi={params.chi!r}, xi={params.xi!r}")
    return ch, sh


def c_operator(params: KreinMetricParams) -> np.ndarray:
    """C = e^{chi i R P_xi} P_xi = cosh(chi) P_xi + i sinh(chi) R.

    Satisfies C^2 = I and commutes with the antilinear PT map.  An entry
    that overflows raises :class:`ArgumentError`.
    """
    ch, sh = _cosh_sinh(params, "C-operator")
    return ch * p_xi(params.xi) + 1j * sh * SIGMA1


def metric(params: KreinMetricParams) -> np.ndarray:
    """The positive metric e^{-chi i R P_xi} = cosh(chi) I - sinh(chi) (i R P_xi).

    Hermitian with eigenvalues e^{chi} and e^{-chi}; multiplying it by the
    matching :func:`c_operator` gives back P_xi.  An entry that overflows
    raises :class:`ArgumentError`.
    """
    return _metric_p_xi(params)[0]


def _metric_p_xi(params: KreinMetricParams) -> tuple[np.ndarray, np.ndarray]:
    """metric(params) and the P_xi it is built from."""
    ch, sh = _cosh_sinh(params, "metric")
    j = p_xi(params.xi)
    return ch * SIGMA0 - sh * (1j * (SIGMA1 @ j)), j


@np.errstate(all="ignore")
def exp_involution(theta, j, tol: float = DEFAULT_TOL) -> np.ndarray:
    """e^{theta j} = cosh(theta) I + sinh(theta) j for an involution j.

    Raises :class:`AssumptionError` when ``||j^2 - I||`` exceeds ``tol``,
    :class:`ArgumentError` when an entry overflows.
    """
    _check_tol(tol)
    jm = as_matrix(j)
    th = _finite_complex("theta", theta)
    defect = _defect("involution", jm @ jm - SIGMA0)
    if defect > tol:
        raise AssumptionError(f"j is not an involution: ||j^2 - I|| = {defect:.3e}")
    return _formed("exponential e^{theta j}", np.cosh(th) * SIGMA0 + np.sinh(th) * jm,
                   f" at theta={th!r}")


@np.errstate(all="ignore")
def is_unitary_involution(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff m^2 = I and m m* = I within tol (operator norm)."""
    _check_tol(tol)
    a = as_matrix(m)
    return (_defect("involution", a @ a - SIGMA0) <= tol
            and _defect("unitarity", a @ a.conj().T - SIGMA0) <= tol)
