"""Scattering matrix of the zero-range model and its characteristic checks.

For an extension parameter T the scattering matrix continued into the open
lower half-plane is the matrix Mobius function

    S(z) = (I - 2(1+iz) T) (I - 2(1-iz) T)^{-1},      Im z < 0,

with boundary values on the real axis given by the same rational formula.
Numerator and denominator are polynomials in T and commute, so the quotient
order is immaterial.  A single interior sample of S recovers T:

    T = (I - S(z)) (2(1+iz) I - 2(1-iz) S(z))^{-1},

which is the factored form of the Mobius inverse
(1/(2(iz-1))) (I - S)(S - theta(z) I)^{-1}, theta(z) = (1+iz)/(1-iz); the
factored form stays finite at z = -i where theta has a pole.

The check_condition_* functions verify the characteristic properties that
single out scattering matrices of nonnegative metric-self-adjoint extensions
(G denotes the metric e^{-chi i R P_xi}):

    (a)  S(z)* G S(z) <= G                        for all  Im z < 0,
    (b)  G S(z) = S(-conj z)* G                   for Im z <= 0,
    (c)  (Re z)[G - S* G S] = i (Im z)[S* G - G S]  at one interior point
         with Re z != 0,
    (d)  P_xi S(z) = S(-conj z)* P_xi             for Im z <= 0,

plus the antilinear criterion sigma_3 conj(S(z)) sigma_3 = S(-conj z), which
holds exactly when T is PT-symmetric.

Each condition is one residual expression in S (larger is worse).  The checks
read S from a per-call table that evaluates s_matrix once per distinct point,
reflections -conj z included, and one reducer picks the worst residual over
the sampled points together with the first point attaining it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, SIGMA1, SIGMA3, KreinMetricParams,
                       exp_involution, metric, p_xi)
from .errors import ArgumentError, _check_tol, _finite_complex
from .extensions import ExtensionParams
from .matrix2 import _adjugate, as_matrix, hermitian_eigenvalues, operator_norm

DEFAULT_CONDITION_LIMIT = 1e12


def _spectral_point(z, interior: bool = False) -> complex:
    zz = _finite_complex("z", z)
    if interior:
        if not zz.imag < 0:
            raise ArgumentError(f"z must lie strictly in the lower half-plane, got {zz}")
    elif zz.imag > 0:
        raise ArgumentError(f"z must lie in the closed lower half-plane, got {zz}")
    return zz


_interior_point = partial(_spectral_point, interior=True)


@dataclass(frozen=True)
class ScatteringEvaluation:
    """One evaluation of S(z), with the condition number of the inverted
    denominator recorded."""

    z: complex
    s: np.ndarray
    condition_number: float


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one characteristic-property check: the worst residual over
    the sampled points and the point that produced it."""

    passed: bool
    residual: float
    witness_z: complex


@dataclass(frozen=True)
class PropertyReport:
    cond_a: PropertyCheck
    cond_b: PropertyCheck
    cond_c: PropertyCheck
    cond_d: PropertyCheck
    pt_criterion: PropertyCheck


def _quotient(num, den, z, condition_limit):
    """num @ den^{-1} and the denominator's condition number."""
    adj, d, cond = _adjugate(den, condition_limit, z, "denominator")
    return num @ adj / d, cond


def s_matrix(t, z, condition_limit: float = DEFAULT_CONDITION_LIMIT) -> ScatteringEvaluation:
    """Evaluate S(z) = (I - 2(1+iz) t)(I - 2(1-iz) t)^{-1}.

    Raises :class:`SingularMatrixError` when the denominator's condition
    number exceeds ``condition_limit``.
    """
    a = as_matrix(t)
    zz = _spectral_point(z)
    num = SIGMA0 - 2.0 * (1.0 + 1j * zz) * a
    den = SIGMA0 - 2.0 * (1.0 - 1j * zz) * a
    s, cond = _quotient(num, den, zz, condition_limit)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def s_matrix_zero_range(e: ExtensionParams, z,
                        condition_limit: float = DEFAULT_CONDITION_LIMIT) -> ScatteringEvaluation:
    """Evaluate S(z) from (beta0, beta1, chi, xi) without assembling T.

    Numerator and denominator are built directly from P_xi and the
    hyperbolic factor e^{chi i R P_xi}:

        [1 - 2(1+iz) beta0] P_xi - [2(1+iz) beta1] e^{chi i R P_xi}

    over the same expression with 1+iz replaced by 1-iz; this agrees with
    s_matrix(t_from_betas(e), z) to rounding wherever the denominator is
    well conditioned.
    """
    zz = _spectral_point(z)
    sx = p_xi(e.metric.xi)
    hyp = exp_involution(e.metric.chi, 1j * (SIGMA1 @ sx))
    ap = 2.0 * (1.0 + 1j * zz)
    am = 2.0 * (1.0 - 1j * zz)
    num = (1.0 - ap * e.beta0) * sx - (ap * e.beta1) * hyp
    den = (1.0 - am * e.beta0) * sx - (am * e.beta1) * hyp
    s, cond = _quotient(num, den, zz, condition_limit)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def t_from_s(s, z, condition_limit: float = DEFAULT_CONDITION_LIMIT) -> np.ndarray:
    """Recover T from one interior sample of the scattering matrix.

    Requires Im z < 0 strictly; the recovered T does not depend on which
    interior z was used.  Raises :class:`SingularMatrixError` when
    2(1+iz) I - 2(1-iz) S is not safely invertible.
    """
    sm = as_matrix(s)
    zz = _interior_point(z)
    a = 2.0 * (1.0 + 1j * zz)
    b = 2.0 * (1.0 - 1j * zz)
    t, _ = _quotient(SIGMA0 - sm, a * SIGMA0 - b * sm, zz, condition_limit)
    return t


def _s_table(t):
    """z -> S(z) for one T through s_matrix, once per distinct z; points equal
    as complex numbers (0.0 and -0.0 parts) share one entry."""
    table = {}

    def s_of(z):
        s = table.get(z)
        if s is None:
            s = table[z] = s_matrix(t, z).s
        return s

    return s_of


def _worst(points, residual):
    """(largest residual(z), z) over the points; the first point attaining
    the largest residual is the witness."""
    worst, witness = -math.inf, None
    for z in points:
        res = residual(z)
        if res > worst:
            worst, witness = res, z
    if witness is None:
        raise ArgumentError("zs must be nonempty")
    return worst, witness


def _check(residual, witness, tol) -> PropertyCheck:
    return PropertyCheck(passed=residual <= tol, residual=residual, witness_z=witness)


def _off_axis(z) -> complex:
    zz = _interior_point(z)
    if zz.real == 0.0:
        raise ArgumentError("condition (c) needs a point with Re z != 0")
    return zz


# One function per condition, holding its residual expression (larger is
# worse) over an S table s_of; the public checks give each call its own
# table, property_report shares one.

def _cond_a(s_of, g, zs, tol) -> PropertyCheck:
    def residual(z):  # minus the lowest eigenvalue of G - S* G S
        s = s_of(z)
        return -hermitian_eigenvalues(g - s.conj().T @ g @ s)[0]
    worst, witness = _worst(map(_interior_point, zs), residual)
    return _check(max(0.0, worst), witness, tol)


def _cond_reflection(s_of, j, zs, tol) -> PropertyCheck:
    """(b) with J = G, (d) with J = P_xi."""
    def residual(z):
        return operator_norm(j @ s_of(z) - s_of(-z.conjugate()).conj().T @ j)
    return _check(*_worst(map(_spectral_point, zs), residual), tol)


def _cond_c(s_of, g, zs, tol) -> PropertyCheck:
    def residual(z):
        s = s_of(z)
        sh = s.conj().T
        return operator_norm(z.real * (g - sh @ g @ s) - 1j * z.imag * (sh @ g - g @ s))
    return _check(*_worst(map(_off_axis, zs), residual), tol)


def _cond_pt(s_of, zs, tol) -> PropertyCheck:
    def residual(z):
        return operator_norm(SIGMA3 @ np.conj(s_of(z)) @ SIGMA3 - s_of(-z.conjugate()))
    return _check(*_worst(map(_interior_point, zs), residual), tol)


def check_condition_a(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Metric contraction G - S(z)* G S(z) >= 0 over interior points.

    The residual is the most negative eigenvalue encountered, clamped at 0;
    the witness is the point that produced it.
    """
    _check_tol(tol)
    return _cond_a(_s_table(t), metric(p), zs, tol)


def check_condition_b(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Symmetry G S(z) = S(-conj z)* G over points of the closed half-plane."""
    _check_tol(tol)
    return _cond_reflection(_s_table(t), metric(p), zs, tol)


def check_condition_c(t, p: KreinMetricParams, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Interior identity (Re z)[G - S* G S] = i (Im z)[S* G - G S] at one z.

    Requires Re z != 0 and Im z < 0.
    """
    _check_tol(tol)
    return _cond_c(_s_table(t), metric(p), [z], tol)


def check_condition_d(t, xi: float, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Krein symmetry P_xi S(z) = S(-conj z)* P_xi at one point of the
    closed half-plane."""
    _check_tol(tol)
    return _cond_reflection(_s_table(t), p_xi(xi), [z], tol)


def check_pt_criterion(t, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Antilinear criterion sigma_3 conj(S(z)) sigma_3 = S(-conj z) over
    interior points; passes exactly when t is PT-symmetric."""
    _check_tol(tol)
    return _cond_pt(_s_table(t), zs, tol)


def standard_contraction_norm(t, zs) -> float:
    """Largest singular value of S(z) over the sampled points (plain C^2 norm)."""
    s_of = _s_table(t)
    return _worst(map(_spectral_point, zs), lambda z: operator_norm(s_of(z)))[0]


def lower_half_plane_grid(re_min: float = -3.0, re_max: float = 3.0,
                          im_min: float = -3.0, im_max: float = -0.1,
                          steps: int = 7) -> list[complex]:
    """steps x steps points, row-major: imaginary part outer (ascending),
    real part inner (ascending).  The defaults give the standard 49-point
    grid used by the verification suites."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    if im_max > 0:
        raise ArgumentError("grid must stay in the closed lower half-plane")
    res = np.linspace(re_min, re_max, steps)
    ims = np.linspace(im_min, im_max, steps)
    return [complex(x, y) for y in ims for x in res]


def real_axis_points(lo: float = -3.0, hi: float = 3.0, steps: int = 7) -> list[complex]:
    """Boundary-value sample points on the real axis."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    return [complex(x, 0.0) for x in np.linspace(lo, hi, steps)]


def property_report(t, p: KreinMetricParams, interior=None, boundary=None,
                    witness: complex = 1.0 - 1.0j,
                    tol: float = DEFAULT_TOL) -> PropertyReport:
    """Run all characteristic checks for one extension parameter.

    Conditions (a) and the PT criterion sweep the interior grid; (b) and (d)
    additionally take boundary (real-axis) samples.  The single-point
    conditions (c) and (d) are evaluated at the fixed ``witness`` and, for
    stronger evidence, at every admissible grid point, keeping the worst
    residual.  S is evaluated once per distinct point of
    interior | boundary | {witness} and of its reflection -conj z, from one
    table shared by all five checks; each condition's worst residual and
    witness come from the one reducer the single checks use.
    """
    _check_tol(tol)
    interior = list(interior) if interior is not None else lower_half_plane_grid()
    boundary = list(boundary) if boundary is not None else real_axis_points()
    witness = _interior_point(witness)
    s_of = _s_table(t)
    g = metric(p)
    c_points = [witness] + [z for z in interior if complex(z).real != 0.0]
    return PropertyReport(
        cond_a=_cond_a(s_of, g, interior, tol),
        cond_b=_cond_reflection(s_of, g, interior + boundary, tol),
        cond_c=_cond_c(s_of, g, c_points, tol),
        cond_d=_cond_reflection(s_of, p_xi(p.xi), [witness] + interior + boundary, tol),
        pt_criterion=_cond_pt(s_of, interior, tol))
