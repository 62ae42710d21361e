"""Zero-range extension model on the two-dimensional boundary space.

The boundary maps Gamma_0, Gamma_1 send the one-sided boundary values of a
function (limits and derivative limits at 0+ and 0-) to C^2:

    Gamma_0 f = ( (f(+0)+f(-0))/2 , (f(+0)-f(-0))/2 ),
    Gamma_1 f = 2 Gamma_0 f + ( f'(+0)-f'(-0) , f'(+0)+f'(-0) ).

An extension of the minimal operator is selected by a 2x2 matrix T through
the domain condition T Gamma_1 f = Gamma_0 f; T = 0 is the Friedrichs
extension and T = I/2 the Krein-von Neumann one.  The PT-symmetric, Krein
self-adjoint, C-commuting extensions form the two-real-parameter family
T = beta0 I + beta1 C, and those with nonnegative spectrum fill the diamond

    0 <= beta0 <= 1/2,   |beta1| <= min(beta0, 1/2 - beta0).

:func:`classify_nonnegative` evaluates that closed form alongside an
independent eigenvalue oracle (positive semidefiniteness of
beta0*G + beta1*P_xi and (1/2-beta0)*G - beta1*P_xi, G the metric); the two
verdicts must always agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, KreinMetricParams, _metric_p_xi,
                       c_operator, metric)
from .errors import (AssumptionError, _check_tol, _finite_complex,
                     _finite_real, _instance)
from .matrix2 import (_defect, _det, _formed, _formed_entries, _hermitian_eigenvalues, _norm,
                      as_matrix)
from .symmetry import _c_params


@dataclass(frozen=True)
class BoundaryData:
    """One-sided boundary values f(+0), f(-0), f'(+0), f'(-0)."""

    f_plus: complex
    f_minus: complex
    fp_plus: complex
    fp_minus: complex

    def __post_init__(self):
        for name in ("f_plus", "f_minus", "fp_plus", "fp_minus"):
            object.__setattr__(self, name, _finite_complex(name, getattr(self, name)))


def gamma0(b: BoundaryData) -> np.ndarray:
    """Mean and jump of the boundary values, as a C^2 vector.  Where the sum
    or difference overflows, both are formed from the halved values
    (halving first everywhere would round subnormals)."""
    _instance("b", b, BoundaryData)
    p, m = b.f_plus, b.f_minus
    mean, jump = (p + m) / 2.0, (p - m) / 2.0
    if not (cmath.isfinite(mean) and cmath.isfinite(jump)):
        mean, jump = p / 2.0 + m / 2.0, p / 2.0 - m / 2.0
    return np.array([mean, jump])


@np.errstate(all="ignore")
def gamma1(b: BoundaryData) -> np.ndarray:
    """2*Gamma_0 plus the vector (derivative jump, derivative sum); an entry
    that overflows raises :class:`ArgumentError`."""
    return _formed("boundary value Gamma_1 f", 2.0 * gamma0(b)
                   + np.array([b.fp_plus - b.fp_minus, b.fp_plus + b.fp_minus]))


@np.errstate(all="ignore")
def in_domain(t, b: BoundaryData, tol: float = DEFAULT_TOL) -> bool:
    """Whether the boundary data satisfies T Gamma_1 f = Gamma_0 f; a
    residual T Gamma_1 f - Gamma_0 f that overflows raises :class:`ArgumentError`."""
    _check_tol(tol)
    a = as_matrix(t)
    residual = _formed("boundary residual T Gamma_1 f - Gamma_0 f", a @ gamma1(b) - gamma0(b))
    return float(np.linalg.norm(residual)) <= tol


@dataclass(frozen=True)
class ExtensionParams:
    """(beta0, beta1) plus the (xi, chi) of the C-operator; selects
    T = beta0 I + beta1 C.

    No range restriction is imposed at construction; nonnegativity of the
    selected extension is a separate query (:func:`classify_nonnegative`).
    ``metric_identifiable`` is False when the parameters were recovered from
    a scalar T, where beta1 = 0 leaves (xi, chi) meaningless.
    """

    beta0: float
    beta1: float
    metric: KreinMetricParams
    metric_identifiable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "beta0", _finite_real("beta0", self.beta0))
        object.__setattr__(self, "beta1", _finite_real("beta1", self.beta1))
        _instance("metric", self.metric, KreinMetricParams)


def extension_params(beta0: float, beta1: float, chi: float = 0.0,
                     xi: float = 0.0) -> ExtensionParams:
    """Convenience constructor matching the (beta0, beta1, chi, xi) flag order."""
    return ExtensionParams(beta0, beta1, KreinMetricParams(xi=xi, chi=chi))


@np.errstate(all="ignore")
def t_from_betas(e: ExtensionParams) -> np.ndarray:
    """T = beta0 I + beta1 C; an entry that overflows raises :class:`ArgumentError`."""
    _instance("e", e, ExtensionParams)
    return _t(e.beta0, e.beta1, c_operator(e.metric))


def _t(beta0, beta1, c) -> np.ndarray:
    """beta0 I + beta1 c for the C-operator c, under the caller's errstate."""
    return _formed("matrix T = beta0 I + beta1 C", beta0 * SIGMA0 + beta1 * c)


@np.errstate(all="ignore")
def betas_from_t(t, tol: float = DEFAULT_TOL) -> ExtensionParams:
    """Invert :func:`t_from_betas`: beta0 = tr(T)/2, beta1 = sqrt(beta0^2 - det T).

    The sign convention is beta1 >= 0; a sign flip of beta1 is absorbed into
    the C-operator as (xi, chi) -> (xi + pi, -chi).  When beta1 vanishes the
    metric parameters are unidentifiable and (0, 0) is returned with
    ``metric_identifiable = False``.  Raises :class:`AssumptionError` when t
    is not of the form beta0 I + beta1 C within tol.
    """
    _check_tol(tol)
    a = as_matrix(t)
    p, q, r, s = a.ravel().tolist()
    tr = p + s
    if abs(tr.imag) > tol:
        raise AssumptionError("tr(t) is not real: t is not beta0 I + beta1 C")
    beta0 = tr.real / 2.0
    disc = beta0 * beta0 - (p * s - q * r)
    if abs(disc.imag) > tol:
        raise AssumptionError("det(t) is not real: t is not beta0 I + beta1 C")
    b1_sq = disc.real
    if b1_sq < -tol:
        raise AssumptionError("beta0^2 - det(t) < 0: t is not beta0 I + beta1 C")
    beta1 = math.sqrt(max(b1_sq, 0.0))
    if beta1 <= tol:
        residual = _defect("beta0 I", a - beta0 * SIGMA0)
        if residual > tol:
            raise AssumptionError(
                f"t deviates from beta0 I by {residual:.3e} although beta1 = 0")
        return ExtensionParams(beta0, 0.0, KreinMetricParams(0.0, 0.0),
                               metric_identifiable=False)
    try:
        params, c, _ = _c_params(
            _formed("C-operator (T - beta0 I) / beta1", (a - beta0 * SIGMA0) / beta1), tol)
    except AssumptionError as exc:
        raise AssumptionError(f"t is not beta0 I + beta1 C: {exc}") from exc
    result = ExtensionParams(beta0, beta1, params)
    residual = _defect("reconstruction", _t(beta0, beta1, c) - a)
    if residual > tol:
        raise AssumptionError(f"reconstruction residual {residual:.3e} exceeds tol")
    return result


@dataclass(frozen=True)
class SpectraClassification:
    """Nonnegativity verdicts plus the oracle eigenvalues.

    A disagreement between the closed form and the eigenvalue oracle is an
    internal-consistency failure, never a valid state.
    """

    closed_form_verdict: bool
    oracle_verdict: bool
    eigenvalues_lower: tuple[float, float]
    eigenvalues_upper: tuple[float, float]


def classify_nonnegative(e: ExtensionParams, tol: float = DEFAULT_TOL) -> SpectraClassification:
    """Diamond inequality versus the positive-semidefiniteness oracle.

    The oracle checks the two Hermitian matrices beta0*G + beta1*P_xi and
    (1/2-beta0)*G - beta1*P_xi (G the metric) through their closed-form
    eigenvalues.  Both verdicts use the same absolute tolerance so they agree
    on boundary parameters.  An oracle matrix that overflows raises
    :class:`ArgumentError` naming it and chi.
    """
    _check_tol(tol)
    _instance("e", e, ExtensionParams)
    return _classify(e, tol, *_metric_p_xi(e.metric))


@np.errstate(all="ignore")
def _classify(e: ExtensionParams, tol, g, j) -> SpectraClassification:
    """classify_nonnegative(e, tol) given the metric g and P_xi j of e."""
    b0, b1, at = e.beta0, e.beta1, f" at chi={e.metric.chi!r}"
    closed = (b0 >= -tol and b0 <= 0.5 + tol
              and abs(b1) <= min(0.5 - b0, b0) + tol)
    lower = _hermitian_eigenvalues(_formed_entries("oracle matrix beta0 G + beta1 P_xi",
                                                   b0 * g + b1 * j, at))
    upper = _hermitian_eigenvalues(_formed_entries("oracle matrix (1/2 - beta0) G - beta1 P_xi",
                                                   (0.5 - b0) * g - b1 * j, at))
    oracle = lower[0] >= -tol and upper[0] >= -tol
    return SpectraClassification(closed_form_verdict=closed, oracle_verdict=oracle,
                                 eigenvalues_lower=lower, eigenvalues_upper=upper)


@np.errstate(all="ignore")
def check_metric_inequality(t, p: KreinMetricParams, tol: float = DEFAULT_TOL) -> bool:
    """Operator inequality 0 <= G t <= (1/2) G for the metric G.

    Requires G t Hermitian (t metric self-adjoint) within
    tol * max(1, ||G|| ||t||), the rounding scale of the product, otherwise
    :class:`AssumptionError`; then both G t and G (I/2 - t) must be positive
    semidefinite with eigenvalues >= -tol.  A metric product that overflows
    raises :class:`ArgumentError`.
    """
    _check_tol(tol)
    a, g = as_matrix(t), metric(p)
    at = f" at chi={p.chi!r}"
    gt = g @ a
    gt_entries = _formed_entries("metric product G T", gt, at)
    gu_entries = _formed_entries("metric product G (I/2 - T)", g @ (0.5 * SIGMA0 - a), at)
    scale = max(1.0, _norm(g, _det(g)) * _norm(a, _det(a)))
    # a NaN quotient (an overflowed defect over an overflowed scale) fails
    if not _defect("Hermiticity", gt - gt.conj().T, at) / scale <= tol:
        raise AssumptionError("metric * t is not Hermitian: "
                              "t is not self-adjoint for this metric")
    return (_hermitian_eigenvalues(gt_entries)[0] >= -tol
            and _hermitian_eigenvalues(gu_entries)[0] >= -tol)
