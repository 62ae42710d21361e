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

import math
from dataclasses import dataclass

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, KreinMetricParams, c_operator,
                       metric, p_xi)
from .errors import (AssumptionError, _check_tol, _finite_complex,
                     _finite_real, _instance)
from .matrix2 import (_defect, _det, _formed, as_matrix, hermitian_eigenvalues,
                      is_hermitian)
from .symmetry import c_params_from_matrix


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
    """Mean and jump of the boundary values, as a C^2 vector."""
    _instance("b", b, BoundaryData)
    return np.array([(b.f_plus + b.f_minus) / 2.0,
                     (b.f_plus - b.f_minus) / 2.0])


def gamma1(b: BoundaryData) -> np.ndarray:
    """2*Gamma_0 plus the vector (derivative jump, derivative sum)."""
    return 2.0 * gamma0(b) + np.array([b.fp_plus - b.fp_minus, b.fp_plus + b.fp_minus])


def in_domain(t, b: BoundaryData, tol: float = DEFAULT_TOL) -> bool:
    """Whether the boundary data satisfies T Gamma_1 f = Gamma_0 f."""
    _check_tol(tol)
    a = as_matrix(t)
    return float(np.linalg.norm(a @ gamma1(b) - gamma0(b))) <= tol


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
    return _formed("matrix T = beta0 I + beta1 C",
                   e.beta0 * SIGMA0 + e.beta1 * c_operator(e.metric))


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
    p, _, _, s = a.ravel().tolist()
    tr = p + s
    if abs(tr.imag) > tol:
        raise AssumptionError("tr(t) is not real: t is not beta0 I + beta1 C")
    beta0 = tr.real / 2.0
    disc = beta0 * beta0 - _det(a)
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
        params = c_params_from_matrix(
            _formed("C-operator (T - beta0 I) / beta1", (a - beta0 * SIGMA0) / beta1), tol)
    except AssumptionError as exc:
        raise AssumptionError(f"t is not beta0 I + beta1 C: {exc}") from exc
    result = ExtensionParams(beta0, beta1, params)
    residual = _defect("reconstruction", t_from_betas(result) - a)
    if residual > tol:
        raise AssumptionError(f"reconstruction residual {residual:.3e} exceeds tol")
    return result


@dataclass(frozen=True)
class SpectraClassification:
    """Nonnegativity verdicts plus the oracle eigenvalues.

    ``nonnegative`` repeats ``closed_form_verdict``; a disagreement between
    the closed form and the eigenvalue oracle is an internal-consistency
    failure, never a valid state.
    """

    nonnegative: bool
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
    return _classify(e, tol, metric(e.metric), p_xi(e.metric.xi))


def _classify(e: ExtensionParams, tol, g, j) -> SpectraClassification:
    """classify_nonnegative(e, tol) given the metric g and P_xi j of e."""
    b0, b1, at = e.beta0, e.beta1, f" at chi={e.metric.chi!r}"
    closed = (b0 >= -tol and b0 <= 0.5 + tol
              and abs(b1) <= min(0.5 - b0, b0) + tol)
    lower = hermitian_eigenvalues(_formed("oracle matrix beta0 G + beta1 P_xi",
                                          b0 * g + b1 * j, at))
    upper = hermitian_eigenvalues(_formed("oracle matrix (1/2 - beta0) G - beta1 P_xi",
                                          (0.5 - b0) * g - b1 * j, at))
    oracle = lower[0] >= -tol and upper[0] >= -tol
    return SpectraClassification(nonnegative=closed, closed_form_verdict=closed,
                                 oracle_verdict=oracle,
                                 eigenvalues_lower=lower, eigenvalues_upper=upper)


def check_metric_inequality(t, p: KreinMetricParams, tol: float = DEFAULT_TOL) -> bool:
    """Operator inequality 0 <= G t <= (1/2) G for the metric G.

    Requires G t Hermitian within tol (t metric self-adjoint), otherwise
    :class:`AssumptionError`; then both G t and G (I/2 - t) must be positive
    semidefinite with eigenvalues >= -tol.  A metric product that overflows
    raises :class:`ArgumentError`.
    """
    _check_tol(tol)
    a = as_matrix(t)
    return _metric_inequality(a, metric(p), p.chi, tol)


def _metric_inequality(a, g, chi, tol) -> bool:
    """check_metric_inequality of the validated matrix a, given the metric g
    of the parameter chi."""
    at = f" at chi={chi!r}"
    with np.errstate(all="ignore"):
        gt = _formed("metric product G T", g @ a, at)
        gu = _formed("metric product G (I/2 - T)", g @ (0.5 * SIGMA0 - a), at)
    if not is_hermitian(gt, tol):
        raise AssumptionError("metric * t is not Hermitian: "
                              "t is not self-adjoint for this metric")
    lower = hermitian_eigenvalues(gt)
    upper = hermitian_eigenvalues(gu)
    return lower[0] >= -tol and upper[0] >= -tol
