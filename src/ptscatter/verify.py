"""Composite verification suites shared by the command line and the tests.

For one parameter set the suite runs every characteristic check together
with its theory-expected outcome:

  * conditions (b), (c), (d) and the PT criterion are algebraic identities
    of the Mobius transform for T = beta0 I + beta1 C and must pass for any
    real (beta0, beta1);
  * condition (a) must pass exactly when the metric inequality
    0 <= G T <= G/2 holds, i.e. for nonnegative-spectrum parameters;
  * the closed-form region verdict must agree with the eigenvalue oracle;
  * the Mobius inverse must recover T from every witness point, and the
    recovered T must not depend on the witness;
  * the parametrized evaluation of S must match the generic one;
  * for beta1 = 0 the scattering matrix must be a plain-norm contraction on
    the grid.  For beta1 != 0 the plain norm is expected to exceed 1
    somewhere, but absence of a grid witness is reported rather than treated
    as a violation (the failure set depends on (chi, xi) and need not meet a
    finite grid).

A suite is *consistent* when every actual outcome equals its expected one;
the random driver reports the first inconsistent draw in replayable form.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import DEFAULT_TOL, TWO_PI, KreinMetricParams, metric, p_xi
from .errors import ArgumentError, _check_tol
from .extensions import (ExtensionParams, check_metric_inequality,
                         classify_nonnegative, t_from_betas)
from .matrix2 import hermitian_eigenvalues, operator_norm
from .scattering import (lower_half_plane_grid, property_report,
                         real_axis_points, s_matrix, s_matrix_zero_range,
                         t_from_s)
from .symmetry import is_pt_symmetric

WITNESS_POINTS = (-1j, -2j, 1.0 - 1.0j, -0.5 - 0.3j)

# contract tolerance for the two S-evaluation routes at well-conditioned
# points; the generic suite scales it with the worst denominator condition
# number, since out-of-region parameters can push an evaluation arbitrarily
# close to the denominator's zero
FORMULA_EQUIVALENCE_TOL = 1e-12
FORMULA_EQUIVALENCE_COND_SCALE = 1e-10
CONTRACTION_SLACK = 1e-10
CONTRACTION_WITNESS_MARGIN = 1e-6

# margin keeping deliberate out-of-region draws clear of the tolerance band
_REGION_MARGIN = 0.02


def draw_extension_params(rng: np.random.Generator, admissible: bool = True,
                          min_beta1: float = 0.0, min_chi: float = 0.0) -> ExtensionParams:
    """Sample (beta0, beta1, chi, xi).

    Admissible draws land inside the closed nonnegativity diamond (optionally
    with |beta1| >= min_beta1).  Inadmissible draws leave the diamond by at
    least 0.02 so the classification is unambiguous at floating tolerance.
    chi is uniform over [-2, 2] (optionally with |chi| >= min_chi) and xi
    uniform over [0, 2*pi).
    """
    if not 0.0 <= min_beta1 < 0.25:
        raise ArgumentError("min_beta1 must lie in [0, 0.25)")
    if not 0.0 <= min_chi < 2.0:
        raise ArgumentError("min_chi must lie in [0, 2)")
    chi = rng.uniform(min_chi, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    xi = rng.uniform(0.0, TWO_PI)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if admissible:
        beta0 = rng.uniform(min_beta1, 0.5 - min_beta1)
        margin = min(beta0, 0.5 - beta0)
        beta1 = sign * rng.uniform(min_beta1, margin)
    elif rng.random() < 0.5:
        # beta0 inside [0, 1/2] but beta1 outside the diamond
        beta0 = rng.uniform(0.0, 0.5)
        margin = min(beta0, 0.5 - beta0)
        beta1 = sign * (margin + rng.uniform(_REGION_MARGIN, 0.3))
    else:
        # beta0 itself outside [0, 1/2]
        if sign > 0:
            beta0 = 0.5 + rng.uniform(_REGION_MARGIN, 0.3)
        else:
            beta0 = -rng.uniform(_REGION_MARGIN, 0.3)
        beta1 = rng.uniform(-0.3, 0.3)
    return ExtensionParams(beta0, beta1, KreinMetricParams(xi=xi, chi=chi))


def mobius_round_trip_residuals(t, zs=WITNESS_POINTS) -> tuple[float, float]:
    """(worst recovery error, worst cross-witness disagreement) for
    t_from_s(s_matrix(t, z), z) over the witness points."""
    recovered = [t_from_s(s_matrix(t, z).s, z) for z in zs]
    recovery = max(operator_norm(r - t) for r in recovered)
    spread = max((operator_norm(r - recovered[0]) for r in recovered[1:]),
                 default=0.0)
    return recovery, spread


def formula_equivalence_residual(e: ExtensionParams, zs) -> float:
    """Worst deviation between the parametrized and the generic S evaluation."""
    t = t_from_betas(e)
    return max(operator_norm(s_matrix_zero_range(e, z).s - s_matrix(t, z).s)
               for z in zs)


def quadratic_eigenvalue_residual(e: ExtensionParams) -> float:
    """Worst gap between the oracle matrices' eigenvalues and the roots of
    lambda^2 - 2 lambda b0 cosh(chi) + b0^2 - b1^2 = 0 (and its mirrored
    version for the upper bound matrix)."""
    g = metric(e.metric)
    j = p_xi(e.metric.xi)
    worst = 0.0
    for b0, b1 in ((e.beta0, e.beta1), (0.5 - e.beta0, -e.beta1)):
        eigs = hermitian_eigenvalues(b0 * g + b1 * j)
        mid = b0 * math.cosh(e.metric.chi)
        rad = math.sqrt(max((b0 * math.sinh(e.metric.chi)) ** 2 + b1 * b1, 0.0))
        worst = max(worst, abs(eigs[0] - (mid - rad)), abs(eigs[1] - (mid + rad)))
    return worst


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _entry(passed, residual, expected_pass: bool = True, **extra) -> dict:
    """One JSON check entry; consistent when the outcome is the expected one."""
    return {"passed": bool(passed), "residual": float(residual), **extra,
            "expected_pass": bool(expected_pass),
            "consistent": bool(passed) == bool(expected_pass)}


def _check_entry(check, expected_pass: bool) -> dict:
    return _entry(check.passed, check.residual, expected_pass,
                  witness_z=_pair(check.witness_z))


def run_parameter_suite(e: ExtensionParams, tol: float = DEFAULT_TOL,
                        interior=None, boundary=None) -> dict:
    """Full check battery for one parameter set; JSON-ready dict."""
    _check_tol(tol)
    interior = list(interior) if interior is not None else lower_half_plane_grid()
    boundary = list(boundary) if boundary is not None else real_axis_points()

    t = t_from_betas(e)
    cls = classify_nonnegative(e, tol)
    metric_ok = check_metric_inequality(t, e.metric, tol)
    report = property_report(t, e.metric, interior, boundary, tol=tol)
    recovery, spread = mobius_round_trip_residuals(t)
    # one pass over the grid: route equivalence, conditioning, plain norm
    feq = 0.0
    worst_cond = 1.0
    max_norm = 0.0
    for z in interior:
        ev = s_matrix(t, z)
        feq = max(feq, operator_norm(s_matrix_zero_range(e, z).s - ev.s))
        worst_cond = max(worst_cond, ev.condition_number)
        max_norm = max(max_norm, operator_norm(ev.s))
    feq_tol = max(FORMULA_EQUIVALENCE_TOL,
                  FORMULA_EQUIVALENCE_COND_SCALE * worst_cond)
    quad = quadratic_eigenvalue_residual(e)
    pt_expected = is_pt_symmetric(t, tol)

    checks = {
        "condition_a": _check_entry(report.cond_a, expected_pass=metric_ok),
        "condition_b": _check_entry(report.cond_b, expected_pass=True),
        "condition_c": _check_entry(report.cond_c, expected_pass=True),
        "condition_d": _check_entry(report.cond_d, expected_pass=True),
        "pt_criterion": _check_entry(report.pt_criterion, expected_pass=pt_expected),
        "mobius_round_trip": _entry(recovery <= tol, recovery),
        "z_independence": _entry(spread <= tol, spread),
        "formula_equivalence": _entry(feq <= feq_tol, feq, tolerance=float(feq_tol)),
        "quadratic_eigenvalues": _entry(quad <= tol, quad),
        "oracle_agreement": _entry(cls.closed_form_verdict == cls.oracle_verdict, 0.0),
    }
    if e.beta1 == 0.0:
        checks["contraction_bound"] = _entry(max_norm <= 1.0 + CONTRACTION_SLACK,
                                             max(0.0, max_norm - 1.0))
    consistent = all(entry["consistent"] for entry in checks.values())

    result = {
        "params": {
            "beta0": float(e.beta0),
            "beta1": float(e.beta1),
            "chi": float(e.metric.chi),
            "xi": float(e.metric.xi),
        },
        "classification": {
            "nonnegative": bool(cls.nonnegative),
            "closed_form_verdict": bool(cls.closed_form_verdict),
            "oracle_verdict": bool(cls.oracle_verdict),
            "eigenvalues_lower": [float(x) for x in cls.eigenvalues_lower],
            "eigenvalues_upper": [float(x) for x in cls.eigenvalues_upper],
        },
        "metric_inequality": bool(metric_ok),
        "standard_norm_max": float(max_norm),
        # informational: for beta1 != 0 the plain norm should exceed 1
        # somewhere, but a missing grid witness is logged, not failed
        "contraction_witness_found": bool(max_norm > 1.0 + CONTRACTION_WITNESS_MARGIN),
        "checks": checks,
        "consistent": bool(consistent),
    }
    return result


def run_random_suite(n: int, seed: int, tol: float = DEFAULT_TOL) -> dict:
    """Deterministic random battery: draw i is admissible for even i and
    deliberately out-of-region for odd i."""
    if n < 1:
        raise ArgumentError("n must be >= 1")
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    interior = lower_half_plane_grid()
    boundary = real_axis_points()
    results = []
    for i in range(n):
        e = draw_extension_params(rng, admissible=(i % 2 == 0))
        suite = run_parameter_suite(e, tol, interior, boundary)
        suite["draw"] = i
        suite["admissible_draw"] = bool(i % 2 == 0)
        results.append(suite)
    inconsistent = [r for r in results if not r["consistent"]]
    unwitnessed = [r["draw"] for r in results
                   if r["params"]["beta1"] != 0.0 and not r["contraction_witness_found"]]
    return {
        "draws": int(n),
        "seed": int(seed),
        "tolerance": float(tol),
        "results": results,
        "consistent_draws": int(len(results) - len(inconsistent)),
        "all_consistent": not inconsistent,
        "first_violation": inconsistent[0]["params"] if inconsistent else None,
        "contraction_unwitnessed_draws": unwitnessed,
    }
