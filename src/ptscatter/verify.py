"""Composite verification suites shared by the command line and the tests.

For one parameter set the suite runs every characteristic check together
with its theory-expected outcome:

  * conditions (b), (c), (d) and the PT criterion are algebraic identities
    of the Mobius transform for T = beta0 I + beta1 C and must pass for any
    real (beta0, beta1);
  * condition (a) must pass exactly when the metric inequality
    0 <= G T <= G/2 holds, i.e. for nonnegative-spectrum parameters;
  * the closed-form region verdict must agree with the eigenvalue oracle;
  * the Mobius inverse must recover T from every witness point where S is
    regular, and the recovered T must not depend on the witness;
  * the parametrized evaluation of S must match the generic one;
  * for beta1 = 0, S = s(beta0, z) I with a scalar s, and |s| <= 1 on the
    lower half-plane exactly when 0 <= beta0 <= 1/2, so S must be a
    plain-norm contraction on the grid exactly when the metric inequality
    holds.  For beta1 != 0 and chi != 0 the plain norm is expected to
    exceed 1 somewhere, but absence of a grid witness is reported rather
    than treated as a violation (the failure set depends on (chi, xi) and
    need not meet a finite grid).  At chi = 0 the spectral projections
    (I +- C)/2 of T are orthogonal, so S is a plain-norm contraction for
    every admissible beta1 and no witness is expected.

A draw runs on one evaluation plan of the default samples and the Mobius
witnesses, which does not depend on T and is built once per process, on
first use.  One kernel call fills S at the plan's distinct points by both
routes, the generic one and the parametrized one it is compared with, in
two tables over the plan.  A draw forms G and P_xi once.  Every check
skips the points where S is singular (the route gap those where either
route is), and the suite lists the distinct singular points of its table
as ``singular_z``.  The batching leaves the errors in this order: an
overflowing T, the classification and the metric inequality, a check
left with no regular point, the scalar t_from_s calls of the Mobius round
trip, then the verdicts (a), (b), (c), (d), PT, Mobius round trip,
z-independence, formula equivalence and plain norm, each raising for
its first non-finite residual matrix, then for no residual left.  One
verdict pass reduces them all in this order, (a) from one
``_hermitian_lows`` call and every other check from one norm call.  A
suite is *consistent* when every actual outcome equals its expected one;
the random battery reports the first inconsistent draw in replayable
form.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .clifford import DEFAULT_TOL, TWO_PI, KreinMetricParams, metric, p_xi
from .errors import ArgumentError, _check_tol, _finite_real, _integer
from .extensions import (ExtensionParams, _classify, _metric_inequality,
                         t_from_betas)
from .grids import lower_half_plane_grid, real_axis_points
from .scattering import (_checks, _interior_point, _kept, _plain_norms,
                         _point_list, _report, _report_plan, _route_gap,
                         _s_table, _spectral_point, _tables, _worsts,
                         s_matrix, t_from_s)
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
    min_beta1 = _finite_real("min_beta1", min_beta1)
    min_chi = _finite_real("min_chi", min_chi)
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
    t_from_s(s_matrix(t, z), z), called point by point."""
    zs = _point_list("zs", zs)
    recovered = [t_from_s(s_matrix(t, z).s, z) for z in zs]
    z = np.array([complex(p) for p in zs], dtype=complex)
    (recovery, _), (spread, _) = _worsts(z, _round_trip(recovered, t, np.arange(len(z))))
    return recovery, spread


def _round_trip(recovered, t, i) -> list:
    """The two Mobius round trip checks at the positions i, recovered
    holding t_from_s at each: recovered - t, and recovered - recovered[0],
    zero at the first point."""
    recovered = np.array(recovered).reshape(-1, 2, 2)
    return [("Mobius round trip", i, recovered - t),
            ("z-independence", i, recovered - recovered[:1])]


def formula_equivalence_residual(e: ExtensionParams, zs) -> float:
    """Worst deviation between the parametrized and the generic S
    evaluation, over the points where both are regular."""
    s_of, zr, i = _s_table(t_from_betas(e), (zs, _spectral_point), routes=[e])
    return _worsts(s_of.z, [_route_gap(s_of, zr, i)])[0][0]


def _quadratic_gap(e, cls) -> float:
    worst = 0.0
    for b0, eigs in ((e.beta0, cls.eigenvalues_lower),
                     (0.5 - e.beta0, cls.eigenvalues_upper)):
        mid = b0 * math.cosh(e.metric.chi)
        rad = math.sqrt(max((b0 * math.sinh(e.metric.chi)) ** 2 + e.beta1 * e.beta1, 0.0))
        worst = max(worst, abs(eigs[0] - (mid - rad)), abs(eigs[1] - (mid + rad)))
    return worst


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _entry(passed, residual, expected_pass: bool = True, **extra) -> dict:
    """One JSON check entry; consistent when the outcome is the expected one."""
    return {"passed": bool(passed), "residual": float(residual), **extra,
            "expected_pass": bool(expected_pass),
            "consistent": bool(passed) == bool(expected_pass)}


def _classification(cls) -> dict:
    """The JSON record of a SpectraClassification."""
    return {"nonnegative": bool(cls.nonnegative),
            "closed_form_verdict": bool(cls.closed_form_verdict),
            "oracle_verdict": bool(cls.oracle_verdict),
            "eigenvalues_lower": [float(x) for x in cls.eigenvalues_lower],
            "eigenvalues_upper": [float(x) for x in cls.eigenvalues_upper]}


def _check_entry(check, expected_pass: bool) -> dict:
    return _entry(check.passed, check.residual, expected_pass,
                  witness_z=_pair(check.witness_z))


@cache
def _default_plan() -> tuple:
    """_report_plan of the default samples and the Mobius witnesses, the
    part of a draw that does not depend on T, built on first use."""
    return _report_plan(lower_half_plane_grid(), real_axis_points(), 1.0 - 1.0j,
                        (WITNESS_POINTS, _interior_point))


def run_parameter_suite(e: ExtensionParams, tol: float = DEFAULT_TOL) -> dict:
    """Full check battery for one parameter set; JSON-ready dict.  Every S(z)
    the draw needs, Mobius witnesses and the parametrized route included,
    comes from one batched evaluation over the distinct points, and every
    norm of a residual from one call."""
    _check_tol(tol)
    t = t_from_betas(e)
    g, px = metric(e.metric), p_xi(e.metric.xi)
    cls = _classify(e, tol, g, px)
    metric_ok = _metric_inequality(t, g, e.metric.chi, tol)
    plan, positions, mobius = _default_plan()
    s_of, zr = _tables(plan, t, e)
    grid = positions[0]      # (a) reads the interior grid
    checks = _checks(s_of, g, px, positions)
    gap = _route_gap(s_of, zr, grid)
    norms = _plain_norms(s_of, grid)
    mobius = _kept(mobius, [s_of])
    recovered = [t_from_s(x, z) for x, z in zip(s_of.s[s_of.row[mobius]], s_of.z[mobius])]
    report, ((recovery, _), (spread, _), (feq, _), (max_norm, _)) = _report(
        s_of, checks + _round_trip(recovered, t, mobius) + [gap, norms], tol)
    worst_cond = max([1.0] + s_of.cond[s_of.row[gap[1]]].tolist())
    feq_tol = max(FORMULA_EQUIVALENCE_TOL,
                  FORMULA_EQUIVALENCE_COND_SCALE * worst_cond)
    quad = _quadratic_gap(e, cls)
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
                                             max(0.0, max_norm - 1.0), expected_pass=metric_ok)
    consistent = all(entry["consistent"] for entry in checks.values())

    result = {
        "params": {
            "beta0": float(e.beta0),
            "beta1": float(e.beta1),
            "chi": float(e.metric.chi),
            "xi": float(e.metric.xi),
        },
        "classification": _classification(cls),
        "metric_inequality": bool(metric_ok),
        "standard_norm_max": float(max_norm),
        # informational: for beta1 != 0 and chi != 0 the plain norm should
        # exceed 1 somewhere, but a missing grid witness is logged, not failed
        "contraction_witness_found": bool(max_norm > 1.0 + CONTRACTION_WITNESS_MARGIN),
        # the distinct points of the table where S is singular; every check
        # skipped them
        "singular_z": [_pair(z) for z in s_of.points[s_of.singular].tolist()],
        "checks": checks,
        "consistent": bool(consistent),
    }
    return result


def run_random_suite(n: int, seed: int, tol: float = DEFAULT_TOL) -> dict:
    """Deterministic random battery: draw i is admissible for even i and
    deliberately out-of-region for odd i."""
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 1:
        raise ArgumentError("n must be >= 1")
    if seed < 0:
        raise ArgumentError("seed must be >= 0")
    _check_tol(tol)
    rng = np.random.default_rng(seed)
    results = []
    for i in range(n):
        e = draw_extension_params(rng, admissible=(i % 2 == 0))
        suite = run_parameter_suite(e, tol)
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
