"""Composite verification suites shared by the command line and the tests.

For one parameter set the suite runs every characteristic check together
with its theory-expected outcome:

  * conditions (b), (c), (d) and the PT criterion are algebraic identities
    of the Mobius transform for T = beta0 I + beta1 C, which is
    PT-symmetric by construction, and must pass for any real (beta0, beta1);
  * condition (a) must pass exactly when the metric inequality
    0 <= G T <= G/2 holds.  G C = P_xi makes G T = beta0 G + beta1 P_xi and
    G (I/2 - T) = (1/2 - beta0) G - beta1 P_xi, the two matrices of the
    eigenvalue oracle, so the oracle verdict is the expected outcome;
  * the eigenvalue oracle's verdict and eigenvalues must match their closed forms;
  * the Mobius inverse must recover T from every witness point where S is
    regular, and the recovered T must not depend on the witness;
  * the parametrized evaluation of S must match the generic one;
  * for beta1 = 0, S = s(beta0, z) I with a scalar s, and |s| <= 1 on the
    lower half-plane exactly when 0 <= beta0 <= 1/2, so S must be a
    plain-norm contraction on the grid exactly when the metric inequality
    holds.  For beta1 != 0 the suite reports the grid's largest plain norm,
    ``standard_norm_max``, and no verdict: the plain norm exceeds 1 on a
    set that depends on (chi, xi) and need not meet a finite grid, and at
    chi = 0 the spectral projections (I +- C)/2 of T are orthogonal, so S
    is a plain-norm contraction for every admissible beta1.

A draw runs on ``scattering._default_plan``, the evaluation plan of the
default samples and the Mobius witnesses, which does not depend on T, is
built once per process, on first use, and is the plan property_report
reads.  One kernel call fills S at the plan's distinct points by both
routes, the generic one and the parametrized one it is compared with, in
two tables over the plan.  A draw forms G and P_xi once.  Every check
skips the points where S is singular (the route gap those where either
route is), and the suite lists the distinct singular points of its table
as ``singular_z``.  The batching leaves the errors in this order: an
overflowing T, the classification, a check left with no regular point,
the scalar t_from_s calls of the Mobius round trip, then the verdicts
(a), (b), (c), (d), PT, Mobius round trip, z-independence, formula
equivalence and plain norm, each raising for its first non-finite
residual matrix, then for no residual left.  One verdict pass draws
them all in this order, (a) from one ``_hermitian_lows`` call and every
other check from one norm call, each held to the tolerance its record
carries.  A suite is *consistent* when every actual outcome equals its
expected one; the random battery reports the first inconsistent draw in
replayable form.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import DEFAULT_TOL, TWO_PI, KreinMetricParams, _metric_p_xi
from .errors import ArgumentError, _check_tol, _instance, _integer
from .extensions import ExtensionParams, _classify, t_from_betas
from .scattering import (WITNESS_POINTS, _checks, _default_plan, _kept, _plain_norms,
                         _tables, _worsts, s_matrix, t_from_s)

# contract tolerance for the two S-evaluation routes at well-conditioned
# points; the generic suite scales it with the worst denominator condition
# number, since out-of-region parameters can push an evaluation arbitrarily
# close to the denominator's zero
FORMULA_EQUIVALENCE_TOL = 1e-12
FORMULA_EQUIVALENCE_COND_SCALE = 1e-10
CONTRACTION_SLACK = 1e-10

# margin keeping deliberate out-of-region draws clear of the tolerance band
_REGION_MARGIN = 0.02


def draw_extension_params(rng: np.random.Generator, admissible: bool = True) -> ExtensionParams:
    """Sample (beta0, beta1, chi, xi).

    Admissible draws land inside the closed nonnegativity diamond.
    Inadmissible draws leave the diamond by at least 0.02 so the
    classification is unambiguous at floating tolerance.  chi is uniform
    over [-2, 2] and xi uniform over [0, 2*pi).
    """
    _instance("rng", rng, np.random.Generator)
    chi = rng.uniform(0.0, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    xi = rng.uniform(0.0, TWO_PI)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if admissible:
        beta0 = rng.uniform(0.0, 0.5)
        beta1 = sign * rng.uniform(0.0, min(beta0, 0.5 - beta0))
    elif rng.random() < 0.5:
        # beta0 inside [0, 1/2] but beta1 outside the diamond
        beta0 = rng.uniform(0.0, 0.5)
        beta1 = sign * (min(beta0, 0.5 - beta0) + rng.uniform(_REGION_MARGIN, 0.3))
    else:
        # beta0 itself outside [0, 1/2]
        if sign > 0:
            beta0 = 0.5 + rng.uniform(_REGION_MARGIN, 0.3)
        else:
            beta0 = -rng.uniform(_REGION_MARGIN, 0.3)
        beta1 = rng.uniform(-0.3, 0.3)
    return ExtensionParams(beta0, beta1, KreinMetricParams(xi=xi, chi=chi))


def mobius_round_trip_residuals(t) -> tuple[float, float]:
    """(worst recovery error, worst cross-witness disagreement) for
    t_from_s(s_matrix(t, z), z) over the WITNESS_POINTS, called point by
    point."""
    recovered = [t_from_s(s_matrix(t, z).s, z) for z in WITNESS_POINTS]
    z = np.array(WITNESS_POINTS, dtype=complex)
    recovery, spread = _worsts(z, _round_trip(recovered, t, np.arange(len(z)), math.inf))
    return recovery.residual, spread.residual


def _round_trip(recovered, t, i, tol) -> list:
    """The two Mobius round trip checks at the positions i, recovered
    holding t_from_s at each: recovered - t, and recovered - recovered[0],
    zero at the first point."""
    recovered = np.array(recovered).reshape(-1, 2, 2)
    return [("Mobius round trip", i, recovered - t, tol),
            ("z-independence", i, recovered - recovered[:1], tol)]


def _route_gap(s_of, zr, i):
    """S_zero_range - S at the points i where the tables zr and s_of, over
    one plan, are regular, held to a tolerance scaled with s_of's worst
    condition number there."""
    i = _kept(i, [zr, s_of])
    worst_cond = max([1.0] + s_of.cond[s_of.row[i]].tolist())
    tol = max(FORMULA_EQUIVALENCE_TOL, FORMULA_EQUIVALENCE_COND_SCALE * worst_cond)
    with np.errstate(all="ignore"):
        return "formula equivalence", i, zr.s[zr.row[i]] - s_of.s[s_of.row[i]], tol


def _quadratic_gap(e, cls) -> float:
    """Worst gap between the oracle eigenvalues cls holds and their closed form."""
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
    return {"closed_form_verdict": bool(cls.closed_form_verdict),
            "oracle_verdict": bool(cls.oracle_verdict),
            "eigenvalues_lower": [float(x) for x in cls.eigenvalues_lower],
            "eigenvalues_upper": [float(x) for x in cls.eigenvalues_upper]}


def _check_entry(check, expected_pass: bool) -> dict:
    return _entry(check.passed, check.residual, expected_pass,
                  witness_z=_pair(check.witness_z))


def run_parameter_suite(e: ExtensionParams, tol: float = DEFAULT_TOL) -> dict:
    """Full check battery for one parameter set; JSON-ready dict.  Every S(z)
    the draw needs, Mobius witnesses and the parametrized route included,
    comes from one batched evaluation over the distinct points, and every
    norm of a residual from one call."""
    _check_tol(tol)
    t = t_from_betas(e)
    g, px = _metric_p_xi(e.metric)
    cls = _classify(e, tol, g, px)
    metric_ok = cls.oracle_verdict  # G T and G (I/2 - T) are the oracle's matrices
    plan, positions, mobius = _default_plan()
    s_of, zr = _tables(plan, t, e)
    grid = positions[0]      # (a) reads the interior grid
    checks = _checks(s_of, g, px, positions, tol)
    gap = _route_gap(s_of, zr, grid)
    norms = _plain_norms(s_of, grid, 1.0 + CONTRACTION_SLACK)
    mobius = _kept(mobius, [s_of])
    recovered = [t_from_s(x, z) for x, z in zip(s_of.s[s_of.row[mobius]], s_of.z[mobius])]
    a, b, c, d, pt, recovery, spread, feq, contraction = _worsts(
        s_of.z, checks + _round_trip(recovered, t, mobius, tol) + [gap, norms])
    quad = _quadratic_gap(e, cls)

    checks = {
        "condition_a": _check_entry(a, expected_pass=metric_ok),
        "condition_b": _check_entry(b, expected_pass=True),
        "condition_c": _check_entry(c, expected_pass=True),
        "condition_d": _check_entry(d, expected_pass=True),
        "pt_criterion": _check_entry(pt, expected_pass=True),
        "mobius_round_trip": _entry(recovery.passed, recovery.residual),
        "z_independence": _entry(spread.passed, spread.residual),
        "formula_equivalence": _entry(feq.passed, feq.residual, tolerance=gap[3]),
        "oracle_agreement": _entry(cls.closed_form_verdict == cls.oracle_verdict
                                   and quad <= tol, quad),
    }
    if e.beta1 == 0.0:
        checks["contraction_bound"] = _entry(contraction.passed,
                                             max(0.0, contraction.residual - 1.0),
                                             expected_pass=metric_ok)
    consistent = all(entry["consistent"] for entry in checks.values())

    result = {
        "params": {
            "beta0": float(e.beta0),
            "beta1": float(e.beta1),
            "chi": float(e.metric.chi),
            "xi": float(e.metric.xi),
        },
        "classification": _classification(cls),
        "standard_norm_max": contraction.residual,
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
    return {
        "draws": int(n),
        "seed": int(seed),
        "tolerance": float(tol),
        "results": results,
        "consistent_draws": int(len(results) - len(inconsistent)),
        "all_consistent": not inconsistent,
        "first_violation": inconsistent[0]["params"] if inconsistent else None,
    }
