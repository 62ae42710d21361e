"""The composite suites: sampling, expected-outcome logic and determinism."""

import math
import sys

import numpy as np
import pytest

from ptscatter import (check_metric_inequality, classify_nonnegative,
                       draw_extension_params, extension_params,
                       hermitian_eigenvalues, is_pt_symmetric,
                       lower_half_plane_grid, metric,
                       mobius_round_trip_residuals, operator_norm, p_xi,
                       property_report,
                       run_parameter_suite, run_random_suite, s_matrix,
                       s_matrix_zero_range, t_from_betas)
from ptscatter.errors import SingularMatrixError
from ptscatter.verify import (CONTRACTION_SLACK, FORMULA_EQUIVALENCE_COND_SCALE,
                              FORMULA_EQUIVALENCE_TOL, _check_entry, _entry)

from _draws import bounded_admissible_draw

# a plain norm above 1 + WITNESS_MARGIN witnesses that S is not a contraction
WITNESS_MARGIN = 1e-6


def test_draws_respect_region_and_margins():
    rng = np.random.default_rng(50)
    for _ in range(200):
        e = draw_extension_params(rng, admissible=True)
        assert classify_nonnegative(e).closed_form_verdict
        e = draw_extension_params(rng, admissible=False)
        assert not classify_nonnegative(e).closed_form_verdict
    for _ in range(100):
        e = bounded_admissible_draw(rng, min_beta1=0.05, min_chi=0.5)
        assert abs(e.beta1) >= 0.05 and abs(e.metric.chi) >= 0.5
        assert classify_nonnegative(e).closed_form_verdict


def test_residual_helpers_are_small_for_betas_family():
    rng = np.random.default_rng(51)
    for _ in range(30):
        e = draw_extension_params(rng, admissible=bool(rng.random() < 0.5))
        recovery, spread = mobius_round_trip_residuals(t_from_betas(e))
        assert recovery <= 1e-10 and spread <= 1e-10
        assert run_parameter_suite(e)["checks"]["oracle_agreement"]["residual"] <= 1e-10
    # the two S routes agree to 1e-12 where the denominator is well
    # conditioned; admissible parameters keep it so on the whole grid
    for _ in range(30):
        e = draw_extension_params(rng, admissible=True)
        assert run_parameter_suite(e)["checks"]["formula_equivalence"]["residual"] <= 1e-12


def test_parameter_suite_admissible_is_consistent():
    suite = run_parameter_suite(extension_params(0.25, 0.2, chi=1.0, xi=0.0))
    assert suite["consistent"]
    assert suite["classification"]["closed_form_verdict"]
    assert suite["classification"]["oracle_verdict"]
    assert suite["checks"]["condition_a"]["passed"]
    assert suite["standard_norm_max"] > 1.0 + WITNESS_MARGIN


def test_parameter_suite_inadmissible_is_still_consistent():
    suite = run_parameter_suite(extension_params(0.25, 0.3, chi=1.0, xi=0.0))
    assert suite["consistent"]
    assert not suite["classification"]["closed_form_verdict"]
    assert not suite["classification"]["oracle_verdict"]
    entry = suite["checks"]["condition_a"]
    assert not entry["passed"] and not entry["expected_pass"] and entry["consistent"]
    for name in ("condition_b", "condition_c", "condition_d", "pt_criterion"):
        assert suite["checks"][name]["passed"]


def test_parameter_suite_scalar_family_has_contraction_bound():
    suite = run_parameter_suite(extension_params(0.3, 0.0, chi=0.0, xi=0.0))
    assert suite["consistent"]
    assert suite["checks"]["contraction_bound"]["passed"]


@pytest.mark.parametrize("beta0", [0.75, -0.26])
def test_scalar_family_outside_the_diamond_expects_no_contraction(beta0):
    # for beta1 = 0, S = s(beta0, z) I, and |s| <= 1 on the lower half-plane
    # exactly when 0 <= beta0 <= 1/2
    suite = run_parameter_suite(extension_params(beta0, 0.0))
    entry = suite["checks"]["contraction_bound"]
    assert not entry["passed"] and not entry["expected_pass"]
    assert suite["consistent"] and not suite["classification"]["oracle_verdict"]


def test_random_suite_consistent_and_deterministic():
    a = run_random_suite(16, seed=123)
    b = run_random_suite(16, seed=123)
    assert a == b
    assert a["all_consistent"]
    assert a["consistent_draws"] == 16
    assert a["first_violation"] is None
    c = run_random_suite(16, seed=124)
    assert c != a


def test_chi_zero_draws_have_no_contraction_witness():
    # at chi = 0 the spectral projections (I +- C)/2 of T are orthogonal, so
    # S is a plain-norm contraction although beta1 != 0; the witness margin
    # (not the contraction slack) absorbs operator_norm's rounding
    rng = np.random.default_rng(53)
    for _ in range(40):
        d = bounded_admissible_draw(rng, min_beta1=0.01)
        e = extension_params(d.beta0, d.beta1, chi=0.0, xi=d.metric.xi)
        suite = run_parameter_suite(e)
        assert e.beta1 != 0.0 and suite["consistent"]
        assert suite["standard_norm_max"] <= 1.0 + WITNESS_MARGIN


@pytest.mark.parametrize("chi", [8.0, 13.0])
def test_parameter_suite_reports_large_chi_draws(chi):
    # past the sampled |chi| <= 2 band rounding outgrows the absolute
    # tolerance; the suite reports the draw instead of raising
    suite = run_parameter_suite(extension_params(0.25, 0.2, chi=chi, xi=0.3))
    assert len(suite["checks"]) == 9 and isinstance(suite["consistent"], bool)


def test_near_edge_battery_draw_is_consistent():
    # admissible draws just inside the diamond's upper edge put a pole of S
    # close above z = 0, where S(0) = I but cond(den) is 1e6-1e7; (b) and
    # (d) read 1.1e-10 to 3.2e-10 there, inside their rounding bound.  The
    # draws of battery seed 8006 and of `verify --random 1` at seeds
    # 480000623 ((d) alone) and 319585634 ((b) and (d))
    for params in ((0.32472377566224225, -0.17527611941705315, -0.48338643672087844,
                    1.7775422709950994),
                   (0.48638082001714317, 0.013619172586527643, -0.9335453837000653,
                    4.7837535487790515),
                   (0.3944652549062393, 0.10553460511844293, -1.3890172874146995,
                    6.162080976267194)):
        b0, b1, chi, xi = params
        assert run_parameter_suite(extension_params(b0, b1, chi=chi, xi=xi))["consistent"]


# ------------------------------------------- reference: one S call per use


def _ref_quadratic(e):
    g = metric(e.metric)
    j = p_xi(e.metric.xi)
    worst = 0.0
    for b0, b1 in ((e.beta0, e.beta1), (0.5 - e.beta0, -e.beta1)):
        eigs = hermitian_eigenvalues(b0 * g + b1 * j)
        mid = b0 * math.cosh(e.metric.chi)
        rad = math.sqrt(max((b0 * math.sinh(e.metric.chi)) ** 2 + b1 * b1, 0.0))
        worst = max(worst, abs(eigs[0] - (mid - rad)), abs(eigs[1] - (mid + rad)))
    return worst


def reference_parameter_suite(e, tol=1e-10):
    """The suite as an explicit pass over the grid, calling s_matrix again at
    every interior point after property_report."""
    interior = lower_half_plane_grid()
    t = t_from_betas(e)
    cls = classify_nonnegative(e, tol)
    metric_ok = check_metric_inequality(t, e.metric, tol)
    report = property_report(t, e.metric, tol=tol)
    recovery, spread = mobius_round_trip_residuals(t)
    feq = 0.0
    worst_cond = 1.0
    max_norm = 0.0
    for z in interior:
        ev = s_matrix(t, z)
        feq = max(feq, operator_norm(s_matrix_zero_range(e, z).s - ev.s))
        worst_cond = max(worst_cond, ev.condition_number)
        max_norm = max(max_norm, operator_norm(ev.s))
    feq_tol = max(FORMULA_EQUIVALENCE_TOL, FORMULA_EQUIVALENCE_COND_SCALE * worst_cond)
    quad = _ref_quadratic(e)
    checks = {
        "condition_a": _check_entry(report.cond_a, metric_ok),
        "condition_b": _check_entry(report.cond_b, True),
        "condition_c": _check_entry(report.cond_c, True),
        "condition_d": _check_entry(report.cond_d, True),
        "pt_criterion": _check_entry(report.pt_criterion, is_pt_symmetric(t, tol)),
        "mobius_round_trip": _entry(recovery <= tol, recovery),
        "z_independence": _entry(spread <= tol, spread),
        "formula_equivalence": _entry(feq <= feq_tol, feq, tolerance=float(feq_tol)),
        "oracle_agreement": _entry(cls.closed_form_verdict == cls.oracle_verdict
                                   and quad <= tol, quad),
    }
    if e.beta1 == 0.0:
        checks["contraction_bound"] = _entry(max_norm <= 1.0 + CONTRACTION_SLACK,
                                             max(0.0, max_norm - 1.0), metric_ok)
    return {
        "params": {"beta0": float(e.beta0), "beta1": float(e.beta1),
                   "chi": float(e.metric.chi), "xi": float(e.metric.xi)},
        # the oracle verdict is the metric inequality, computed on its own
        "classification": {
            "closed_form_verdict": bool(cls.closed_form_verdict),
            "oracle_verdict": bool(metric_ok),
            "eigenvalues_lower": [float(x) for x in cls.eigenvalues_lower],
            "eigenvalues_upper": [float(x) for x in cls.eigenvalues_upper],
        },
        "standard_norm_max": float(max_norm),
        "singular_z": [],
        "checks": checks,
        "consistent": all(entry["consistent"] for entry in checks.values()),
    }


def _suite_outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return ("singular", str(exc))


def test_parameter_suite_matches_grid_loop_reference():
    rng = np.random.default_rng(52)
    draws = [draw_extension_params(rng, admissible=(i % 2 == 0)) for i in range(80)]
    # out-of-region draw whose denominator nearly vanishes at a grid point
    draws.append(extension_params(-0.24876168095150114, -0.0012823971079812813,
                                  chi=-1.4354489678740707, xi=2.929887110558113))
    # scalar draws (beta1 = 0), which carry the contraction bound; none has a
    # pole on a sample point
    draws += [extension_params(beta0, 0.0) for beta0 in (0.0, 0.3, 0.75, -0.26)]
    for e in draws:
        assert (_suite_outcome(run_parameter_suite, e, 1e-10)
                == _suite_outcome(reference_parameter_suite, e, 1e-10))


def test_default_samples_list_singular_points_exactly_for_poles():
    rng = np.random.default_rng(1202)
    draws = [draw_extension_params(rng, admissible=(i % 2 == 0)) for i in range(12)]
    # poles of S at z = 0 and z = -3i, both sample points
    poles = [extension_params(0.25, 0.25), extension_params(-0.26, 0.01),
             extension_params(-0.25, 0.0)]
    for e in draws + poles:
        assert bool(run_parameter_suite(e)["singular_z"]) == (e in poles)


def test_the_default_samples_plan_is_read_only():
    import ptscatter.verify as verify
    run_parameter_suite(extension_params(0.2, 0.1))
    plan, positions, mobius = verify._default_plan()
    assert verify._default_plan() is verify._default_plan()
    for a in [*positions, mobius, plan.z, plan.points, plan.row, plan.mirror, *plan.lists]:
        assert len(a)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_parameter_suite_evaluates_each_distinct_point_once(monkeypatch):
    import ptscatter.scattering as scattering
    batches = {"generic": [], "zero_range": []}

    def recording(name, original):
        def record(arg, zs):
            batches[name].append(list(zs))
            return original(arg, zs)
        return record

    def per_point(*args, **kwargs):
        raise AssertionError("the suite evaluated S one point at a time")

    monkeypatch.setattr(scattering, "_terms",
                        recording("generic", scattering._terms))
    monkeypatch.setattr(scattering, "_zero_range_terms",
                        recording("zero_range", scattering._zero_range_terms))
    for name in ("s_matrix", "s_matrix_zero_range"):
        monkeypatch.setattr(scattering, name, per_point)
    kernel = []
    s_batch = scattering._s_batch

    def recording_kernel(num, den):
        kernel.append(len(num))
        return s_batch(num, den)

    monkeypatch.setattr(scattering, "_s_batch", recording_kernel)
    run_parameter_suite(extension_params(0.2, 0.1, chi=0.5, xi=0.3))
    # one batched evaluation over the 58 points of the property report and
    # the Mobius witnesses -1j, -2j, 1-1j and -0.5-0.3j with their
    # reflections, of which only 1-1j and its reflection are among the 58;
    # the parametrized route evaluates the same points
    [generic] = batches["generic"]
    assert len(generic) == len(set(generic)) == 62
    assert all(z in generic for z in (-1j, -2j, 1 - 1j, -0.5 - 0.3j, 0.5 - 0.3j))
    assert batches["zero_range"] == [generic]
    # one kernel call fills the tables of both routes
    assert kernel == [2 * 62]


def test_parameter_suite_forms_the_metric_and_p_xi_once(monkeypatch):
    import ptscatter.clifford as clifford
    import ptscatter.extensions as extensions
    import ptscatter.scattering as scattering
    import ptscatter.verify as verify
    metrics, builds = [], []
    original = clifford.p_xi

    def counting(calls, fn):
        def count(*args):
            calls.append(args)
            return fn(*args)
        return count

    for module in (verify, extensions, scattering):
        for name in ("metric", "_metric_p_xi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(metrics, getattr(module, name)))
    # every binding of p_xi in the package, so that no build escapes the count
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("ptscatter")
                and getattr(module, "p_xi", None) is original):
            monkeypatch.setattr(module, "p_xi", counting(builds, original))
    e = extension_params(0.2, 0.1, chi=0.5, xi=0.3)
    assert run_parameter_suite(e)["consistent"]
    # the metric builds the P_xi the checks and the oracle read; the
    # C-operator of T and the parametrized route's basis build their own
    assert (len(metrics), len(builds)) == (1, 3)
    metrics.clear(), builds.clear()
    classify_nonnegative(e)
    assert (len(metrics), len(builds)) == (1, 1)
