"""The scattering matrix, its Mobius inverse and the characteristic checks."""

import math
import warnings
from functools import partial

import numpy as np
import pytest

from ptscatter import (DEFAULT_CONDITION_LIMIT, SIGMA0, SIGMA1, SIGMA2, SIGMA3,
                       ArgumentError, KreinMetricParams, PropertyCheck,
                       PropertyReport, ScatteringEvaluation,
                       SingularMatrixError, check_condition_a,
                       check_condition_b, check_condition_c,
                       check_condition_d, check_pt_criterion, exp_involution,
                       extension_params, formula_equivalence_residual,
                       hermitian_eigenvalues, inverse,
                       lower_half_plane_grid, metric, operator_norm, p_xi,
                       pauli_compose, property_report, real_axis_points,
                       s_matrix, s_matrix_zero_range,
                       standard_contraction_norm, t_from_betas, t_from_s)
from ptscatter.matrix2 import (_hermitian_lows, _operator_norms,
                               _singular_error, as_matrix)
from ptscatter.scattering import (_interior_point, _metric_defect,
                                  _metric_defects, _off_axis, _quotient,
                                  _s_batch, _spectral_point, _terms, _worsts,
                                  _zero_range_terms)
from ptscatter.verify import (WITNESS_POINTS, draw_extension_params,
                              run_parameter_suite)

TWO_PI = 2.0 * math.pi
GRID = lower_half_plane_grid()
REAL_AXIS = real_axis_points()


def norm(m):
    return operator_norm(np.asarray(m))


# ---------------------------------------------------------------- S(z)


def test_s_matrix_endpoint_examples():
    for z in (-1j, -2j, 1 - 1j, 0.0):
        np.testing.assert_array_equal(s_matrix(np.zeros((2, 2)), z).s, SIGMA0)
    # z = 0 is the (removable) singularity of the quotient for T = I/2
    for z in (-1j, -2j, 1 - 1j):
        np.testing.assert_allclose(s_matrix(0.5 * SIGMA0, z).s, -SIGMA0, atol=1e-14)


def test_s_matrix_zero_at_minus_i_for_quarter():
    ev = s_matrix(0.25 * SIGMA0, -1j)
    assert norm(ev.s) <= 1e-15
    assert ev.condition_number == 1.0


def test_s_matrix_rejects_upper_half_plane():
    with pytest.raises(ArgumentError):
        s_matrix(np.zeros((2, 2)), 0.5j)


def test_s_matrix_reports_singular_denominator():
    # T = I has its denominator zero at z = -i/2
    with pytest.raises(SingularMatrixError) as info:
        s_matrix(SIGMA0, -0.5j)
    assert info.value.z == -0.5j


def test_zero_range_endpoints_are_exact():
    e0 = extension_params(0.0, 0.0, chi=1.3, xi=0.9)
    e_half = extension_params(0.5, 0.0, chi=-0.7, xi=2.1)
    for z in GRID:
        np.testing.assert_allclose(s_matrix_zero_range(e0, z).s, SIGMA0, atol=1e-14)
        np.testing.assert_allclose(s_matrix_zero_range(e_half, z).s, -SIGMA0,
                                   atol=1e-14)


def test_zero_range_matches_generic_formula():
    rng = np.random.default_rng(40)
    for _ in range(50):
        e = draw_extension_params(rng, admissible=True)
        t = t_from_betas(e)
        for z in list(GRID) + [-1j, -2.5j, 1.5 - 0.4j, -2 - 2j]:
            np.testing.assert_allclose(s_matrix_zero_range(e, z).s,
                                       s_matrix(t, z).s, atol=1e-12)
    # out-of-region parameters can sit near the denominator zero, where the
    # two assembly routes only agree up to the conditioning of the inverse
    for _ in range(50):
        e = draw_extension_params(rng, admissible=False)
        t = t_from_betas(e)
        for z in GRID:
            ev = s_matrix(t, z)
            res = norm(s_matrix_zero_range(e, z).s - ev.s)
            assert res <= 1e-10 * max(1.0, ev.condition_number)


# The zero-range route as first written, kept as the reference: the
# hyperbolic factor comes from exp_involution, which re-checks that
# i R P_xi squares to I at every point.

def reference_s_matrix_zero_range(e, z):
    zz = _spectral_point(z)
    sx = p_xi(e.metric.xi)
    hyp = exp_involution(e.metric.chi, 1j * (SIGMA1 @ sx))
    ap = 2.0 * (1.0 + 1j * zz)
    am = 2.0 * (1.0 - 1j * zz)
    num = (1.0 - ap * e.beta0) * sx - (ap * e.beta1) * hyp
    den = (1.0 - am * e.beta0) * sx - (am * e.beta1) * hyp
    s, cond = _quotient(num, den, zz)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def outcome(route, e, z):
    try:
        return route(e, z)
    except SingularMatrixError as exc:
        return (str(exc), exc.z)


def bit_draws(chis=(0.0, -0.0, 6.0, -6.0, 20.0, -20.0)):
    """200 draws, half out of region, the first 10 again with each chi, and
    8 sets with beta1 = +-0."""
    rng = np.random.default_rng(42)
    params = [draw_extension_params(rng, admissible=(i % 2 == 0)) for i in range(200)]
    params += [extension_params(p.beta0, p.beta1, chi, p.metric.xi)
               for chi in chis for p in params[:10]]
    # beta1 = +-0 gives S exact zero entries, whose signs must agree too
    params += [extension_params(0.25, beta1, chi, xi) for beta1 in (0.0, -0.0)
               for chi in (0.0, -0.0) for xi in (0.0, math.pi)]
    return params


def assert_same_bits(got, want):
    """Equal arrays with equal sign bits in the real and imaginary parts."""
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_zero_range_matches_reference_bit_for_bit():
    singular = 0
    for e in bit_draws():
        for z in GRID + REAL_AXIS:
            got = outcome(s_matrix_zero_range, e, z)
            want = outcome(reference_s_matrix_zero_range, e, z)
            if isinstance(want, tuple):
                singular += 1
                assert got == want
                continue
            assert_same_bits(got.s, want.s)
            assert got.condition_number == want.condition_number
            assert got.z == want.z
    assert singular > 0   # chi = +-20 pushes the denominator past the limit


# ---------------------------------------------------------------- batched kernel


def scalar_outcomes(route, arg, zs):
    """The one-point route over zs, stacked like the kernel's output: S and
    condition numbers (NaN where the route raises) and the errors raised."""
    s, cond, errors = [], [], {}
    for i, z in enumerate(zs):
        try:
            ev = route(arg, z)
        except SingularMatrixError as exc:
            errors[i] = (str(exc), exc.z)
            ev = ScatteringEvaluation(z, np.full((2, 2), complex(np.nan, np.nan)), np.nan)
        s.append(ev.s)
        cond.append(ev.condition_number)
    return np.array(s), np.array(cond), errors


def test_kernel_matches_scalar_routes_bit_for_bit():
    grid16 = lower_half_plane_grid(steps=16)
    draws = bit_draws(chis=(0.0, -0.0, 6.0, -6.0, 20.0, -20.0, 400.0))
    # points whose factors 2(1 +- iz) have signed zero parts, with beta0 = +-0
    signed = len(draws)
    signed_zeros = [complex(-0.0, -1.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                    complex(-0.0, 0.0)]
    draws += [extension_params(beta0, beta1, chi, xi) for beta0 in (0.0, -0.0)
              for beta1 in (0.0, -0.0, 0.3) for chi in (0.0, -0.0, 1.5) for xi in (0.0, 2.0)]
    singular_rows = 0
    for k, e in enumerate(draws):
        t = t_from_betas(e)
        g = metric(e.metric)
        # the 16x16 grid for the first 20 draws and every chi and signed-zero
        # set; the signed zeros for the beta0 = +-0 sets
        grids = (GRID, REAL_AXIS) + ((grid16,) if k < 20 or k >= 200 else ())
        grids += (signed_zeros,) if k >= signed else ()
        for zs in grids:
            for route, terms, arg in ((s_matrix_zero_range, _zero_range_terms, e),
                                      (s_matrix, _terms, t)):
                s, cond, singular = _s_batch(*terms(arg, zs))
                with np.errstate(all="ignore"):
                    want_s, want_cond, errors = scalar_outcomes(route, arg, zs)
                assert sorted(errors) == np.flatnonzero(singular).tolist()
                for i, want in errors.items():
                    err = _singular_error(cond[i], DEFAULT_CONDITION_LIMIT, zs[i], "denominator")
                    assert (str(err), err.z) == want
                singular_rows += len(errors)
                assert np.isnan(s[singular]).all()
                good = s[~singular]
                assert_same_bits(good, want_s[~singular])
                assert np.array_equal(cond[~singular], want_cond[~singular])
                assert_same_bits(_operator_norms(good), [operator_norm(x) for x in good])
                assert_same_bits(_metric_defects(g, good), [_metric_defect(g, x) for x in good])
    assert singular_rows > 0   # chi = +-20 and 400 push denominators past the limit


def test_kernel_emits_no_warnings():
    cases = [(extension_params(0.2, 0.1, chi=400.0), GRID),      # overflowing rows
             (extension_params(0.2, 0.1, chi=700.0), GRID),
             (extension_params(1.0, 0.0), [-0.5j, 1 - 0.5j, 0.0])]  # singular at -i/2
    tables = [(e, zs, t_from_betas(e), metric(e.metric)) for e, zs in cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e, zs, t, g in tables:
            for terms in (_zero_range_terms(e, zs), _terms(t, zs)):
                s, _, singular = _s_batch(*terms)
                assert singular.any()
                _operator_norms(s)
                _metric_defects(g, s)


@pytest.mark.parametrize("call", [
    lambda t, p: property_report(t, p),
    lambda t, p: check_condition_b(t, p, GRID + real_axis_points()),
], ids=["property_report", "check_condition_b"])
def test_overflowing_terms_raise_without_warnings(call):
    # 2(1 +- iz) T passes the float range at the far sample points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            call(3e307 * np.eye(2), KreinMetricParams(0.3, 0.5))


def test_numerator_and_denominator_commute():
    rng = np.random.default_rng(41)
    for _ in range(100):
        e = draw_extension_params(rng)
        t = t_from_betas(e)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, -0.1))
        num = SIGMA0 - 2 * (1 + 1j * z) * t
        den = SIGMA0 - 2 * (1 - 1j * z) * t
        left = inverse(den) @ num
        right = num @ inverse(den)
        assert norm(left - right) <= 1e-12


# ---------------------------------------------------------------- inverse map


def test_t_from_s_examples():
    assert norm(t_from_s(SIGMA0, -2j)) == 0.0
    with pytest.raises(ArgumentError):
        t_from_s(SIGMA0, 1.0)      # real axis
    with pytest.raises(ArgumentError):
        t_from_s(SIGMA0, 1j)       # upper half-plane
    # s = theta(z) I makes the quotient singular
    z = -2j
    theta = (1 + 1j * z) / (1 - 1j * z)
    with pytest.raises(SingularMatrixError):
        t_from_s(theta * SIGMA0, z)


def test_t_from_s_round_trip_and_z_independence():
    rng = np.random.default_rng(42)
    for _ in range(100):
        e = draw_extension_params(rng)
        t = t_from_betas(e)
        recovered = [t_from_s(s_matrix(t, z).s, z) for z in WITNESS_POINTS]
        for r in recovered:
            assert norm(r - t) <= 1e-10
        for r in recovered[1:]:
            assert norm(r - recovered[0]) <= 1e-10


# ---------------------------------------------------------------- conditions


def test_conditions_pass_for_trivial_t():
    t = np.zeros((2, 2))
    p = KreinMetricParams(0.7, 1.2)
    assert check_condition_a(t, p, GRID).residual == 0.0
    assert check_condition_b(t, p, GRID + REAL_AXIS).residual == 0.0
    assert check_condition_c(t, p, 1 - 1j).passed
    assert check_condition_d(t, p.xi, 1 - 1j).passed
    assert check_pt_criterion(t, GRID).passed


def test_conditions_pass_for_admissible_parameters():
    e = extension_params(0.25, 0.2, chi=1.0, xi=0.0)
    rep = property_report(t_from_betas(e), e.metric)
    for check in (rep.cond_a, rep.cond_b, rep.cond_c, rep.cond_d, rep.pt_criterion):
        assert check.passed
        assert check.residual <= 1e-10


def test_condition_a_fails_for_inadmissible_parameters():
    e = extension_params(0.25, 0.3, chi=1.0, xi=0.0)
    rep = property_report(t_from_betas(e), e.metric)
    assert not rep.cond_a.passed
    assert rep.cond_a.residual > 1e-6
    # the algebraic identities are insensitive to admissibility
    assert rep.cond_b.passed and rep.cond_c.passed and rep.cond_d.passed
    assert rep.pt_criterion.passed


def test_condition_b_purely_imaginary_specialization():
    """On the negative imaginary axis -conj z = z, so the identity says
    metric * S(z) is Hermitian."""
    e = extension_params(0.2, 0.1, chi=0.8, xi=1.1)
    t = t_from_betas(e)
    from ptscatter import metric as metric_of
    g = metric_of(e.metric)
    for z in (-0.5j, -1j, -2.7j):
        s = s_matrix(t, z).s
        gs = g @ s
        assert norm(gs - gs.conj().T) <= 1e-12
        assert check_condition_b(t, e.metric, [z]).passed


def test_condition_c_rejects_imaginary_axis():
    with pytest.raises(ArgumentError):
        check_condition_c(np.zeros((2, 2)), KreinMetricParams(0, 0), -1j)


def test_condition_c_fails_for_generic_matrix():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(20):
        m = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        check = check_condition_c(m, KreinMetricParams(0.3, 0.9), 1 - 1j)
        hits += not check.passed
    assert hits >= 19  # generic matrices are not metric self-adjoint


def test_condition_d_negative_control():
    assert not check_condition_d(SIGMA2, 0.0, 1 - 1j).passed
    # sigma_2 is Krein self-adjoint for xi = pi/2 and passes there
    assert check_condition_d(SIGMA2, math.pi / 2, 1 - 1j).passed


def test_condition_d_holds_for_krein_selfadjoint_t():
    rng = np.random.default_rng(44)
    for _ in range(50):
        xi = rng.uniform(0, TWO_PI)
        b0, b1, b2 = 0.4 * rng.uniform(-1, 1, size=3)
        from ptscatter import p_xi
        t = b0 * SIGMA0 + b1 * p_xi(xi) + 1j * b2 * SIGMA1
        for z in (1 - 1j, -2j, 2.0):
            assert check_condition_d(t, xi, z, 1e-10).passed


def test_pt_criterion_equivalence():
    rng = np.random.default_rng(45)
    for _ in range(60):
        if rng.random() < 0.5:
            a = 0.4 * rng.uniform(-1, 1, size=4)
            t = pauli_compose((a[0], a[1], 1j * a[2], a[3]))
            expected = True
        else:
            a = 0.4 * rng.uniform(-1, 1, size=4).astype(complex)
            a[rng.integers(0, 4)] += 1j * rng.uniform(0.1, 0.4)
            t = pauli_compose(tuple(a))
            expected = bool(np.allclose(t, SIGMA3 @ np.conj(t) @ SIGMA3, atol=1e-10))
        assert check_pt_criterion(t, GRID).passed == expected


def test_pt_criterion_negative_control_sigma1():
    assert not check_pt_criterion(SIGMA1, GRID).passed


# ---------------------------------------------------------------- contraction


def test_contraction_norm_for_scalar_family():
    for b0 in np.linspace(0.0, 0.5, 11):
        t = b0 * SIGMA0
        assert standard_contraction_norm(t, GRID) <= 1.0 + 1e-10
    assert standard_contraction_norm(np.zeros((2, 2)), GRID) == 1.0


def test_contraction_fails_for_skewed_admissible_parameters():
    e = extension_params(0.25, 0.2, chi=1.0, xi=0.0)
    assert standard_contraction_norm(t_from_betas(e), GRID) > 1.0 + 1e-6


# ---------------------------------------------------------------- grids


def test_grid_shapes_and_order():
    grid = lower_half_plane_grid()
    assert len(grid) == 49
    assert grid[0] == -3 - 3j          # row-major, deepest row first
    assert grid[1] == -2 - 3j
    assert grid[-1] == 3 - 0.1j
    assert all(z.imag < 0 for z in grid)
    axis = real_axis_points()
    assert len(axis) == 7 and axis[0] == -3 and axis[-1] == 3
    with pytest.raises(ArgumentError):
        lower_half_plane_grid(im_max=0.5)
    with pytest.raises(ArgumentError):
        lower_half_plane_grid(steps=0)
    with pytest.raises(ArgumentError):
        lower_half_plane_grid(re_min=3.0, re_max=-3.0)
    with pytest.raises(ArgumentError):
        lower_half_plane_grid(im_min=-0.1, im_max=-3.0)



def reference_axis(lo, hi, steps):
    """steps values from lo to hi with both bounds taken exactly, signs of
    zero included, and np.linspace's values in between."""
    return [lo] if steps == 1 else [lo, *np.linspace(lo, hi, steps).tolist()[1:-1], hi]


def reference_grid(re_min=-3.0, re_max=3.0, im_min=-3.0, im_max=-0.1, steps=7):
    """lower_half_plane_grid's points, one complex() each."""
    res, ims = reference_axis(re_min, re_max, steps), reference_axis(im_min, im_max, steps)
    return [complex(x, y) for y in ims for x in res]


@pytest.mark.parametrize("bounds", [
    {}, {"steps": 1}, {"steps": 16}, {"re_min": -0.0, "re_max": 0.0, "steps": 2},
    {"im_min": -1.0, "im_max": -0.0, "steps": 3}, {"re_min": -0.0, "re_max": -0.0, "steps": 1},
    {"re_min": 0.0, "re_max": 0.0, "im_min": -0.0, "im_max": 0.0, "steps": 2},
    {"re_min": -0.0, "re_max": -0.0, "im_min": -0.0, "im_max": -0.0, "steps": 3},
], ids=["default", "one-step", "sixteen", "re-signed-zeros", "im-to-minus-zero",
        "minus-zero-point", "zero-corner", "both-zeros"])
def test_grid_equals_the_per_point_construction(bounds):
    got, want = lower_half_plane_grid(**bounds), reference_grid(**bounds)
    assert [type(z) for z in got] == [complex] * len(want)
    assert_same_bits(np.array(got), np.array(want))


@pytest.mark.parametrize("lo, hi, steps", [
    (-3.0, 3.0, 7), (-0.0, 0.0, 2), (-0.0, -0.0, 3), (-0.0, 1.0, 1), (-1.0, -0.0, 3),
])
def test_real_axis_takes_its_bounds_exactly(lo, hi, steps):
    want = [complex(x, 0.0) for x in reference_axis(lo, hi, steps)]
    assert_same_bits(np.array(real_axis_points(lo, hi, steps)), np.array(want))


# ---------------------------------------------------------------- report vs per-point loops
#
# The report as first written, kept as the reference: each check is its own
# per-point loop that calls s_matrix afresh at every point and reflection, and
# the single-point conditions (c) and (d) are merged by their worst residual.


def _ref_condition_a(t, p, zs, tol):
    g = metric(p)
    worst, worst_z = math.inf, None
    for z in zs:
        zz = complex(z)
        s = s_matrix(t, zz).s
        low = hermitian_eigenvalues(g - s.conj().T @ g @ s)[0]
        if low < worst:
            worst, worst_z = low, zz
    residual = max(0.0, -worst)
    return PropertyCheck(residual <= tol, residual, worst_z)


def _ref_condition_b(t, p, zs, tol):
    g = metric(p)
    worst, worst_z = -math.inf, None
    for z in zs:
        zz = complex(z)
        s = s_matrix(t, zz).s
        s_ref = s_matrix(t, -zz.conjugate()).s
        res = operator_norm(g @ s - s_ref.conj().T @ g)
        if res > worst:
            worst, worst_z = res, zz
    return PropertyCheck(worst <= tol, worst, worst_z)


def _ref_condition_c(t, p, z, tol):
    zz = complex(z)
    g = metric(p)
    s = s_matrix(t, zz).s
    sh = s.conj().T
    lhs = zz.real * (g - sh @ g @ s)
    rhs = 1j * zz.imag * (sh @ g - g @ s)
    res = operator_norm(lhs - rhs)
    return PropertyCheck(res <= tol, res, zz)


def _ref_condition_d(t, xi, z, tol):
    zz = complex(z)
    j = p_xi(xi)
    s = s_matrix(t, zz).s
    s_ref = s_matrix(t, -zz.conjugate()).s
    res = operator_norm(j @ s - s_ref.conj().T @ j)
    return PropertyCheck(res <= tol, res, zz)


def _ref_pt_criterion(t, zs, tol):
    worst, worst_z = -math.inf, None
    for z in zs:
        zz = complex(z)
        s = s_matrix(t, zz).s
        s_ref = s_matrix(t, -zz.conjugate()).s
        res = operator_norm(SIGMA3 @ np.conj(s) @ SIGMA3 - s_ref)
        if res > worst:
            worst, worst_z = res, zz
    return PropertyCheck(worst <= tol, worst, worst_z)


def _ref_merge(checks, tol):
    worst = max(checks, key=lambda c: c.residual)
    return PropertyCheck(worst.residual <= tol, worst.residual, worst.witness_z)


def reference_property_report(t, p, interior=None, boundary=None,
                              witness=1.0 - 1.0j, tol=1e-10):
    interior = list(interior) if interior is not None else lower_half_plane_grid()
    boundary = list(boundary) if boundary is not None else real_axis_points()
    witness = complex(witness)
    cond_a = _ref_condition_a(t, p, interior, tol)
    cond_b = _ref_condition_b(t, p, interior + boundary, tol)
    c_points = [witness] + [z for z in interior if complex(z).real != 0.0]
    cond_c = _ref_merge([_ref_condition_c(t, p, z, tol) for z in c_points], tol)
    d_points = [witness] + interior + boundary
    cond_d = _ref_merge([_ref_condition_d(t, p.xi, z, tol) for z in d_points], tol)
    pt = _ref_pt_criterion(t, interior, tol)
    return PropertyReport(cond_a, cond_b, cond_c, cond_d, pt)


def _outcome(fn, *args, **kwargs):
    try:
        rep = fn(*args, **kwargs)
    except SingularMatrixError as exc:
        return ("singular", str(exc))
    # repr keeps the sign of zero parts, so the witnesses must be the same point
    return [(c.passed, c.residual, repr(c.witness_z))
            for c in (rep.cond_a, rep.cond_b, rep.cond_c, rep.cond_d, rep.pt_criterion)]


def test_property_report_matches_per_point_loops():
    rng = np.random.default_rng(46)
    # not reflection symmetric: no point's reflection is on this grid
    skew = [complex(x, y) for x, y in zip(rng.uniform(-3, 3, 15),
                                          rng.uniform(-3, -0.1, 15))]
    bnd = [1.5, -0.25, 0.0]
    for i in range(80):
        e = draw_extension_params(rng, admissible=(i % 2 == 0))
        t = t_from_betas(e)
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, -0.2))
        for args, kwargs in (((), {}),                     # default grid, witness 1-1j
                             ((skew, bnd), {}),
                             ((skew, bnd), {"witness": w}),
                             ((GRID, REAL_AXIS), {"witness": w, "tol": 1e-6})):
            assert (_outcome(property_report, t, e.metric, *args, **kwargs)
                    == _outcome(reference_property_report, t, e.metric, *args, **kwargs))


def test_property_report_evaluates_each_distinct_point_once(monkeypatch):
    import ptscatter.scattering as scattering
    batches = []
    original = scattering._terms

    def recording(t, zs):
        batches.append(list(zs))
        return original(t, zs)

    def per_point(*args, **kwargs):
        raise AssertionError("the report evaluated S one point at a time")

    monkeypatch.setattr(scattering, "_terms", recording)
    monkeypatch.setattr(scattering, "s_matrix", per_point)
    e = extension_params(0.2, 0.1, chi=0.5, xi=0.3)
    property_report(t_from_betas(e), e.metric)
    # one batched evaluation over 49 grid points, 7 real-axis points and the
    # witness 1-1j with its reflection -1-1j; the grid and the axis are their
    # own reflections
    assert len(batches) == 1
    calls = batches[0]
    assert len(calls) == 58
    assert len(set(calls)) == 58
    assert 1 - 1j in calls and -1 - 1j in calls


# ---------------------------------------------------------------- singular points
#
# A pole of S is data: a check skips the points where S is singular (at z,
# and at -conj z when it reads the reflection), so its result is that of the
# same call without them, and a list with none left raises the
# SingularMatrixError s_matrix raises at its first point.  A malformed T
# raises before any point, and a malformed point before any check.


TOL = 1e-10
NAN = complex(math.nan, -1.0)
# T with a pole of S at 0.5-0.5j only: the reflection of -0.5-0.5j is singular
POLE = np.diag([(1 + 1j) / 2, 0])
# with chi = 700 the metric is ~5e303, and S = diag(-399, 1) at -1j makes
# S* G S overflow; the second eigenvalue puts a pole at -0.995j
BIG = np.diag([100.0, 0.0])
P700 = KreinMetricParams(0.3, 700.0)
P = KreinMetricParams(0.7, 1.2)

PARITY_POINTS = [
    [1 - 1j, -2 - 0.5j, 0.3 - 2j],            # valid
    [1 - 1j, 0.5j, -1 - 1j],                  # upper half-plane
    [NAN, 1 - 1j], [1 - 1j, NAN],             # NaN
    [1 - 1j, "x"], ["1-1j", -2j], [None],     # a malformed string, a valid one
    [-1j, 1 - 1j], [1 - 1j, -1j],             # Re z = 0, rejected by (c)
    [1 - 1j, 2.0, -1 - 1j],                   # real axis: interior checks reject it
    [0.5 - 0.5j, NAN], [NAN, 0.5 - 0.5j],     # singular before / after invalid
    [1 - 1j, 0.5 - 0.5j, "x"], [1 - 1j, "x", 0.5 - 0.5j],
    [-0.5 - 0.5j, 1 - 1j],                    # singular reflection
    [-0.5j, 1 - 1j], [1 - 1j, -0.5j],         # the pole of T = I
    [-0.5j, -0.5j], [-0.5 - 0.5j, 0.5 - 0.5j],  # nothing left once poles are skipped
    [-1j, -0.995j], [-0.995j, -1j],           # overflow before / after a pole
    [NAN, -1j], [-1j, NAN], [complex(math.inf, -1)],
    [1 - 1j, 1 - 1j, -1 - 1j, 1 - 1j],        # tied maximum
    [-2 - 1j, complex(-2, -1)],
    [],
]
PARITY_TS = [np.zeros((2, 2)), SIGMA0, POLE, BIG,
             t_from_betas(extension_params(0.3, -0.2, 0.8, 2.0)), np.full((2, 2), math.nan)]


def _ref_max_norm(t, p, zs, tol):
    worst = -math.inf
    for z in zs:
        res = operator_norm(s_matrix(t, z).s)
        if res > worst:
            worst = res
    return worst


# each single check: whether it reads S at -conj z, its point validator and
# its per-point loop reference
SINGLE_CHECKS = {
    check_condition_a: (False, _interior_point, _ref_condition_a),
    check_condition_b: (True, _spectral_point, _ref_condition_b),
    check_condition_c: (False, _off_axis, lambda t, p, zs, tol: _ref_condition_c(t, p, *zs, tol)),
    check_condition_d: (True, _spectral_point,
                        lambda t, p, zs, tol: _ref_condition_d(t, p.xi, *zs, tol)),
    check_pt_criterion: (True, _interior_point, lambda t, p, zs, tol: _ref_pt_criterion(t, zs, tol)),
    standard_contraction_norm: (False, _spectral_point, _ref_max_norm),
}


def _public(check, t, p, zs):
    """check over the point list zs; the one-point checks take its one point."""
    if check in (check_condition_c, check_condition_d):
        [z] = zs
        return check(t, p.xi if check is check_condition_d else p, z, TOL)
    if check is check_pt_criterion:
        return check(t, zs, TOL)
    if check is standard_contraction_norm:
        return check(t, zs)
    return check(t, p, zs, TOL)


def _raised(exc):
    """An exception as its type, message and z (with its repr, which keeps
    the sign of zero parts)."""
    z = getattr(exc, "z", None)
    return type(exc), str(exc), z, repr(z)


def _parity(fn, *args, **kwargs):
    """The result (with its repr) or the exception as _raised gives it."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:   # every exception must match, its type included
        return _raised(exc)
    return result, repr(result)


def _singular_at(t, z, mirror):
    """The SingularMatrixError s_matrix raises at the valid point z, or at
    -conj z when mirror, or None."""
    for w in (z, -z.conjugate())[:1 + mirror]:
        try:
            s_matrix(t, w)
        except SingularMatrixError as exc:
            return exc
    return None


def _skipping(call, t, points, mirror, validate):
    """(what call(points) must give, the points at which S is regular): a
    malformed T's error, then the first malformed point's, then call on the
    regular points, or, when there are none, the first point's
    SingularMatrixError."""
    try:
        as_matrix(t)
        zs = [validate(z) for z in points]
    except ArgumentError as exc:
        return _raised(exc), points
    errors = [_singular_at(t, z, mirror) for z in zs]
    kept = [x for x, err in zip(points, errors) if err is None]
    if points and not kept:
        return _raised(errors[0]), kept
    return _parity(call, kept), kept


@pytest.mark.parametrize("check", list(SINGLE_CHECKS), ids=lambda f: f.__name__)
def test_checks_skip_the_points_where_s_is_singular(check):
    mirror, validate, reference = SINGLE_CHECKS[check]
    one_point = check in (check_condition_c, check_condition_d)
    seen = set()
    for t in PARITY_TS:
        for p in (P, P700):
            for zs in PARITY_POINTS:
                for points in ([[z] for z in zs] if one_point else [zs]):
                    with np.errstate(all="ignore"):
                        got = _parity(_public, check, t, p, points)
                        want, kept = _skipping(partial(_public, check, t, p), t, points,
                                               mirror, validate)
                        if not isinstance(got[0], type):
                            # the skipped points' result is the per-point loop's
                            result = reference(t, p, kept, TOL)
                            assert got[0] == result, (check.__name__, t, p, points)
                    assert got == want, (check.__name__, t, p, points)
                    kind = got[0] if isinstance(got[0], type) else "ok"
                    seen.add("skipped" if kind == "ok" and len(kept) < len(points) else kind)
    # a one-point check has nothing left once it skips its point
    assert seen >= {"ok", ArgumentError, SingularMatrixError} | (set() if one_point else {"skipped"})
    assert not seen & {ValueError, TypeError}


def _merged(check, t, p, points):
    """(c) or (d) of a report from the one-point check at each point: the
    first largest residual, skipping the singular points and those whose
    residual norm is NaN; with no point left, the first point's error."""
    outcomes = [_parity(_public, check, t, p, [z]) for z in points]
    kept = [o for o in outcomes if o[0] is not SingularMatrixError]
    if not kept:
        return outcomes[0]
    for o in kept:
        if o[0] is ArgumentError and "overflowed" not in o[1]:
            return o
    checks = [o[0] for o in kept if o[0] is not ArgumentError]
    if not checks:
        return kept[0]
    best = max(checks, key=lambda c: c.residual)
    return best, repr(best)


def _composed_report(t, p, interior, boundary, witness):
    """property_report as its validation and five checks: (a), (b) and PT
    are the single checks on the report's lists, (c) and (d) merged from the
    one-point checks.  A check left with no point raises before any check's
    verdict does, and the checks raise in order."""
    try:
        as_matrix(t)
        _off_axis(witness)
        [_interior_point(z) for z in interior]
        [_spectral_point(z) for z in boundary]
    except ArgumentError as exc:
        return _raised(exc)
    c_points = [witness] + [z for z in interior if complex(z).real != 0.0]
    parts = [_parity(_public, check_condition_a, t, p, interior),
             _parity(_public, check_condition_b, t, p, interior + boundary),
             _merged(check_condition_c, t, p, c_points),
             _merged(check_condition_d, t, p, [witness] + interior + boundary),
             _parity(_public, check_pt_criterion, t, p, interior)]
    for kind in (SingularMatrixError, ArgumentError):
        for part in parts:
            if part[0] is kind:
                return part
    report = PropertyReport(*(part[0] for part in parts))
    return report, repr(report)


def test_property_report_is_its_checks_with_singular_points_skipped():
    cases = [((zs, [1.5, 0.0]), {}) for zs in PARITY_POINTS]
    cases += [(([1 - 1j, -2j], bnd), {}) for bnd in ([1.5, NAN], [0.5j], ["x"], [])]
    cases += [(([1 - 1j], [0.0]), {"witness": w}) for w in (-1j, 0.5 - 0.5j, NAN, 2.0)]
    seen = set()
    for t in PARITY_TS:
        for p in (P, P700):
            for args, kwargs in cases:
                interior, boundary = (list(x) for x in args)
                witness = kwargs.get("witness", 1.0 - 1.0j)
                with np.errstate(all="ignore"):
                    got = _parity(property_report, t, p, interior, boundary, witness, TOL)
                    want = _composed_report(t, p, interior, boundary, witness)
                assert got == want, (t, p, args, kwargs)
                seen.add(want[0] if isinstance(want[0], type) else "ok")
    assert seen >= {"ok", ArgumentError, SingularMatrixError}
    assert not seen & {ValueError, TypeError}


@pytest.mark.parametrize("call", [
    lambda: check_condition_c(SIGMA0, KreinMetricParams(0.0, 700.0), 1 - 1j),
    lambda: formula_equivalence_residual(
        extension_params(0.4279572396533232, 0.3365613704494501, chi=-700,
                         xi=3.430488547447316), [-1j]),
], ids=["condition-c", "route-gap"])
def test_a_residual_norm_that_overflows_at_every_point_is_named(call):
    # the residual matrices are finite, but their norms overflow to NaN
    with pytest.raises(ArgumentError, match="^the residual norm overflowed at every point$"):
        call()


def test_an_overflowing_residual_matrix_is_named_apart_from_a_malformed_t():
    p = KreinMetricParams(0.3, 700.0)
    with pytest.raises(ArgumentError,
                       match=r"^the condition \(a\) residual matrix overflows at z=\(-0-1j\)$"):
        check_condition_a(np.diag([100.0, 0.0]), p, [-1j])
    with pytest.raises(ArgumentError, match="^matrix entries must be finite$"):
        check_condition_a(np.full((2, 2), np.inf), p, [-1j])


def test_worsts_names_the_first_non_finite_residual_matrix():
    z = np.array([1 - 1j, 2 - 1j, 3 - 1j, 4 - 1j])
    m = np.zeros((4, 2, 2), dtype=complex)
    checks = [("PT criterion", np.arange(4), m)]
    assert _worsts(z, checks) == [(0.0, 1 - 1j)]
    m[2, 1, 0] = complex(0.0, np.inf)
    m[3, 0, 0] = np.nan
    with pytest.raises(ArgumentError,
                       match=r"^the PT criterion residual matrix overflows at z=\(3-1j\)$"):
        _worsts(z, checks)
    m[1, 0, 1] = np.nan
    with pytest.raises(ArgumentError, match=r"at z=\(2-1j\)$"):
        _worsts(z, checks)


def test_nothing_is_evaluated_point_by_point(monkeypatch):
    import ptscatter.scattering as scattering
    import ptscatter.verify as verify

    def per_point(*args, **kwargs):
        raise AssertionError("a residual was evaluated one point at a time")

    # the Mobius round trip keeps its 4 scalar t_from_s calls; t_from_s
    # takes no norm, so every norm and defect patched here stays unused
    for module, name in ((scattering, "operator_norm"), (scattering, "_metric_defect"),
                         (verify, "operator_norm")):
        monkeypatch.setattr(module, name, per_point, raising=False)
    e = extension_params(0.2, 0.1, chi=0.5, xi=0.3)
    report = property_report(t_from_betas(e), e.metric)
    assert report.cond_b.passed
    assert run_parameter_suite(e)["consistent"]


def test_pt_images_keep_every_norm_bit():
    # sigma_3 conj(S) sigma_3 as conj(S) with negated off-diagonal entries
    # differs from the two products only in the sign of zero entries
    from ptscatter.symmetry import _pt_images
    rng = np.random.default_rng(83)
    n = 120_000

    def stack():
        s = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        s *= np.where(rng.random((n, 1, 1)) < 0.5,
                      np.exp(rng.uniform(-300.0, 300.0, (n, 1, 1))), 1.0)
        parts = s.view(float).reshape(n, 2, 2, 2)
        zero = (rng.random(parts.shape) < 0.3) | (rng.random((n, 1, 1, 1)) < 0.01)
        parts[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
        s[rng.random(n) < 0.01] = complex(math.nan, math.nan)
        return s

    s, sr = stack(), stack()
    with np.errstate(all="ignore"):
        two_products = SIGMA3 @ s.conj() @ SIGMA3
        norms = [_operator_norms(m) for m in (_pt_images(s), two_products,
                                              _pt_images(s) - sr, two_products - sr)]
    for got, want in (norms[:2], norms[2:]):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    want = norms[1]
    for kind in (np.isnan(want), want == 0.0, want > 1e100, (want < 1e-100) & (want > 0.0)):
        assert kind.any()


def test_a_draw_validates_each_point_list_once_and_takes_one_norm_call(monkeypatch):
    import ptscatter.scattering as scattering
    import ptscatter.verify as verify
    calls = {}

    def counting(module, name):
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        calls[key] = 0

        def count(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    for module, name in ((scattering, "_validated"), (scattering, "_operator_norms"),
                         (scattering, "_hermitian_lows")):
        counting(module, name)
    e = extension_params(0.2, 0.1, chi=0.5, xi=0.3)
    verify._default_plan.cache_clear()
    # the point lists are WITNESS_POINTS, the interior grid, the real axis and
    # the witness 1-1j; the default samples' plan is built by the first draw
    # only, and the Mobius round trip is normed with the other residuals
    assert not hasattr(verify, "_operator_norms")
    for validated in (4, 0):
        calls.update(dict.fromkeys(calls, 0))
        assert run_parameter_suite(e)["consistent"]
        assert calls == {"scattering._validated": validated, "scattering._operator_norms": 1,
                         "scattering._hermitian_lows": 1}
    calls.update(dict.fromkeys(calls, 0))
    property_report(t_from_betas(e), e.metric)
    assert calls == {"scattering._validated": 3, "scattering._operator_norms": 1,
                     "scattering._hermitian_lows": 1}


def _reference_worsts(z, checks, res):
    """The per-check reduction: each check in list order raises for its
    first non-finite matrix, then for no residual, then for none left after
    a running ``r > worst`` skips NaN and -inf, and otherwise gives its
    first largest residual and that residual's point."""
    out, start = [], 0
    for name, i, m in checks:
        rs, zs = res[start:start + len(m)].tolist(), z[i].tolist()
        start += len(m)
        for zi, x in zip(zs, m):
            if not np.isfinite(x).all():
                raise ArgumentError(f"the {name} residual matrix overflows at z={zi}")
        if not rs:
            raise ArgumentError("zs must be nonempty")
        worst, witness = -inf, None
        for zi, r in zip(zs, rs):
            if r > worst:
                worst, witness = r, zi
        if witness is None:
            raise ArgumentError("the residual norm overflowed at every point")
        out.append((worst, witness))
    return out


def _worsts_outcome(f):
    try:
        return [(type(r), r, type(w), w) for r, w in f()]
    except ArgumentError as exc:
        return str(exc)


nan, inf = math.nan, math.inf


def _gap(r):
    """A finite Hermitian metric gap whose residual, minus its lowest
    eigenvalue, is r: -r I for a finite r; for inf, a matrix whose
    off-diagonal modulus overflows.  No finite gap has a NaN residual, so
    a NaN r goes to the pass as given, over a zero gap."""
    if math.isinf(r):
        off = complex(1.7e308, 1.7e308)
        return np.array([[1e308, off], [off.conjugate(), 1e308]])
    return (0.0 if math.isnan(r) else -r) * np.eye(2, dtype=complex)


@pytest.mark.parametrize("lows, norms, bad", [
    (None, [[1.0, 3.0, 3.0, 2.0], [5.0, 5.0], [0.0]], None),          # ties: first wins
    (None, [[nan, 2.0, -inf, 2.0], [-inf, 1.0, nan], [inf, 1.0, inf]], None),  # skips, inf kept
    (None, [[1.0, 2.0], [], [3.0]], None),                            # empty check
    (None, [[1.0, 2.0], [3.0, 4.0, 5.0]], (1, 1)),                    # bad after a good check
    (None, [[1.0, 2.0], [nan, nan], [1.0]], (2, 0)),                  # all-NaN before a bad one
    (None, [[1.0], [1.0, 2.0], [nan, -inf]], (1, 0)),                 # bad before all-NaN
    (None, [[nan, nan]], None),                                       # all-NaN norms
    ([-1.0, 0.5, nan, 0.5], [[0.5, 2.0], [1.0]], None),               # (a) in the pass
    ([1.0, inf, nan], [[1.0]], None),                                 # (a) inf kept
    ([1.0, 2.0], [[1.0], [nan, nan], []], (0, 1)),                    # (a) bad before faults
    ([nan, nan], [[1.0, 2.0]], None),                                 # (a) all-NaN
    ([], [[1.0, 2.0], [3.0]], None),                                  # (a) empty
], ids=["ties", "skips", "empty", "bad-matrix", "all-nan-first", "bad-matrix-first",
        "all-nan", "a-in-the-pass", "a-inf-kept", "a-bad-matrix-first", "a-all-nan",
        "a-empty"])
def test_worsts_equals_the_per_check_reduction(monkeypatch, lows, norms, bad):
    import ptscatter.scattering as scattering
    # the norms come from the patched norm call, so any finite matrix stands
    # for one; lows, when given, are condition (a)'s residuals, in front of
    # the norms, from real metric gaps where not NaN; bad puts a non-finite
    # entry into (check, row)
    norm_res = np.array([x for check in norms for x in check])
    monkeypatch.setattr(scattering, "_operator_norms", lambda m: norm_res.copy())
    ms = [np.zeros((len(check), 2, 2), dtype=complex) for check in norms]
    names = [f"check {k}" for k in range(len(norms))]
    if lows is not None:
        ms.insert(0, np.array([_gap(r) for r in lows], dtype=complex).reshape(-1, 2, 2))
        names.insert(0, "condition (a)")
        given = ~np.isnan(lows)
        with np.errstate(all="ignore"):
            assert np.array_equal(-_hermitian_lows(ms[0])[given], np.array(lows)[given])
    if bad is not None:
        ms[bad[0]][bad[1], 1, 0] = complex(0.0, inf)
    z = np.arange(sum(map(len, ms))) * (1 - 0.5j) - 1j
    checks, start = [], 0
    for name, m in zip(names, ms):
        checks.append((name, np.arange(start, start + len(m)), m))
        start += len(m)
    if lows is None:
        res, args = norm_res, ()
    else:
        res = np.concatenate([lows, norm_res])
        args = (res,)
    got = _worsts_outcome(lambda: scattering._worsts(z, checks, *args))
    assert got == _worsts_outcome(lambda: _reference_worsts(z, checks, res))
    if norms[0] == [1.0, 3.0, 3.0, 2.0]:
        assert got == [(float, 3.0, complex, complex(z[1])), (float, 5.0, complex, complex(z[4])),
                       (float, 0.0, complex, complex(z[6]))]
    if lows == [-1.0, 0.5, nan, 0.5]:
        assert got == [(float, 0.5, complex, complex(z[1])), (float, 2.0, complex, complex(z[5])),
                       (float, 1.0, complex, complex(z[6]))]
    if lows == [1.0, inf, nan]:
        assert got == [(float, inf, complex, complex(z[1])), (float, 1.0, complex, complex(z[3]))]
    if bad == (0, 1):
        assert got == f"the condition (a) residual matrix overflows at z={complex(z[1])}"
