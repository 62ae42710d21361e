"""The scattering matrix, its Mobius inverse and the characteristic checks."""

import math

import numpy as np
import pytest

from ptscatter import (SIGMA0, SIGMA1, SIGMA2, SIGMA3, ArgumentError,
                       KreinMetricParams, PropertyCheck, PropertyReport,
                       SingularMatrixError, check_condition_a,
                       check_condition_b, check_condition_c,
                       check_condition_d, check_pt_criterion,
                       extension_params, hermitian_eigenvalues, inverse,
                       lower_half_plane_grid, metric, operator_norm, p_xi,
                       pauli_compose, property_report, real_axis_points,
                       s_matrix, s_matrix_zero_range,
                       standard_contraction_norm, t_from_betas, t_from_s)
from ptscatter.verify import WITNESS_POINTS, draw_extension_params

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
    calls = []
    original = scattering.s_matrix

    def counting(t, z, *args, **kwargs):
        calls.append(complex(z))
        return original(t, z, *args, **kwargs)

    monkeypatch.setattr(scattering, "s_matrix", counting)
    e = extension_params(0.2, 0.1, chi=0.5, xi=0.3)
    property_report(t_from_betas(e), e.metric)
    # 49 grid points, 7 real-axis points and the witness 1-1j with its
    # reflection -1-1j; the grid and the axis are their own reflections
    assert len(calls) == 58
    assert len(set(calls)) == 58
    assert 1 - 1j in calls and -1 - 1j in calls
