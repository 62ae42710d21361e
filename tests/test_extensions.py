"""Boundary maps, the beta parametrization and the nonnegativity region."""

import math

import numpy as np
import pytest

from ptscatter import (SIGMA0, SIGMA1, AssumptionError, BoundaryData,
                       ArgumentError, ExtensionParams, KreinMetricParams,
                       betas_from_t, check_metric_inequality,
                       classify_nonnegative, draw_extension_params,
                       extension_params, gamma0, gamma1, in_domain,
                       is_c_symmetric, is_krein_selfadjoint, is_pt_symmetric,
                       metric, operator_norm, p_xi, pauli_decompose, pt_defect,
                       t_from_betas)

TWO_PI = 2.0 * math.pi


def norm(m):
    return operator_norm(np.asarray(m))


# ---------------------------------------------------------------- boundary maps


def test_gamma0_examples():
    np.testing.assert_array_equal(gamma0(BoundaryData(1, 1, 0, 0)), [1, 0])
    np.testing.assert_array_equal(gamma0(BoundaryData(1, -1, 0, 0)), [0, 1])
    np.testing.assert_array_equal(gamma0(BoundaryData(0, 0, 5, 5)), [0, 0])


def test_gamma1_examples():
    np.testing.assert_array_equal(gamma1(BoundaryData(1, 1, 0, 0)), [2, 0])
    # boundary data of the first basis function of the deficiency space
    np.testing.assert_array_equal(gamma1(BoundaryData(1, 1, -1, 1)), [0, 0])
    np.testing.assert_array_equal(gamma1(BoundaryData(0, 0, 1, 1)), [0, 2])


def test_in_domain_examples():
    zero = np.zeros((2, 2))
    assert not in_domain(zero, BoundaryData(1, 1, 0, 0))
    assert in_domain(zero, BoundaryData(0, 0, 3, 1))
    assert not in_domain(0.5 * SIGMA0, BoundaryData(1, 1, -1, -1))


def test_in_domain_is_linear():
    rng = np.random.default_rng(30)
    t = t_from_betas(extension_params(0.3, 0.1, chi=0.5, xi=1.0))
    for _ in range(100):
        # build two data sets in the domain: pick gamma1 freely, set
        # boundary values so that gamma0 = t gamma1
        samples = []
        for _ in range(2):
            fp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g1_tail = np.array([fp[0] - fp[1], fp[0] + fp[1]])
            # gamma0 = t gamma1 = t (2 gamma0 + tail) => (I - 2t) gamma0 = t tail
            g0 = np.linalg.solve(SIGMA0 - 2 * t, t @ g1_tail)
            f_plus = g0[0] + g0[1]
            f_minus = g0[0] - g0[1]
            samples.append(BoundaryData(f_plus, f_minus, fp[0], fp[1]))
        b1, b2 = samples
        assert in_domain(t, b1, 1e-9) and in_domain(t, b2, 1e-9)
        c1 = complex(rng.standard_normal(), rng.standard_normal())
        c2 = complex(rng.standard_normal(), rng.standard_normal())
        combo = BoundaryData(c1 * b1.f_plus + c2 * b2.f_plus,
                             c1 * b1.f_minus + c2 * b2.f_minus,
                             c1 * b1.fp_plus + c2 * b2.fp_plus,
                             c1 * b1.fp_minus + c2 * b2.fp_minus)
        assert in_domain(t, combo, 1e-8)


def test_boundary_data_rejects_nonfinite():
    with pytest.raises(ArgumentError):
        BoundaryData(np.nan, 0, 0, 0)


# ---------------------------------------------------------------- betas <-> T


def test_t_from_betas_examples():
    assert norm(t_from_betas(extension_params(0.0, 0.0))) == 0.0
    np.testing.assert_array_equal(t_from_betas(extension_params(0.5, 0.0)),
                                  0.5 * SIGMA0)
    np.testing.assert_allclose(t_from_betas(extension_params(0.25, 0.25)),
                               [[0.5, 0], [0, 0]], atol=1e-15)


def test_betas_from_t_examples():
    e = betas_from_t(0.5 * SIGMA0)
    assert e.beta0 == 0.5 and e.beta1 == 0.0
    assert not e.metric_identifiable

    e = betas_from_t([[0.5, 0], [0, 0]])
    assert e.beta0 == pytest.approx(0.25, abs=1e-14)
    assert e.beta1 == pytest.approx(0.25, abs=1e-14)
    assert e.metric.xi == pytest.approx(0.0, abs=1e-12)
    assert e.metric.chi == pytest.approx(0.0, abs=1e-12)
    assert e.metric_identifiable


def test_betas_round_trip_random_grid():
    rng = np.random.default_rng(31)
    for _ in range(300):
        e = ExtensionParams(rng.uniform(-1, 1), rng.uniform(-1, 1),
                            KreinMetricParams(rng.uniform(0, TWO_PI),
                                              rng.uniform(-3, 3)))
        t = t_from_betas(e)
        rec = betas_from_t(t, 1e-10)
        assert rec.beta1 >= 0.0  # sign convention
        assert norm(t_from_betas(rec) - t) <= 1e-10


def test_betas_from_t_validates_once_and_builds_one_c_operator(monkeypatch):
    import ptscatter.clifford
    import ptscatter.extensions
    import ptscatter.matrix2
    import ptscatter.symmetry

    t = t_from_betas(extension_params(0.2, 0.3, chi=1.5, xi=0.7))
    calls = []
    for name in ("_finite_array", "c_operator"):
        for module in (ptscatter.matrix2, ptscatter.clifford, ptscatter.symmetry,
                       ptscatter.extensions):
            original = getattr(module, name, None)
            if original is not None:
                def counted(*args, _f=original, _name=name):
                    calls.append(_name)
                    return _f(*args)
                monkeypatch.setattr(module, name, counted)
    e = betas_from_t(t)
    assert (e.beta0, e.beta1) == pytest.approx((0.2, 0.3), abs=1e-14)
    assert sorted(calls) == ["_finite_array", "c_operator"]


def test_betas_from_t_rejects_other_matrices():
    with pytest.raises(AssumptionError):
        betas_from_t(SIGMA1)                     # involution but no C-operator
    with pytest.raises(AssumptionError):
        betas_from_t([[0, 1], [0, 0]])           # nilpotent
    with pytest.raises(AssumptionError):
        betas_from_t([[1j, 0], [0, 1j]])         # non-real trace


# ---------------------------------------------------------------- classification


def test_classify_examples():
    assert classify_nonnegative(extension_params(0.25, 0.2, 1.0, 0.7)).closed_form_verdict
    cls = classify_nonnegative(extension_params(0.25, 0.3, 1.0, 0.0))
    assert not cls.closed_form_verdict and not cls.oracle_verdict
    assert cls.eigenvalues_lower[0] < 0
    assert not classify_nonnegative(extension_params(0.6, 0.0)).closed_form_verdict


def test_classify_oracle_equivalence_on_design_grid():
    xi_values = (0.0, math.pi / 4, math.pi / 2, math.pi)
    chi_values = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for b0 in np.linspace(0.0, 0.6, 13):
        for b1 in np.linspace(-0.35, 0.35, 15):
            for chi in chi_values:
                for xi in xi_values:
                    cls = classify_nonnegative(extension_params(b0, b1, chi, xi))
                    assert cls.closed_form_verdict == cls.oracle_verdict, \
                        (b0, b1, chi, xi)


def test_oracle_eigenvalues_match_numpy():
    rng = np.random.default_rng(32)
    for _ in range(200):
        e = ExtensionParams(rng.uniform(-0.2, 0.7), rng.uniform(-0.5, 0.5),
                            KreinMetricParams(rng.uniform(0, TWO_PI),
                                              rng.uniform(-2, 2)))
        cls = classify_nonnegative(e)
        g = metric(e.metric)
        j = p_xi(e.metric.xi)
        ref_lo = np.linalg.eigvalsh(e.beta0 * g + e.beta1 * j)
        ref_up = np.linalg.eigvalsh((0.5 - e.beta0) * g - e.beta1 * j)
        np.testing.assert_allclose(cls.eigenvalues_lower, ref_lo, atol=1e-10)
        np.testing.assert_allclose(cls.eigenvalues_upper, ref_up, atol=1e-10)


def test_t_from_betas_has_all_three_symmetries():
    rng = np.random.default_rng(33)
    for _ in range(200):
        p = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-3, 3))
        e = ExtensionParams(rng.uniform(-1, 1), rng.uniform(-1, 1), p)
        t = t_from_betas(e)
        assert is_pt_symmetric(t, 1e-10)
        assert is_krein_selfadjoint(t, p.xi, 1e-10)
        assert is_c_symmetric(t, p, 1e-10)
    # the off-diagonal real parts and diagonal imaginary parts of T are exact
    # zeros at every chi, so the verify suite expects the PT criterion to pass
    for _ in range(200):
        p = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-300, 300))
        e = ExtensionParams(rng.uniform(-1, 1), rng.uniform(-1, 1), p)
        assert pt_defect(t_from_betas(e)) == 0.0


def test_commutation_iff_rotated_r_coefficient_matches_tanh():
    """In the basis {I, P_xi, R, iRP_xi}, an operator with b3 = 0 commutes
    with C exactly when b2 = i b1 tanh(chi)."""
    rng = np.random.default_rng(34)
    for _ in range(300):
        p = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-3, 3))
        b0, b1 = rng.uniform(-1, 1, size=2)
        if rng.random() < 0.5:
            b2 = 1j * b1 * math.tanh(p.chi)
            expect = True
        else:
            b2 = 1j * (b1 * math.tanh(p.chi) + rng.uniform(0.05, 0.5))
            expect = False
        m = (b0 * SIGMA0 + b1 * p_xi(p.xi) + b2 * SIGMA1)
        assert is_c_symmetric(m, p, 1e-10) == expect
        coeffs = pauli_decompose(m, p.xi)
        matches = abs(coeffs.a2 - 1j * coeffs.a1 * math.tanh(p.chi)) <= 1e-10
        assert matches == expect


# ---------------------------------------------------------------- metric inequality


def test_check_metric_inequality_endpoints_and_oracle_match():
    p = KreinMetricParams(0.0, 1.0)
    assert check_metric_inequality(np.zeros((2, 2)), p)
    assert check_metric_inequality(0.5 * SIGMA0, p)
    t_bad = t_from_betas(ExtensionParams(0.25, 0.3, p))
    assert not check_metric_inequality(t_bad, p)
    rng = np.random.default_rng(35)
    for _ in range(200):
        pp = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-2, 2))
        e = ExtensionParams(rng.uniform(-0.2, 0.7), rng.uniform(-0.5, 0.5), pp)
        assert check_metric_inequality(t_from_betas(e), pp) == \
            classify_nonnegative(e).oracle_verdict
    # the verify suite takes the metric inequality from the oracle verdict:
    # G C = P_xi makes G T and G (I/2 - T) the oracle's two matrices
    rng = np.random.default_rng(2207)
    for i in range(400):
        e = draw_extension_params(rng, admissible=(i % 2 == 0))
        for tol in (1e-10, 1e-8):
            assert check_metric_inequality(t_from_betas(e), e.metric, tol) == \
                classify_nonnegative(e, tol).oracle_verdict


def test_check_metric_inequality_names_chi_when_a_metric_product_overflows():
    e = extension_params(0.2, 0.1, chi=700.0)
    with pytest.raises(ArgumentError, match=r"^the metric product G T overflows at chi=700\.0$"):
        check_metric_inequality(t_from_betas(e), e.metric)
    # G T = -x G stays finite, G (I/2 - T) = (1/2 + x) G passes the float range
    p = KreinMetricParams(0.3, 700.0)
    x = np.finfo(float).max / np.abs(metric(p)).max() - 0.25
    with pytest.raises(ArgumentError,
                       match=r"^the metric product G \(I/2 - T\) overflows at chi=700\.0$"):
        check_metric_inequality(-x * SIGMA0, p)


def test_check_metric_inequality_rejects_non_metric_selfadjoint():
    with pytest.raises(AssumptionError):
        check_metric_inequality([[0, 1], [0, 0]], KreinMetricParams(0.0, 0.0))
    # a defect of 2.2e-9 relative to ||G|| ||T|| is no rounding
    e = extension_params(0.25, 0.2, chi=8.0, xi=0.3)
    with pytest.raises(AssumptionError, match="metric \\* t is not Hermitian"):
        check_metric_inequality(t_from_betas(e) + 1e-6 * np.array([[0, 1], [0, 0]]), e.metric)


@pytest.mark.parametrize("chi", [8.0, 13.0])
def test_check_metric_inequality_scales_hermiticity_with_the_product(chi):
    # the rounding defect of G T grows with ||G|| ||T||; an in-family T
    # passes the precondition and meets the oracle
    e = extension_params(0.25, 0.2, chi=chi, xi=0.3)
    assert check_metric_inequality(t_from_betas(e), e.metric) == \
        classify_nonnegative(e).oracle_verdict
