"""PT/Krein/C classification: solvers, reductions and their invariants."""

import math

import numpy as np
import pytest

from ptscatter import (SIGMA0, SIGMA1, SIGMA2, SIGMA3, ArgumentError,
                       AssumptionError, KreinMetricParams, c_operator,
                       c_params_from_matrix, is_c_symmetric,
                       is_krein_selfadjoint, is_pt_symmetric, krein_defect,
                       krein_selfadjoint_reduction, operator_norm, p_xi,
                       pauli_compose, pauli_decompose, pt_apply, pt_conjugate,
                       solve_xi, symmetry_report)

TWO_PI = 2.0 * math.pi


def norm(m):
    return operator_norm(np.asarray(m))


def random_pt_symmetric(rng, scale=1.0):
    """PT-symmetric by construction: a0, a1, a3 real, a2 purely imaginary."""
    a = scale * rng.uniform(-1, 1, size=4)
    return pauli_compose((a[0], a[1], 1j * a[2], a[3]))


def random_non_pt(rng, scale=1.0):
    """Definitely not PT-symmetric: one coefficient violated by >= 0.1."""
    a = scale * rng.uniform(-1, 1, size=4).astype(complex)
    a[1] = 1j * a[1]  # wrong reality for the P component
    k = rng.integers(0, 4)
    bump = rng.uniform(0.1, 0.5) * (1 if rng.random() < 0.5 else -1)
    a[k] += bump * (1.0 if k == 2 else 1j)
    return pauli_compose(tuple(a))


# ---------------------------------------------------------------- PT action


def test_pt_conjugate_examples():
    np.testing.assert_array_equal(pt_conjugate(SIGMA3), SIGMA3)
    np.testing.assert_allclose(pt_conjugate(1j * SIGMA1), 1j * SIGMA1, atol=0)
    np.testing.assert_allclose(pt_conjugate(SIGMA1), -SIGMA1, atol=0)


def test_pt_is_antilinear_and_involutive():
    rng = np.random.default_rng(20)
    for _ in range(200):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_array_equal(pt_apply(alpha * v),
                                      np.conj(alpha) * pt_apply(v))
        np.testing.assert_array_equal(pt_apply(pt_apply(v)), v)


def test_is_pt_symmetric_examples():
    assert is_pt_symmetric(SIGMA3)
    assert is_pt_symmetric(1j * SIGMA1)
    assert not is_pt_symmetric(SIGMA1)


def test_pt_coefficient_characterization_agrees_with_norm_route():
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        m = random_pt_symmetric(rng) if rng.random() < 0.5 else random_non_pt(rng)
        c = pauli_decompose(m)
        coeff_route = max(abs(c.a0.imag), abs(c.a1.imag),
                          abs(c.a2.real), abs(c.a3.imag)) <= 1e-10
        assert is_pt_symmetric(m) == coeff_route


def test_adjoint_of_pt_symmetric_is_pt_symmetric():
    rng = np.random.default_rng(22)
    for _ in range(300):
        m = random_pt_symmetric(rng)
        assert is_pt_symmetric(np.asarray(m).conj().T)


# ---------------------------------------------------------------- Krein


def test_is_krein_selfadjoint_examples():
    assert is_krein_selfadjoint(SIGMA3, 0.0)
    assert not is_krein_selfadjoint(SIGMA2, 0.0)
    assert krein_defect(SIGMA2, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert is_krein_selfadjoint(SIGMA2, math.pi / 2)


def test_solve_xi_examples():
    assert solve_xi(SIGMA3) == (0.0, False)
    xi, deg = solve_xi(SIGMA2)
    assert xi == pytest.approx(math.pi / 2) and not deg
    assert solve_xi(SIGMA0) == (0.0, True)
    with pytest.raises(AssumptionError):
        solve_xi(SIGMA1)


def test_every_pt_symmetric_matrix_is_krein_selfadjoint_for_solved_xi():
    rng = np.random.default_rng(23)
    for _ in range(500):
        m = random_pt_symmetric(rng)
        xi, degenerate = solve_xi(m)
        assert 0.0 <= xi < TWO_PI
        assert is_krein_selfadjoint(m, xi, 1e-10)
        if degenerate:
            # any angle works in the degenerate case
            assert is_krein_selfadjoint(m, rng.uniform(0, TWO_PI), 1e-10)


# ---------------------------------------------------------------- C symmetry


def test_is_c_symmetric_examples():
    p = KreinMetricParams(0.4, 1.1)
    assert is_c_symmetric(SIGMA0, p)
    assert is_c_symmetric(c_operator(p), p)
    assert not is_c_symmetric(SIGMA1, KreinMetricParams(0.0, 0.0))


def test_c_params_from_matrix_examples():
    p = c_params_from_matrix(SIGMA3)
    assert (p.xi, p.chi) == (0.0, 0.0)
    p = c_params_from_matrix([[1.25, 0.75j], [0.75j, -1.25]])
    assert p.xi == pytest.approx(0.0, abs=1e-12)
    assert p.chi == pytest.approx(math.log(2), abs=1e-12)
    p = c_params_from_matrix(p_xi(1.0))
    assert p.xi == pytest.approx(1.0, abs=1e-12) and p.chi == 0.0


def test_c_params_round_trip_both_directions():
    rng = np.random.default_rng(24)
    # every (xi, chi) produces a matrix that reconstructs
    for _ in range(300):
        params = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-3, 3))
        rec = c_params_from_matrix(c_operator(params), 1e-10)
        assert norm(c_operator(rec) - c_operator(params)) <= 1e-10
        assert rec.chi == pytest.approx(params.chi, abs=1e-10)
    # and anything failing the preconditions is rejected
    with pytest.raises(AssumptionError):
        c_params_from_matrix(SIGMA1)          # not PT-symmetric
    with pytest.raises(AssumptionError):
        c_params_from_matrix(SIGMA0)          # trivial +I
    with pytest.raises(AssumptionError):
        c_params_from_matrix(-SIGMA0)         # trivial -I
    with pytest.raises(AssumptionError):
        c_params_from_matrix(2 * SIGMA3)      # not an involution


# ---------------------------------------------------------------- reduction


def test_reduction_examples():
    assert krein_selfadjoint_reduction(SIGMA3, (1.0, 0.0, 0.0)) == 0.0
    # for alpha2 != 0 the PT-symmetric J-self-adjoint operators are real scalars
    m = 0.7 * SIGMA0
    assert krein_selfadjoint_reduction(m, (0.6, 0.8, 0.0)) == 0.0


def test_reduction_randomized_property():
    rng = np.random.default_rng(25)
    for _ in range(200):
        if rng.random() < 0.7:
            # alpha2 = 0: the P_xiJ family b0 I + b1 P_xiJ + i b2 R
            xi_j = rng.uniform(0, TWO_PI)
            alpha = (math.cos(xi_j), 0.0, math.sin(xi_j))
            b0, b1, b2 = rng.uniform(-1, 1, size=3)
            m = b0 * SIGMA0 + b1 * p_xi(xi_j) + 1j * b2 * SIGMA1
        else:
            # alpha2 != 0 admits only real scalars
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            if abs(v[1]) < 0.1 or v[0] ** 2 + v[2] ** 2 < 1e-4:
                continue
            alpha = tuple(v)
            m = rng.uniform(-1, 1) * SIGMA0
        xi = krein_selfadjoint_reduction(m, alpha, 1e-9)
        assert is_krein_selfadjoint(m, xi, 1e-9)


def test_reduction_error_paths():
    with pytest.raises(AssumptionError):
        krein_selfadjoint_reduction(0.3 * SIGMA0, (0.0, 1.0, 0.0))  # a1 = a3 = 0
    with pytest.raises(ArgumentError):
        krein_selfadjoint_reduction(SIGMA3, (1.0, 1.0, 0.0))        # not unit
    with pytest.raises(AssumptionError):
        krein_selfadjoint_reduction(SIGMA1, (1.0, 0.0, 0.0))        # not PT
    with pytest.raises(AssumptionError):
        # PT-symmetric but not self-adjoint w.r.t. J = sigma_3
        krein_selfadjoint_reduction(SIGMA2, (1.0, 0.0, 0.0))


# ---------------------------------------------------------------- report


def test_symmetry_report_fields():
    rep = symmetry_report(SIGMA3)
    assert rep.pt_symmetric and rep.krein_xi == 0.0 and not rep.xi_degenerate
    assert rep.c_params is not None and rep.c_params.chi == 0.0
    assert all(v >= 0 for v in rep.residuals.values())

    rep = symmetry_report(SIGMA1)
    assert not rep.pt_symmetric and rep.krein_xi is None and rep.c_params is None

    rep = symmetry_report(0.5 * SIGMA0)
    assert rep.pt_symmetric and rep.xi_degenerate and rep.c_params is None


def test_symmetry_report_forms_the_c_reconstruction_defect_once(monkeypatch):
    import ptscatter.symmetry as symmetry
    names = []
    defect = symmetry._defect

    def counting(name, m, *args):
        names.append(name)
        return defect(name, m, *args)
    monkeypatch.setattr(symmetry, "_defect", counting)
    c = c_operator(KreinMetricParams(0.3, 0.5))
    rep = symmetry_report(c)
    assert rep.c_params is not None
    assert names.count("C reconstruction") == 1
    assert rep.residuals["c_reconstruction"] == operator_norm(
        c_operator(rep.c_params) - c)
