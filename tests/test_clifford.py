"""Pauli composition, the P_xi family, C-operators and the metric."""

import math
import re
import warnings

import numpy as np
import pytest

from ptscatter import (SIGMA0, SIGMA1, SIGMA2, SIGMA3, ArgumentError,
                       AssumptionError, KreinMetricParams, PauliCoefficients,
                       c_operator, exp_involution, hermitian_eigenvalues,
                       is_unitary_involution, metric, operator_norm, p_xi,
                       pauli_compose, pauli_decompose)

TWO_PI = 2.0 * math.pi


def norm(m):
    return operator_norm(np.asarray(m))


def random_unit_involution(rng):
    """Unitary involution a1*P + a2*R + a3*iRP from a real unit 3-vector."""
    a = rng.standard_normal(3)
    a /= np.linalg.norm(a)
    return a[0] * SIGMA3 + a[1] * SIGMA1 + a[2] * SIGMA2


def exp_series(theta, j, terms=31):
    """Truncated power series oracle for e^{theta j}."""
    acc = np.zeros((2, 2), dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(terms):
        if n > 0:
            term = term @ (theta * j) / n
        acc = acc + term
    return acc


# ---------------------------------------------------------------- compose


def test_pauli_compose_examples():
    np.testing.assert_array_equal(pauli_compose((1, 0, 0, 0)), SIGMA0)
    np.testing.assert_array_equal(pauli_compose((0, 1, 0, 0)), SIGMA3)
    np.testing.assert_allclose(pauli_compose((0, 0, 1j, 0)),
                               [[0, 1j], [1j, 0]], atol=0)


def test_pauli_decompose_examples():
    c = pauli_decompose(SIGMA0)
    assert (c.a0, c.a1, c.a2, c.a3) == (1, 0, 0, 0)
    c = pauli_decompose([[0, 1], [1, 0]])
    assert (c.a0, c.a1, c.a2, c.a3) == (0, 0, 1, 0)
    c = pauli_decompose([[2, 3], [3, -2]])
    assert (c.a0, c.a1, c.a2, c.a3) == (0, 2, 3, 0)


def test_pauli_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = pauli_compose(pauli_decompose(m))
        assert norm(back - m) <= 1e-15 * max(norm(m), 1.0)


def test_rotated_basis_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(200):
        xi = rng.uniform(0, TWO_PI)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = pauli_compose(pauli_decompose(m, xi), xi)
        assert norm(back - m) <= 1e-14 * max(norm(m), 1.0)
    # P_xi itself has rotated coefficients (0, 1, 0, 0)
    xi = 1.234
    c = pauli_decompose(p_xi(xi), xi)
    assert abs(c.a1 - 1) < 1e-15 and abs(c.a0) < 1e-15
    assert abs(c.a2) < 1e-15 and abs(c.a3) < 1e-15


def test_coefficients_reject_nonfinite():
    with pytest.raises(ArgumentError):
        PauliCoefficients(np.nan, 0, 0, 0)
    with pytest.raises(ArgumentError):
        pauli_compose((1, 2, 3))


# ---------------------------------------------------------------- p_xi


def test_p_xi_special_angles():
    np.testing.assert_array_equal(p_xi(0.0), SIGMA3)
    np.testing.assert_allclose(p_xi(math.pi / 2), SIGMA2, atol=1e-12)
    np.testing.assert_allclose(p_xi(math.pi), -SIGMA3, atol=1e-12)


def test_p_xi_is_hermitian_involution_anticommuting_with_r():
    rng = np.random.default_rng(13)
    for _ in range(300):
        xi = rng.uniform(-10, 10)
        j = p_xi(xi)
        assert norm(j @ j - SIGMA0) <= 1e-12
        assert norm(j - j.conj().T) <= 1e-12
        assert norm(j @ SIGMA1 + SIGMA1 @ j) <= 1e-12


# ---------------------------------------------------------------- C and metric


def test_c_operator_examples():
    for xi in (0.0, 0.7, 2.0):
        np.testing.assert_allclose(c_operator(KreinMetricParams(xi, 0.0)),
                                   p_xi(xi), atol=1e-15)
    c = c_operator(KreinMetricParams(xi=0.0, chi=math.log(2)))
    np.testing.assert_allclose(c, [[1.25, 0.75j], [0.75j, -1.25]], atol=1e-15)


def test_c_operator_squares_to_identity():
    rng = np.random.default_rng(14)
    for _ in range(300):
        p = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-3, 3))
        c = c_operator(p)
        assert norm(c @ c - SIGMA0) <= 1e-12


def test_metric_properties():
    np.testing.assert_array_equal(metric(KreinMetricParams(0.3, 0.0)), SIGMA0)
    lo, hi = hermitian_eigenvalues(metric(KreinMetricParams(0.0, 1.0)))
    assert lo == pytest.approx(math.exp(-1), abs=1e-12)
    assert hi == pytest.approx(math.e, abs=1e-12)
    rng = np.random.default_rng(15)
    for _ in range(300):
        p = KreinMetricParams(rng.uniform(0, TWO_PI), rng.uniform(-3, 3))
        g = metric(p)
        assert norm(g - g.conj().T) <= 1e-12
        lo, hi = hermitian_eigenvalues(g)
        assert lo == pytest.approx(math.exp(-abs(p.chi)), abs=1e-10)
        assert hi == pytest.approx(math.exp(abs(p.chi)), abs=1e-10)
        # multiplying by the C-operator recovers P_xi
        assert norm(g @ c_operator(p) - p_xi(p.xi)) <= 1e-12


@pytest.mark.parametrize("chi", [710.4, -710.4])
@pytest.mark.parametrize("f, name", [(metric, "metric"), (c_operator, "C-operator")],
                         ids=["metric", "c_operator"])
def test_an_overflowing_entry_raises_naming_chi_and_xi_without_a_warning(f, name, chi):
    # KreinMetricParams accepts chi, as cosh(chi) is finite, but the largest
    # entry cosh(chi) + |sin(xi) sinh(chi)| overflows at xi = 3 pi / 2
    p = KreinMetricParams(3 * math.pi / 2, chi)
    message = f"the {name} overflows at chi={chi!r}, xi={p.xi!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            f(p)
        assert np.isfinite(f(KreinMetricParams(0.0, chi))).all()


# ---------------------------------------------------------------- exponentials


def test_exp_involution_special_cases():
    np.testing.assert_array_equal(exp_involution(0.0, SIGMA3), SIGMA0)
    xi = 0.9
    expected = np.array([[math.cos(xi), 1j * math.sin(xi)],
                         [1j * math.sin(xi), math.cos(xi)]])
    np.testing.assert_allclose(exp_involution(1j * xi, SIGMA1), expected, atol=1e-15)


def test_exp_involution_matches_series_oracle():
    rng = np.random.default_rng(16)
    for _ in range(200):
        j = random_unit_involution(rng)
        r = rng.uniform(0, 5.0)
        phi = rng.uniform(0, TWO_PI)
        theta = r * complex(math.cos(phi), math.sin(phi))
        closed = exp_involution(theta, j)
        assert norm(closed - exp_series(theta, j)) <= 1e-12


def test_exp_involution_rejects_non_involution():
    with pytest.raises(AssumptionError):
        exp_involution(1.0, 2 * SIGMA3)


# ---------------------------------------------------------------- predicates


def test_is_unitary_involution():
    assert is_unitary_involution(SIGMA3, 1e-12)
    assert is_unitary_involution(p_xi(1.3), 1e-12)
    assert not is_unitary_involution(2 * SIGMA3, 1e-12)
    assert not is_unitary_involution(c_operator(KreinMetricParams(0.0, 1.0)), 1e-12)
    with pytest.raises(ArgumentError):
        is_unitary_involution(SIGMA3, 0.0)


def test_krein_metric_params_canonicalize_xi():
    assert KreinMetricParams(-0.5, 0.0).xi == pytest.approx(TWO_PI - 0.5)
    assert KreinMetricParams(TWO_PI, 1.0).xi == 0.0
    with pytest.raises(ArgumentError):
        KreinMetricParams(np.nan, 0.0)
    with pytest.raises(ArgumentError):
        KreinMetricParams(0.0, np.inf)


def test_params_reject_chi_whose_cosh_overflows():
    with pytest.raises(ArgumentError, match="cosh"):
        KreinMetricParams(0.0, 1000.0)
    with pytest.raises(ArgumentError, match="cosh"):
        KreinMetricParams(0.0, -711.0)
    # the largest magnitudes with a finite cosh are still accepted
    for chi in (700.0, -710.0):
        assert math.isfinite(math.cosh(KreinMetricParams(0.0, chi).chi))
