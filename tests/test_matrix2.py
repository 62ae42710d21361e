"""The closed-form 2x2 routines against numpy's general-purpose solvers."""

import numpy as np
import pytest

from ptscatter import ArgumentError, SingularMatrixError
from ptscatter.matrix2 import (as_matrix, condition_number, det,
                               hermitian_eigenvalues, inverse, is_hermitian,
                               operator_norm)


def random_matrix(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ArgumentError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ArgumentError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ArgumentError):
        as_matrix([[np.inf * 1j, 0], [0, 1]])


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = random_matrix(rng, scale=rng.uniform(1e-3, 1e3))
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(ref, rel=1e-12)


def test_condition_number_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m = random_matrix(rng)
        if abs(det(m)) < 1e-6:
            continue
        assert condition_number(m) == pytest.approx(np.linalg.cond(m), rel=1e-9)
    assert condition_number(np.zeros((2, 2))) == np.inf
    assert condition_number([[1, 0], [0, 0]]) == np.inf
    assert condition_number(np.eye(2)) == 1.0


def test_overflowing_condition_estimate_counts_as_singular():
    # entries whose squares pass the float range: det and tr(m* m) overflow
    m = np.array([[1e200, 1e200], [1e200, -1e200]])
    with np.errstate(all="ignore"):
        assert condition_number(m) == np.inf
        with pytest.raises(SingularMatrixError):
            inverse(m, condition_limit=1e12)


def test_inverse_matches_numpy_and_rejects_singular():
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = random_matrix(rng)
        if abs(det(m)) < 1e-6:
            continue
        np.testing.assert_allclose(inverse(m), np.linalg.inv(m), atol=1e-12)
    with pytest.raises(SingularMatrixError):
        inverse([[1, 1], [1, 1]])
    err = None
    try:
        inverse([[1, 0], [0, 1e-14]], condition_limit=1e12, z=2 - 1j)
    except SingularMatrixError as exc:
        err = exc
    assert err is not None and err.z == 2 - 1j


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(10)
    for _ in range(500):
        m = random_matrix(rng)
        h = (m + m.conj().T) / 2.0
        lo, hi = hermitian_eigenvalues(h)
        ref = np.linalg.eigvalsh(h)
        assert lo == pytest.approx(ref[0], abs=1e-12)
        assert hi == pytest.approx(ref[1], abs=1e-12)
        assert lo <= hi


def test_is_hermitian():
    assert is_hermitian([[1, 2j], [-2j, 3]], 1e-12)
    assert not is_hermitian([[1, 2j], [2j, 3]], 1e-12)
