"""The closed-form 2x2 routines against numpy's general-purpose solvers and
against the numpy forms they replaced."""

import dataclasses
import math
import struct
from functools import partial

import numpy as np
import pytest

from ptscatter import (DEFAULT_CONDITION_LIMIT, DEFAULT_TOL, SIGMA0,
                       ArgumentError, AssumptionError, ExtensionParams,
                       KreinMetricParams, PauliCoefficients,
                       SingularMatrixError, betas_from_t,
                       c_params_from_matrix, extension_params,
                       pauli_decompose, s_matrix, t_from_betas, t_from_s)
from ptscatter.matrix2 import (_adjugate, _det_condition, _det_conditions,
                               _hermitian_lows, _operator_norms, _singular_error,
                               as_matrix, condition_number, det,
                               hermitian_eigenvalues, inverse, is_hermitian,
                               operator_norm)
from ptscatter.scattering import _interior_point, _spectral_point


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


# ---------------------------------------------------------------- frozen references
# The numpy bodies the one-matrix forms had before they moved to Python
# scalars, kept as written: every rewritten form must return the same bits
# (sign of zero included) or raise the same error.


def ref_finite_array(x, shape, name):
    a = np.asarray(x, dtype=complex)
    if a.shape != shape:
        raise ArgumentError(f"expected a {name} of shape {shape}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ArgumentError(f"{name} entries must be finite")
    return a


def ref_as_matrix(m):
    return ref_finite_array(m, (2, 2), "matrix")


def ref_det_of(a):
    return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def ref_modulus(d):
    # the one change to the references: abs(d) raised OverflowError where
    # the modulus passes the float range; the forms now give inf there
    try:
        return abs(d)
    except OverflowError:
        return math.inf


def ref_operator_norm(m):
    a = ref_as_matrix(m)
    t = float(np.sum(np.abs(a) ** 2))
    absd = ref_modulus(ref_det_of(ref_as_matrix(a)))
    disc = max(t * t / 4.0 - absd * absd, 0.0)
    return float(np.sqrt(t / 2.0 + np.sqrt(disc)))


def ref_det_condition(a):
    d = ref_det_of(a)
    absd = ref_modulus(d)
    if absd == 0.0:
        return d, math.inf
    frob = float((a.real ** 2 + a.imag ** 2).sum())
    disc = max(frob * frob / 4.0 - absd * absd, 0.0)
    cond = max((frob / 2.0 + math.sqrt(disc)) / absd, 1.0)
    return d, cond if cond < math.inf else math.inf


def ref_adjugate(a, condition_limit, z=None, name="matrix"):
    d, cond = ref_det_condition(a)
    err = _singular_error(cond, condition_limit, z, name)
    if err is not None:
        raise err
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]), d, cond


def ref_inverse(m, condition_limit=None, z=None):
    adj, d, _ = ref_adjugate(ref_as_matrix(m), condition_limit, z)
    return adj / d


def ref_hermitian_eigenvalues(m):
    a = ref_as_matrix(m)
    p = a[0, 0].real
    q = a[1, 1].real
    mid = (p + q) / 2.0
    rad = float(np.hypot((p - q) / 2.0, abs(a[0, 1])))
    return (float(mid - rad), float(mid + rad))


def bits(x):
    """x with the exact bits of every number in it, and its types."""
    t = type(x)
    if t is complex:
        return (t, struct.pack("<dd", x.real, x.imag))
    if t is tuple:
        return tuple(bits(v) for v in x)
    if t is np.ndarray:
        return (t, x.dtype.str, x.shape, x.flags.c_contiguous, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (t,) + tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return (t, struct.pack("<d", x))


def outcome(f, *args):
    """bits of f(*args), or the type, message and z of what it raised."""
    try:
        value = f(*args)
    except Exception as exc:  # the error is the outcome compared
        return (type(exc), str(exc), getattr(exc, "z", None))
    return bits(value)


def kind(out):
    """The exception type of an outcome, or "ok"."""
    err = out[0]
    return err if isinstance(err, type) and issubclass(err, Exception) else "ok"


def _random(rng, n, log_scale):
    return np.exp(log_scale) * (rng.standard_normal((n, 2, 2))
                                + 1j * rng.standard_normal((n, 2, 2)))


def _unitaries(rng, n):
    q, r = np.linalg.qr(_random(rng, n, 0.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def bit_matrices(rng):
    """100k matrices: entry scales e^+-300 per matrix and per entry,
    near-coincident singular values, exactly singular and Hermitian
    matrices, signed zeros, and entries whose squares overflow."""
    parts = [
        _random(rng, 30000, rng.uniform(-300, 300, (30000, 1, 1))),
        _random(rng, 10000, rng.uniform(-300, 300, (10000, 2, 2))),
    ]
    n = 15000
    sv = np.exp(rng.uniform(-50, 50, n))
    sig = np.zeros((n, 2, 2))
    sig[:, 0, 0] = sv * (1.0 + 10.0 ** rng.uniform(-17, -5, n))
    sig[:, 1, 1] = sv
    parts.append(_unitaries(rng, n) @ sig @ _unitaries(rng, n))
    # exactly singular: rows or columns in a power-of-two ratio, a zero row,
    # column or diagonal, the zero matrix
    n = 10000
    u = _random(rng, n, rng.uniform(-100, 100, (n, 1, 1)))
    k = 2.0 ** rng.integers(-3, 4, n)
    sing = u.copy()
    sing[:2500, 1] = k[:2500, None] * u[:2500, 0]
    sing[2500:5000, :, 1] = k[2500:5000, None] * u[2500:5000, :, 0]
    sing[5000:6500, 0] = 0.0
    sing[6500:8000, :, 1] = 0.0
    sing[8000:9500, 0, 0] = sing[8000:9500, 1, 1] = 0.0
    sing[8000:9500, 0, 1] = 0.0
    sing[9500:] = 0.0
    parts.append(sing)
    n = 15000
    h = _random(rng, n, rng.uniform(-300, 300, (n, 1, 1)))
    parts.append((h + h.conj().swapaxes(1, 2)) / 2.0)
    n = 10000
    z = _random(rng, n, rng.uniform(-5, 5, (n, 1, 1)))
    for part in (z.real, z.imag):
        mask = rng.random(part.shape) < 0.5
        part[mask] = rng.choice([0.0, -0.0], mask.sum())
    parts.append(z)
    n = 10000
    parts.append(_random(rng, n, rng.uniform(math.log(1e154), math.log(1e306), (n, 1, 1))))
    out = np.concatenate(parts)
    assert len(out) >= 100000
    return out


def validated(f):
    """f on the validated matrix, for the forms that take a checked array."""
    return lambda m, *args: f(ref_as_matrix(m), *args)


# (rewritten form, its reference); inverse is adj / d of _adjugate's output,
# and _adjugate also returns the determinant and condition number
PAIRS = [
    (det, validated(ref_det_of)),
    (operator_norm, ref_operator_norm),
    (validated(partial(_adjugate, condition_limit=None)),
     validated(partial(ref_adjugate, condition_limit=None))),
    (hermitian_eigenvalues, ref_hermitian_eigenvalues),
]
EDGE_PAIRS = PAIRS + [
    (as_matrix, ref_as_matrix),
    (condition_number, validated(lambda a: ref_det_condition(a)[1])),
    (partial(inverse, condition_limit=1e12, z=1 - 1j),
     partial(ref_inverse, condition_limit=1e12, z=1 - 1j)),
]


def test_one_matrix_forms_keep_the_bits_of_their_numpy_references():
    ms = bit_matrices(np.random.default_rng(11))
    kinds = set()
    overflowing = 0
    with np.errstate(all="ignore"):
        for m in ms:
            got = [outcome(new, m) for new, _ in PAIRS]
            assert got == [outcome(ref, m) for _, ref in PAIRS], m.tolist()
            kinds.add(kind(got[2]))
            overflowing += modulus_overflows(m)
    # the set reaches singular matrices and determinants whose modulus overflows
    assert kinds == {"ok", SingularMatrixError}
    assert overflowing


@pytest.mark.parametrize("m", [
    [[np.nan, 0], [0, 1]], [[1, 0], [0, complex(0, np.inf)]], [[1e308, 1e308], [1e308, 1]],
    [[1, 2, 3], [4, 5, 6]], [1, 2], np.zeros((2, 2, 1)), [[-0.0, 0.0], [0.0, -0.0]],
    [[complex(-0.0, -0.0), 1], [2, 3]], [[1 + 1j, 2], [2, 3]], [[2, 1], [1, 2]],
    [[1.3e154, 0], [0, 1.3e154 + 1.3e154j]],
    [[1.5e-323, 0], [0, 1e-323]],      # subnormal diagonal: summed before it is halved
])
def test_one_matrix_forms_match_their_references_on_edge_cases(m):
    with np.errstate(all="ignore"):
        for new, ref in EDGE_PAIRS:
            assert outcome(new, m) == outcome(ref, m), new


def test_unvalidated_forms_match_their_references_on_nonfinite_entries():
    # _quotient hands _adjugate a denominator that may have overflowed
    rng = np.random.default_rng(12)
    ms = _random(rng, 2000, 0.0)
    for m in ms:
        flat = m.reshape(-1)
        k = rng.integers(1, 4)
        flat[rng.choice(4, k, replace=False)] = rng.choice(
            [complex(np.inf, 1), complex(1, -np.inf), complex(np.nan, 0), complex(np.inf, np.nan),
             complex(1e300, 1e300), complex(-0.0, 0.0)], k)
    with np.errstate(all="ignore"):
        for m in ms:
            assert outcome(_det_condition, m) == outcome(ref_det_condition, m)
            for limit in (None, 1e12):
                assert outcome(_adjugate, m, limit) == outcome(ref_adjugate, m, limit)


def modulus_overflows(m) -> bool:
    """True when the determinant of m has finite parts but a modulus past the
    float range, where Python's abs of it raises OverflowError."""
    d = ref_det_of(np.asarray(m, dtype=complex))
    return bool(np.isfinite(d.real) and np.isfinite(d.imag)
                and np.hypot(d.real, d.imag) == np.inf)


def overflowing_determinants(rng, n):
    """Finite matrices whose determinant modulus overflows: a diagonal product
    of modulus up to 1.4 times the largest float at an angle near an odd
    multiple of pi/4, so both of its parts stay finite, under small,
    zero or signed-zero off-diagonal entries, and the same with the
    product on the off-diagonal."""
    root = math.sqrt(np.finfo(float).max)
    x = root * np.exp(rng.uniform(-20, 20, n))
    y = root * rng.uniform(1.0001, 1.4, n) * (root / x)   # x y = k max, 1 < k < 1.4
    angle = np.pi / 4 + np.pi / 2 * rng.integers(0, 4, n) + rng.uniform(-0.03, 0.03, n)
    alpha = rng.uniform(0, 2 * np.pi, n)
    m = np.zeros((n, 2, 2), dtype=complex)
    m[:, 0, 0] = x * np.exp(1j * alpha)
    m[:, 1, 1] = y * np.exp(1j * (angle - alpha))
    m[::3, 0, 1] = rng.standard_normal(len(m[::3])) * 1e100
    m[1::3, 1, 0] = complex(-0.0, 0.0)
    m[n // 2:] = m[n // 2:, :, ::-1] * np.array([1, -1])
    return m[[modulus_overflows(a) for a in m]]


def test_scalar_forms_give_their_stack_forms_where_the_determinant_modulus_overflows():
    with np.errstate(all="ignore"):
        ms = overflowing_determinants(np.random.default_rng(14), 3000)
        assert len(ms) > 1500
        norms = _operator_norms(ms)
        dets, conds = _det_conditions(ms)
        for m, norm, d, cond in zip(ms, norms.tolist(), dets.tolist(), conds.tolist()):
            assert bits(operator_norm(m)) == bits(norm), m.tolist()
            assert bits(det(m)) == bits(d)
            assert bits(condition_number(m)) == bits(cond) == bits(math.inf)
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                inverse(m)
    assert math.isnan(operator_norm([[1.3e154, 0], [0, 1.3e154 + 1.3e154j]]))


def test_scalar_forms_give_their_stack_forms_where_the_diagonal_sum_overflows():
    # diagonals of either sign near the largest float, so p + s or p - s
    # passes the float range; off-diagonal entries zero or up to 1e307
    rng = np.random.default_rng(15)
    n = 2000
    m = np.zeros((n, 2, 2), dtype=complex)
    for k in (0, 1):
        m[:, k, k] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.9e308, 1.79e308, n)
    m[n // 2:, 0, 1] = 1e307 * (rng.standard_normal(n - n // 2)
                                + 1j * rng.standard_normal(n - n // 2))
    m[:, 1, 0] = m[:, 0, 1].conj()
    with np.errstate(all="ignore"):
        lows = _hermitian_lows(m)
    for a, low in zip(m, lows.tolist()):
        assert bits(hermitian_eigenvalues(a)[0]) == bits(low), a.tolist()
    diagonal = m[: n // 2]
    assert np.isfinite(lows[: n // 2]).all()
    assert np.isfinite([hermitian_eigenvalues(a)[1] for a in diagonal]).all()


# The scan path's scalar arithmetic around the primitives, as it was: the
# trace and determinant of betas_from_t, the Pauli split of pauli_decompose,
# the quotient of s_matrix and t_from_s, and the per-point coefficient loop
# of the zero-range stacks.


def ref_betas_from_t(t, tol=DEFAULT_TOL):
    a = ref_as_matrix(t)
    tr = a[0, 0] + a[1, 1]
    if abs(tr.imag) > tol:
        raise AssumptionError("tr(t) is not real: t is not beta0 I + beta1 C")
    beta0 = tr.real / 2.0
    disc = beta0 * beta0 - ref_det_of(ref_as_matrix(a))
    if abs(disc.imag) > tol:
        raise AssumptionError("det(t) is not real: t is not beta0 I + beta1 C")
    b1_sq = disc.real
    if b1_sq < -tol:
        raise AssumptionError("beta0^2 - det(t) < 0: t is not beta0 I + beta1 C")
    beta1 = math.sqrt(max(b1_sq, 0.0))
    if beta1 <= tol:
        residual = ref_operator_norm(a - beta0 * SIGMA0)
        if residual > tol:
            raise AssumptionError(
                f"t deviates from beta0 I by {residual:.3e} although beta1 = 0")
        return ExtensionParams(beta0, 0.0, KreinMetricParams(0.0, 0.0),
                               metric_identifiable=False)
    try:
        params = c_params_from_matrix((a - beta0 * SIGMA0) / beta1, tol)
    except AssumptionError as exc:
        raise AssumptionError(f"t is not beta0 I + beta1 C: {exc}") from exc
    result = ExtensionParams(beta0, beta1, params)
    residual = ref_operator_norm(t_from_betas(result) - a)
    if residual > tol:
        raise AssumptionError(f"reconstruction residual {residual:.3e} exceeds tol")
    return result


def ref_pauli_decompose(m, xi=0.0):
    a = ref_as_matrix(m)
    a0 = (a[0, 0] + a[1, 1]) / 2.0
    s1 = (a[0, 0] - a[1, 1]) / 2.0
    s2 = (a[0, 1] + a[1, 0]) / 2.0
    s3 = 1j * (a[0, 1] - a[1, 0]) / 2.0
    x = float(xi)
    if x == 0.0:
        return PauliCoefficients(a0, s1, s2, s3)
    c, s = math.cos(x), math.sin(x)
    return PauliCoefficients(a0, c * s1 + s * s3, s2, -s * s1 + c * s3)


def ref_quotient(num, den, z, condition_limit):
    adj, d, cond = ref_adjugate(den, condition_limit, z, "denominator")
    return num @ adj / d, cond


def ref_s_matrix(t, z):
    a = ref_as_matrix(t)
    zz = _spectral_point(z)
    num = SIGMA0 - 2.0 * (1.0 + 1j * zz) * a
    den = SIGMA0 - 2.0 * (1.0 - 1j * zz) * a
    s, cond = ref_quotient(num, den, zz, DEFAULT_CONDITION_LIMIT)
    return s, cond


def ref_t_from_s(s, z):
    sm = ref_as_matrix(s)
    zz = _interior_point(z)
    a = 2.0 * (1.0 + 1j * zz)
    b = 2.0 * (1.0 - 1j * zz)
    return ref_quotient(SIGMA0 - sm, a * SIGMA0 - b * sm, zz, DEFAULT_CONDITION_LIMIT)[0]


def scan_draws(rng, n):
    """(beta0, beta1, chi, xi) inside and outside the nonnegativity diamond,
    |chi| up to 6, with beta0 = +-0, beta1 = +-0 and tiny beta1 among them."""
    b0 = rng.uniform(-0.25, 0.75, n)
    b1 = rng.uniform(-0.5, 0.5, n)
    b0[3::20] = 0.0
    b0[4::20] = -0.0
    b1[::20] = 0.0
    b1[1::20] = -0.0
    b1[2::20] = 1e-12
    return np.column_stack([b0, b1, rng.uniform(-6, 6, n), rng.uniform(0, 2 * math.pi, n)])


def test_scan_path_keeps_the_bits_of_its_numpy_references():
    rng = np.random.default_rng(13)
    zs = [-1j, -2j, 1 - 1j, -0.5 - 0.3j, complex(-0.0, -1.0), 2.5]
    kinds = set()
    with np.errstate(all="ignore"):
        for b0, b1, chi, xi in scan_draws(rng, 1000).tolist():
            t = t_from_betas(extension_params(b0, b1, chi, xi))
            skewed = t + rng.choice([0.0, 1e-12, 1e-3]) * random_matrix(rng)
            for m in (t, skewed):
                got = outcome(betas_from_t, m)
                assert got == outcome(ref_betas_from_t, m), m.tolist()
                kinds.add(kind(got))
                for x in (0.0, -0.0, xi):
                    assert outcome(pauli_decompose, m, x) == outcome(ref_pauli_decompose, m, x)
            for z in zs:
                got = outcome(lambda: (lambda ev: (ev.s, ev.condition_number))(s_matrix(t, z)))
                assert got == outcome(ref_s_matrix, t, z)
                if kind(got) == "ok" and z.imag < 0:
                    s = s_matrix(t, z).s
                    assert outcome(t_from_s, s, z) == outcome(ref_t_from_s, s, z)
    assert kinds == {"ok", AssumptionError}


# ---------------------------------------------------------------- dispatch-free


def test_one_point_forms_call_no_numpy_reduction_or_root(monkeypatch):
    t = t_from_betas(extension_params(0.2, 0.1, chi=0.5, xi=0.3))
    m = np.array([[1 + 2j, 0.5], [-1j, 3.0]])

    def s_at(z):
        ev = s_matrix(t, z)
        return ev.s, ev.condition_number

    def betas():
        b = betas_from_t(t)
        return b.beta0, b.beta1, b.metric.xi, b.metric.chi

    calls = [lambda: as_matrix(m), lambda: det(m), lambda: operator_norm(m),
             lambda: condition_number(m), lambda: inverse(m, condition_limit=1e12),
             lambda: hermitian_eigenvalues([[2.0, 1 - 1j], [1 + 1j, -1.0]]),
             lambda: s_at(1 - 1j), lambda: t_from_s(s_at(-2j)[0], -2j), betas]
    want = [bits(f()) for f in calls]

    def dispatched(*args, **kwargs):
        raise AssertionError("a one-point form called a numpy reduction or root")

    with monkeypatch.context() as patch:
        for name in ("all", "sum", "isfinite", "hypot", "sqrt"):
            patch.setattr(np, name, dispatched)
        got = [bits(f()) for f in calls]
    assert got == want
