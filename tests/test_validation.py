"""Every public function taking ``tol`` rejects a NaN or non-positive one."""

import inspect
import math
import re
import warnings

import numpy as np

import pytest

import ptscatter as pts
from ptscatter.matrix2 import _hermitian_lows

E = pts.extension_params(0.2, 0.1, chi=0.5, xi=0.3)
T = pts.t_from_betas(E)
P = E.metric
B = pts.BoundaryData(1.0, 0.5, 0.2, -0.1)

# valid arguments for everything but tol
CALLS = {
    "exp_involution": lambda tol: pts.exp_involution(0.3, pts.SIGMA3, tol=tol),
    "is_unitary_involution": lambda tol: pts.is_unitary_involution(pts.SIGMA3, tol=tol),
    "is_hermitian": lambda tol: pts.is_hermitian(pts.SIGMA3, tol=tol),
    "is_pt_symmetric": lambda tol: pts.is_pt_symmetric(T, tol=tol),
    "is_krein_selfadjoint": lambda tol: pts.is_krein_selfadjoint(T, P.xi, tol=tol),
    "solve_xi": lambda tol: pts.solve_xi(T, tol=tol),
    "is_c_symmetric": lambda tol: pts.is_c_symmetric(T, P, tol=tol),
    "c_params_from_matrix": lambda tol: pts.c_params_from_matrix(pts.c_operator(P), tol=tol),
    "krein_selfadjoint_reduction":
        lambda tol: pts.krein_selfadjoint_reduction(
        T, (math.cos(P.xi), 0.0, math.sin(P.xi)), tol=tol),
    "symmetry_report": lambda tol: pts.symmetry_report(T, tol=tol),
    "in_domain": lambda tol: pts.in_domain(T, B, tol=tol),
    "betas_from_t": lambda tol: pts.betas_from_t(T, tol=tol),
    "classify_nonnegative": lambda tol: pts.classify_nonnegative(E, tol=tol),
    "check_metric_inequality": lambda tol: pts.check_metric_inequality(T, P, tol=tol),
    "check_condition_a": lambda tol: pts.check_condition_a(T, P, [1 - 1j], tol=tol),
    "check_condition_b": lambda tol: pts.check_condition_b(T, P, [1 - 1j], tol=tol),
    "check_condition_c": lambda tol: pts.check_condition_c(T, P, 1 - 1j, tol=tol),
    "check_condition_d": lambda tol: pts.check_condition_d(T, P.xi, 1 - 1j, tol=tol),
    "check_pt_criterion": lambda tol: pts.check_pt_criterion(T, [1 - 1j], tol=tol),
    "property_report": lambda tol: pts.property_report(T, P, tol=tol),
    "run_parameter_suite": lambda tol: pts.run_parameter_suite(E, tol=tol),
    "run_random_suite": lambda tol: pts.run_random_suite(1, 0, tol=tol),
}


def test_table_covers_every_public_function_taking_tol():
    takes_tol = {name for name in pts.__all__
                 if inspect.isfunction(getattr(pts, name))
                 and "tol" in inspect.signature(getattr(pts, name)).parameters}
    assert takes_tol == set(CALLS)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, "x", None, 1j, np.array([1.0, 2.0]),
                                 np.array([1e-10])])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_tol_raises(name, tol):
    with pytest.raises(pts.ArgumentError, match="tol must be positive"):
        CALLS[name](tol)



# a non-numeric, ragged or unrepresentable matrix is malformed: as_matrix,
# and every function validating through it, raises ArgumentError
MALFORMED = ["abc", [[1, 2], [3]], object(), [[1, 2], [3, {}]], [[10 ** 400, 0], [0, 1]]]


@pytest.mark.parametrize("m", MALFORMED, ids=["string", "ragged", "object", "dict-entry",
                                              "huge-int"])
@pytest.mark.parametrize("f", [pts.matrix2.as_matrix, pts.operator_norm, pts.condition_number,
                               pts.pauli_decompose, pts.betas_from_t,
                               lambda m: pts.s_matrix(m, -1j)],
                         ids=["as_matrix", "operator_norm", "condition_number",
                              "pauli_decompose", "betas_from_t", "s_matrix"])
def test_malformed_matrix_raises_argument_error(f, m):
    with pytest.raises(pts.ArgumentError, match=r"expected a matrix of shape \(2, 2\) "
                                                r"with numeric entries"):
        f(m)


def test_malformed_vector_raises_argument_error():
    for v in ("ab", [[1], 2], [1, {}]):
        with pytest.raises(pts.ArgumentError, match="expected a vector of shape"):
            pts.pt_apply(v)


# a parameter that float() rejects is malformed too, and the error names it
@pytest.mark.parametrize("make, name", [
    (lambda: pts.extension_params("x", 0.1), "beta0"),
    (lambda: pts.extension_params(0.1, None), "beta1"),
    (lambda: pts.KreinMetricParams(None, 0.0), "xi"),
    (lambda: pts.KreinMetricParams(0.0, "1e"), "chi"),
    (lambda: pts.extension_params(10 ** 400, 0.0), "beta0"),
], ids=["string", "none", "none-xi", "string-chi", "huge-int"])
def test_non_real_parameter_raises_argument_error(make, name):
    with pytest.raises(pts.ArgumentError, match=f"^{name} must be a real number: "):
        make()


@pytest.mark.parametrize("call, message", [
    (lambda: pts.lower_half_plane_grid(steps=2.5), "steps must be an integer, got 2.5"),
    (lambda: pts.lower_half_plane_grid(steps="3"), "steps must be an integer, got '3'"),
    (lambda: pts.lower_half_plane_grid(re_min=math.nan), "re_min must be finite, got nan"),
    (lambda: pts.lower_half_plane_grid(re_max=math.inf), "re_max must be finite, got inf"),
    (lambda: pts.lower_half_plane_grid(im_min=-math.inf), "im_min must be finite, got -inf"),
    (lambda: pts.lower_half_plane_grid(im_max=math.nan), "im_max must be finite, got nan"),
    (lambda: pts.real_axis_points(steps=2.5), "steps must be an integer, got 2.5"),
    (lambda: pts.real_axis_points(lo=math.nan), "lo must be finite, got nan"),
    (lambda: pts.real_axis_points(hi=math.inf), "hi must be finite, got inf"),
    (lambda: pts.real_axis_points(3, -3, 3), "grid bounds must satisfy lo <= hi"),
    (lambda: pts.run_random_suite(2.5, 0), "n must be an integer, got 2.5"),
    (lambda: pts.run_random_suite(1, 2.5), "seed must be an integer, got 2.5"),
    (lambda: pts.run_random_suite(1, "7"), "seed must be an integer, got '7'"),
    (lambda: pts.check_pt_criterion(np.eye(2) / 4, []), "zs must be nonempty"),
    (lambda: pts.krein_selfadjoint_reduction(pts.SIGMA3, "abc"),
     "expected a vector of shape (3,) with numeric entries: "
     "complex() arg is a malformed string"),
    (lambda: pts.krein_selfadjoint_reduction(pts.SIGMA3, np.array([1 + 1j, 0, 0])),
     "alpha must be real, got a nonzero imaginary part"),
    (lambda: pts.check_condition_a(np.eye(2) / 4, pts.KreinMetricParams(0, 0), 5),
     "zs must be an iterable of points, got int"),
    (lambda: pts.standard_contraction_norm(np.eye(2) / 4, 5.0),
     "zs must be an iterable of points, got float"),
    (lambda: pts.draw_extension_params(None), "rng must be of type Generator, got NoneType"),
])
def test_malformed_grid_and_count_raise_argument_error(call, message):
    with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
        call()


# a finite matrix whose symmetry defect, Pauli coefficient or C-operator
# overflows: the error names the defect, the coefficient or the matrix,
# with no numpy warning
HUGE = [[1e308 + 1e308j, 0], [0, -1e308 - 1e308j]]
SIGMA2_C = pts.KreinMetricParams(math.pi / 2, 0.0)     # C = sigma_2


@pytest.mark.parametrize("call, message", [
    (lambda: pts.pt_defect(HUGE), "the PT defect overflows"),
    (lambda: pts.is_pt_symmetric(HUGE), "the PT defect overflows"),
    (lambda: pts.solve_xi(HUGE), "the PT defect overflows"),
    (lambda: pts.symmetry_report(HUGE), "the PT defect overflows"),
    (lambda: pts.krein_defect(HUGE, 0.3), "the Krein defect overflows"),
    (lambda: pts.is_krein_selfadjoint(HUGE, 0.3), "the Krein defect overflows"),
    (lambda: pts.c_symmetry_defect(HUGE, SIGMA2_C), "the C-symmetry defect overflows"),
    (lambda: pts.is_c_symmetric(HUGE, SIGMA2_C), "the C-symmetry defect overflows"),
    (lambda: pts.pauli_decompose(HUGE), "the Pauli coefficient a1 overflows from the given entries"),
    (lambda: pts.pauli_decompose(HUGE, 0.3),
     "the Pauli coefficient a1 overflows from the given entries"),
    (lambda: pts.is_hermitian([[1e308, -1e308], [1e308, 1e308]], 1e-10),
     "the Hermiticity defect overflows"),
    (lambda: pts.krein_selfadjoint_reduction([[1e308, 1e308j], [-1e308j, 1e308]], [1, 0, 0]),
     "the Krein defect overflows"),
    # tr T overflows, so beta0 does and (T - beta0 I) / beta1 is NaN
    (lambda: pts.betas_from_t([[1e308, 0], [0, 1e308]]),
     "the C-operator (T - beta0 I) / beta1 overflows"),
    # beta0^2 and det T overflow, so beta1 is NaN
    (lambda: pts.betas_from_t(1e160 * pts.t_from_betas(pts.extension_params(0.2, 0.1, 0.5, 0.3))),
     "the C-operator (T - beta0 I) / beta1 overflows"),
], ids=["pt_defect", "is_pt_symmetric", "solve_xi", "symmetry_report", "krein_defect",
        "is_krein_selfadjoint", "c_symmetry_defect", "is_c_symmetric", "pauli_decompose",
        "pauli_decompose-xi", "is_hermitian", "krein_selfadjoint_reduction", "betas_from_t",
        "betas_from_t-scaled"])
def test_overflowing_symmetry_defect_is_named(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
            call()


# finite matrices whose involution or unitarity residual m m - I, m m* - I
# overflows: the error names the residual, with no numpy warning
SQUARE_OVERFLOWS = [[1e200, 0], [0, 1e200]]
ADJOINT_OVERFLOWS = [[0, 1e200], [1e-200, 0]]     # m m = I


@pytest.mark.parametrize("call, message", [
    (lambda: pts.symmetry_report(SQUARE_OVERFLOWS), "the involution defect overflows"),
    (lambda: pts.c_params_from_matrix(SQUARE_OVERFLOWS), "the involution defect overflows"),
    (lambda: pts.is_unitary_involution([[1e200, 0], [0, 1]]), "the involution defect overflows"),
    (lambda: pts.is_unitary_involution(ADJOINT_OVERFLOWS), "the unitarity defect overflows"),
    (lambda: pts.exp_involution(1.0, [[1e200, 0], [0, 1]]), "the involution defect overflows"),
], ids=["symmetry_report", "c_params_from_matrix", "is_unitary_involution-square",
        "is_unitary_involution-adjoint", "exp_involution"])
def test_overflowing_involution_residual_is_named(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
            call()


# finite parameters whose oracle matrix overflows, near the largest chi that
# KreinMetricParams accepts or from a huge beta0: the error names the matrix
# and chi, with no numpy warning
CLASSIFY_REPRO = pts.extension_params(1.3165760051555746, -0.020132417011519577,
                                      chi=709.8642557525455, xi=5.305185825219249)
LOWER = "the oracle matrix beta0 G + beta1 P_xi overflows at chi=709.8642557525455"
HUGE_BETA0 = pts.extension_params(1e308, 0.2, chi=6)


@pytest.mark.parametrize("call, message", [
    (lambda: pts.classify_nonnegative(CLASSIFY_REPRO), LOWER),
    (lambda: pts.run_parameter_suite(CLASSIFY_REPRO), LOWER),
    (lambda: pts.classify_nonnegative(pts.extension_params(-0.9, -0.02, chi=710.4)),
     "the oracle matrix (1/2 - beta0) G - beta1 P_xi overflows at chi=710.4"),
    (lambda: pts.classify_nonnegative(HUGE_BETA0),
     "the oracle matrix beta0 G + beta1 P_xi overflows at chi=6.0"),
    (lambda: pts.run_parameter_suite(HUGE_BETA0),
     "the oracle matrix beta0 G + beta1 P_xi overflows at chi=6.0"),
], ids=["lower", "run_parameter_suite", "upper", "huge-beta0", "huge-beta0-suite"])
def test_overflowing_oracle_matrix_is_named(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
            call()


# finite input whose formed matrix overflows: the error names that matrix,
# with no numpy warning
T_OVERFLOWS = pts.extension_params(0, 1e308, chi=2)      # beta1 C passes the float range
T_MESSAGE = "the matrix T = beta0 I + beta1 C overflows"
HUGE_JUMP = pts.BoundaryData(1e308, -1e308, 0, 0)     # f(+0) - f(-0) passes the float range
GAMMA1_MESSAGE = "the boundary value Gamma_1 f overflows"


@pytest.mark.parametrize("call, message", [
    (lambda: pts.t_from_betas(T_OVERFLOWS), T_MESSAGE),
    (lambda: pts.run_parameter_suite(T_OVERFLOWS), T_MESSAGE),
    (lambda: pts.pauli_compose([1e308] * 4), "the Pauli composition overflows"),
    (lambda: pts.exp_involution(800.0, pts.SIGMA3),
     "the exponential e^{theta j} overflows at theta=(800+0j)"),
    (lambda: pts.check_metric_inequality([[0, 1e308], [-1e308, 0]], pts.KreinMetricParams(0, 0)),
     "the Hermiticity defect overflows at chi=0.0"),
    # the zero-range basis shares the metric's largest entry; it once
    # overflowed unchecked and S read as singular
    (lambda: pts.s_matrix_zero_range(
        pts.extension_params(0.2, 0.1, chi=709.8642557525455, xi=math.pi / 2), -1j),
     "the metric overflows at chi=709.8642557525455, xi=1.5707963267948966"),
    # 2 Gamma_0 f = (0, 2e308); Gamma_0 f itself once read (0, inf+nanj)
    (lambda: pts.gamma1(HUGE_JUMP), GAMMA1_MESSAGE),
    (lambda: pts.in_domain(pts.SIGMA0, HUGE_JUMP), GAMMA1_MESSAGE),
    (lambda: pts.gamma1(pts.BoundaryData(0, 0, 1e308, -1e308)), GAMMA1_MESSAGE),
    (lambda: pts.in_domain([[1e308, 1e308], [0, 0]], pts.BoundaryData(1, 0, 1e308, 0)),
     "the boundary residual T Gamma_1 f - Gamma_0 f overflows"),
], ids=["t_from_betas", "run_parameter_suite", "pauli_compose", "exp_involution",
        "check_metric_inequality", "s_matrix_zero_range", "gamma1", "in_domain-gamma1",
        "gamma1-derivatives", "in_domain-residual"])
def test_overflowing_formed_matrix_is_named_without_warnings(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
            call()


# finite boundary values whose sum or difference passes the float range
# have a finite Gamma_0 f
@pytest.mark.parametrize("data, expected", [
    (HUGE_JUMP, [0j, 1e308 + 0j]),
    (pts.BoundaryData(1.7e308, 1.7e308, 0, 0), [1.7e308 + 0j, 0j]),
    (pts.BoundaryData(1e308j, -1e308j, 0, 0), [0j, 1e308j]),
], ids=["jump", "mean", "imaginary"])
def test_gamma0_of_huge_boundary_values_is_finite(data, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pts.gamma0(data).tolist() == expected


# finite Hermitian input whose diagonal sum or difference passes the float
# range has finite eigenvalues
@pytest.mark.parametrize("call, expected", [
    (lambda: pts.hermitian_eigenvalues([[1.7e308, 0], [0, 1.7e308]]), (1.7e308, 1.7e308)),
    (lambda: pts.hermitian_eigenvalues([[1.7e308, 0], [0, -1.7e308]]), (-1.7e308, 1.7e308)),
    (lambda: _hermitian_lows(np.array([np.diag([1.7e308, -1.7e308])], dtype=complex)).tolist(),
     [-1.7e308]),
    (lambda: pts.classify_nonnegative(T_OVERFLOWS).eigenvalues_lower, (-1e308, 1e308)),
], ids=["hermitian_eigenvalues-sum", "hermitian_eigenvalues-difference", "_hermitian_lows",
        "classify_nonnegative"])
def test_finite_hermitian_input_has_finite_eigenvalues(call, expected):
    with np.errstate(all="ignore"):
        assert call() == expected


# an object of the wrong type where a parameter object is expected ends in
# ArgumentError naming the parameter and the type it got
KREIN, EXTENSION, BOUNDARY = ("params", "KreinMetricParams"), ("e", "ExtensionParams"), \
    ("b", "BoundaryData")
WRONG_TYPE_CALLS = {
    "s_matrix_zero_range": (lambda x: pts.s_matrix_zero_range(x, -1j), EXTENSION),
    "t_from_betas": (lambda x: pts.t_from_betas(x), EXTENSION),
    "classify_nonnegative": (lambda x: pts.classify_nonnegative(x), EXTENSION),
    "run_parameter_suite": (lambda x: pts.run_parameter_suite(x), EXTENSION),
    "metric": (lambda x: pts.metric(x), KREIN),
    "c_operator": (lambda x: pts.c_operator(x), KREIN),
    "check_condition_a": (lambda x: pts.check_condition_a(T, x, [1 - 1j]), KREIN),
    "check_condition_b": (lambda x: pts.check_condition_b(T, x, [1 - 1j]), KREIN),
    "check_condition_c": (lambda x: pts.check_condition_c(T, x, 1 - 1j), KREIN),
    "property_report": (lambda x: pts.property_report(T, x), KREIN),
    "check_metric_inequality": (lambda x: pts.check_metric_inequality(T, x), KREIN),
    "c_symmetry_defect": (lambda x: pts.c_symmetry_defect(T, x), KREIN),
    "is_c_symmetric": (lambda x: pts.is_c_symmetric(T, x), KREIN),
    "in_domain": (lambda x: pts.in_domain(T, x), BOUNDARY),
    "gamma0": (lambda x: pts.gamma0(x), BOUNDARY),
    "gamma1": (lambda x: pts.gamma1(x), BOUNDARY),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_CALLS))
def test_a_wrong_parameter_type_raises_argument_error(name):
    call, (param, kind) = WRONG_TYPE_CALLS[name]
    # another of the parameter objects, a tuple of their fields, or None
    wrong = {"KreinMetricParams": E, "ExtensionParams": P, "BoundaryData": (1.0, 0.5, 0.2, -0.1)}
    for x, got in ((wrong[kind], type(wrong[kind]).__name__), (None, "NoneType")):
        message = f"^{param} must be of type {kind}, got {got}$"
        with pytest.raises(pts.ArgumentError, match=message):
            call(x)


def test_extension_params_names_a_metric_of_the_wrong_type():
    with pytest.raises(pts.ArgumentError,
                       match="^metric must be of type KreinMetricParams, got tuple$"):
        pts.ExtensionParams(0.2, 0.1, (0.3, 0.5))


# a point or coefficient that complex() rejects is malformed, and the error
# names it
@pytest.mark.parametrize("make, name", [
    (lambda: pts.s_matrix(T, None), "z"),
    (lambda: pts.s_matrix(T, "x"), "z"),
    (lambda: pts.BoundaryData(None, 0, 0, 0), "f_plus"),
    (lambda: pts.PauliCoefficients(None, 0, 0, 0), "a0"),
    (lambda: pts.exp_involution("x", pts.SIGMA3), "theta"),
], ids=["s_matrix-none", "s_matrix-string", "boundary-data", "pauli-coefficients",
        "exp-involution"])
def test_non_complex_value_raises_argument_error(make, name):
    with pytest.raises(pts.ArgumentError, match=f"^{name} must be a complex number: "):
        make()


@pytest.mark.parametrize("call, message", [
    (lambda: pts.lower_half_plane_grid(-1e308, 1e308),
     "re_max - re_min must be finite, got re_min=-1e+308, re_max=1e+308"),
    (lambda: pts.lower_half_plane_grid(-1e308, 1e308, steps=1),
     "re_max - re_min must be finite, got re_min=-1e+308, re_max=1e+308"),
    (lambda: pts.real_axis_points(-1e308, 1e308),
     "hi - lo must be finite, got lo=-1e+308, hi=1e+308"),
], ids=["grid", "grid-one-step", "real-axis"])
def test_overflowing_grid_span_raises_without_warnings(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pts.ArgumentError, match=f"^{re.escape(message)}$"):
            call()


def test_integral_counts_of_any_integer_type_are_accepted():
    assert pts.lower_half_plane_grid(steps=np.int64(2)) == pts.lower_half_plane_grid(steps=2)
    assert pts.real_axis_points(-1, 1, np.int32(3)) == [-1 + 0j, 0j, 1 + 0j]
    assert pts.run_random_suite(np.int64(1), np.uint8(3)) == pts.run_random_suite(1, 3)
