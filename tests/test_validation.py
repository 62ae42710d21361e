"""Every public function taking ``tol`` rejects a NaN or non-positive one."""

import inspect
import math

import pytest

import ptscatter as pts

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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_tol_raises(name, tol):
    with pytest.raises(pts.ArgumentError, match="tol must be positive"):
        CALLS[name](tol)

