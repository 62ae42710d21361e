"""PT-symmetric extension parameters on a two-dimensional boundary space.

The package realizes, in closed form on C^2:

  * the Clifford algebra generated by two anti-commuting unitary involutions
    (Pauli representation), its PT-symmetric involutions P_xi, the
    C-operators cosh(chi) P_xi + i sinh(chi) R, and the positive metric
    e^{-chi i R P_xi} (:mod:`ptscatter.clifford`);
  * classification of 2x2 operators by PT symmetry, Krein self-adjointness
    and C symmetry, with solvers for xi and chi (:mod:`ptscatter.symmetry`);
  * the zero-range boundary maps, the T = beta0 I + beta1 C family of
    extension parameters and the nonnegative-spectrum region with its
    eigenvalue oracle (:mod:`ptscatter.extensions`);
  * the Lax-Phillips scattering matrix S(z), its Mobius inverse, and the
    characteristic-property checks (:mod:`ptscatter.scattering`) on sample
    points of the lower half-plane (:mod:`ptscatter.grids`);
  * randomized verification suites (:mod:`ptscatter.verify`) and a command
    line front end (:mod:`ptscatter.cli`).
"""

from .clifford import (DEFAULT_TOL, SIGMA0, SIGMA1, SIGMA2, SIGMA3,
                       KreinMetricParams, PauliCoefficients, c_operator,
                       exp_involution, is_unitary_involution, metric,
                       p_xi, pauli_compose, pauli_decompose)
from .errors import ArgumentError, AssumptionError, SingularMatrixError
from .extensions import (BoundaryData, ExtensionParams, SpectraClassification,
                         betas_from_t, check_metric_inequality,
                         classify_nonnegative, extension_params, gamma0,
                         gamma1, in_domain, t_from_betas)
from .matrix2 import (condition_number, hermitian_eigenvalues, inverse,
                      is_hermitian, operator_norm)
from .grids import lower_half_plane_grid, real_axis_points
from .scattering import (DEFAULT_CONDITION_LIMIT, PropertyCheck,
                         PropertyReport, ScatteringEvaluation,
                         check_condition_a, check_condition_b,
                         check_condition_c, check_condition_d,
                         check_pt_criterion, property_report, s_matrix,
                         s_matrix_zero_range, standard_contraction_norm,
                         t_from_s)
from .symmetry import (SymmetryReport, c_params_from_matrix,
                       c_symmetry_defect, is_c_symmetric, is_krein_selfadjoint,
                       is_pt_symmetric, krein_defect,
                       krein_selfadjoint_reduction, pt_apply, pt_conjugate,
                       pt_defect, solve_xi, symmetry_report)
from .verify import (WITNESS_POINTS, draw_extension_params,
                     mobius_round_trip_residuals, run_parameter_suite,
                     run_random_suite)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "AssumptionError", "SingularMatrixError",
    "DEFAULT_TOL", "DEFAULT_CONDITION_LIMIT",
    "SIGMA0", "SIGMA1", "SIGMA2", "SIGMA3",
    "PauliCoefficients", "KreinMetricParams",
    "pauli_compose", "pauli_decompose", "p_xi", "c_operator", "metric",
    "exp_involution", "is_unitary_involution",
    "operator_norm", "condition_number", "inverse", "is_hermitian",
    "hermitian_eigenvalues",
    "pt_apply", "pt_conjugate", "pt_defect", "is_pt_symmetric",
    "krein_defect", "is_krein_selfadjoint", "solve_xi",
    "c_symmetry_defect", "is_c_symmetric", "c_params_from_matrix",
    "krein_selfadjoint_reduction", "SymmetryReport", "symmetry_report",
    "BoundaryData", "gamma0", "gamma1", "in_domain",
    "ExtensionParams", "extension_params", "t_from_betas", "betas_from_t",
    "SpectraClassification", "classify_nonnegative", "check_metric_inequality",
    "ScatteringEvaluation", "PropertyCheck", "PropertyReport",
    "s_matrix", "s_matrix_zero_range", "t_from_s",
    "check_condition_a", "check_condition_b", "check_condition_c",
    "check_condition_d", "check_pt_criterion", "standard_contraction_norm",
    "lower_half_plane_grid", "real_axis_points", "property_report",
    "WITNESS_POINTS", "draw_extension_params", "mobius_round_trip_residuals",
    "run_parameter_suite", "run_random_suite",
]
