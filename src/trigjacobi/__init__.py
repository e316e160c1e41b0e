"""Trigonometric Jacobi expansions: symmetrized and half-interval bases,
Poisson semigroup kernels, the spectral operator calculus built on them, and
a verification harness that certifies the package's numerical claims."""

__version__ = "0.1.0"

from .basis import (JACOBI_FN, SYM_FN, SYM_POLY, TRIG_POLY, BasisElement,
                    JacobiParams, eigenvalue, eval_basis, half_index, psi)
from .kernels import (DiscreteMeasure, TruncationConfig, TruncationError,
                      kernel_derivative, partial_derivative_kernel,
                      poisson_kernel, symmetrized_kernel_pairs)
from .measure import (Ball, PowerWeight, ap_membership, ball_measure,
                      bp_membership, unweighted_bp_admissible,
                      unweighted_bp_window)
from .operators import (GridFunction, OperatorSpec, apply_operator,
                        apply_restricted, expand, expand_restricted,
                        grid_function, nonsym_apply, split_parity,
                        synthesize, transfer_function_setting)
from .quadrature import TGrid, ThetaGrid, gauss_jacobi_grid, inner_product, t_norm
from .verify import (EstimateReport, SweepSpec, report_json, run_suite,
                     suite_report)

__all__ = [
    "__version__",
    "TRIG_POLY", "JACOBI_FN", "SYM_POLY", "SYM_FN",
    "JacobiParams", "BasisElement", "eval_basis", "eigenvalue", "half_index",
    "psi",
    "TruncationConfig", "TruncationError", "DiscreteMeasure",
    "poisson_kernel", "symmetrized_kernel_pairs", "kernel_derivative",
    "partial_derivative_kernel",
    "Ball", "PowerWeight", "ball_measure", "ap_membership", "bp_membership",
    "unweighted_bp_window", "unweighted_bp_admissible",
    "ThetaGrid", "TGrid", "gauss_jacobi_grid", "inner_product", "t_norm",
    "GridFunction", "OperatorSpec", "grid_function", "expand",
    "expand_restricted", "synthesize", "apply_operator", "apply_restricted",
    "nonsym_apply", "split_parity", "transfer_function_setting",
    "EstimateReport", "SweepSpec", "run_suite", "suite_report", "report_json",
]
