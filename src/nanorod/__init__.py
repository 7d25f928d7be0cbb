"""Buckling and bifurcation toolkit for a rotating axially compressed
nonlocal cantilever rod: interaction curves, critical loads, closed-form
modes, Lyapunov-Schmidt pitchfork classification, imperfection unfolding,
and post-buckling equilibrium shapes by shooting.
"""

from .charcurve import (
    BranchCurve,
    Wavenumbers,
    char_f,
    char_partials,
    char_residual,
    eta_prime,
    find_branch_minimum,
    find_fold,
    find_kappa_cr,
    solve_lambda1,
    solve_lambda2,
    trace_curve,
    wavenumbers,
)
from .bvp import (
    BvpSolution,
    integrate,
    linear_shooting_determinant,
    node_count,
    residual_M2,
    shoot,
    solve_postbuckling,
    tip_deflection,
)
from .model import LoadPoint, PhysicalRod, RodSetup, nondimensionalize
from .modes import adjoint_kernel, linear_residual_L2, linear_residual_L4, mode_shape
from .quadrature import DEFAULT_N, Grid
from .reduction import ReductionCoefficients, Verdict, critical_chain, reduction_coefficients
from .unfolding import (
    UnfoldingCoefficients,
    is_universal_unfolding,
    psi,
    unfolding_coefficients,
    unfolding_determinant,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCurve",
    "BvpSolution",
    "DEFAULT_N",
    "Grid",
    "LoadPoint",
    "PhysicalRod",
    "ReductionCoefficients",
    "RodSetup",
    "UnfoldingCoefficients",
    "Verdict",
    "Wavenumbers",
    "adjoint_kernel",
    "char_f",
    "char_partials",
    "char_residual",
    "critical_chain",
    "eta_prime",
    "find_branch_minimum",
    "find_fold",
    "find_kappa_cr",
    "integrate",
    "is_universal_unfolding",
    "linear_residual_L2",
    "linear_residual_L4",
    "linear_shooting_determinant",
    "mode_shape",
    "node_count",
    "nondimensionalize",
    "psi",
    "reduction_coefficients",
    "residual_M2",
    "shoot",
    "solve_lambda1",
    "solve_lambda2",
    "solve_postbuckling",
    "tip_deflection",
    "trace_curve",
    "unfolding_coefficients",
    "unfolding_determinant",
    "wavenumbers",
]
