"""Property test over the public API: every numeric argument of every public
callable, replaced by an edge value while the others stay valid, gives a
finite result or a NanorodError, and never a bare Python or numpy error or
warning.

PhysicalRod is built inside the nondimensionalize case.  The post-buckling
metrics (node_count, residual_M2, tip_deflection) take a solved shape with
one sample of each state in turn replaced.  Callables that only take the
reduction's and unfolding's results (is_universal_unfolding,
unfolding_determinant) and the result containers (BranchCurve,
BvpSolution, ReductionCoefficients, UnfoldingCoefficients, Verdict,
Wavenumbers) are left out: their inputs are the package's own outputs.
"""

import dataclasses
import enum
import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import nanorod
from nanorod import (
    Grid,
    LoadPoint,
    PhysicalRod,
    RodSetup,
    adjoint_kernel,
    char_partials,
    char_residual,
    critical_chain,
    eta_prime,
    find_branch_minimum,
    find_fold,
    find_kappa_cr,
    integrate,
    linear_residual_L4,
    linear_shooting_determinant,
    mode_shape,
    node_count,
    nondimensionalize,
    reduction_coefficients,
    residual_M2,
    shoot,
    solve_lambda1,
    solve_lambda2,
    solve_postbuckling,
    tip_deflection,
    trace_curve,
    unfolding_coefficients,
    wavenumbers,
)
from nanorod.errors import NanorodError

from conftest import fixture_curvature

EDGE_VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300, 1.5)

GRID = Grid(64)
KAPPA = 0.25
L1 = 10.0
L2 = solve_lambda2(L1, KAPPA)  # the first critical point at lambda1 10
YL, Q2, _ = critical_chain(LoadPoint(L1, L2), KAPPA, GRID)
CRITICAL = {"lambda1": L1, "lambda2": L2, "kappa": KAPPA}
SHOT = {"lambda1": 2.0, "lambda2": 0.5, "kappa": KAPPA, "v0": 0.0, "m0": 0.0}
SOLVED = solve_postbuckling(LoadPoint(L1, L2), KAPPA, 0.3, grid=GRID)
MID = GRID.n // 2
STATES = ("t", "x", "y", "theta", "v", "m")
SAMPLE = {name: float(getattr(SOLVED.trajectory, name)[MID]) for name in STATES}


def _load(kw):
    return LoadPoint(kw["lambda1"], kw["lambda2"])


def _solved(kw):
    """SOLVED with the sample of every state at MID replaced by kw's."""
    arrays = {name: getattr(SOLVED.trajectory, name).copy() for name in STATES}
    for name, a in arrays.items():
        a[MID] = kw[name]
    return dataclasses.replace(SOLVED, trajectory=dataclasses.replace(SOLVED.trajectory,
                                                                       **arrays))


# public callable -> (call on keyword arguments, valid keyword arguments)
CASES = {
    "LoadPoint": (_load, {"lambda1": L1, "lambda2": L2}),
    "RodSetup": (lambda kw: RodSetup(**kw), {"kappa": KAPPA, "alpha1": 0.01, "alpha2": 0.01}),
    "Grid": (lambda kw: Grid(kw["n"]).t, {"n": 64}),
    "nondimensionalize": (
        lambda kw: nondimensionalize(PhysicalRod(**kw)),
        {"E": 1.0, "I": 1.0, "L": 2.0, "mu": 1.0, "ell": 1.0, "omega": 1.0, "H0": 1.0, "V0": 0.1},
    ),
    "char_residual": (lambda kw: char_residual(_load(kw), kw["kappa"]), CRITICAL),
    "char_partials": (lambda kw: char_partials(_load(kw), kw["kappa"]), CRITICAL),
    "eta_prime": (lambda kw: eta_prime(_load(kw), kw["kappa"]), CRITICAL),
    "wavenumbers": (lambda kw: wavenumbers(_load(kw), kw["kappa"]), CRITICAL),
    "linear_shooting_determinant": (
        lambda kw: linear_shooting_determinant(_load(kw), kw["kappa"]), CRITICAL),
    "solve_lambda2": (lambda kw: solve_lambda2(**kw), {"lambda1": L1, "kappa": KAPPA, "which": 1}),
    "solve_lambda1": (lambda kw: solve_lambda1(**kw), {"lambda2": 0.5, "kappa": KAPPA, "which": 1}),
    "find_fold": (lambda kw: find_fold(kw["kappa"], _load(kw)),
                  {"lambda1": 8.3, "lambda2": 1.16, "kappa": 0.45}),
    "find_branch_minimum": (lambda kw: find_branch_minimum(kw["kappa"], _load(kw)),
                            {"lambda1": 6.3, "lambda2": 1.045, "kappa": 0.45}),
    "find_kappa_cr": (lambda kw: find_kappa_cr(**kw), {"guess_kappa": 0.37, "guess_lambda1": 29.0}),
    "trace_curve": (lambda kw: trace_curve(kw["kappa"], [kw["lambda1"]], kw["mode_index"]),
                    {"lambda1": 8.0, "kappa": 0.45, "mode_index": 1}),
    "mode_shape": (lambda kw: mode_shape(_load(kw), kw["kappa"], GRID), CRITICAL),
    "adjoint_kernel": (lambda kw: adjoint_kernel(kw["order"], _load(kw), kw["kappa"], GRID),
                       {**CRITICAL, "order": 2}),
    "critical_chain": (lambda kw: critical_chain(_load(kw), kw["kappa"], GRID), CRITICAL),
    "reduction_coefficients": (
        lambda kw: reduction_coefficients(_load(kw), kw["kappa"], YL, Q2, GRID), CRITICAL),
    "unfolding_coefficients": (
        lambda kw: unfolding_coefficients(_load(kw), kw["kappa"], YL, Q2, fixture_curvature,
                                          GRID), CRITICAL),
    "linear_residual_L4": (lambda kw: linear_residual_L4(YL, _load(kw), kw["kappa"], GRID),
                           CRITICAL),
    "integrate": (lambda kw: integrate(_load(kw), RodSetup(kw["kappa"]), kw["v0"], kw["m0"], GRID),
                  SHOT),
    "shoot": (lambda kw: shoot(_load(kw), RodSetup(kw["kappa"]), kw["v0"], kw["m0"], GRID), SHOT),
    "solve_postbuckling": (
        lambda kw: solve_postbuckling(_load(kw), kw["kappa"], kw["delta"], sign=kw["sign"],
                                      grid=GRID),
        {**CRITICAL, "delta": 0.3, "sign": 1}),
    "residual_M2": (lambda kw: residual_M2(_solved(kw)), SAMPLE),
    "node_count": (lambda kw: node_count(_solved(kw)), SAMPLE),
    "tip_deflection": (lambda kw: tip_deflection(_solved(kw)), SAMPLE),
}

DRAWS = [(name, arg, value) for name, (_, valid) in CASES.items() for arg in valid
         for value in EDGE_VALUES]


def _finite(value):
    """Every number inside value is finite: floats, arrays, and the fields of
    dataclasses, tuples and lists; names, enum members and callables carry none."""
    if isinstance(value, (float, int, np.floating, np.integer)):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value is None or isinstance(value, (str, enum.Enum)) or callable(value)


def test_cases_cover_the_public_callables():
    skipped = {"BranchCurve", "BvpSolution", "ReductionCoefficients", "UnfoldingCoefficients",
               "Verdict", "Wavenumbers", "PhysicalRod", "is_universal_unfolding",
               "unfolding_determinant"}
    public = {name for name in nanorod.__all__ if callable(getattr(nanorod, name))}
    assert public == set(CASES) | skipped
    for name, (call, valid) in CASES.items():
        assert _finite(call(dict(valid))), name


@settings(derandomize=True, database=None, deadline=None, max_examples=len(DRAWS))
@given(st.sampled_from(DRAWS))
def test_edge_value_gives_finite_result_or_package_error(draw):
    name, arg, value = draw
    call, valid = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call({**valid, arg: value})
        except NanorodError:
            return
    assert _finite(result), f"{name}({arg}={value}) -> {result!r}"
