"""The benchmark reaches into the package by name: bench/tracing.py hooks
functions by module attribute, and bench/workloads.py calls the library
directly.  A renamed or re-signed function makes the traced run read null
(or a workload fail) only when the benchmark runs; these checks catch it in
the test suite instead."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    tracing = _load_tracing()
    assert tracing.HOOKS
    for name, module_name, attr, _kind in tracing.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module_name}.{attr}"


# (module, function, positional args, keyword args) as bench/workloads.py calls them
X = object()  # a placeholder argument: only the binding is checked
WORKLOAD_CALLS = (
    ("charcurve", "trace_curve", (X, X), {}),
    ("charcurve", "solve_lambda2", (X, X), {"which": X}),
    ("charcurve", "solve_lambda2", (X, X), {}),
    ("charcurve", "find_fold", (X, X), {}),
    ("charcurve", "find_branch_minimum", (X, X), {}),
    ("charcurve", "find_kappa_cr", (X, X), {}),
    ("modes", "mode_shape", (X, X, X), {}),
    ("modes", "adjoint_kernel", (2, X, X, X), {}),
    ("modes", "adjoint_kernel", (4, X, X, X), {}),
    ("modes", "linear_residual_L4", (X, X, X, X), {}),
    ("reduction", "reduction_coefficients", (X, X, X, X, X), {}),
    ("unfolding", "unfolding_coefficients", (X, X, X, X, X, X), {}),
    ("unfolding", "is_universal_unfolding", (X, X), {}),
    ("bvp", "linear_shooting_determinant", (X, X), {}),
    ("bvp", "solve_postbuckling", (X, X, X, X), {"sign": X, "grid": X}),
    ("bvp", "node_count", (X,), {}),
    ("model", "LoadPoint", (X, X), {}),
    ("quadrature", "Grid", (), {}),
)

# result fields bench/workloads.py reads
WORKLOAD_FIELDS = (
    ("reduction", "ReductionCoefficients",
     ("c3", "crossing_coefficient", "epsilon", "delta", "verdict")),
    ("unfolding", "UnfoldingReport", ("universal", "reasons")),
    ("charcurve", "BranchCurve", ("branch_tag", "points", "fold")),
    ("bvp", "BvpSolution", ("trajectory", "setup", "m2_residual")),
    ("bvp", "Trajectory", ("x", "y", "v", "m")),
    ("model", "LoadPoint", ("lambda1", "lambda2")),
    ("model", "RodSetup", ("alpha2",)),
)


@pytest.mark.parametrize("module_name, func, args, kwargs", WORKLOAD_CALLS,
                         ids=[f"{m}.{f}" for m, f, _a, _k in WORKLOAD_CALLS])
def test_workload_calls_bind(module_name, func, args, kwargs):
    module = importlib.import_module(f"nanorod.{module_name}")
    inspect.signature(getattr(module, func)).bind(*args, **kwargs)


def test_workload_result_fields_exist():
    for module_name, cls, names in WORKLOAD_FIELDS:
        module = importlib.import_module(f"nanorod.{module_name}")
        fields = {f.name for f in dataclasses.fields(getattr(module, cls))}
        missing = set(names) - fields
        assert not missing, f"nanorod.{module_name}.{cls} lacks {sorted(missing)}"

