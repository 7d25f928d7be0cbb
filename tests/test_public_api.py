"""Guard on the package's public names: the consolidated analysis layer keeps
one shape class, one critical-point chain and no wrapper layer, and no
function takes a tuning parameter that only ever runs at its default."""

import dataclasses
import importlib
import inspect

import nanorod

# (module, name) pairs deleted from the package together with their code, or
# moved out of it into the tests' oracles; a dotted name is a class attribute
# or a dataclass field
REMOVED = (
    ("modes", "ModeShape"),
    ("modes", "AdjointKernel"),
    ("modes", "TrigHypShape"),
    ("quadrature", "SampledFn"),
    ("quadrature", "I1"),
    ("quadrature", "I2"),
    ("quadrature", "I3"),
    ("quadrature", "J1"),
    ("quadrature", "J2"),
    ("quadrature", "inner_product"),
    ("reduction", "classify_pitchfork"),
    ("reduction", "bifurcation_amplitude"),
    ("bvp", "reduce_rhs"),
    ("charcurve", "_refine_stationary"),
    ("charcurve", "char_f"),
    ("modes", "linear_residual_L2"),
    ("modes", "adjoint_boundary_residuals"),
    ("bvp", "closed_form_moment"),
    ("bvp", "mode_node_count"),
    ("quadrature", "Grid.i3"),
    ("unfolding", "psi"),
    ("unfolding", "UnfoldingCoefficients.d51"),
    ("unfolding", "UnfoldingCoefficients.d52"),
    ("cli", "_CONVERGENCE_ERRORS"),
    ("quadrature", "Grid.i2"),
    ("charcurve", "_brentq_batch"),
    ("charcurve", "_lanes"),
    ("quadrature", "cheb_nodes"),
    ("quadrature", "_cheb_coefficient_matrix"),
    ("quadrature", "cheb_diff"),
    ("quadrature", "cheb_cumint"),
    ("quadrature", "cheb_coefficients"),
    ("quadrature", "cheb_eval"),
    ("bvp", "_resolved"),
    ("modes", "_resolved"),
    ("charcurve", "SCAN_PANELS"),
    ("charcurve", "DEFAULT_L2_CAP"),
    ("charcurve", "_NO_INDEX"),
    ("charcurve", "_sign_brackets"),
    ("charcurve", "_scan_brackets"),
    ("charcurve", "_refine_into"),
    ("charcurve", "_touch_candidates"),
    ("charcurve", "_touch_roots"),
    ("charcurve", "_past_families"),
    ("charcurve", "_units"),
    ("charcurve", "_bulk"),
    ("errors", "AmplitudeSeedError"),
    ("bvp", "BvpSolution.v0"),
    ("bvp", "BvpSolution.m0"),
    ("bvp", "BvpSolution.terminal_residuals"),
    ("bvp", "Trajectory.terminal"),
)

# (module, function, parameter) that became constants or are derived from inputs
REMOVED_PARAMETERS = (
    ("charcurve", "char_partials", "h"),
    ("charcurve", "_kappa_partial", "h"),
    ("charcurve", "trace_curve", "l2_cap"),
    ("charcurve", "_scan_roots", "panels"),
    ("charcurve", "_scan_roots", "allow_touch"),
    ("charcurve", "_brentq", "maxiter"),
    ("charcurve", "_damped_newton2", "fd_step"),
    ("bvp", "integrate", "n_steps"),
    ("bvp", "shoot", "tol"),
    ("bvp", "shoot", "max_iter"),
    ("bvp", "node_count", "zero_tol"),
    ("bvp", "residual_M2", "grid"),
    ("bvp", "linear_shooting_determinant", "n_steps"),
    ("unfolding", "is_universal_unfolding", "tol"),
    ("charcurve", "_local_scale", "dl"),
    ("reduction", "critical_chain", "order"),
    ("modes", "_normalized", "probe_t"),
)


def test_all_is_sorted_unique_and_resolves():
    names = nanorod.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(nanorod, name)]
    assert not missing


def _has(owner, name):
    """hasattr, which misses a dataclass field without a default, or that field."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}


def test_removed_names_stay_removed():
    for module_name, path in REMOVED:
        owner = importlib.import_module(f"nanorod.{module_name}")
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert not _has(owner, name), f"nanorod.{module_name}.{path}"
        assert name not in nanorod.__all__
        assert not hasattr(nanorod, name)


def test_removed_parameters_stay_removed():
    for module_name, func, param in REMOVED_PARAMETERS:
        module = importlib.import_module(f"nanorod.{module_name}")
        params = inspect.signature(getattr(module, func)).parameters
        assert param not in params, f"nanorod.{module_name}.{func}({param})"
