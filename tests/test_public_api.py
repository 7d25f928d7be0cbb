"""Guard on the package's public names: the consolidated analysis layer keeps
one shape class, one critical-point chain and no wrapper layer, and no
function takes a tuning parameter that only ever runs at its default."""

import importlib
import inspect

import nanorod

# (module, name) pairs deleted from the package together with their code
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
    ("bvp", "mode_node_count", "zero_tol"),
    ("bvp", "residual_M2", "grid"),
    ("unfolding", "is_universal_unfolding", "tol"),
)


def test_all_is_sorted_unique_and_resolves():
    names = nanorod.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(nanorod, name)]
    assert not missing


def test_removed_names_stay_removed():
    for module_name, name in REMOVED:
        module = importlib.import_module(f"nanorod.{module_name}")
        assert not hasattr(module, name), f"nanorod.{module_name}.{name}"
        assert name not in nanorod.__all__
        assert not hasattr(nanorod, name)


def test_removed_parameters_stay_removed():
    for module_name, func, param in REMOVED_PARAMETERS:
        module = importlib.import_module(f"nanorod.{module_name}")
        params = inspect.signature(getattr(module, func)).parameters
        assert param not in params, f"nanorod.{module_name}.{func}({param})"
