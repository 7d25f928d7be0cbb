"""Guard on the package's public names: the consolidated analysis layer keeps
one shape class, one critical-point chain and no wrapper layer."""

import importlib

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
    # internal to the RK4 integrator: still importable from bvp, not exported
    assert "reduce_rhs" not in nanorod.__all__
