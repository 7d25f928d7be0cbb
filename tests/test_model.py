import numpy as np
import pytest

from nanorod.errors import InvalidInputError, SingularCurvatureError
from nanorod.model import LoadPoint, PhysicalRod, RodSetup, nondimensionalize


def test_unloaded_straight_rod_maps_to_zero():
    rod = PhysicalRod(E=1.0, I=1.0, L=1.0, mu=1.0)
    setup, loads = nondimensionalize(rod)
    assert loads.lambda1 == 0.0
    assert loads.lambda2 == 0.0
    assert setup.alpha1 == 0.0
    assert setup.alpha2 == 0.0


def test_kappa_definition():
    rod = PhysicalRod(E=1.0, I=1.0, L=2.0, mu=1.0, ell=1.0)
    setup, _ = nondimensionalize(rod)
    assert setup.kappa == pytest.approx(0.25, abs=0.0)


def test_lambda1_hand_computation():
    # mu omega^2 L^4 / (E I) = 0.01 * 100^2 * 0.1^4 / (200e9 * 1e-12) = 0.05
    rod = PhysicalRod(E=200e9, I=1e-12, L=0.1, mu=0.01, omega=100.0)
    _, loads = nondimensionalize(rod)
    assert loads.lambda1 == pytest.approx(0.05, rel=1e-12)


def test_length_scaling_of_loads():
    base = PhysicalRod(E=3.0, I=0.5, L=1.3, mu=2.0, omega=4.0, H0=1.1, V0=0.2)
    doubled = PhysicalRod(E=3.0, I=0.5, L=2.6, mu=2.0, omega=4.0, H0=1.1, V0=0.2)
    _, l_base = nondimensionalize(base)
    _, l_doubled = nondimensionalize(doubled)
    assert l_doubled.lambda1 == pytest.approx(16.0 * l_base.lambda1, rel=1e-12)
    assert l_doubled.lambda2 == pytest.approx(4.0 * l_base.lambda2, rel=1e-12)


def test_curvature_profile_normalization():
    # R0(S) = 2 L (2 - S / L): radius profile with sup |R0|/L = 4 at S = 0
    L = 0.7
    rod = PhysicalRod(E=1.0, I=1.0, L=L, mu=1.0,
                      R0_profile=lambda s: 2.0 * L * (2.0 - s / L))
    setup, _ = nondimensionalize(rod)
    assert setup.alpha1 == pytest.approx(0.25, rel=1e-9)
    ts = np.linspace(0.0, 1.0, 101)
    rho = 1.0 / np.asarray(setup.rho0(ts))
    assert np.max(np.abs(rho)) == pytest.approx(1.0, rel=1e-9)


def test_invalid_physical_inputs():
    with pytest.raises(InvalidInputError):
        PhysicalRod(E=-1.0, I=1.0, L=1.0, mu=1.0)
    with pytest.raises(InvalidInputError):
        PhysicalRod(E=1.0, I=1.0, L=0.0, mu=1.0)
    # non-finite fields once gave lambda1 = nan (E, L, omega), kappa = nan
    # (ell) or lambda2 = inf (H0) without an error
    base = dict(E=1.0, I=1.0, L=1.0, mu=1.0)
    for field, value in [("E", float("nan")), ("L", float("inf")), ("omega", float("nan")),
                         ("ell", float("nan")), ("H0", float("inf")), ("I", float("inf")),
                         ("mu", float("nan")), ("V0", float("-inf"))]:
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            PhysicalRod(**{**base, field: value})


def test_singular_curvature_rejected():
    rod = PhysicalRod(E=1.0, I=1.0, L=1.0, mu=1.0, R0_profile=lambda s: s - 0.5)
    with pytest.raises(SingularCurvatureError):
        nondimensionalize(rod)


def test_negative_lambda1_rejected():
    with pytest.raises(InvalidInputError):
        LoadPoint(-1.0, 0.0)


@pytest.mark.parametrize("lambda1,lambda2,name", [
    (float("nan"), 1.0, "lambda1"), (float("-inf"), 1.0, "lambda1"),
    (1.0, float("inf"), "lambda2"), (1.0, float("nan"), "lambda2"),
])
def test_non_finite_load_rejected(lambda1, lambda2, name):
    # a NaN load once passed, and mode_shape returned a shape full of NaN there
    with pytest.raises(InvalidInputError, match=rf"^{name} must be finite, got -?(nan|inf)$"):
        LoadPoint(lambda1, lambda2)


@pytest.mark.parametrize("field,value", [("L", 1e-300), ("ell", 1e300), ("omega", 1e300)])
def test_overflowing_group_rejected(field, value):
    # (ell / L)^2 and omega^2 raised a bare OverflowError
    base = dict(E=1.0, I=1.0, L=2.0, mu=1.0, ell=1.0, omega=1.0)
    with pytest.raises(InvalidInputError, match="^a dimensionless group overflows a float$"):
        nondimensionalize(PhysicalRod(**{**base, field: value}))


@pytest.mark.parametrize("fields,name", [
    ({"kappa": float("nan")}, "kappa"), ({"kappa": float("inf")}, "kappa"),
    ({"kappa": float("-inf")}, "kappa"), ({"kappa": 0.25, "alpha1": float("nan")}, "alpha1"),
    ({"kappa": 0.25, "alpha2": float("-inf")}, "alpha2"),
])
def test_non_finite_setup_rejected(fields, name):
    # RodSetup(kappa=nan) and RodSetup(0.25, alpha1=nan) once constructed
    with pytest.raises(InvalidInputError, match=rf"^{name} must be finite, got -?(nan|inf)$"):
        RodSetup(**fields)
