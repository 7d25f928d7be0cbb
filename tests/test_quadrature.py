import numpy as np
import pytest

from nanorod.errors import ConfigurationError, GridMismatchError, InadmissibleSlopeError
from nanorod.quadrature import Grid
from oracles import i2, i3


def test_grid_requires_even_size():
    with pytest.raises(ConfigurationError):
        Grid(4095)


def test_i1_constant_exact(grid):
    out = grid.i1(np.ones_like(grid.t))
    assert np.max(np.abs(out - (1.0 - grid.t))) < 1e-14


def test_i1_linear_exact(grid):
    out = grid.i1(grid.t)
    assert np.max(np.abs(out - (1.0 - grid.t**2) / 2.0)) < 1e-12
    assert out[-1] == 0.0


def test_i1_matches_analytic_antiderivative(grid):
    # int_t^1 sin(3 tau) dtau = (cos(3 t) - cos 3) / 3
    out = grid.i1(np.sin(3.0 * grid.t))
    exact = (np.cos(3.0 * grid.t) - np.cos(3.0)) / 3.0
    assert np.max(np.abs(out - exact)) < 1e-10


def test_zero_slope_collapse(grid):
    one = np.ones_like(grid.t)
    zero = np.zeros_like(grid.t)
    np.testing.assert_allclose(i2(grid, one), (1.0 - grid.t) ** 2 / 2.0, atol=1e-12)
    np.testing.assert_allclose(i3(grid, one, zero), 0.0, atol=1e-15)
    np.testing.assert_allclose(grid.j1(zero), 1.0 - grid.t, atol=1e-13)
    np.testing.assert_allclose(grid.j2(one, zero), i2(grid, one), atol=1e-13)


def test_unit_slope_is_inadmissible(grid):
    with pytest.raises(InadmissibleSlopeError):
        grid.j1(np.ones_like(grid.t))


def test_all_operators_against_fine_trapezoid(grid):
    # z = sin(pi t)/4 against a one-million-panel trapezoid oracle
    z = np.sin(np.pi * grid.t) / 4.0
    zd = np.pi * np.cos(np.pi * grid.t) / 4.0
    tf = np.linspace(0.0, 1.0, 1_000_001)
    zf = np.sin(np.pi * tf) / 4.0
    zdf = np.pi * np.cos(np.pi * tf) / 4.0

    # oracle values on the coarse grid by interpolating the fine cumulative
    inc = np.concatenate(([0.0], np.cumsum((zf[1:] + zf[:-1]) / 2.0) / 1_000_000))
    i1_f = np.interp(grid.t, tf, inc[-1] - inc)
    assert np.max(np.abs(grid.i1(z) - i1_f)) < 1e-8

    inc2 = np.concatenate(([0.0], np.cumsum(((inc[-1] - inc)[1:] + (inc[-1] - inc)[:-1]) / 2.0) / 1_000_000))
    i2_f = np.interp(grid.t, tf, inc2[-1] - inc2)
    assert np.max(np.abs(i2(grid, z) - i2_f)) < 1e-8

    def oracle_right(integrand_fine):
        c = np.concatenate(([0.0], np.cumsum((integrand_fine[1:] + integrand_fine[:-1]) / 2.0) / 1_000_000))
        return np.interp(grid.t, tf, c[-1] - c)

    i1zf = inc[-1] - inc
    assert np.max(np.abs(i3(grid, z, zd) - oracle_right(zdf**2 * i1zf))) < 1e-8
    assert np.max(np.abs(grid.j1(zd) - oracle_right(np.sqrt(1.0 - zdf**2)))) < 1e-8
    assert np.max(np.abs(grid.j2(z, zd) - oracle_right(np.sqrt(1.0 - zdf**2) * i1zf))) < 1e-8


def test_inner_product_constants(grid):
    one = np.ones_like(grid.t)
    assert abs(grid.inner(one, one) - 1.0) < 1e-14
    assert abs(grid.inner(grid.t, grid.t) - 1.0 / 3.0) < 1e-14


def test_inner_product_grid_mismatch(grid):
    other = Grid(2048)
    with pytest.raises(GridMismatchError):
        grid.inner(grid.t, other.t)


def test_linearity_and_composition(grid):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(grid.n + 1)
    b = rng.standard_normal(grid.n + 1)
    lhs = grid.i1(2.0 * a - 3.0 * b)
    rhs = 2.0 * grid.i1(a) - 3.0 * grid.i1(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    assert np.max(np.abs(i2(grid, a) - grid.i1(grid.i1(a)))) == 0.0


def test_fourth_order_convergence():
    errors = []
    for n in (256, 512, 1024):
        g = Grid(n)
        out = g.i1(np.sin(3.0 * g.t))
        exact = (np.cos(3.0 * g.t) - np.cos(3.0)) / 3.0
        errors.append(np.max(np.abs(out - exact)))
    assert errors[0] / errors[1] > 12.0
    assert errors[1] / errors[2] > 12.0
