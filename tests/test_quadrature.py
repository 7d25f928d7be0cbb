import subprocess
import sys

import numpy as np
import pytest

from nanorod.errors import ConfigurationError, GridMismatchError, InadmissibleSlopeError
from nanorod.quadrature import Grid, cheb_cumint, cheb_diff, cheb_eval, cheb_nodes, cheb_rule
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


@pytest.mark.parametrize("n", [4, 16, 32, 64])
def test_chebyshev_matrices_exact_on_polynomials(n):
    # D, Q0 and Q1 act exactly (to roundoff, D's growing as n^2) on t^k, k <= n
    t = cheb_nodes(n)
    d = cheb_diff(n)
    q0, q1 = cheb_cumint(n)
    assert (t[0], t[-1]) == (0.0, 1.0) and np.all(np.diff(t) > 0.0)
    for k in range(n + 1):
        f = t**k
        slope = k * t ** max(k - 1, 0)
        assert np.max(np.abs(d @ f - slope)) <= 1e-15 * n**2 * max(1, k)
        assert np.max(np.abs(q0 @ f - t ** (k + 1) / (k + 1))) <= 1e-15
        assert np.max(np.abs(q1 @ f - (1.0 - t ** (k + 1)) / (k + 1))) <= 1e-15


@pytest.mark.parametrize("n", [4, 32, 64])
def test_chebyshev_integrals_anchored(n):
    q0, q1 = cheb_cumint(n)
    assert not q0[0].any() and not q1[n].any()
    # Q0 + Q1 integrates over the whole interval on every row
    np.testing.assert_allclose(q0 + q1, np.broadcast_to((q0 + q1)[n], q0.shape), atol=1e-15)


@pytest.mark.parametrize("n", [4, 32, 64])
def test_clenshaw_interpolates_node_values(n):
    t = cheb_nodes(n)
    # noise, the hardest case: its roundoff grows like n^2 near the ends
    for values in np.random.default_rng(n).standard_normal((3, n + 1)):
        tol = 1e-15 * n**2 * np.max(np.abs(values))
        assert np.max(np.abs(cheb_eval(values, t) - values)) <= tol


def test_clenshaw_evaluates_between_nodes():
    t = cheb_nodes(32)
    s = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(cheb_eval(np.cos(5.0 * t), s) - np.cos(5.0 * s))) < 1e-14


@pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 4.0, 6.0])
def test_chebyshev_integrals_of_cos_and_cosh(r):
    # relative to the integral's size: at r = 6, int cosh is ~34
    n = 32
    t = cheb_nodes(n)
    q0, q1 = cheb_cumint(n)
    for f, anti in ((np.cos, np.sin), (np.cosh, np.sinh)):
        left = anti(r * t) / r
        right = (anti(r) - anti(r * t)) / r
        scale = max(1.0, np.max(np.abs(right)))
        assert np.max(np.abs(q0 @ f(r * t) - left)) <= 1e-14 * scale
        assert np.max(np.abs(q1 @ f(r * t) - right)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [64, 128])
def test_cheb_rule_is_grid_quadrature_on_chebyshev_nodes(n):
    # Clenshaw-Curtis inner products and the spectral i1, exact on t^k, k <= n
    rule = cheb_rule(n)
    assert rule is cheb_rule(n) and rule.t is cheb_nodes(n)
    for k in range(n + 1):
        f = rule.t**k
        assert abs(rule.inner(f, np.ones_like(f)) - 1.0 / (k + 1)) <= 1e-15
        assert np.max(np.abs(rule.i1(f) - (1.0 - rule.t ** (k + 1)) / (k + 1))) <= 1e-15
    # an entire integrand to roundoff: int_0^1 sin^2(3 t) = 1/2 - sin 6 / 12
    s = np.sin(3.0 * rule.t)
    assert abs(rule.norm(s) ** 2 - (0.5 - np.sin(6.0) / 12.0)) <= 1e-15
    with pytest.raises(GridMismatchError):
        rule.inner(s, Grid(n).t[:-1])


def test_no_cheb_rule_is_built_at_import():
    body = ("import nanorod.cli, nanorod.quadrature as q; "
            "assert q.cheb_rule.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
