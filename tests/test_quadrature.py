import subprocess
import sys

import numpy as np
import pytest

from conftest import critical_point
from nanorod.bvp import CHEB_N, CHEB_TAIL, solve_postbuckling
from nanorod.errors import ConfigurationError, GridMismatchError, InadmissibleSlopeError
from nanorod.modes import CHAIN_TAIL, chain_rule
from nanorod.quadrature import Grid, cheb_rule
from nanorod.reduction import critical_chain
from oracles import clenshaw, i2, i3


def test_grid_requires_even_size():
    with pytest.raises(ConfigurationError):
        Grid(4095)


@pytest.mark.parametrize("n", [4.0, 4096.0, "4", None])
def test_grid_size_must_be_an_integer(n):
    # np.linspace raised a bare TypeError for a float size
    message = f"^grid size must be a positive even integer, got {n}$"
    with pytest.raises(ConfigurationError, match=message):
        Grid(n)


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
    rule = cheb_rule(n)
    t, d, q0, q1 = rule.t, rule.d, rule.q0, rule.q1
    assert (t[0], t[-1]) == (0.0, 1.0) and np.all(np.diff(t) > 0.0)
    for k in range(n + 1):
        f = t**k
        slope = k * t ** max(k - 1, 0)
        assert np.max(np.abs(d @ f - slope)) <= 1e-15 * n**2 * max(1, k)
        assert np.max(np.abs(q0 @ f - t ** (k + 1) / (k + 1))) <= 1e-15
        assert np.max(np.abs(q1 @ f - (1.0 - t ** (k + 1)) / (k + 1))) <= 1e-15


@pytest.mark.parametrize("n", [4, 32, 64])
def test_chebyshev_integrals_anchored(n):
    q0, q1 = cheb_rule(n).q0, cheb_rule(n).q1
    assert not q0[0].any() and not q1[n].any()
    # Q0 + Q1 integrates over the whole interval on every row
    np.testing.assert_allclose(q0 + q1, np.broadcast_to((q0 + q1)[n], q0.shape), atol=1e-15)


@pytest.mark.parametrize("n", [4, 32, 64])
def test_clenshaw_interpolates_node_values(n):
    rule = cheb_rule(n)
    # noise, the hardest case: its roundoff grows like n^2 near the ends
    for values in np.random.default_rng(n).standard_normal((3, n + 1)):
        tol = 1e-15 * n**2 * np.max(np.abs(values))
        assert np.max(np.abs(rule.eval(values, rule.t) - values)) <= tol


def test_clenshaw_evaluates_between_nodes():
    rule = cheb_rule(32)
    s = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(rule.eval(np.cos(5.0 * rule.t), s) - np.cos(5.0 * s))) < 1e-14


@pytest.mark.parametrize("n,other", [(32, 64), (64, 32)])
def test_basis_product_matches_clenshaw_oracle(n, other):
    # five smooth rows and one noise row in one stacked call, each within
    # 4 n eps sum |a_k| of Clenshaw's recurrence on its own coefficients
    rule = cheb_rule(n)
    t = rule.t
    rows = np.array([np.cos(5.0 * t), np.exp(-2.0 * t), t**3 - t, np.sin(np.pi * t) / 4.0,
                     1.0 / (1.0 + t**2), np.random.default_rng(n).standard_normal(n + 1)])
    for points in (Grid(4096).t, Grid(256).t, cheb_rule(other).t):
        out = rule.eval(rows, points)
        assert out.shape == (len(rows), len(points))
        for values, got in zip(rows, out):
            tol = 4 * n * np.finfo(float).eps * np.sum(np.abs(rule.coef @ values))
            assert np.max(np.abs(got - clenshaw(rule, values, points))) <= tol
        assert np.array_equal(rule.eval(-rows, points), -out)


@pytest.mark.parametrize("n", [32, 64])
def test_eval_on_a_grid_is_eval_at_its_points(n):
    rule = cheb_rule(n)
    rows = np.array([np.cos(5.0 * rule.t), np.random.default_rng(n).standard_normal(n + 1)])
    for grid in (Grid(4096), Grid(8), cheb_rule(2 * n)):
        assert np.array_equal(rule.eval(rows, grid), rule.eval(rows, grid.t))
        assert np.array_equal(rule.eval(rows[1], grid), rule.eval(rows[1], grid.t))


def test_grid_keeps_one_read_only_basis_per_rule_size(monkeypatch):
    import nanorod.quadrature as quadrature
    built, build = [], quadrature._chebyshev_basis
    monkeypatch.setattr(quadrature, "_chebyshev_basis",
                        lambda n, t: built.append(n) or build(n, t))
    grid, rule = Grid(256), cheb_rule(32)
    for k in range(5):
        rule.eval(np.cos(k * rule.t), grid)
    assert built == [32]
    basis, = grid.memo("cheb basis", 32, pytest.fail)  # held: no build
    assert basis.shape == (33, 257)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.0
    rule.eval(rule.t, grid.t)  # points, not a grid: built per call
    assert built == [32, 32]


def test_eval_rejects_rows_of_the_wrong_length():
    rule, s = cheb_rule(32), np.linspace(0.0, 1.0, 11)
    for values in (np.ones(32), np.ones(34), np.ones((5, 34)), np.ones((2, 5, 33))):
        with pytest.raises(GridMismatchError):
            rule.eval(values, s)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 4.0, 6.0])
def test_chebyshev_integrals_of_cos_and_cosh(r):
    # relative to the integral's size: at r = 6, int cosh is ~34
    rule = cheb_rule(32)
    t, q0, q1 = rule.t, rule.q0, rule.q1
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
    assert rule is cheb_rule(n)
    # the Lobatto nodes, within the roundoff of the cosine form, endpoints exact
    lobatto = 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
    np.testing.assert_allclose(rule.t, lobatto, rtol=0.0, atol=2.0**-51)
    assert (rule.t[0], rule.t[-1]) == (0.0, 1.0)
    for k in range(n + 1):
        f = rule.t**k
        assert abs(rule.inner(f, np.ones_like(f)) - 1.0 / (k + 1)) <= 1e-15
        assert np.max(np.abs(rule.i1(f) - (1.0 - rule.t ** (k + 1)) / (k + 1))) <= 1e-15
    # an entire integrand to roundoff: int_0^1 sin^2(3 t) = 1/2 - sin 6 / 12
    s = np.sin(3.0 * rule.t)
    assert abs(rule.norm(s) ** 2 - (0.5 - np.sin(6.0) / 12.0)) <= 1e-15
    with pytest.raises(GridMismatchError):
        rule.inner(s, Grid(n).t[:-1])


@pytest.mark.parametrize("n", [4, 32, 64, 128, 256])
def test_coefficients_of_chebyshev_polynomials_are_unit_vectors(n):
    # the samples of T_k(1 - 2t), by the three-term recurrence, map to e_k
    rule = cheb_rule(n)
    x = 1.0 - 2.0 * rule.t
    tk = [np.ones_like(x), x]
    while len(tk) <= n:
        tk.append(2.0 * x * tk[-1] - tk[-2])
    coef = np.array([rule.coef @ samples for samples in tk[: n + 1]])
    assert np.max(np.abs(coef - np.eye(n + 1))) <= 1e-15 * n


def test_resolved_flips_between_sizes_at_each_tail():
    # cos(65 t) is entire; its Chebyshev tail falls below CHEB_TAIL between
    # 32 and 64 intervals, and below CHAIN_TAIL between 64 and 128
    def resolved(n, tail):
        rule = cheb_rule(n)
        return rule.resolved(np.cos(65.0 * rule.t), tail)

    assert (resolved(CHEB_N, CHEB_TAIL), resolved(2 * CHEB_N, CHEB_TAIL)) == (False, True)
    assert (resolved(64, CHAIN_TAIL), resolved(128, CHAIN_TAIL)) == (False, True)


def test_every_rule_array_refuses_writes():
    rule = cheb_rule(16)
    arrays = {name: a for name, a in vars(rule).items() if isinstance(a, np.ndarray)}
    assert set(arrays) == {"t", "coef", "d", "q0", "q1", "weights"}
    for a in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_collocation_and_chain_rules_share_the_cache_without_eviction():
    # the collocation (32, 64 on a retry) and the chain (64, 128, 256) use at
    # most four sizes, so a chain on 128 nodes between two post-buckling
    # solves evicts none of the rules the second solve needs
    p0, grid = critical_point(10.0, 0.25, near=0.682732), Grid(256)
    solve_postbuckling(p0, 0.25, 0.5, grid=grid)
    high = critical_point(5.0, 0.45, which=10)
    y_l, _, _ = critical_chain(high, 0.45, grid)
    assert chain_rule(y_l, grid) is cheb_rule(128)
    misses = cheb_rule.cache_info().misses
    solve_postbuckling(p0, 0.25, 0.5, grid=grid)
    assert cheb_rule.cache_info().misses == misses


def test_no_cheb_rule_is_built_at_import():
    body = ("import nanorod.cli, nanorod.quadrature as q; "
            "assert q.cheb_rule.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
