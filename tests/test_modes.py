import numpy as np
import pytest

from nanorod.charcurve import find_fold, solve_lambda2
from nanorod.errors import DegenerateShapeError, DomainError
from nanorod.model import LoadPoint
from nanorod.modes import _mode_profile, adjoint_kernel, chain_rule, linear_residual_L4, mode_shape
from nanorod.quadrature import ChebRule, Grid
from nanorod.reduction import reduction_coefficients
from nanorod.unfolding import unfolding_coefficients
from conftest import critical_point, fixture_curvature, fresh_rules
from oracles import adjoint_boundary_residuals, i2, i3, linear_residual_L2, mode_node_count


@pytest.fixture(scope="module")
def p25(grid_session=None):
    return critical_point(10.0, 0.25, near=0.682732)


@pytest.fixture(scope="module")
def p_axis():
    from nanorod.charcurve import solve_lambda1
    return LoadPoint(solve_lambda1(0.0, 0.25, bracket=(16.0, 17.0)), 0.0)


class TestModeShape:
    def test_clamped_end_conditions_exact(self, grid, p25):
        yL = mode_shape(p25, 0.25, grid)
        assert abs(yL(0.0)) < 1e-15
        assert abs(yL(0.0, 1)) < 1e-15

    def test_normalization_and_sign(self, grid, p25):
        yL = mode_shape(p25, 0.25, grid)
        assert grid.inner(yL(grid.t), yL(grid.t)) == pytest.approx(1.0, abs=1e-10)
        assert yL(0.0, 2) > 0.0

    def test_residual_at_axis_point(self, grid, p_axis):
        yL = mode_shape(p_axis, 0.25, grid)
        interior, boundary = linear_residual_L4(yL, p_axis, 0.25, grid)
        assert interior < 1e-6
        assert max(abs(b) for b in boundary) < 1e-8

    def test_root_within_probe_step_of_singularity(self, grid):
        # the 5th root at kappa 0.45, lambda1 5 lies 0.045 under 1/kappa, so the
        # scale probe at lambda2 + 0.05 would be inadmissible
        kappa = 0.45
        p0 = LoadPoint(5.0, solve_lambda2(5.0, kappa, which=5))
        assert 1.0 / kappa - 0.05 < p0.lambda2 < 1.0 / kappa
        yL = mode_shape(p0, kappa, grid)
        interior, boundary = linear_residual_L4(yL, p0, kappa, grid)
        assert interior < 1e-9
        assert max(abs(b) for b in boundary) < 1e-11
        for order in (2, 4):
            adjoint_kernel(order, p0, kappa, grid)

    def test_rejects_noncritical_point(self, grid):
        with pytest.raises(DomainError, match="not a critical point"):
            mode_shape(LoadPoint(10.0, 0.5), 0.25, grid)

    def test_nan_residual_is_not_critical(self, grid, p25, monkeypatch):
        # the critical-point test is fail-closed: NaN compares false both ways
        import nanorod.modes as modes
        monkeypatch.setattr(modes, "char_residual", lambda p, kappa: float("nan"))
        with pytest.raises(DomainError, match="not a critical point: residual nan"):
            mode_shape(p25, 0.25, grid)

    def test_zero_lambda1_is_degenerate(self, grid):
        # r2 = 0 at lambda1 = 0: the closed forms divide by it
        p0 = LoadPoint(0.0, solve_lambda2(0.0, 0.25))
        for build in (lambda: mode_shape(p0, 0.25, grid),
                      lambda: adjoint_kernel(4, p0, 0.25, grid)):
            with pytest.raises(DegenerateShapeError):
                build()

    def test_branch_point_shape_second_mode_like(self, grid):
        fold = find_fold(0.45, LoadPoint(8.3, 1.16))
        yL = mode_shape(fold, 0.45, grid)
        assert mode_node_count(yL, grid) == 1

    def test_kernel_one_dimensionality_proxy(self, grid, p25):
        # perturbing the normalization path must collapse to the same shape
        yL = mode_shape(p25, 0.25, grid)
        rebuilt = mode_shape(p25, 0.25, grid)
        ref = yL(grid.t)
        alt = -3.7 * rebuilt(grid.t)
        alt /= -np.sqrt(grid.inner(alt, alt)) * np.sign(-alt[2])
        alt *= np.sign(alt[2] * ref[2])
        assert np.max(np.abs(alt - ref)) < 1e-10


class TestAdjointKernels:
    def test_order4_clamped_conditions(self, grid, p25):
        q4 = adjoint_kernel(4, p25, 0.25, grid)
        assert abs(q4(0.0)) < 1e-15
        assert abs(q4(0.0, 1)) < 1e-15

    def test_order4_tip_conditions(self, grid, p25):
        q4 = adjoint_kernel(4, p25, 0.25, grid)
        res = adjoint_boundary_residuals(q4, grid)
        assert max(abs(r) for r in res) < 1e-8

    def test_order2_boundary_set(self, grid, p25):
        q2 = adjoint_kernel(2, p25, 0.25, grid)
        res = adjoint_boundary_residuals(q2, grid)
        assert max(abs(r) for r in res) < 1e-6

    def test_scaled_copy_keeps_metadata(self, grid, p25):
        q4 = adjoint_kernel(4, p25, 0.25, grid)
        s = q4.scaled(-2.0)
        assert (s.p0, s.kappa, s.order, s.r1, s.r2) == (q4.p0, q4.kappa, 4, q4.r1, q4.r2)
        for k in range(5):
            ref = q4(grid.t, k)
            assert np.max(np.abs(s(grid.t, k) + 2.0 * ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_order2_positive_near_zero(self, grid, p25):
        q2 = adjoint_kernel(2, p25, 0.25, grid)
        assert q2(grid.t[1]) > 0.0

    def test_interior_equation(self, grid, p25):
        # both kernels satisfy the fourth-order interior equation
        denom = 1.0 - 0.25 * p25.lambda2
        co2 = (0.25 * p25.lambda1 + p25.lambda2) / denom
        co0 = p25.lambda1 / denom
        for order in (2, 4):
            k = adjoint_kernel(order, p25, 0.25, grid)
            res = k(grid.t, 4) + co2 * k(grid.t, 2) - co0 * k(grid.t)
            assert np.max(np.abs(res)) < 1e-6

    def test_formal_adjoint_identity(self, grid, p25):
        # <L2 y, q> = 0 for smooth y with y(0) = y'(0) = 0: q2 spans the
        # range complement of the linearized operator
        q2 = adjoint_kernel(2, p25, 0.25, grid)
        denom = 1.0 - 0.25 * p25.lambda2
        t = grid.t
        for y, yd, ydd in [
            (t**2, 2 * t, np.full_like(t, 2.0)),
            (t**3 * np.sin(2 * t),
             3 * t**2 * np.sin(2 * t) + 2 * t**3 * np.cos(2 * t),
             6 * t * np.sin(2 * t) + 12 * t**2 * np.cos(2 * t) - 4 * t**3 * np.sin(2 * t)),
        ]:
            l2y = (ydd - p25.lambda1 / denom * (i2(grid, y) - 0.25 * y)
                   - p25.lambda2 / denom * grid.i1(yd))
            assert abs(grid.inner(l2y, q2(t))) < 1e-6


class TestLinearResiduals:
    def test_mode_satisfies_L2_form(self, grid, p25):
        yL = mode_shape(p25, 0.25, grid)
        assert linear_residual_L2(yL, p25, 0.25, grid) < 1e-6

    def test_second_derivative_links_formulations(self, grid, p25):
        # d^2/dt^2 (L2 y) = L4 y for smooth test functions
        rng = np.random.default_rng(3)
        denom = 1.0 - 0.25 * p25.lambda2
        t = grid.t
        for _ in range(5):
            a, b, c = rng.uniform(0.5, 2.0, 3)
            y = np.sin(a * t) * t**2 + b * t**3 + c * t**4
            yd = np.gradient(y, grid.h, edge_order=2)
            l2y = (np.gradient(yd, grid.h, edge_order=2)
                   - p25.lambda1 / denom * (i2(grid, y) - 0.25 * y)
                   - p25.lambda2 / denom * grid.i1(yd))
            lhs = np.gradient(np.gradient(l2y, grid.h, edge_order=2), grid.h, edge_order=2)
            d2 = np.gradient(yd, grid.h, edge_order=2)
            d4 = np.gradient(np.gradient(d2, grid.h, edge_order=2), grid.h, edge_order=2)
            co2 = (0.25 * p25.lambda1 + p25.lambda2) / denom
            rhs = d4 + co2 * d2 - p25.lambda1 / denom * y
            inner = slice(8, -8)
            assert np.max(np.abs((lhs - rhs)[inner])) < 1e-5 * max(1.0, np.max(np.abs(rhs)))


# (lambda1, kappa, near) of a lower-branch and an upper-branch critical point
SAMPLED_POINTS = ((10.0, 0.25, 0.682732), (5.0, 0.45, 1.61161))


def _shapes(p0, kappa, grid):
    return (mode_shape(p0, kappa, grid), adjoint_kernel(2, p0, kappa, grid),
            adjoint_kernel(4, p0, kappa, grid))


def _coefficients(p0, kappa, grid, yL=None):
    """(rc with q2, rc with q4, unfolding with q2), all read from the chain rule's memo."""
    y0, q2, q4 = _shapes(p0, kappa, grid)
    yL = y0 if yL is None else yL
    return (reduction_coefficients(p0, kappa, yL, q2, grid),
            reduction_coefficients(p0, kappa, yL, q4, grid),
            unfolding_coefficients(p0, kappa, yL, q2, fixture_curvature, grid))


def _reference_derivative(shape, t, k):
    """k-th derivative of a shape with every term evaluated on its own and the
    derivative's sign applied to the array: the reference that the
    shared-basis evaluation must match bit for bit."""
    cos_part = (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin)[k % 4]
    sin_part = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))[k % 4]
    cosh_part = (np.cosh, np.sinh)[k % 2]
    sinh_part = (np.sinh, np.cosh)[k % 2]
    s1, s2 = shape.r1**k, shape.r2**k
    return (shape.a * s1 * cos_part(shape.r1 * t) + shape.b * s2 * cosh_part(shape.r2 * t)
            + shape.c * s1 * sin_part(shape.r1 * t) + shape.d * s2 * sinh_part(shape.r2 * t))


class TestSampledPath:
    @pytest.mark.parametrize("l1, kappa, near", SAMPLED_POINTS)
    def test_grid_samples_bitwise_equal_to_call(self, grid, l1, kappa, near):
        p0 = critical_point(l1, kappa, near=near)
        for shape in _shapes(p0, kappa, grid):
            for k in range(5):
                ref = _reference_derivative(shape, grid.t, k)
                assert np.array_equal(shape(grid.t, k), ref), (shape.order, k)
                assert np.array_equal(shape.sample(grid, k), ref), (shape.order, k)

    def test_memo_follows_its_key(self):
        # the Chebyshev rules are shared by every chain, so a rule that held
        # another point's arrays must give what fresh rules give
        (la, ka, na), (lb, kb, nb) = SAMPLED_POINTS
        a = critical_point(la, ka, near=na)
        b = critical_point(lb, kb, near=nb)

        def cold(yL=None):
            fresh_rules()
            return _coefficients(a, ka, Grid(), yL)

        cold_a = cold()
        _coefficients(b, kb, Grid())
        assert _coefficients(a, ka, Grid()) == cold_a

        # a mirrored mode has the same point and wavenumbers but its own profile
        flipped = mode_shape(a, ka, Grid()).scaled(-1.0)
        warm_flipped = _coefficients(a, ka, Grid(), flipped)
        assert warm_flipped == cold(flipped)
        assert warm_flipped[0].c11 == -cold_a[0].c11

    def test_mode_profile_is_the_grid_operators_read_only(self, grid):
        # the profile the chain reads is its rule's operators on the mode
        (l1, kappa, near), _ = SAMPLED_POINTS
        p0 = critical_point(l1, kappa, near=near)
        yL = mode_shape(p0, kappa, grid)
        rule = chain_rule(yL, grid)
        assert isinstance(rule, ChebRule)
        held = _mode_profile(yL, rule)
        y, yd = yL(rule.t), yL(rule.t, 1)
        expected = (y, yd, rule.i1(y), i2(rule, y), rule.i1(yd), i3(rule, y, yd), rule.i1(yd**2))
        assert len(held) == len(expected)
        for arr, ref in zip(held, expected):
            assert np.array_equal(arr, ref)
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for _, arrays in rule._memo.values():
            assert not any(arr.flags.writeable for arr in arrays)
