import numpy as np
import pytest

from nanorod.charcurve import find_fold, solve_lambda2
from nanorod.errors import DegenerateShapeError, DomainError
from nanorod.model import LoadPoint
from nanorod.modes import (
    adjoint_boundary_residuals,
    adjoint_kernel,
    linear_residual_L2,
    linear_residual_L4,
    mode_shape,
)
from conftest import critical_point


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

    def test_rejects_noncritical_point(self, grid):
        with pytest.raises(DomainError):
            mode_shape(LoadPoint(10.0, 0.5), 0.25, grid)

    def test_zero_lambda1_is_degenerate(self, grid):
        # r2 = 0 at lambda1 = 0: the closed forms divide by it
        p0 = LoadPoint(0.0, solve_lambda2(0.0, 0.25))
        for build in (lambda: mode_shape(p0, 0.25, grid),
                      lambda: adjoint_kernel(4, p0, 0.25, grid)):
            with pytest.raises(DegenerateShapeError):
                build()

    def test_branch_point_shape_second_mode_like(self, grid):
        from nanorod.bvp import mode_node_count
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
            l2y = (ydd - p25.lambda1 / denom * (grid.i2(y) - 0.25 * y)
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
                   - p25.lambda1 / denom * (grid.i2(y) - 0.25 * y)
                   - p25.lambda2 / denom * grid.i1(yd))
            lhs = np.gradient(np.gradient(l2y, grid.h, edge_order=2), grid.h, edge_order=2)
            d2 = np.gradient(yd, grid.h, edge_order=2)
            d4 = np.gradient(np.gradient(d2, grid.h, edge_order=2), grid.h, edge_order=2)
            co2 = (0.25 * p25.lambda1 + p25.lambda2) / denom
            rhs = d4 + co2 * d2 - p25.lambda1 / denom * y
            inner = slice(8, -8)
            assert np.max(np.abs((lhs - rhs)[inner])) < 1e-5 * max(1.0, np.max(np.abs(rhs)))
