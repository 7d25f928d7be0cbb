import numpy as np
import pytest

from nanorod.charcurve import find_fold
from nanorod.errors import FoldPointError, InvalidInputError
from nanorod.model import LoadPoint
from nanorod.modes import adjoint_kernel, mode_shape
from nanorod.quadrature import Grid
from nanorod.reduction import (
    Verdict,
    amplitude_for_offsets,
    crossing_offsets,
    reduction_coefficients,
)

from conftest import critical_point
from oracles import i2


def build_rc(lambda1, kappa, near, grid, order=2, which=1):
    p0 = critical_point(lambda1, kappa, near=near, which=which)
    yL = mode_shape(p0, kappa, grid)
    q = adjoint_kernel(order, p0, kappa, grid)
    return p0, yL, q, reduction_coefficients(p0, kappa, yL, q, grid)


class TestCoefficients:
    def test_supercritical_benchmark_point(self, grid):
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        assert rc.verdict is Verdict.SUPERCRITICAL
        assert rc.epsilon * rc.delta == -1

    def test_subcritical_claims_resolve_supercritical(self, grid):
        # the nonlinear equilibrium branch at these upper-branch points lives
        # on the destabilizing side with sqrt scaling, so the crossing-path
        # classification reports supercritical here as well
        for l1, near in ((0.05, 2.01637), (2.5, 1.82714)):
            _, _, _, rc = build_rc(l1, 0.45, near, grid)
            assert rc.verdict is Verdict.SUPERCRITICAL

    def test_tangential_coefficient_vanishes(self, grid):
        # the adjoint kernel annihilates the range of the linearization, so
        # the slope-weighted combination c11 + c12 eta' is exactly zero on
        # the curve; with exact partials in eta' only roundoff remains
        # (1e-15 to 1.4e-14 of the scale; finite differences left 4e-11 to 9e-10)
        for l1, kappa, near in ((10.0, 0.25, 0.682732), (5.0, 0.45, 1.05447),
                                (2.5, 0.45, 1.82714)):
            _, _, _, rc = build_rc(l1, kappa, near, grid)
            scale = abs(rc.c11) + abs(rc.c12 * rc.eta_prime)
            assert abs(rc.tangential_coefficient) < 1e-13 * scale

    def test_crossing_coefficient_identity(self, grid):
        # with c11 = -c12 eta' on the curve, the normal-crossing coefficient
        # collapses to c12 (1 + eta'^2)
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        assert rc.crossing_coefficient == pytest.approx(
            rc.c12 * (1.0 + rc.eta_prime**2), rel=1e-6)

    def test_c13_shares_c12_integral(self, grid):
        # c12's second term and c13 are built from the same inner product
        p0, yL, q, rc = build_rc(10.0, 0.25, 0.682732, grid)
        kappa = 0.25
        x = 1.0 - kappa * p0.lambda2
        first = -grid.inner(grid.i1(yL(grid.t, 1)), q(grid.t)) / x
        second = rc.c12 - first
        assert rc.c13 == pytest.approx(-kappa / x * second, rel=1e-10)

    def test_kappa_zero_formula_collapse(self, grid):
        # independent implementation with every kappa term struck out
        kappa = 0.0
        p0 = critical_point(5.0, kappa)
        yL = mode_shape(p0, kappa, grid)
        q = adjoint_kernel(2, p0, kappa, grid)
        rc = reduction_coefficients(p0, kappa, yL, q, grid)

        t = grid.t
        yv, yd, qv = yL(t), yL(t, 1), q(t)
        l1, l2 = p0.lambda1, p0.lambda2
        c11 = -grid.inner(i2(grid, yv), qv)
        c12 = -grid.inner(grid.i1(yd), qv)
        i3 = grid.i1(yd**2 * grid.i1(yv))
        c3 = grid.inner(0.5 * (l1 * (i3 + yd**2 * i2(grid, yv)) + l2 * yd**2 * grid.i1(yd)), qv)
        assert rc.c11 == pytest.approx(c11, abs=1e-8)
        assert rc.c12 == pytest.approx(c12, abs=1e-8)
        assert rc.c13 == 0.0
        assert rc.c3 == pytest.approx(c3, abs=1e-8)

    def test_fold_point_rejected(self, grid):
        fold = find_fold(0.45, LoadPoint(8.3, 1.16))
        yL = mode_shape(fold, 0.45, grid)
        q = adjoint_kernel(2, fold, 0.45, grid)
        with pytest.raises(FoldPointError):
            reduction_coefficients(fold, 0.45, yL, q, grid)

    def test_grid_refinement_stability(self):
        coarse = Grid(2048)
        fine = Grid(4096)
        vals = {}
        for g in (coarse, fine):
            _, _, _, rc = build_rc(10.0, 0.25, 0.682732, g)
            vals[g.n] = (rc.c11, rc.c12, rc.c13, rc.c3)
        for a, b in zip(vals[2048], vals[4096]):
            assert a == pytest.approx(b, rel=1e-6)


class TestInvariances:
    def test_gauge_flip(self, grid):
        # negating the kernel flips every coefficient but not the verdict
        p0 = critical_point(10.0, 0.25, near=0.682732)
        yL = mode_shape(p0, 0.25, grid)
        q = adjoint_kernel(2, p0, 0.25, grid)
        rc = reduction_coefficients(p0, 0.25, yL, q, grid)
        flipped = q.scaled(-1.0)
        rcf = reduction_coefficients(p0, 0.25, yL, flipped, grid)
        assert rcf.c11 == pytest.approx(-rc.c11, rel=1e-12)
        assert rcf.c12 == pytest.approx(-rc.c12, rel=1e-12)
        assert rcf.c13 == pytest.approx(-rc.c13, rel=1e-12)
        assert rcf.c3 == pytest.approx(-rc.c3, rel=1e-12)
        assert rcf.verdict is rc.verdict

    def test_mode_scale_invariance(self, grid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        yL = mode_shape(p0, 0.25, grid)
        q = adjoint_kernel(2, p0, 0.25, grid)
        rc = reduction_coefficients(p0, 0.25, yL, q, grid)
        s = 1.7
        scaled = yL.scaled(s)
        rcs = reduction_coefficients(p0, 0.25, scaled, q, grid)
        assert rcs.c11 == pytest.approx(s * rc.c11, rel=1e-12)
        assert rcs.c3 == pytest.approx(s**3 * rc.c3, rel=1e-12)
        assert rcs.verdict is rc.verdict

    def test_q2_q4_verdicts_agree(self, grid):
        for l1, kappa, near, which in (
            (10.0, 0.25, 0.682732, 1),
            (5.0, 0.45, 1.05447, 1),
            (5.0, 0.45, 1.61161, 2),
            (0.05, 0.45, 2.01637, 2),
        ):
            _, _, _, rc2 = build_rc(l1, kappa, near, grid, order=2, which=which)
            _, _, _, rc4 = build_rc(l1, kappa, near, grid, order=4, which=which)
            assert rc2.verdict is rc4.verdict


def lambda1_amplitude(rc, dl1):
    """Amplitude law along the crossing path (dl1, -eta' dl1)."""
    return amplitude_for_offsets(rc, *crossing_offsets(rc, dl1, "along-lambda1"))


class TestClassifyAndAmplitude:
    def test_sign_table(self, grid):
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        expected = Verdict.SUPERCRITICAL if rc.epsilon * rc.delta < 0 else Verdict.SUBCRITICAL
        assert rc.verdict is expected
        assert rc.epsilon == int(np.sign(rc.c3))
        assert rc.delta == int(np.sign(rc.crossing_coefficient))

    def test_zero_offset_amplitude(self, grid):
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        assert lambda1_amplitude(rc, 0.0) is None

    def test_unknown_direction_rejected(self, grid):
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        with pytest.raises(InvalidInputError, match="^unknown offset direction 'sideways'$"):
            crossing_offsets(rc, 0.1, "sideways")

    def test_wrong_side_returns_none(self, grid):
        _, _, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        good = lambda1_amplitude(rc, 0.3)
        bad = lambda1_amplitude(rc, -0.3)
        assert good is not None and good > 0.0
        assert bad is None

    def test_amplitude_matches_bvp_tip(self, grid):
        from nanorod.bvp import solve_postbuckling, tip_deflection
        p0, yL, _, rc = build_rc(10.0, 0.25, 0.682732, grid)
        for dl1 in (0.05, 0.2, 0.5):
            a = lambda1_amplitude(rc, dl1)
            sol = solve_postbuckling(p0, 0.25, dl1, "along-lambda1", grid=grid)
            predicted = a * abs(float(yL(1.0)))
            assert abs(tip_deflection(sol)) == pytest.approx(predicted, rel=1.0)
