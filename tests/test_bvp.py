import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nanorod import bvp
from nanorod.bvp import (
    SHOOT_TOL,
    _make_rhs,
    integrate,
    linear_shooting_determinant,
    node_count,
    residual_M2,
    shoot,
    solve_postbuckling,
    tip_deflection,
)
from nanorod.charcurve import eta_prime, solve_lambda2
from nanorod.errors import (
    ConstitutiveSingularityError,
    DomainError,
    InvalidInputError,
    NoConvergenceError,
    RegimeError,
    SingularDenominatorError,
)
from nanorod.model import LoadPoint, RodSetup
from nanorod.quadrature import Grid, cheb_rule
from nanorod.reduction import amplitude_for_offsets, critical_chain, crossing_offsets

from conftest import critical_point, fixture_curvature
from oracles import closed_form_moment


def _clamp_state(sol):
    """(v(0), m(0)) of the returned trajectory: the RK4 start that reproduces it."""
    return float(sol.trajectory.v[0]), float(sol.trajectory.m[0])


def _tip_residual(sol):
    """Largest violation of the tip conditions v(1) = alpha2 and m(1) = 0."""
    traj = sol.trajectory
    return max(abs(traj.v[-1] - sol.setup.alpha2), abs(traj.m[-1]))


@pytest.fixture(scope="module")
def bgrid():
    # shooting accuracy is step-limited well below tolerances at n = 1024
    return Grid(1024)


class TestRhs:
    def test_straight_configuration_is_stationary(self):
        setup = RodSetup(kappa=0.25)
        deriv = _make_rhs(LoadPoint(5.0, 1.0), setup)(0.3, 0.3, 0.0, 0.0, 0.0, 0.0)
        assert deriv == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_local_rod_closure(self):
        # kappa = 0: theta' = m + alpha1/rho0
        setup = RodSetup(kappa=0.0, alpha1=0.02, rho0=lambda t: 1.0 + 0.0 * t)
        deriv = _make_rhs(LoadPoint(5.0, 1.0), setup)(0.5, 0.0, 0.1, 0.2, 0.3, 0.4)
        assert deriv[2] == pytest.approx(0.4 + 0.02, rel=1e-14)

    def test_moment_closure_consistency_along_trajectory(self, bgrid):
        # m recomputed from the closed-form constitutive elimination, with
        # the curvature taken by finite differences of the sampled slope,
        # matches the integrated m on the interior of a nontrivial trajectory
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.3, grid=bgrid)
        recomputed = closed_form_moment(sol)
        gap = np.max(np.abs((recomputed - sol.trajectory.m)[1:-1]))
        assert gap < 1e-6


class TestIntegrate:
    def test_trivial_solution(self, bgrid):
        setup = RodSetup(kappa=0.25)
        traj = integrate(LoadPoint(2.0, 0.5), setup, 0.0, 0.0, grid=bgrid)
        assert np.max(np.abs(traj.y)) == 0.0
        assert traj.x[-1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("v0,m0", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_start_rejected(self, v0, m0):
        # the trajectory used to come back full of nan
        with pytest.raises(InvalidInputError, match="^v\\(0\\) and m\\(0\\) must be finite"):
            integrate(LoadPoint(2.0, 0.5), RodSetup(0.25), v0, m0, Grid(64))

    def test_shear_matches_quadrature_of_deflection(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.3, grid=bgrid)
        lhs = sol.trajectory.v
        rhs = sol.setup.alpha2 + sol.load.lambda1 * bgrid.i1(sol.trajectory.y)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_step_refinement(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.3, grid=bgrid)
        setup = RodSetup(kappa=0.25)
        coarse = integrate(sol.load, setup, *_clamp_state(sol), grid=Grid(1024))
        fine = integrate(sol.load, setup, *_clamp_state(sol), grid=Grid(2048))
        assert abs(coarse.y[-1] - fine.y[-1]) < 1e-8

    def test_inextensibility_structural(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.5, grid=bgrid)
        th = sol.trajectory.theta
        assert np.max(np.abs(np.cos(th) ** 2 + np.sin(th) ** 2 - 1.0)) < 1e-15


class TestShoot:
    def test_trivial_branch_from_zero_guess(self, bgrid):
        setup = RodSetup(kappa=0.25)
        sol = shoot(LoadPoint(5.0, 0.3), setup, 0.0, 0.0, grid=bgrid)
        assert tip_deflection(sol) == 0.0
        assert _tip_residual(sol) < 1e-9

    def test_tangential_offset_carries_small_branch(self, bgrid):
        # loads moved along the curve tangent: a small nontrivial solution
        # exists there as well (amplitude linear in the offset)
        p0 = critical_point(10.0, 0.25, near=0.682732)
        from nanorod.charcurve import eta_prime
        slope = eta_prime(p0, 0.25)
        p = p0.offset(0.5, slope * 0.5)
        setup = RodSetup(kappa=0.25)
        sol = shoot(p, setup, 0.05, 0.04, grid=bgrid)
        assert abs(tip_deflection(sol)) > 1e-3
        assert node_count(sol) == 0

    def test_imperfect_rod_linear_response(self, bgrid):
        # alpha = 0.01 response compared with the linearized inhomogeneous
        # problem solved by superposition
        kappa = 0.25
        setup = RodSetup(kappa=kappa, alpha1=0.01, alpha2=0.01, rho0=fixture_curvature)
        p = LoadPoint(2.0, 0.3)  # well below critical
        sol = shoot(p, setup, 0.0, 0.0, grid=bgrid)
        y_lin = _linear_imperfect_response(p, setup, bgrid)
        assert abs(tip_deflection(sol)) > 1e-4
        assert tip_deflection(sol) == pytest.approx(y_lin, rel=0.10)

    def test_nonconvergence_reports_last_iterate(self, bgrid):
        setup = RodSetup(kappa=0.45)
        with pytest.raises(NoConvergenceError) as err:
            shoot(LoadPoint(5.0, 1.0), setup, 40.0, -35.0, grid=bgrid)
        assert err.value.last_iterate is not None


# an initial state the integration cannot leave: (load, v0, m0, error, message)
BREAKDOWNS = [
    (LoadPoint(1.0, (1.0 - 1e-9) / 0.25), 0.0, 0.0, ConstitutiveSingularityError,
     "constitutive denominator vanished at t = 0.000000"),
    (LoadPoint(1.0, 0.5), 0.0, 50.0, RegimeError, r"\|theta\| reached pi/2 at t = 0.0312"),
]


class TestBreakdown:
    @pytest.mark.parametrize("p,v0,m0,error,message", BREAKDOWNS, ids=["closure", "theta"])
    def test_integrate_raises_regime_error(self, p, v0, m0, error, message):
        with pytest.raises(RegimeError, match=f"^{message}$") as err:
            integrate(p, RodSetup(0.25), v0, m0, Grid(64))
        assert type(err.value) is error

    @pytest.mark.parametrize("p,v0,m0,error,message", BREAKDOWNS, ids=["closure", "theta"])
    def test_shoot_reports_no_convergence(self, p, v0, m0, error, message):
        with pytest.raises(NoConvergenceError,
                           match=f"^initial guess not integrable: {message}$") as err:
            shoot(p, RodSetup(0.25), v0, m0, grid=Grid(64))
        assert type(err.value.__cause__) is error
        assert err.value.last_iterate == (v0, m0)


def _linear_imperfect_response(p, setup, grid):
    """Tip deflection of the linearized imperfect rod by shooting superposition.

    Linear system: y'' = (m + alpha1/rho0 - kappa l1 y) / (1 - kappa l2),
    v' = -l1 y, m' = -v - l2 y', with y(0) = y'(0) = 0, v(1) = alpha2, m(1) = 0.
    """
    kappa, l1, l2 = setup.kappa, p.lambda1, p.lambda2
    denom = 1.0 - kappa * l2

    def rhs(t, state, alpha1):
        y, yd, v, m = state
        curv = alpha1 * float(setup.rho0(t)) if alpha1 else 0.0
        ydd = (m + curv - kappa * l1 * y) / denom
        return np.array([yd, ydd, -l1 * y, -v - l2 * yd])

    def run(v0, m0, alpha1):
        n = 2000
        h = 1.0 / n
        s = np.array([0.0, 0.0, v0, m0])
        t = 0.0
        for _ in range(n):
            k1 = rhs(t, s, alpha1)
            k2 = rhs(t + h / 2, s + h / 2 * k1, alpha1)
            k3 = rhs(t + h / 2, s + h / 2 * k2, alpha1)
            k4 = rhs(t + h, s + h * k3, alpha1)
            s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return s

    base = run(0.0, 0.0, setup.alpha1)
    e1 = run(1.0, 0.0, 0.0)
    e2 = run(0.0, 1.0, 0.0)
    rhs_vec = np.array([setup.alpha2 - base[2], -base[3]])
    mat = np.array([[e1[2], e2[2]], [e1[3], e2[3]]])
    v0, m0 = np.linalg.solve(mat, rhs_vec)
    final = run(v0, m0, setup.alpha1)
    return float(final[0])


class TestPostbuckling:
    def test_fig6_style_point(self, bgrid):
        p0 = critical_point(0.05, 0.25, near=1.52248)
        sol = solve_postbuckling(p0, 0.25, 0.5, grid=bgrid)
        y = sol.trajectory.y
        assert node_count(sol) == 0
        assert abs(y[-1]) == max(abs(y.min()), abs(y.max()))
        assert sol.m2_residual < 1e-4

    def test_morphology_transition_across_branch_minimum(self, bgrid):
        below = critical_point(5.0, 0.45, near=1.05447)
        above = critical_point(7.5, 0.45, near=1.05978)
        sol_below = solve_postbuckling(below, 0.45, 0.02, "along-lambda2", grid=bgrid)
        sol_above = solve_postbuckling(above, 0.45, 0.02, "along-lambda2", grid=bgrid)
        assert node_count(sol_below) == 0
        assert node_count(sol_above) == 1

    def test_mode_built_once_per_solve(self, bgrid, monkeypatch):
        # the collocation seed reuses the mode of the reduction chain
        import nanorod.reduction as reduction
        calls = []
        build = reduction.mode_shape
        monkeypatch.setattr(reduction, "mode_shape", lambda *a: calls.append(a) or build(*a))
        p0 = critical_point(10.0, 0.25, near=0.682732)
        solve_postbuckling(p0, 0.25, 0.3, grid=bgrid)
        assert len(calls) == 1

    def test_mirror_pair(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        plus = solve_postbuckling(p0, 0.25, 0.3, sign=1, grid=bgrid)
        minus = solve_postbuckling(p0, 0.25, 0.3, sign=-1, grid=bgrid)
        assert np.max(np.abs(plus.trajectory.y + minus.trajectory.y)) < 1e-8
        assert np.max(np.abs(plus.trajectory.m + minus.trajectory.m)) < 1e-8

    def test_continuation_keeps_requested_sign(self, bgrid, monkeypatch):
        # at kappa = 0, lambda1 = 5 the direct solve from the mode seed fails
        # for dl1 = 4, so the offset is reached by the five-step continuation
        _check_continuation_pair(critical_point(5.0, 0.0), 6, bgrid, monkeypatch)

    def test_continuation_retries_from_unscaled_solution(self, bgrid, monkeypatch):
        # at kappa = 0, lambda1 = 1 the step-5 seed scaled by the sqrt law
        # leaves the |theta| < pi/2 regime; the step is retried from the
        # unscaled step-4 solution, one collocation solve more
        _check_continuation_pair(critical_point(1.0, 0.0), 7, bgrid, monkeypatch)

    @pytest.mark.parametrize("sign", [2, 0, 0.5, math.nan])
    def test_sign_other_than_one_rejected(self, sign):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        with pytest.raises(InvalidInputError, match="^sign must be \\+1 or -1, got "):
            solve_postbuckling(p0, 0.25, 0.3, sign=sign, grid=Grid(64))

    def test_trivial_side_returns_straight_rod(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, -0.3, grid=bgrid)
        # along-lambda1 offsets are (delta, -eta' delta)
        assert sol.load == p0.offset(-0.3, 0.3 * eta_prime(p0, 0.25))
        assert (sol.path, sol.newton_iterations) == ("trivial", 0)
        traj = sol.trajectory
        assert np.array_equal(traj.t, bgrid.t) and np.array_equal(traj.x, bgrid.t)
        for values in (traj.y, traj.theta, traj.v, traj.m):
            assert not np.any(values)
        assert len({id(a) for a in (traj.t, traj.x, traj.y, traj.theta, traj.v, traj.m)}) == 6
        assert residual_M2(sol) == sol.m2_residual == 0.0
        assert node_count(sol) == 0

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("direction", ["along-lambda1", "along-lambda2"])
    def test_non_finite_offset_rejected(self, delta, direction):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^delta must be finite, got -?(nan|inf)$"):
                solve_postbuckling(p0, 0.25, delta, direction, grid=Grid(64))

    def test_subnormal_offset_fails_as_no_convergence(self):
        # the direct solve from an amplitude of 1e-162 lands on the straight
        # rod, and the continuation's first offset delta / 25 underflows the
        # amplitude law's radicand to 0
        p0 = critical_point(10.0, 0.25, near=0.682732)
        with pytest.raises(NoConvergenceError,
                           match="^collocation converged to the straight rod$"):
            solve_postbuckling(p0, 0.25, 2e-323, "along-lambda2", grid=Grid(64))

    def test_supercritical_amplitude_scaling(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        ratios = []
        for dl1 in (0.1, 0.2, 0.3, 0.4, 0.5):
            sol = solve_postbuckling(p0, 0.25, dl1, grid=bgrid)
            ratios.append(abs(tip_deflection(sol)) / math.sqrt(dl1))
        assert max(ratios) / min(ratios) < 1.15

    def test_residual_sensitivity_to_perturbation(self, bgrid):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.3, grid=bgrid)
        base = residual_M2(sol)
        perturbed = sol.trajectory.y + 1e-3 * np.sin(np.pi * bgrid.t)
        sol.trajectory.y = perturbed
        bumped = residual_M2(sol)
        assert base < 1e-4
        assert bumped > base + 1e-4


def _check_continuation_pair(p0, solves, grid, monkeypatch):
    """Both signs at dl1 = 4 through the continuation: sign, residuals, mirror."""
    sols, solve = {}, bvp._collocate
    for sign in (1, -1):
        calls = []
        monkeypatch.setattr(bvp, "_collocate",
                            lambda *a, _f=solve, **k: calls.append(a) or _f(*a, **k))
        sols[sign] = solve_postbuckling(p0, 0.0, 4.0, sign=sign, grid=grid)
        assert len(calls) == solves
        assert sols[sign].path == "continuation"
        assert np.sign(tip_deflection(sols[sign])) == sign
        assert sols[sign].m2_residual < 1e-4
        assert _tip_residual(sols[sign]) < 1e-9
    assert np.max(np.abs(sols[1].trajectory.y + sols[-1].trajectory.y)) < 1e-8


# the criterion points of the post-buckling checks: (lambda1, kappa, which, delta, direction)
CRITERION_POINTS = [
    (10.0, 0.25, 1, 0.3, "along-lambda1"),
    (5.0, 0.45, 1, 0.02, "along-lambda2"),
    (5.0, 0.45, 2, 0.02, "along-lambda2"),
]


class TestDirectSolve:
    @pytest.mark.parametrize("l1,kappa,which,delta,direction", CRITERION_POINTS)
    def test_no_rk4_integrations(self, grid, monkeypatch, l1, kappa, which, delta, direction):
        # the mode seed at the nodes converges in a few collocation Newton
        # steps without a single RK4 integration
        p0 = critical_point(l1, kappa, which=which)
        calls = []
        run = bvp.integrate
        monkeypatch.setattr(bvp, "integrate",
                            lambda *a, _f=run, **k: calls.append(a) or _f(*a, **k))
        sol = solve_postbuckling(p0, kappa, delta, direction, grid=grid)
        assert sol.path == "direct"
        assert calls == []
        assert sol.newton_iterations <= 4

    # the criterion points, and one that retries on 2 * CHEB_N + 1 nodes
    @pytest.mark.parametrize("l1,kappa,which,delta,direction",
                             CRITERION_POINTS + [(10.0, 0.1, 2, 1.0, "along-lambda1")])
    def test_one_jacobian_per_newton_step(self, monkeypatch, l1, kappa, which, delta, direction):
        # none at the converged iterate, none at a rejected line-search trial
        p0 = critical_point(l1, kappa, which=which)
        built, build = [], bvp._collocation_jacobian
        monkeypatch.setattr(bvp, "_collocation_jacobian",
                            lambda *a: built.append(a) or build(*a))
        sol = solve_postbuckling(p0, kappa, delta, direction, grid=Grid(256))
        assert sol.path == "direct"
        assert len(built) == sol.newton_iterations

    def test_ten_solves_sample_with_one_basis(self, monkeypatch):
        # the basis T_0 ... T_32 at the grid's points is built by the first
        # solve and kept in the grid's memo for the other nine
        import nanorod.quadrature as quadrature
        grid, built, build = Grid(1024), [], quadrature._chebyshev_basis
        monkeypatch.setattr(quadrature, "_chebyshev_basis",
                            lambda n, t: built.append((n, np.size(t))) or build(n, t))
        p0 = critical_point(10.0, 0.25, near=0.682732)
        for k in range(10):
            solve_postbuckling(p0, 0.25, 0.05 * (k + 1), sign=(-1) ** k, grid=grid)
        assert [b for b in built if b[1] == grid.n + 1] == [(bvp.CHEB_N, grid.n + 1)]

    @pytest.mark.parametrize("l1,kappa,which,delta,direction", CRITERION_POINTS)
    def test_matches_shooting(self, grid, l1, kappa, which, delta, direction):
        # shooting from the collocation solution's own (v(0), m(0)) on the same
        # grid stays on it, to within the shooting tolerance's effect
        p0 = critical_point(l1, kappa, which=which)
        for sign in (1, -1):
            sol = solve_postbuckling(p0, kappa, delta, direction, sign=sign, grid=grid)
            ref = shoot(sol.load, sol.setup, *_clamp_state(sol), grid=grid)
            assert len(sol.trajectory.y) == grid.n + 1
            assert np.max(np.abs(sol.trajectory.y - ref.trajectory.y)) <= 1e-8
            assert _tip_residual(sol) < SHOOT_TOL


# the collocation accuracy points: Fig. 6 shapes at kappa 0.25, and both sides
# of the branch minimum at kappa 0.45 with the second root at lambda1 5
COLLOCATION_POINTS = [
    (0.05, 0.25, 1, 0.5, "along-lambda1"),
    (10.0, 0.25, 1, 0.5, "along-lambda1"),
    (15.0, 0.25, 1, 0.5, "along-lambda1"),
    (5.0, 0.45, 1, 0.02, "along-lambda2"),
    (5.0, 0.45, 2, 0.02, "along-lambda2"),
    (7.5, 0.45, 1, 0.02, "along-lambda2"),
]


class TestCollocation:
    @pytest.mark.parametrize("l1,kappa,which,delta,direction", COLLOCATION_POINTS)
    def test_tip_conditions_and_sampling(self, l1, kappa, which, delta, direction):
        # a fine RK4 shot from the returned (v(0), m(0)) meets both tip conditions;
        # the clamp samples are exact zeros on every grid
        p0 = critical_point(l1, kappa, which=which)
        for sign in (1, -1):
            for n in (256, 1024, 4096):
                grid = Grid(n)
                sol = solve_postbuckling(p0, kappa, delta, direction, sign=sign, grid=grid)
                traj = sol.trajectory
                assert len(traj.y) == grid.n + 1
                assert (traj.x[0], traj.y[0], traj.theta[0]) == (0.0, 0.0, 0.0)
            fine = integrate(sol.load, sol.setup, *_clamp_state(sol), grid=Grid(16384))
            assert abs(fine.v[-1] - sol.setup.alpha2) <= 1e-11
            assert abs(fine.m[-1]) <= 1e-11

    def test_seed_outside_regime_reports_no_convergence(self):
        theta, m = np.zeros(bvp.CHEB_N + 1), np.zeros(bvp.CHEB_N + 1)
        theta[-1] = 0.5 * math.pi
        with pytest.raises(NoConvergenceError,
                           match="^collocation seed leaves the regime at a node$"):
            bvp._collocate(LoadPoint(1.0, 0.5), RodSetup(0.25), theta, m, grid=Grid(64))

    @pytest.mark.parametrize("rho0", [
        fixture_curvature,
        pytest.param(lambda t: 1.0, id="constant"),
    ])
    @pytest.mark.parametrize("load", [LoadPoint(2.0, 0.3), LoadPoint(10.0, 0.6)],
                             ids=["far", "near"])
    def test_imperfect_rod_matches_shooting(self, rho0, load):
        # the alpha1 and alpha2 terms of the collocation system against RK4
        # shooting; both take the scalar rho0 of a constant profile
        setup = RodSetup(kappa=0.25, alpha1=0.01, alpha2=0.01, rho0=rho0)
        grid = Grid(1024)
        zero = np.zeros(bvp.CHEB_N + 1)
        sol = bvp._collocate(load, setup, zero, zero, grid=grid)
        ref = shoot(load, setup, 0.0, 0.0, grid=grid)
        assert abs(tip_deflection(sol)) > 1e-4
        assert sol.newton_iterations <= 5
        assert np.max(np.abs(sol.trajectory.y - ref.trajectory.y)) <= 1e-10

    def test_unresolved_tail_raises(self, monkeypatch):
        # with a tail threshold no interpolant meets, the 2 * CHEB_N retry
        # runs and the failure says so instead of returning the solution
        p0 = critical_point(10.0, 0.25, near=0.682732)
        grid = Grid(256)
        yL, _, rc = critical_chain(p0, 0.25, grid)
        dl1, dl2 = crossing_offsets(rc, 0.3, "along-lambda1")
        theta, m = bvp._mode_seed(yL, amplitude_for_offsets(rc, dl1, dl2))
        monkeypatch.setattr(bvp, "CHEB_TAIL", 0.0)
        with pytest.raises(NoConvergenceError, match=f"on {2 * bvp.CHEB_N + 1} Chebyshev nodes"):
            bvp._collocate(p0.offset(dl1, dl2), RodSetup(0.25), theta, m, grid=grid)

    def test_unresolved_tail_retries_on_twice_the_nodes(self):
        # at kappa 0.1, lambda1 10, root 2 the theta tail of the CHEB_N solve
        # is ~9e-10, above CHEB_TAIL: Newton restarts on 2 * CHEB_N + 1 nodes,
        # resolves there, and the solution meets the tip conditions
        p0, grid = critical_point(10.0, 0.1, which=2), Grid(1024)
        yL, _, rc = critical_chain(p0, 0.1, grid)
        dl1, dl2 = crossing_offsets(rc, 1.0, "along-lambda1")
        seed = bvp._mode_seed(yL, amplitude_for_offsets(rc, dl1, dl2))
        theta, _, coarse_steps = bvp._collocation_newton(p0.offset(dl1, dl2), RodSetup(0.1), *seed)
        assert not cheb_rule(bvp.CHEB_N).resolved(theta, bvp.CHEB_TAIL)
        sol = solve_postbuckling(p0, 0.1, 1.0, grid=grid)
        assert sol.path == "direct" and sol.newton_iterations > coarse_steps
        traj = sol.trajectory
        assert (traj.x[0], traj.y[0], traj.theta[0]) == (0.0, 0.0, 0.0)
        fine = integrate(sol.load, sol.setup, *_clamp_state(sol), grid=Grid(16384))
        assert abs(fine.v[-1] - sol.setup.alpha2) <= 1e-11
        assert abs(fine.m[-1]) <= 1e-11

    def test_solve_loads_no_numpy_polynomial(self):
        body = ("import sys\n"
                "import nanorod.cli\n"
                "from nanorod import bvp, charcurve, model, quadrature\n"
                "p0 = model.LoadPoint(10.0, charcurve.solve_lambda2(10.0, 0.25))\n"
                "bvp.solve_postbuckling(p0, 0.25, 0.3, grid=quadrature.Grid(256))\n"
                "sys.exit('numpy.polynomial' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestResidualM2:
    def test_trivial_solution_zero(self, bgrid):
        setup = RodSetup(kappa=0.25)
        sol = shoot(LoadPoint(5.0, 0.3), setup, 0.0, 0.0, grid=bgrid)
        assert residual_M2(sol) < 1e-10

    def test_finite_difference_converges_to_the_spectral_residual(self):
        # on the README solve the stencil's O(h^2) error falls 4x per grid
        # doubling, toward the collocation's spectral residual
        p0 = critical_point(10.0, 0.25, near=0.682732)
        fd = []
        for n in (1024, 2048, 4096):
            sol = solve_postbuckling(p0, 0.25, 0.5, grid=Grid(n))
            assert sol.m2_residual < 1e-11
            fd.append(residual_M2(sol))
        for coarse, fine in zip(fd, fd[1:]):
            assert 3.5 < coarse / fine < 4.5
        assert fd[-1] > 1e3 * sol.m2_residual

    @pytest.mark.parametrize("state", ["t", "x", "y", "theta", "v", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, state, value):
        p0 = critical_point(10.0, 0.25, near=0.682732)
        sol = solve_postbuckling(p0, 0.25, 0.5, grid=Grid(64))
        getattr(sol.trajectory, state)[32] = value
        for metric in (residual_M2, node_count, tip_deflection):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError,
                                   match=f"^trajectory.{state} holds a non-finite sample$"):
                    metric(sol)


class TestLinearShootingDeterminant:
    def test_brackets_known_root(self):
        lo = linear_shooting_determinant(LoadPoint(10.0, 0.66), 0.25)
        hi = linear_shooting_determinant(LoadPoint(10.0, 0.70), 0.25)
        assert lo * hi < 0.0

    def test_euler_limit(self):
        from scipy.optimize import brentq
        det = lambda x: linear_shooting_determinant(LoadPoint(1e-8, x), 0.0)
        root = brentq(det, 2.0, 3.0, xtol=1e-12)
        assert root == pytest.approx(math.pi**2 / 4.0, abs=1e-3)

    def test_nonzero_off_curve(self):
        val = linear_shooting_determinant(LoadPoint(7.3, 0.41), 0.25)
        assert abs(val) > 1e-12

    @pytest.mark.parametrize("l1,l2,kappa", [(10.0, 0.68, 0.25), (5.0, 1.6, 0.45),
                                             (3.0, -0.5, 0.0)])
    def test_matches_stepwise_rk4(self, l1, l2, kappa):
        # the matrix-power form against classical RK4 applied step by step
        n = bvp.DETERMINANT_STEPS
        denom = 1.0 - kappa * l2
        co2, co0 = (kappa * l1 + l2) / denom, l1 / denom
        h = 1.0 / n

        def rhs(s):
            return np.array([s[1], s[2], s[3], -co2 * s[2] + co0 * s[0]])

        cols = []
        for ic in ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)):
            s = np.array(ic)
            for _ in range(n):
                k1 = rhs(s)
                k2 = rhs(s + 0.5 * h * k1)
                k3 = rhs(s + 0.5 * h * k2)
                k4 = rhs(s + h * k3)
                s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            cols.append((s[2] * denom + kappa * l1 * s[0],
                         s[3] * denom + (kappa * l1 + l2) * s[1]))
        stepwise = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        det = linear_shooting_determinant(LoadPoint(l1, l2), kappa)
        assert det == pytest.approx(stepwise, rel=1e-10)

    @pytest.mark.parametrize("rel", [1e-6, 1e-8])
    @pytest.mark.parametrize("kappa,which,bracket", [
        (0.0, 9, None),  # lambda2 713.07, 2048 steps
        (1e-6, 1, (611679.0, 611680.0)),  # family 200, 65536 steps
    ], ids=["kappa0-root9", "kappa1e-6-family200"])
    def test_resolves_far_family_roots(self, kappa, which, bracket, rel):
        # at 512 steps the first root lay 1.2e-7 relative above F's and the
        # second kept one sign within +-1 of F's sign change
        root = solve_lambda2(1.0, kappa, which=which, bracket=bracket)
        lo = linear_shooting_determinant(LoadPoint(1.0, root * (1.0 - rel)), kappa)
        hi = linear_shooting_determinant(LoadPoint(1.0, root * (1.0 + rel)), kappa)
        assert lo * hi < 0.0

    @pytest.mark.parametrize("p,kappa,error,message", [
        # kappa lambda1 overflows while 1 - kappa lambda2 stays positive
        (LoadPoint(1e300, 1e-11), 1e10, DomainError, r"^max\(r1, r2\) = inf needs over "),
        # 2**339 steps, and a result of -8.0e-317, before the cap
        (LoadPoint(1.0, 1e200), 0.0, DomainError, r"^max\(r1, r2\) = 1\.000e\+100 needs over"),
        (LoadPoint(1.0, 4.0), 0.25, SingularDenominatorError, r"^1 - kappa\*lambda2 = 0\.000e\+00"),
        (LoadPoint(1.0, 1.0), math.nan, InvalidInputError, "^kappa must be finite, got nan$"),
        (LoadPoint(1.0, 1.0), math.inf, InvalidInputError, "^kappa must be finite, got inf$"),
        (LoadPoint(1.0, 1.0), -math.inf, InvalidInputError, "^kappa must be finite, got -inf$"),
    ], ids=["overflow", "step-cap", "singular", "kappa-nan", "kappa-inf", "kappa-minus-inf"])
    def test_refuses_instead_of_nan(self, p, kappa, error, message):
        with pytest.raises(error, match=message):
            linear_shooting_determinant(p, kappa)

    def test_agrees_with_char_residual_roots(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(42)
        for _ in range(10):
            kappa = rng.uniform(0.0, 0.35)
            l1 = rng.uniform(0.5, 12.0)
            r_char = solve_lambda2(l1, kappa)
            det = lambda x: linear_shooting_determinant(LoadPoint(l1, x), kappa)
            r_det = brentq(det, r_char - 0.05, r_char + 0.05, xtol=1e-13)
            assert abs(r_char - r_det) < 1e-6


class TestMorphologyMetrics:
    def test_trivial_metrics(self, bgrid):
        setup = RodSetup(kappa=0.25)
        sol = shoot(LoadPoint(5.0, 0.3), setup, 0.0, 0.0, grid=bgrid)
        assert tip_deflection(sol) == 0.0
        assert node_count(sol) == 0
