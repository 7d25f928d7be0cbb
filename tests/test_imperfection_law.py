"""The reduction and unfolding constants against the nonlinear rod.

At a critical load p0 with only a shape imperfection alpha1 (the fixture
curvature) or only a tip load alpha2, the bifurcation equation reduces to
c3 a^3 + alpha1 d01 + alpha2 d02 = 0 (Golubitsky & Schaeffer, Singularities
and Groups in Bifurcation Theory I, 1985, ch. III).  So the collocated
equilibrium's projection a = <y, yL> should be cbrt(-alpha d0i / c3), with a
relative error O(a^2) = O(alpha^(2/3)).  On the perfect rod, along the
crossing path, the branch has a = sqrt(-(c11 dl1 + c12 dl2) / c3) to a
relative O(offset).  The order-2 kernel's constants (critical_chain's) pass
both laws; the order-4 kernel's fail them.
"""

import functools

import numpy as np
import pytest

from nanorod import bvp
from nanorod.bvp import _collocate, _mode_seed, solve_postbuckling
from nanorod.errors import NoConvergenceError
from nanorod.model import RodSetup
from nanorod.modes import adjoint_kernel
from nanorod.quadrature import Grid
from nanorod.reduction import (
    Verdict,
    amplitude_for_offsets,
    critical_chain,
    crossing_offsets,
    reduction_coefficients,
)
from nanorod.unfolding import unfolding_coefficients

from conftest import critical_point, fixture_curvature

GRID = Grid(512)
ALPHAS = (1e-4, 1e-5)
# acceptance criterion 10: (lambda1, kappa, lambda2 near)
UNFOLDING_POINTS = [(10.0, 0.25, 0.682732), (0.05, 0.45, 1.16776), (2.5, 0.45, 1.10261),
                    (5.0, 0.45, 1.05447), (7.0, 0.45, 1.04881), (7.5, 0.45, 1.05978),
                    (0.05, 0.45, 2.01637), (2.5, 0.45, 1.82714)]
# q2 Supercritical, q4 Subcritical: (lambda1, kappa, root index)
DISAGREEMENT_POINTS = [(2.5, 0.25, 1), (5.0, 0.25, 1), (1.5, 0.45, 1)]
# q2 Supercritical, q4 Subcritical, where Newton from q4's seed stops on the
# residual tolerance with max |theta| up to 6.7e-10, 1.3e-7 of its seed's
Q4_SIDE_POINTS = DISAGREEMENT_POINTS + [(6.0, 0.25, 1), (7.0, 0.25, 1), (1.1, 0.45, 1)]
# acceptance criterion 07's published subcritical claims
UPPER_POINTS = [(0.05, 0.45, 2), (2.5, 0.45, 2)]


@functools.lru_cache(maxsize=None)
def _chains(lambda1, kappa, near=None, which=1):
    """(p0, yL, (q2, rc2), (q4, rc4)) at the critical point."""
    p0 = critical_point(lambda1, kappa, near=near, which=which)
    yL, q2, rc2 = critical_chain(p0, kappa, GRID)
    q4 = adjoint_kernel(4, p0, kappa, GRID)
    return p0, yL, (q2, rc2), (q4, reduction_coefficients(p0, kappa, yL, q4, GRID))


def _projection(sol, yL):
    return GRID.inner(sol.trajectory.y, yL.sample(GRID))


@functools.lru_cache(maxsize=None)
def _imperfect(point, kind):
    """Per alpha in ALPHAS: (a = <y, yL> of the imperfect rod at p0, the q2
    law's amplitude, the q4 law's amplitude)."""
    p0, yL, *kernels = _chains(*point)
    out = []
    for alpha in ALPHAS:
        if kind == "alpha1":
            setup = RodSetup(kappa=point[1], alpha1=alpha, rho0=fixture_curvature)
        else:
            setup = RodSetup(kappa=point[1], alpha2=alpha)
        laws = []
        for q, rc in kernels:
            uc = unfolding_coefficients(p0, point[1], yL, q, fixture_curvature, GRID)
            d = uc.d01 if kind == "alpha1" else uc.d02
            laws.append(float(np.cbrt(-alpha * d / rc.c3)))
        sol = _collocate(p0, setup, *_mode_seed(yL, laws[0]), GRID)
        out.append((_projection(sol, yL), *laws))
    return out


@pytest.mark.parametrize("kind", ["alpha1", "alpha2"])
@pytest.mark.parametrize("point", UNFOLDING_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_q2_imperfection_law(point, kind):
    # measured: 1.4e-5 to 6.8e-4 at alpha = 1e-5, ratios 4.61 to 4.73
    # (10^(2/3) = 4.64)
    (a_coarse, q2_coarse, _), (a_fine, q2_fine, _) = _imperfect(point, kind)
    err_coarse, err_fine = abs(q2_coarse / a_coarse - 1.0), abs(q2_fine / a_fine - 1.0)
    assert err_fine < 1e-3
    assert 3.5 <= err_coarse / err_fine <= 6.0


@pytest.mark.parametrize("kind", ["alpha1", "alpha2"])
@pytest.mark.parametrize("point", UNFOLDING_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_q4_imperfection_law_misses(point, kind):
    # measured: q4's error is 288 to 49,000 times q2's at alpha = 1e-5, and
    # its alpha2 amplitude has the wrong sign at 7 of the 8 points
    for a, q2_law, q4_law in _imperfect(point, kind):
        assert abs(q4_law / a - 1.0) >= 10.0 * abs(q2_law / a - 1.0)


@pytest.mark.parametrize("point", DISAGREEMENT_POINTS + UPPER_POINTS,
                         ids=lambda p: "-".join(map(str, p)))
def test_branch_on_q2_side_with_sqrt_amplitude(point):
    # measured relative errors: 1.7e-4 to 6.5e-4 at delta = 1e-3, and ten
    # times less at 1e-4 (the law is O(delta))
    lambda1, kappa, which = point
    p0, yL, (_, rc2), (_, rc4) = _chains(lambda1, kappa, which=which)
    assert rc2.verdict is Verdict.SUPERCRITICAL
    errs = []
    for delta in (1e-3, 1e-4):
        offsets = crossing_offsets(rc2, delta, "along-lambda2")
        sol = solve_postbuckling(p0, kappa, delta, "along-lambda2", grid=GRID)
        a = _projection(sol, yL)
        errs.append(abs(a / amplitude_for_offsets(rc2, *offsets) - 1.0))
        assert errs[-1] < delta
        if point in DISAGREEMENT_POINTS:  # q4 puts no branch on this side
            q4_offsets = crossing_offsets(rc4, delta, "along-lambda2")
            assert amplitude_for_offsets(rc4, *q4_offsets) is None
    assert 7.0 <= errs[0] / errs[1] <= 13.0


@pytest.mark.parametrize("point", DISAGREEMENT_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_verdicts_disagree(point):
    lambda1, kappa, which = point
    _, _, (_, rc2), (_, rc4) = _chains(lambda1, kappa, which=which)
    assert (rc2.verdict, rc4.verdict) == (Verdict.SUPERCRITICAL, Verdict.SUBCRITICAL)


@pytest.mark.parametrize("point", Q4_SIDE_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_q4_side_collapses_to_straight_rod(point, monkeypatch):
    # measured: max |theta| 7.3e-20 to 6.7e-10 after 3 to 6 Newton steps,
    # at most 1.3e-7 of the seed's.  The Chebyshev tail of roundoff is no
    # test of resolution, so the straight rod is reported after the
    # CHEB_N + 1 node Newton alone.
    lambda1, kappa, which = point
    p0, yL, _, (_, rc4) = _chains(lambda1, kappa, which=which)
    calls = []
    newton = bvp._collocation_newton
    monkeypatch.setattr(bvp, "_collocation_newton",
                        lambda *a: calls.append(len(a[2])) or newton(*a))
    for delta in (-1e-3, -1e-4):
        dl1, dl2 = crossing_offsets(rc4, delta, "along-lambda2")
        amplitude = amplitude_for_offsets(rc4, dl1, dl2)
        for sign in (1, -1):
            calls.clear()
            seed = _mode_seed(yL, sign * amplitude)
            with pytest.raises(NoConvergenceError,
                               match="^collocation converged to the straight rod$"):
                _collocate(p0.offset(dl1, dl2), RodSetup(kappa=kappa), *seed, GRID)
            assert calls == [bvp.CHEB_N + 1]
