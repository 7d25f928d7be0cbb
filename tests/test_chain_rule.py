"""The critical-point chain on its Chebyshev rule, against composite Simpson
on 65,536 panels (the reference) and on the default 4,096 panels."""

import numpy as np
import pytest

from nanorod import modes
from nanorod.modes import adjoint_kernel, chain_rule, mode_shape
from nanorod.quadrature import ChebRule, Grid, cheb_rule
from nanorod.reduction import reduction_coefficients
from nanorod.unfolding import unfolding_coefficients

from conftest import critical_point, fixture_curvature

# the criterion 07 and 10 points: (lambda1, kappa, near)
ACCEPTANCE_POINTS = [
    (10.0, 0.25, 0.682732), (0.05, 0.45, 1.16776), (2.5, 0.45, 1.10261),
    (5.0, 0.45, 1.05447), (7.0, 0.45, 1.04881), (7.5, 0.45, 1.05978),
    (0.05, 0.45, 2.01637), (2.5, 0.45, 1.82714),
]
D_NAMES = ("d01", "d02", "d11", "d12", "d21", "d22", "d31", "d32", "d33", "d34", "d35", "d36")


def kinked_curvature(t):
    """A piecewise-linear profile, as a --profile file gives."""
    return np.interp(t, [0.0, 0.3, 0.7, 1.0], [0.0, 1.0, -0.5, 0.2])


def _values(p0, kappa, grid, rho0=fixture_curvature):
    """c11, c12, c13, c3 with q2 and with q4, then the integrated d-constants."""
    yL = mode_shape(p0, kappa, grid)
    out = []
    for order in (2, 4):
        q = adjoint_kernel(order, p0, kappa, grid)
        rc = reduction_coefficients(p0, kappa, yL, q, grid)
        out += [rc.c11, rc.c12, rc.c13, rc.c3]
    uc = unfolding_coefficients(p0, kappa, yL, adjoint_kernel(2, p0, kappa, grid), rho0, grid)
    return np.array(out + [getattr(uc, name) for name in D_NAMES])


def _simpson_values(monkeypatch, p0, kappa, n, rho0=fixture_curvature):
    """The chain on Grid(n) by composite Simpson: an empty ladder leaves only the grid."""
    with monkeypatch.context() as m:
        m.setattr(modes, "CHAIN_LADDER", ())
        return _values(p0, kappa, Grid(n), rho0)


@pytest.mark.parametrize("l1, kappa, near", ACCEPTANCE_POINTS)
def test_chain_matches_fine_simpson(l1, kappa, near, monkeypatch):
    p0 = critical_point(l1, kappa, near=near)
    assert isinstance(chain_rule(mode_shape(p0, kappa, Grid()), Grid(), fixture_curvature),
                      ChebRule)
    ref = _simpson_values(monkeypatch, p0, kappa, 65536)
    err = np.abs(_values(p0, kappa, Grid()) - ref)
    assert np.all(err <= np.maximum(1e-12 * np.abs(ref), 1e-14)), err / np.abs(ref)


@pytest.mark.parametrize("case", ["high mode", "kinked profile"])
def test_ladder_exits_no_worse_than_default_simpson(case, monkeypatch):
    # the high mode needs the second rung of the ladder (the first is 4e-7
    # off); the kinked profile is resolved by none, so the unfolding falls
    # back to the grid
    grid = Grid()
    if case == "high mode":
        kappa, p0, rho0 = 0.45, critical_point(5.0, 0.45, which=10), fixture_curvature
        expected = (cheb_rule(128), cheb_rule(128))
    else:
        kappa, p0, rho0 = 0.25, critical_point(10.0, 0.25, near=0.682732), kinked_curvature
        expected = (cheb_rule(64), grid)
    yL = mode_shape(p0, kappa, grid)
    assert chain_rule(yL, grid) is expected[0]
    assert chain_rule(yL, grid, rho0) is expected[1]

    ref = _simpson_values(monkeypatch, p0, kappa, 65536, rho0)
    default = _simpson_values(monkeypatch, p0, kappa, 4096, rho0)
    err = np.abs(_values(p0, kappa, grid, rho0) - ref)
    # no farther than the default grid, up to a few ulps where both sit at roundoff
    assert np.all(err <= np.abs(default - ref) + 8 * np.finfo(float).eps * np.abs(ref))
