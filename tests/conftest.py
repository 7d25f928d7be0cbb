import numpy as np
import pytest

from nanorod import modes, quadrature
from nanorod.charcurve import solve_lambda2
from nanorod.model import LoadPoint
from nanorod.quadrature import Grid


@pytest.fixture(scope="session")
def grid():
    return Grid()


@pytest.fixture(scope="session")
def grid_small():
    return Grid(1024)


def critical_point(lambda1, kappa, near=None, which=1):
    """Refined critical point at fixed lambda1; `near` brackets the search."""
    if near is not None:
        bracket = (near - 0.05, near + 0.05)
        lambda2 = solve_lambda2(lambda1, kappa, bracket=bracket)
    else:
        lambda2 = solve_lambda2(lambda1, kappa, which=which)
    return LoadPoint(lambda1, lambda2)


def fresh_rules():
    """Drop the shared Chebyshev rules and the cached resolution checks, so the
    next chain starts from empty memos."""
    quadrature.cheb_rule.cache_clear()
    modes._cubic_resolved.cache_clear()


def fixture_curvature(t):
    """Imperfection profile used across the tests: curvature of the cubic
    y = t^3 - (4/3) t^2 + (4/9) t."""
    t = np.asarray(t, dtype=float)
    slope = 3.0 * t**2 - (8.0 / 3.0) * t + 4.0 / 9.0
    return (6.0 * t - 8.0 / 3.0) / np.sqrt(1.0 - slope**2)
