"""Independent checks the tests hold the package to, kept out of the package
because no production path calls them: the second-order linearization
residual, the adjoint boundary sets, the moment recomputed from the
constitutive closure, the node count of a closed-form mode, the I2 and I3
operators written out from the grid's cumulative integral, and Clenshaw's
recurrence for the Chebyshev interpolant.
"""

import numpy as np

from nanorod.bvp import BvpSolution, _central_second_derivative, _sign_changes
from nanorod.model import LoadPoint
from nanorod.modes import ClosedFormShape
from nanorod.quadrature import ChebRule, Grid


def linear_residual_L2(y: ClosedFormShape, p: LoadPoint, kappa: float, grid: Grid) -> float:
    """Sup-residual of the second-order integro-differential linearization."""
    denom = 1.0 - kappa * p.lambda2
    vals = y.sample(grid)
    res = (y.sample(grid, 2)
           - p.lambda1 / denom * (i2(grid, vals) - kappa * vals)
           - p.lambda2 / denom * grid.i1(y.sample(grid, 1)))
    return float(np.max(np.abs(res)))


def adjoint_boundary_residuals(kernel: ClosedFormShape, grid: Grid) -> list[float]:
    """Boundary-set residuals of an adjoint kernel.

    Order 4: q(0), q'(0), q''(1), q'''(1) + l2/(1-k l2) q'(1).
    Order 2: q(1), q'(1) + l2/(1-k l2) <1, q>,
             q''(1) + l1/(1-k l2) (<t, q> - <1, q>),
             q'''(1) + (k l1 + l2)/(1-k l2) q'(1) - l1/(1-k l2) <1, q>.
    """
    p, kappa = kernel.p0, kernel.kappa
    denom = 1.0 - kappa * p.lambda2
    if kernel.order == 4:
        return [
            float(kernel(0.0)),
            float(kernel(0.0, 1)),
            float(kernel(1.0, 2)),
            float(kernel(1.0, 3) + p.lambda2 / denom * kernel(1.0, 1)),
        ]
    qv = kernel.sample(grid)
    one = np.ones_like(grid.t)
    q_1 = grid.inner(one, qv)
    qt = grid.inner(grid.t, qv)
    return [
        float(kernel(1.0)),
        float(kernel(1.0, 1) + p.lambda2 / denom * q_1),
        float(kernel(1.0, 2) + p.lambda1 / denom * (qt - q_1)),
        float(kernel(1.0, 3) + (kappa * p.lambda1 + p.lambda2) / denom * kernel(1.0, 1)
              - p.lambda1 / denom * q_1),
    ]


def closed_form_moment(sol: BvpSolution) -> np.ndarray:
    """Bending moment recomputed from the constitutive closure, independently
    of the integrated m: the deflection's second derivative is taken by
    central differences of the sampled slope (endpoints copied inward).
    """
    setup, p = sol.setup, sol.load
    th = sol.trajectory.theta
    c, s = np.cos(th), np.sin(th)
    ydd = _central_second_derivative(s, sol.trajectory.t[1] - sol.trajectory.t[0])
    den = 1.0 + setup.kappa * (sol.trajectory.v * s - p.lambda2 * c)
    curv = (setup.alpha1 * np.asarray(setup.rho0(sol.trajectory.t), dtype=float)
            if setup.alpha1 else np.zeros_like(th))
    return (ydd / c) * den + setup.kappa * p.lambda1 * sol.trajectory.y * c - curv


def mode_node_count(yL, grid: Grid) -> int:
    """Same morphology metric as bvp.node_count, applied to a closed-form mode shape."""
    return _sign_changes(yL.sample(grid, 1)[1:-1])


def i2(grid: Grid, z) -> np.ndarray:
    """I2(z) = int_t^1 I1(z), the right-anchored integral applied twice."""
    return grid.cumint_right(grid.cumint_right(z))


def i3(grid: Grid, z, zdot) -> np.ndarray:
    """I3(z, zdot) = int_t^1 zdot^2 I1(z): polynomial kernel, no admissibility
    constraint on zdot."""
    zdot = grid._check(zdot)
    return grid.cumint_right(zdot**2 * grid.cumint_right(z))


def clenshaw(rule: ChebRule, values, t) -> np.ndarray:
    """The interpolant through the node values at the points t, by Clenshaw's
    recurrence on its Chebyshev coefficients (Clenshaw, Math. Tables Aids
    Comput. 9, 1955): one row of node values, one pass per coefficient."""
    coef = rule.coef @ rule._check(values)
    x2 = 2.0 * (1.0 - 2.0 * np.asarray(t, dtype=float))
    b1, b2 = np.zeros_like(x2), np.zeros_like(x2)
    for a in coef[:0:-1]:  # b_k = a_k + 2x b_{k+1} - b_{k+2}, into b_{k+2}'s array
        b2 *= -1.0
        b2 += a
        b2 += x2 * b1
        b1, b2 = b2, b1
    return coef[0] + 0.5 * x2 * b1 - b2
