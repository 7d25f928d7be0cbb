"""Independent checks the tests hold the package to, kept out of the package
because no production path calls them: the second-order linearization
residual, the adjoint boundary sets, the moment recomputed from the
constitutive closure, the node count of a closed-form mode, the I2 and I3
operators written out from the grid's cumulative integral, Clenshaw's
recurrence for the Chebyshev interpolant, and a uniform 2000-panel root
scan, the reference for the family-window root rule.
"""

import numpy as np

from nanorod.bvp import BvpSolution, _central_second_derivative, _sign_changes
from nanorod.charcurve import _SCAN_RTOL, _SCAN_XTOL, _TOUCH_REL, _brentq, _bulk, _derivative
from nanorod.errors import RootNotFoundError
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


SCAN_PANELS = 2000
_NO_INDEX = np.empty(0, dtype=np.intp)


def _sign_brackets(vals):
    """The scan's root rule, (exact, brackets) as index arrays: a grid point
    where vals is exactly zero is a root (the last point included), and a
    panel whose ends differ strictly in sign brackets one to refine."""
    return np.flatnonzero(vals == 0.0), np.flatnonzero(vals[:-1] * vals[1:] < 0.0)


def scan_roots(fun, lo, hi, touch_gate=None, count=None, panels=SCAN_PANELS):
    """The reference scan: all roots of fun on [lo, hi] from panels uniform
    panels (2000 by default), sorted: sign-change roots, plus tangency
    (double) roots when a touch gate is given.  With a count, the first count
    entries are those of the full list, bit for bit, and the entries past
    them may differ.

    fun must evaluate elementwise on an array: the scan grid is evaluated
    in one call, and only the refinements evaluate point by point.  (One
    bracket takes ~8 scalar calls, ~20 us, in _brentq, against ~180 us for
    the scan.)  With a touch gate, fun must also accept a complex scalar:
    its derivative is taken by complex step.
    A tangency is accepted when a local minimum of |fun| on the scan refines,
    by Brent on fun' between the neighbouring grid points, to a stationary
    point where |fun| is negligible: either against the scan scale, or
    against the caller-supplied gate ``touch_gate(x)`` (used to admit
    residuals explained by the finite printing precision of the transverse
    load parameter).
    A count refines only what the first count roots depend on.  Exact zeros
    and brackets are ordered by grid position (2j for an exact zero at
    xs[j], 2i + 1 for the bracket [xs[i], xs[i + 1]]), and the count-th of
    them is the cut: no root past it can come first.  A touch candidate at
    xs[i] is refined when its root, in [xs[i - 1], xs[i + 1]], can lie at
    or below the cut.  With fewer than count sign roots, everything is
    refined.
    """
    xs = np.linspace(lo, hi, panels + 1)
    vals = _bulk(fun, xs)
    exact, brackets = _sign_brackets(vals)
    touch = _touch_candidates(vals) if touch_gate is not None else _NO_INDEX
    if count is not None and exact.size + brackets.size >= count:
        cut = np.sort(np.concatenate((2 * exact, 2 * brackets + 1)))[count - 1]
        touch = touch[touch - 1 <= (cut + 1) // 2]  # the cut root is at or below xs[(cut + 1) // 2]
        # a touch root below the cut root within 10 steps of a sign root past the cut is as near the cut root
        exact, brackets = exact[2 * exact <= cut], brackets[2 * brackets + 1 <= cut]
    roots = [xs[i] for i in exact]
    roots += [_brentq(fun, xs[i], xs[i + 1], xtol=_SCAN_XTOL, rtol=_SCAN_RTOL) for i in brackets]
    if touch.size:
        roots.extend(_touch_roots(fun, xs, vals, roots, touch_gate, touch))
    roots.sort()
    return roots


def _touch_candidates(vals):
    """Grid indices of the local |vals| minima that may be double roots:
    small against the scan scale, with no sign change on either side (a
    genuine sign change is already refined)."""
    absv = np.abs(vals)
    scale = absv.max()
    if scale == 0.0:
        return _NO_INDEX
    mid = absv[1:-1]
    candidates = (
        (mid <= absv[:-2]) & (mid <= absv[2:]) & (mid <= 1e-3 * scale)
        & ~(vals[:-2] * vals[1:-1] < 0.0) & ~(vals[1:-1] * vals[2:] < 0.0)
    )
    return np.flatnonzero(candidates) + 1


def _touch_roots(fun, xs, vals, known, touch_gate, candidates):
    """The candidates (see _touch_candidates) that are numerically double roots."""
    scale = float(np.max(np.abs(vals)))
    touches = []
    step = xs[1] - xs[0]
    slope = lambda x: _derivative(fun, x)
    for i in candidates:
        try:
            x = _brentq(slope, xs[i - 1], xs[i + 1], xtol=_SCAN_XTOL, rtol=_SCAN_RTOL)
        except RootNotFoundError:  # fun' keeps its sign: no stationary point here
            continue
        if abs(fun(x)) > max(_TOUCH_REL * scale, touch_gate(x)):
            continue
        if any(abs(x - r) < 10.0 * step for r in known + touches):
            continue
        touches.append(x)
    return touches
