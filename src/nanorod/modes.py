"""Closed-form buckling modes, adjoint kernels, and the linearized-operator residual.

At a critical point (lambda01, lambda02) the linearized fourth-order operator

    L4 y = y'''' + (kappa l1 + l2)/(1 - kappa l2) y'' - l1/(1 - kappa l2) y

has a one-dimensional kernel spanned by a cos/cosh/sin/sinh combination with
wavenumbers (r01, r02).  The formal adjoints share the same interior form but
carry their own boundary sets; their kernels are again closed-form trig and
hyperbolic combinations, so the mode and both kernels are one class,
ClosedFormShape, told apart by their order.  Everything here is evaluated
analytically, with derivatives up to fourth order.

Sign and normalization conventions (they fix the arbitrary constants):
  * mode shape: unit L2 norm and y''(0) > 0;
  * order-2 adjoint kernel: unit norm and q(0) > 0 (the raw kernel has
    q(0) = 1 + r2^2/r1^2, so the sign does not depend on any grid);
  * order-4 adjoint kernel: unit norm and q''(0) > 0.

Quadrature.  The norms here and every integral of the reduction and the
unfolding are taken on the rule chain_rule picks per critical point:
Clenshaw-Curtis on 65 Chebyshev-Lobatto nodes (129 or 257 when needed), or
composite Simpson on the caller's grid when no size resolves the
integrands.  Sampled outputs (the mode table, linear_residual_L4) use grid.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .charcurve import _check_admissible, char_residual, lambda2_max, wavenumbers
from .errors import DegenerateShapeError, DomainError, InvalidInputError
from .model import LoadPoint
from .quadrature import Grid, cheb_rule

CRITICAL_TOL = 1e-8  # |residual| demanded of p0, relative to its local scale
CHAIN_LADDER = (64, 128, 256)  # ChebRule sizes the chain tries, smallest first
CHAIN_TAIL = 1e-13  # last three Chebyshev coefficients relative to the largest: resolved


@dataclass(frozen=True)
class ClosedFormShape:
    """Kernel element at the critical point p0: the buckling mode (order 0) or
    an adjoint kernel (order 2 or 4),

        a cos(r1 t) + b cosh(r2 t) + c sin(r1 t) + d sinh(r2 t),

    with r1, r2 the wavenumbers at p0.  Calling it gives the k-th derivative;
    sample(grid, k) gives the same on grid.t.
    """

    p0: LoadPoint
    kappa: float
    order: int
    r1: float
    r2: float
    a: float
    b: float
    c: float
    d: float

    def __call__(self, t, k: int = 0):
        t = np.asarray(t, dtype=float)
        return self._combine(k, *_basis(self.r1, self.r2, t))

    def sample(self, grid: Grid, k: int = 0) -> np.ndarray:
        """self(grid.t, k), bitwise, from the grid's memoized basis at (r1, r2).

        The mode and both kernels at one critical point share (r1, r2), so
        the grid evaluates the four functions once for all of them.
        """
        basis = grid.memo("basis", (self.r1, self.r2),
                          lambda: _basis(self.r1, self.r2, grid.t))
        return self._combine(k, *basis)

    def _combine(self, k: int, cos1, sin1, cosh2, sinh2):
        """k-th derivative from cos(r1 t), sin(r1 t), cosh(r2 t), sinh(r2 t)."""
        s1 = self.r1**k
        s2 = self.r2**k
        a, c = self.a * s1, self.c * s1
        # cos -> -sin -> -cos -> sin; negating the scalar gives the bits of negating the array
        (ca, fa), (cc, fc) = (((a, cos1), (c, sin1)),
                              ((-a, sin1), (c, cos1)),
                              ((-a, cos1), (-c, sin1)),
                              ((a, sin1), (-c, cos1)))[k % 4]
        fb, fd = ((cosh2, sinh2), (sinh2, cosh2))[k % 2]
        return ca * fa + self.b * s2 * fb + cc * fc + self.d * s2 * fd

    def scaled(self, factor: float) -> "ClosedFormShape":
        return replace(self, a=factor * self.a, b=factor * self.b,
                       c=factor * self.c, d=factor * self.d)


def _basis(r1: float, r2: float, t):
    x1, x2 = r1 * t, r2 * t
    return np.cos(x1), np.sin(x1), np.cosh(x2), np.sinh(x2)


def _critical_wavenumbers(p0: LoadPoint, kappa: float) -> tuple[float, float]:
    """Wavenumbers at p0, once p0 is verified to lie on the interaction curve."""
    res = char_residual(p0, kappa)
    probe, top = p0.lambda2 + 0.05, lambda2_max(kappa)
    if probe >= top:  # p0 within 0.05 of 1/kappa: probe inside the admissible range
        probe = 0.5 * (p0.lambda2 + top)
    scale = max(abs(char_residual(LoadPoint(p0.lambda1, probe), kappa)), 1.0)
    if not abs(res) <= CRITICAL_TOL * scale:  # fail-closed: a NaN residual is refused
        raise DomainError(
            f"({p0.lambda1}, {p0.lambda2}) is not a critical point: residual {res:.3e}"
        )
    w = wavenumbers(p0, kappa)
    if w.r2 == 0.0:
        raise DegenerateShapeError(f"closed-form shapes need lambda1 > 0, got {p0.lambda1}")
    return w.r1, w.r2


def _ratio(num: float, den: float, what: str, p0: LoadPoint) -> float:
    if abs(den) < 1e-12 * max(1.0, abs(num)):
        raise DegenerateShapeError(f"{what} denominator {den:.3e} at ({p0.lambda1}, {p0.lambda2})")
    return num / den


def _normalized(raw: ClosedFormShape, grid: Grid, probe_k: int) -> ClosedFormShape:
    """raw scaled to unit L2 norm, with its k-th derivative positive at the clamp."""
    c_const = 1.0 / grid.norm(raw.sample(grid))
    if raw(0.0, probe_k) * c_const < 0.0:
        c_const = -c_const
    return raw.scaled(c_const)


def _raw_mode(p0: LoadPoint, kappa: float, r1: float, r2: float) -> ClosedFormShape:
    """The mode at p0 before normalization: a = 1, b = -1."""
    kp = kappa * p0.lambda1 / (1.0 - kappa * p0.lambda2)
    num = r1**2 * math.cos(r1) + r2**2 * math.cosh(r2) + kp * (math.cosh(r2) - math.cos(r1))
    den = (r1**2 * math.sin(r1) + r1 * r2 * math.sinh(r2)
           + kp * ((r1 / r2) * math.sinh(r2) - math.sin(r1)))
    d_const = _ratio(num, den, "mode-shape", p0)
    return ClosedFormShape(p0, kappa, 0, r1, r2, 1.0, -1.0, -d_const, d_const * r1 / r2)


def mode_shape(p0: LoadPoint, kappa: float, grid: Grid) -> ClosedFormShape:
    """Closed-form normalized mode shape at a verified critical point."""
    raw = _raw_mode(p0, kappa, *_critical_wavenumbers(p0, kappa))
    return _normalized(raw, chain_rule(raw, grid), 2)


def adjoint_kernel(order: int, p0: LoadPoint, kappa: float, grid: Grid) -> ClosedFormShape:
    """Closed-form normalized adjoint kernel of order 2 or 4.  The reduction
    uses order 2; order 4 fails the nonlinear imperfection law (see the
    reduction module) and is kept for the acceptance checks."""
    if order not in (2, 4):
        raise DomainError(f"adjoint kernel order must be 2 or 4, got {order}")
    r1, r2 = _critical_wavenumbers(p0, kappa)
    num = math.cos(r1) + (r2**2 / r1**2) * math.cosh(r2)
    den = math.sin(r1) + (r2 / r1) * math.sinh(r2)
    b_const = _ratio(num, den, "kernel", p0)
    if order == 2:
        raw = ClosedFormShape(p0, kappa, 2, r1, r2, 1.0, r2**2 / r1**2,
                              -b_const, -b_const * r2 / r1)
        return _normalized(raw, chain_rule(raw, grid), 0)
    raw = ClosedFormShape(p0, kappa, 4, r1, r2, 1.0, -1.0, -b_const, b_const * r1 / r2)
    return _normalized(raw, chain_rule(raw, grid), 2)


def linear_residual_L4(y: ClosedFormShape, p: LoadPoint, kappa: float, grid: Grid):
    """Interior sup-residual of the fourth-order linearization, plus its four
    boundary values, for a closed-form shape.
    """
    denom = _check_admissible(p.lambda1, p.lambda2, kappa)
    co2, co0 = (kappa * p.lambda1 + p.lambda2) / denom, p.lambda1 / denom
    interior = y.sample(grid, 4) + co2 * y.sample(grid, 2) - co0 * y.sample(grid)
    b = [
        float(y(0.0)),
        float(y(0.0, 1)),
        float(y(1.0, 2) * denom + kappa * p.lambda1 * y(1.0)),
        float(y(1.0, 3) * denom + (kappa * p.lambda1 + p.lambda2) * y(1.0, 1)),
    ]
    return float(np.max(np.abs(interior))), b


def _check_shapes(p0: LoadPoint, kappa: float, *shapes: ClosedFormShape) -> None:
    """The shapes were built at the critical point (p0, kappa)."""
    for shape in shapes:
        if (shape.p0, shape.kappa) != (p0, kappa):
            raise InvalidInputError(f"a shape built at {shape.p0}, kappa {shape.kappa} "
                                    f"is used at {p0}, kappa {kappa}")


def _mode_profile(yL: ClosedFormShape, grid: Grid):
    """The mode's samples and the integrals of them that the reduction and
    unfolding coefficients are assembled from, built once per mode and rule:
    y, y', I1 y, I2 y = I1(I1 y), I1 y', I3 = I1(y'^2 I1 y), I1 y'^2.
    """

    def build():
        y, yd = yL.sample(grid), yL.sample(grid, 1)
        i1y, yd2 = grid.i1(y), yd**2
        return y, yd, i1y, grid.i1(i1y), grid.i1(yd), grid.i1(yd2 * i1y), grid.i1(yd2)

    return grid.memo("mode profile", yL, build)


def chain_rule(shape: ClosedFormShape, grid: Grid, curvature: Optional[Callable] = None) -> Grid:
    """The rule the chain at shape's critical point integrates on.

    It is the ChebRule of the smallest size in CHAIN_LADDER on which the
    mode's cubic integrand y'^2 I1 y at that point, and curvature(t) when
    given, are resolved: their last three Chebyshev coefficients lie within
    CHAIN_TAIL of their largest one.  The mode and both kernels are
    cos/cosh/sin/sinh combinations at the point's wavenumbers, so that cubic
    stands for the chain's other integrands.  When no size
    resolves them (a very high mode, or a kinked curvature profile, where
    Chebyshev quadrature converges only algebraically) it is grid, with its
    composite-Simpson operators.
    """
    for n in CHAIN_LADDER:
        rule = cheb_rule(n)
        if (_cubic_resolved(shape.p0, shape.kappa, shape.r1, shape.r2, n)
                and (curvature is None or rule.resolved(curvature(rule.t), CHAIN_TAIL))):
            return rule
    return grid


@functools.lru_cache(maxsize=8)
def _cubic_resolved(p0: LoadPoint, kappa: float, r1: float, r2: float, n: int) -> bool:
    """Whether cheb_rule(n) resolves the cubic integrand y'^2 I1 y of the mode at p0."""
    mode, rule = _raw_mode(p0, kappa, r1, r2), cheb_rule(n)
    return rule.resolved(mode.sample(rule, 1) ** 2 * rule.i1(mode.sample(rule)), CHAIN_TAIL)
