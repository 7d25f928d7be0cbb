"""Reduction of the equilibrium equation to a scalar bifurcation equation.

Projecting the equilibrium operator onto the adjoint kernel q at a critical
point (l01, l02) gives the bifurcation equation

    c3 a^3 + a (c11 dl1 + c12 dl2 + c13 dl2^2) + h.o.t. = 0

with x = 1 - kappa l02, A = I2 yL - kappa yL, B = I1 yL':

    c11 = -<A, q> / x
    c12 = -<B, q> / x - kappa <l01 A + l02 B, q> / x^2
    c13 = kappa^2 <l01 A + l02 B, q> / x^3
    c3  = <Ntilde, q>,  the cubic kernel assembled from I1, I2, I3 on yL.

The inner products and the integrals I1, I2, I3 are taken on the chain's
rule (modes.chain_rule): Clenshaw-Curtis on 65 Chebyshev nodes (129 or 257
for a high mode), exact to roundoff for these entire integrands, or
composite Simpson on the caller's grid when no Chebyshev size resolves the
mode's cubic integrand.

Classification note.  The linear coefficient taken along the interaction
curve's own tangent, c11 + c12 eta', vanishes identically: the order-2
adjoint kernel is orthogonal to the range of the linearized operator, and a
kernel element persists along the curve, so the tangential derivative of the
projected linearization is exactly zero (the computed value is roundoff,
~1e-14 of |c11| + |c12 eta'|, since eta' comes from exact partials).  A
nondegenerate pitchfork therefore requires a load path that crosses the
curve.  The verdict here uses the normal-direction crossing
parameterized by the axial-load increment, offsets (-eta' dl2, dl2), whose
linear coefficient is

    crossing_coefficient = -eta' c11 + c12 = c12 (1 + eta'^2),

so delta = sgn(c12): increasing the axial force through the critical curve
is the destabilizing crossing.  This is orientation-stable through branch
minima (where eta' changes sign) and folds, and matches the side on which
the nonlinear equilibrium branch is actually found by the collocation solver.
The tangential value is exported for inspection.

Kernel choice.  Everything here and in the unfolding uses the order-2
kernel q2 (critical_chain).  A nonlinear oracle (tests/test_imperfection_law.py)
rules out the order-4 kernel q4: at the acceptance criterion-10 points with
a small shape or tip-load imperfection alpha, the collocated rod's <y, yL>
follows c3 a^3 = -(alpha1 d01 + alpha2 d02) with q2's constants (relative
error 1.4e-5 to 6.8e-4 at alpha = 1e-5, falling as alpha^(2/3)) and misses
it by 288 times that or more with q4's, whose alpha2 amplitude has the
wrong sign at 7 of the 8 points.  Where the verdicts disagree (kappa = 0.25
at lambda1 in {2.4, 2.5, 5, 6, 7, 7.5}, the kappa = 0.45 lower branch at
lambda1 in {1.1, 1.5, 2.3}: q2 Supercritical, q4 Subcritical), the
nonlinear branch lies on q2's side with q2's sqrt amplitude.  q4 stays as
adjoint_kernel(4, ...) for the acceptance checks.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .charcurve import eta_prime
from .errors import DegeneratePointError, DomainError, FoldPointError, InvalidInputError
from .model import LoadPoint
from .modes import (
    ClosedFormShape,
    _check_shapes,
    _mode_profile,
    adjoint_kernel,
    chain_rule,
    mode_shape,
)
from .quadrature import Grid

DEGENERATE_TOL = 1e-10


class Verdict(Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    DEGENERATE = "Degenerate"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ReductionCoefficients:
    c11: float
    c12: float
    c13: float
    c3: float
    eta_prime: float                # interaction-curve slope at p0
    tangential_coefficient: float   # c11 + c12 eta'; identically zero on the curve
    crossing_coefficient: float     # -eta' c11 + c12; normal-crossing linear term
    epsilon: int
    delta: int
    verdict: Verdict


def reduction_coefficients(
    p0: LoadPoint,
    kappa: float,
    yL: ClosedFormShape,
    q: ClosedFormShape,
    grid: Grid,
) -> ReductionCoefficients:
    """Assemble the reduction coefficients at a verified critical point."""
    _check_shapes(p0, kappa, yL, q)
    l1, l2 = p0.lambda1, p0.lambda2
    x = 1.0 - kappa * l2
    rule = chain_rule(yL, grid)

    yv, yd, i1y, i2y, i1yd, i3y, _ = _mode_profile(yL, rule)
    qv = q.sample(rule)

    def build():
        a_term = i2y - kappa * yv
        cubic = 0.5 * (
            (l1 * (i3y + yd**2 * (i2y - 2.0 * kappa * yv)) + l2 * yd**2 * i1yd) / x
            + kappa / x**2 * (
                2.0 * l1**2 * yd * i1y * a_term
                + l1 * l2 * yd * (yd * a_term + 2.0 * i1y * i1yd)
                + l2**2 * yd**2 * i1yd
            )
        )
        return a_term, l1 * a_term + l2 * i1yd, cubic

    # independent of q: the q2 and q4 reductions at one point share them
    a_term, mixed_term, cubic = rule.memo("reduction integrands", (yL, l1, l2, kappa), build)
    mixed = rule.inner(mixed_term, qv)

    c11 = -rule.inner(a_term, qv) / x
    c12 = -rule.inner(i1yd, qv) / x - kappa / x**2 * mixed
    c13 = kappa**2 / x**3 * mixed
    c3 = rule.inner(cubic, qv)

    try:
        slope = eta_prime(p0, kappa)
    except DegeneratePointError as exc:
        raise FoldPointError(
            f"eta' undefined at ({l1}, {l2}); reduction not available at a fold"
        ) from exc

    tangential = c11 + c12 * slope
    crossing = -slope * c11 + c12
    epsilon = int(math.copysign(1.0, c3)) if abs(c3) >= DEGENERATE_TOL else 0
    delta = int(math.copysign(1.0, crossing)) if abs(crossing) >= DEGENERATE_TOL else 0
    if epsilon == 0 or delta == 0:
        verdict = Verdict.DEGENERATE
    elif epsilon * delta < 0:
        verdict = Verdict.SUPERCRITICAL
    else:
        verdict = Verdict.SUBCRITICAL
    return ReductionCoefficients(
        c11=c11, c12=c12, c13=c13, c3=c3, eta_prime=slope,
        tangential_coefficient=tangential, crossing_coefficient=crossing,
        epsilon=epsilon, delta=delta, verdict=verdict,
    )


def critical_chain(p0: LoadPoint, kappa: float, grid: Grid):
    """Mode, order-2 adjoint kernel, and reduction coefficients at a verified
    critical point: (yL, q, rc).
    """
    yL = mode_shape(p0, kappa, grid)
    q = adjoint_kernel(2, p0, kappa, grid)
    return yL, q, reduction_coefficients(p0, kappa, yL, q, grid)


def crossing_offsets(rc: ReductionCoefficients, delta: float, direction: str) -> tuple[float, float]:
    """Load offsets (dl1, dl2) crossing the critical curve.

    direction "along-lambda1": (delta, -eta' delta), the reflected tangent;
    direction "along-lambda2": (-eta' delta, delta), the curve normal scaled
    to a lambda2 increment of delta.
    """
    if direction == "along-lambda1":
        return delta, -rc.eta_prime * delta
    if direction == "along-lambda2":
        return -rc.eta_prime * delta, delta
    raise InvalidInputError(f"unknown offset direction {direction!r}")


def amplitude_for_offsets(rc: ReductionCoefficients, dl1: float, dl2: float):
    """Amplitude from the full linear coefficient c11 dl1 + c12 dl2."""
    if rc.verdict is Verdict.DEGENERATE:
        raise DomainError("degenerate reduction; no amplitude law available")
    radicand = -(rc.c11 * dl1 + rc.c12 * dl2) / rc.c3
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)
