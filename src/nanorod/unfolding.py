"""Imperfection unfolding: the d-constants, determinant, and universality test.

Shape (alpha1) and tip-load (alpha2) imperfections perturb the bifurcation
equation into a two-parameter family

    Psi(a, dl, alpha) = alpha1 d01 + alpha2 d02 + ...

whose universality hinges on det [[d01, d21], [d02, d22]] != 0 together with
the nondegeneracy of the perfect-rod coefficients.  The d-constants are inner
products of curvature/load kernels with the adjoint kernel q; the chain
constants (d13, d14, d25, d26, d39, d310) are exact multiples of d01/d02 and
are computed from them rather than re-integrated.

The inner products are taken on the rule modes.chain_rule picks from the
mode's cubic integrand and the curvature profile rho0: Clenshaw-Curtis on
Chebyshev nodes when both are resolved there, and composite Simpson on the
caller's grid otherwise.  A piecewise-linear --profile file has kinks, on
which Chebyshev quadrature converges only algebraically, so its constants
come from the grid (and change with --n).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularCurvatureError
from .model import LoadPoint
from .modes import ClosedFormShape, _check_shapes, _mode_profile, chain_rule
from .quadrature import Grid
from .reduction import DEGENERATE_TOL, ReductionCoefficients, Verdict


@dataclass(frozen=True)
class UnfoldingCoefficients:
    d01: float
    d02: float
    d11: float
    d12: float
    d13: float
    d14: float
    d21: float
    d22: float
    d23: float
    d24: float
    d25: float
    d26: float
    d31: float
    d32: float
    d33: float
    d34: float
    d35: float
    d36: float
    d37: float
    d38: float
    d39: float
    d310: float


def unfolding_coefficients(
    p0: LoadPoint,
    kappa: float,
    yL: ClosedFormShape,
    q: ClosedFormShape,
    rho0: Callable,
    grid: Grid,
) -> UnfoldingCoefficients:
    """All d-constants at a verified critical point, by quadrature."""
    _check_shapes(p0, kappa, yL, q)
    l1, l2 = p0.lambda1, p0.lambda2
    x = 1.0 - kappa * l2
    rule = chain_rule(yL, grid, lambda t: _curvature_samples(rho0, t))
    t = rule.t
    curv = _curvature_samples(rho0, t)

    yv, yd, i1y, i2y, i1yd, _, i1yd2 = _mode_profile(yL, rule)
    qv = q.sample(rule)
    one_minus_t = 1.0 - t
    a_term = i2y - kappa * yv

    d01 = -rule.inner(curv, qv) / x
    d02 = -rule.inner(one_minus_t, qv) / x
    d11 = kappa / x**2 * rule.inner(curv * yd, qv)
    d12 = kappa / x**2 * rule.inner(one_minus_t * yd, qv)
    d13 = -kappa / x * d01
    d14 = -kappa / x * d02
    d21 = 0.5 / x * rule.inner(
        curv * yd * (yd + kappa / x * (2.0 * l1 * i1y + l2 * yd)), qv)
    d22 = 0.5 / x * rule.inner(
        one_minus_t * yd**2 + i1yd2
        + kappa / x * yd * (2.0 * l1 * (one_minus_t * i1y + a_term)
                            + l2 * (one_minus_t * yd + 2.0 * i1yd)), qv)
    d23 = (1.0 - kappa / x) * d11
    d24 = (1.0 - kappa / x) * d12
    d25 = kappa**2 / x**2 * d01
    d26 = kappa**2 / x**2 * d02
    d31 = 0.5 * kappa / x**2 * rule.inner(curv * yd**3, qv)
    d32 = 0.5 * kappa / x**2 * rule.inner(yd * (one_minus_t * yd**2 - i1yd2), qv)
    d33 = kappa / x**2 * rule.inner(curv * yd * i1y, qv)
    d34 = kappa / x**2 * rule.inner(yd * (one_minus_t * i1y + a_term), qv)
    d35 = -0.5 * kappa**2 / x**3 * rule.inner(curv * yd * (2.0 * l1 * i1y + l2 * yd), qv)
    d36 = 0.5 * kappa / x**2 * rule.inner(
        2.0 * yd * i1yd - i1yd2
        - kappa / x * yd * (2.0 * l1 * (one_minus_t * i1y + a_term)
                            + l2 * (one_minus_t * yd + 2.0 * i1yd)), qv)
    d37 = -(1.0 - 2.0 * kappa / x) * d11
    d38 = -(1.0 - 2.0 * kappa / x) * d12
    d39 = kappa**3 / x**3 * d01
    d310 = kappa**3 / x**3 * d02

    return UnfoldingCoefficients(
        d01=d01, d02=d02, d11=d11, d12=d12, d13=d13, d14=d14,
        d21=d21, d22=d22, d23=d23, d24=d24, d25=d25, d26=d26,
        d31=d31, d32=d32, d33=d33, d34=d34, d35=d35, d36=d36,
        d37=d37, d38=d38, d39=d39, d310=d310,
    )


def _curvature_samples(rho0: Callable, t: np.ndarray) -> np.ndarray:
    """rho0 on t as a finite array of t's shape, or SingularCurvatureError."""
    try:
        curv = np.asarray(rho0(t), dtype=float)
    except SingularCurvatureError:
        raise
    except Exception as exc:
        raise SingularCurvatureError(f"curvature profile evaluation failed: {exc}") from exc
    if curv.shape != t.shape:
        curv = np.broadcast_to(np.asarray(curv, dtype=float), t.shape).copy()
    if not np.all(np.isfinite(curv)):
        raise SingularCurvatureError("curvature profile is not finite on [0, 1]")
    return curv


def unfolding_determinant(uc: UnfoldingCoefficients) -> float:
    """det [[d01, d21], [d02, d22]]."""
    return uc.d01 * uc.d22 - uc.d21 * uc.d02


@dataclass(frozen=True)
class UnfoldingReport:
    universal: bool
    determinant: float
    reasons: tuple


def is_universal_unfolding(rc: ReductionCoefficients, uc: UnfoldingCoefficients) -> UnfoldingReport:
    """True iff |c3|, the crossing coefficient, and the determinant all clear DEGENERATE_TOL."""
    det = unfolding_determinant(uc)
    reasons = []
    if (abs(rc.c3) <= DEGENERATE_TOL or abs(rc.crossing_coefficient) <= DEGENERATE_TOL
            or rc.verdict is Verdict.DEGENERATE):
        reasons.append("c-condition")
    if abs(det) <= DEGENERATE_TOL:
        reasons.append("determinant")
    return UnfoldingReport(universal=not reasons, determinant=det, reasons=tuple(reasons))
