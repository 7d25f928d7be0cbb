"""Physical-to-dimensionless conversion and the shared parameter objects.

Dimensionless groups for a rod of length L, stiffness EI, mass density mu,
nonlocal length scale ell, spinning at omega with tip loads H0 (axial) and
V0 (transverse):

    kappa   = (ell / L)^2
    lambda1 = mu omega^2 L^4 / (EI)      centrifugal load
    lambda2 = H0 L^2 / (EI)              axial load
    alpha2  = V0 L^2 / (EI)              load imperfection
    alpha1  = 1 / sup_t |R0(t L) / L|    shape imperfection

The stored curvature profile ``rho0`` is a callable returning the
dimensionless curvature 1/rho0(t) directly (not the radius), because every
downstream formula consumes alpha1/rho0.  It is called with an array of t
and returns an array of that shape, or a scalar for a constant profile.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInputError, SingularCurvatureError

_NORM_SAMPLES = 10001  # sup-norm of the curvature radius is sampled on this grid


@dataclass(frozen=True)
class LoadPoint:
    """A pair of dimensionless load parameters."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.lambda1 < 0.0:
            raise InvalidInputError(f"lambda1 must be nonnegative, got {self.lambda1}")

    def offset(self, dl1: float, dl2: float) -> "LoadPoint":
        return LoadPoint(self.lambda1 + dl1, self.lambda2 + dl2)


def _zero_curvature(t):
    return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0


@dataclass(frozen=True)
class RodSetup:
    """Non-locality and imperfection parameters of the dimensionless rod."""

    kappa: float
    alpha1: float = 0.0
    alpha2: float = 0.0
    rho0: Callable[[np.ndarray], Union[np.ndarray, float]] = field(default=_zero_curvature)

    def __post_init__(self):
        if self.kappa < 0.0:
            raise InvalidInputError(f"kappa must be nonnegative, got {self.kappa}")


@dataclass(frozen=True)
class PhysicalRod:
    """SI description of the rotating compressed cantilever.

    ``R0_profile`` maps arclength S in [0, L], a float or an array, to the
    initial-curvature radius R0(S) in meters; ``None`` means a straight rod.
    """

    E: float
    I: float
    L: float
    mu: float
    ell: float = 0.0
    omega: float = 0.0
    H0: float = 0.0
    V0: float = 0.0
    R0_profile: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("E", "I", "L", "mu"):
            if getattr(self, name) <= 0.0:
                raise InvalidInputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.ell < 0.0:
            raise InvalidInputError(f"ell must be nonnegative, got {self.ell}")


def nondimensionalize(rod: PhysicalRod) -> tuple[RodSetup, LoadPoint]:
    """Convert a PhysicalRod to (RodSetup, LoadPoint).

    The curvature profile is scaled so that sup |rho0| = 1 on [0, 1]; the
    sup-norm is approximated on a uniform grid of 10001 samples.
    """
    ei = rod.E * rod.I
    kappa = (rod.ell / rod.L) ** 2
    lambda1 = rod.mu * rod.omega**2 * rod.L**4 / ei
    lambda2 = rod.H0 * rod.L**2 / ei
    alpha2 = rod.V0 * rod.L**2 / ei

    if rod.R0_profile is None:
        return RodSetup(kappa=kappa, alpha1=0.0, alpha2=alpha2), LoadPoint(lambda1, lambda2)

    profile = rod.R0_profile
    L = rod.L
    ts = np.linspace(0.0, 1.0, _NORM_SAMPLES)
    radii = np.array([profile(t * L) for t in ts], dtype=float) / L
    if np.any(radii == 0.0) or not np.all(np.isfinite(radii)):
        raise SingularCurvatureError("R0_profile vanishes or is not finite on [0, L]")
    sup = float(np.max(np.abs(radii)))
    alpha1 = 1.0 / sup

    def rho0(t):
        # dimensionless curvature 1/rho0(t) of the normalized radius profile
        r = profile(np.asarray(t, dtype=float) * L) / L
        if np.any(np.asarray(r) == 0.0):
            raise SingularCurvatureError("R0_profile vanishes inside [0, L]")
        return sup / r

    return RodSetup(kappa=kappa, alpha1=alpha1, alpha2=alpha2, rho0=rho0), LoadPoint(lambda1, lambda2)
