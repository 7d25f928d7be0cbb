"""Package errors, each under one of two bases: DomainError (exit 2) or ConvergenceError (exit 3)."""


class NanorodError(Exception):
    """Base class for all package errors."""


class DomainError(NanorodError):
    """An input, evaluation or stencil left the admissible region (exit 2)."""


class ConvergenceError(NanorodError):
    """An iteration failed on admissible input (exit 3)."""


class InvalidInputError(DomainError):
    """A physical or dimensionless parameter violates its invariant."""


class ConfigurationError(DomainError):
    """A run-time configuration value is unusable (odd grid size, bad tolerance)."""


class SingularCurvatureError(InvalidInputError):
    """The initial-curvature radius vanishes somewhere on the rod."""


class SingularDenominatorError(DomainError):
    """A load point lies on or beyond the constitutive singularity 1 - kappa*lambda2 = 0."""


class RootNotFoundError(DomainError):
    """No sign change (or requested root index) inside the scanned bracket."""


class DegeneratePointError(DomainError):
    """The implicit slope is undefined: d(residual)/d(lambda2) vanishes (fold)."""


class DegenerateShapeError(DomainError):
    """A closed-form mode or kernel denominator is numerically zero."""


class GridMismatchError(DomainError):
    """Two sampled functions live on different grids."""


class InadmissibleSlopeError(DomainError):
    """A sampled deflection has |dy/dt| >= 1 somewhere."""


class FoldPointError(DomainError):
    """Reduction coefficients requested at a fold of the interaction curve."""


class RegimeError(DomainError):
    """|theta| reached pi/2 in an integration; the base of every integration breakdown."""


class ConstitutiveSingularityError(RegimeError):
    """The moment-curvature closure denominator vanished during integration."""


class NoFoldError(ConvergenceError):
    """Newton iteration for a fold / stationary point did not converge."""


class NoConvergenceError(ConvergenceError):
    """A shooting or collocation Newton iteration failed; carries the last
    iterate (v(0), m(0)) where there is one."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
