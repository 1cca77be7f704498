"""Exception hierarchy for spinflip.

Every error raised by this package derives from SpinflipError so callers can
distinguish physics/usage problems from programming bugs.  The one warning
category, QuasiStaticWarning, is a UserWarning.
"""


class SpinflipError(Exception):
    """Base class for all spinflip errors."""


class DomainError(SpinflipError, ValueError):
    """An argument is outside the physical domain of an operation."""


class SingularMaterialError(SpinflipError, ValueError):
    """A material parameter combination makes the wave equation singular
    (e.g. vanishing out-of-plane permittivity)."""


class DegenerateInterfaceError(SpinflipError, ZeroDivisionError):
    """Interface reflection coefficient is undefined (vanishing denominator)."""


class ResonanceError(SpinflipError):
    """A stack denominator fell below the guard threshold.

    For passive lossy media the multiple-reflection denominator is bounded
    away from zero, so a near-zero indicates a branch or usage error rather
    than a physical guided-mode pole.
    """


class GrazingSingularityError(SpinflipError):
    """The vacuum z-wavenumber vanished (eta equal to the free-space
    wavenumber); the integrand has an integrable singularity there and the
    caller should refine around it instead of evaluating at the point."""


class QuadratureError(SpinflipError):
    """Adaptive integration did not reach the requested tolerance.

    Carries the best available value so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, partial_value=None, diagnostics=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.diagnostics = diagnostics


class ConfigError(SpinflipError, ValueError):
    """A run configuration or sweep specification failed validation."""


class QuasiStaticWarning(UserWarning):
    """The atom height is not small against the transition wavelength, so
    the quasi-static rate kernel degrades."""
