"""Spin-flip rate computations above a layered structure.

Every rate is one quasi-static near-field kernel with a weight per wave
family of the film,

    Gamma = P * integral_0^inf d eta * e^{-2 eta z}/(8 pi)
              * Im[w_M eta^2 M(eta) + w_N k1^2 N(eta)],

with P = mu0 (muB gS)^2 / (8 hbar), k1 = omega/c and (M, N) the film
responses of the TE-like and TM-like families that scattering_coefficients
returns, r_TE / r_TM in the isotropic limit.  With these Fresnel signs the
integrand, a magnetic noise spectral density, is non-negative for passive
media.  _channel_weights turns the transition's spin matrix elements (the
Rb-87 preset if it has none) and the spin orientation into (w_M, w_N), (3, 1)
for the preset; every route uses it:

* gamma_anisotropic / gamma_general -- (w_M, w_N): the scattering-coefficient
  rate (uniaxial film allowed), random or fixed orientation;
* gamma_isotropic -- (w_M / PATH_CALIBRATION_RATIO, 0) for stacks of
  isotropic layers, for the preset the layered-medium form
  P * integral K^2 dK/(2 pi)^2 * e^{-2 K z}/2 * Im r_TE(K).

On isotropic stacks gamma_anisotropic / gamma_isotropic is therefore 3*pi up
to the near-field-small N channel; which of the two published normalisations
is absolute is not yet settled.

Rates are "field" rates at zero temperature of the field; thermal
occupation multiplies them by (n_th + 1).  A zero rate (lossless stack or
zero matrix elements) has tau = inf; a negative one raises DomainError,
since it only arises where the quasi-static kernel does not hold, and so
does a rate whose arithmetic overflows double precision.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import (CONSTANTS, RB87_CLOCK_TRANSITION, TransitionSpec,
                        rate_prefactor, real_in_range, thermal_photon_number)
from .errors import (DomainError, GrazingSingularityError, QuasiStaticWarning,
                     SpinflipError)
from .quadrature import (DEFAULT_SETTINGS, QuadratureDiagnostics,
                         QuadratureSettings, integrate_semi_infinite)
from .stratified import (LayerStack, StackMedia, layer_wavevectors, scattering_coefficients,
                         stack_media, te_reflection)

__all__ = [
    "RateResult",
    "SpinOrientation",
    "PATH_CALIBRATION_RATIO",
    "PRESET_SPIN_WEIGHT",
    "check_quasi_static",
    "gamma_isotropic",
    "gamma_anisotropic",
    "gamma_general",
    "spin_flip_rate",
    "double_curl_integrand",
    "rate_integrand_anisotropic",
]

# gamma_anisotropic / gamma_isotropic on isotropic stacks (the two published
# integral forms are not mutually normalized).  It sets the isotropic route's
# M-channel weight and is asserted by the test suite; it never converts one
# route's result into the other's.
PATH_CALIBRATION_RATIO = 3.0 * math.pi

# Squared spin matrix element per coupling channel (hbar units) of the
# built-in Rb-87 transition preset: (1/4)^2 per channel.
PRESET_SPIN_WEIGHT = 1.0 / 16.0

# Warn when the atom height is no longer tiny against the transition
# wavelength (the rate formulas are quasi-static).
_QUASISTATIC_FRACTION = 0.01


class SpinOrientation(Enum):
    RANDOM = "random"              # sum of parallel and perpendicular channels
    PARALLEL = "parallel"          # spin parallel to the surface (in-plane noise)
    PERPENDICULAR = "perpendicular"  # spin perpendicular (out-of-plane noise)


@dataclass(frozen=True)
class RateResult:
    gamma_field: float             # rate before thermal occupation (1/s)
    n_th: float                    # mean thermal photon number
    gamma_total: float             # gamma_field * (n_th + 1) (1/s)
    tau: float                     # 1/gamma_total (s); inf for a zero rate (lossless stack)
    diagnostics: QuadratureDiagnostics


def _caller_stacklevel() -> int:
    """stacklevel that makes a warning issued by the calling function name
    the first frame outside the package: the caller of the public function."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def check_quasi_static(z: float, transition: TransitionSpec):
    """Warn (QuasiStaticWarning) if the atom height z is not small against
    the transition wavelength: the rate formulas are quasi-static."""
    wavelength = CONSTANTS.c / transition.frequency
    if z > _QUASISTATIC_FRACTION * wavelength:
        warnings.warn(
            f"z = {z:g} m is not small against the transition wavelength "
            f"{wavelength:g} m; the quasi-static rate formulas degrade",
            QuasiStaticWarning, stacklevel=_caller_stacklevel())


def _result(gamma_field: float, transition: TransitionSpec, T: float,
            diag: QuadratureDiagnostics) -> RateResult:
    n = thermal_photon_number(transition.frequency, T)
    gamma_total = gamma_field * (n + 1.0)
    if not gamma_total < math.inf:  # n_th overflowed: T far beyond any model
        raise OverflowError(f"thermal occupation {n:g} at T = {T:g} K")
    tau = 1.0 / gamma_total if gamma_total > 0 else math.inf
    return RateResult(gamma_field, n, gamma_total, tau, diag)


def _channel_weights(transition: TransitionSpec,
                     orientation: SpinOrientation = SpinOrientation.RANDOM):
    """Kernel weights (w_M, w_N) = (16 (w_par + 2 w_perp), 16 w_par) of the
    orientation's channels, w_par = |mx|^2 + |my|^2 and w_perp = |mz|^2 in
    hbar units; 16 rate_prefactor() = mu0 2 (muB gS)^2/hbar."""
    if not isinstance(orientation, SpinOrientation):
        raise DomainError(f"orientation must be a SpinOrientation, not {orientation!r}")
    if transition.matrix_elements is None:
        w_par = w_perp = PRESET_SPIN_WEIGHT
    else:
        mx, my, mz = transition.matrix_elements
        w_par = abs(mx) ** 2 + abs(my) ** 2
        w_perp = abs(mz) ** 2
    if orientation is SpinOrientation.PARALLEL:
        w_perp = 0.0
    elif orientation is SpinOrientation.PERPENDICULAR:
        w_par = 0.0
    return 16.0 * (w_par + 2.0 * w_perp), 16.0 * w_par


def _rate_integrand(media: StackMedia, eta, z: float, omega: float,
                    w_m: float, w_n: float):
    """The one rate integrand, e^{-2 eta z}/(8 pi) * Im[w_m eta^2 M + w_n k1^2 N],
    with (M, N) the film responses of `media` at `omega`.  With w_n = 0 only
    the M family is computed (te_reflection)."""
    eta = np.asarray(eta, dtype=float)
    if w_n == 0.0:
        return np.exp(-2.0 * eta * z) / (8.0 * math.pi) * (
            w_m * eta**2 * te_reflection(media, eta).imag)
    m, n = scattering_coefficients(media, eta)
    w_nk = w_n * (omega / CONSTANTS.c) ** 2
    return np.exp(-2.0 * eta * z) / (8.0 * math.pi) * (w_m * eta**2 * m.imag + w_nk * n.imag)


def _gamma(stack: LayerStack, z: float, transition: TransitionSpec,
           T: float | None, settings: QuadratureSettings,
           orientation: SpinOrientation = SpinOrientation.RANDOM,
           m_only: bool = False) -> RateResult:
    """Rate of the orientation's channels on the prefactor rate_prefactor();
    with `m_only`, the M channel alone divided by PATH_CALIBRATION_RATIO.
    Inputs so extreme that the arithmetic overflows give a DomainError."""
    if not real_in_range(z):
        raise DomainError("atom height z must be positive and finite")
    check_quasi_static(z, transition)
    if T is None:
        T = stack.temperature
    stack = stack.with_temperature(T)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            w_m, w_n = _channel_weights(transition, orientation)
            if m_only:
                w_m, w_n = w_m / PATH_CALIBRATION_RATIO, 0.0
            if w_m == 0.0 and w_n == 0.0:
                # Zero matrix elements: no coupling, no integral to run.
                return _result(0.0, transition, T, QuadratureDiagnostics(0, 0.0, 0.0, 0, 0))
            omega = transition.omega
            media = stack_media(stack, omega)

            def integrand(eta):
                return _rate_integrand(media, eta, z, omega, w_m, w_n)

            value, diag = integrate_semi_infinite(integrand, z, settings)
            gamma_field = rate_prefactor() * value
            if gamma_field < 0:
                # A passive stack has a non-negative noise spectrum; a negative
                # rate means the kernel was evaluated where it no longer holds.
                raise DomainError(
                    f"negative field rate {gamma_field:.3e} 1/s at z = {z:g} m: the "
                    f"quasi-static rate kernel does not hold here (it needs z far below "
                    f"the transition wavelength {CONSTANTS.c / transition.frequency:g} m "
                    f"and a rate well above rounding)")
            return _result(gamma_field, transition, T, diag)
    except SpinflipError:
        raise
    except ArithmeticError as exc:  # overflow, or 0/0 and inf - inf after one
        raise DomainError(f"the rate at z = {z:g} m overflows double precision "
                          f"({exc}); an input is far outside its physical range") from exc


def gamma_isotropic(stack: LayerStack, z: float,
                    transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                    T: float | None = None,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """Spin-flip rate above a stack of isotropic layers: the M channel of
    gamma_anisotropic divided by PATH_CALIBRATION_RATIO."""
    if stack.is_anisotropic:
        raise DomainError("stack contains a uniaxial layer; use gamma_anisotropic")
    return _gamma(stack, z, transition, T, settings, m_only=True)


def rate_integrand_anisotropic(stack: LayerStack, eta, z: float, omega: float):
    """Integrand of the anisotropic-route rate for the preset transition
    (before the global prefactor): e^{-2 eta z}/(8 pi) * Im[3 eta^2 M + k1^2 N]."""
    return _rate_integrand(stack_media(stack, omega), eta, z, omega,
                           *_channel_weights(RB87_CLOCK_TRANSITION))


def gamma_anisotropic(stack: LayerStack, z: float,
                      transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                      T: float | None = None,
                      settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """Spin-flip rate via the scattering-coefficient route, random spin
    orientation (uniaxial film allowed; isotropic stacks are accepted and
    reproduce gamma_isotropic up to PATH_CALIBRATION_RATIO)."""
    return _gamma(stack, z, transition, T, settings)


def double_curl_integrand(stack: LayerStack, eta, z: float, omega: float):
    """Full (retarded) integrand of the doubly curled scattering Green
    tensor contraction, without near-field approximation:

        i e^{2 i h z} / (4 pi) * [ M (eta^3/h - h eta/2) + N eta k^2/(2 h) ],

    h the vacuum z-wavenumber.  Its imaginary part is the rate integrand; for
    eta >> k it reduces to rate_integrand_anisotropic with an O((k/eta)^2)
    error.  Exposed for testing and as the full-retardation option."""
    if not real_in_range(z):
        raise DomainError("z must be positive and finite")
    eta_arr = np.asarray(eta, dtype=float)
    k = omega / CONSTANTS.c
    media = stack_media(stack, omega)
    h = layer_wavevectors(eta_arr, media)[0][0]  # row 0: the vacuum
    if (h == 0).any():
        raise GrazingSingularityError(
            "eta equals the free-space wavenumber; integrable grazing point")
    m, n = scattering_coefficients(media, eta_arr)
    bracket = m * (eta_arr**3 / h - h * eta_arr / 2.0) + n * eta_arr * k**2 / (2.0 * h)
    return 1j * np.exp(2j * h * z) / (4.0 * math.pi) * bracket


def gamma_general(stack: LayerStack, z: float,
                  transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                  T: float | None = None,
                  orientation: SpinOrientation = SpinOrientation.RANDOM,
                  settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """General contraction of the spin matrix elements with the in-plane
    (parallel, doubly degenerate) and out-of-plane (perpendicular) components
    of the curl-curl noise tensor:

        Gamma = mu0 2 (muB gS)^2/hbar * [w_par * Im C_rr + w_perp * Im C_zz]

    with near-field components

        Im C_rr = integral e^{-2 eta z}/(8 pi) Im[eta^2 M + k1^2 N] d eta
        Im C_zz = integral e^{-2 eta z}/(8 pi) Im[2 eta^2 M]        d eta.

    With RANDOM orientation (the channel sum) this is gamma_anisotropic.
    """
    return _gamma(stack, z, transition, T, settings, orientation)


def spin_flip_rate(stack: LayerStack, z: float,
                   transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                   T: float | None = None,
                   settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """Rate via the route appropriate to the stack: the scattering route if
    any layer is uniaxial, the isotropic route (M channel only) otherwise.
    Both weigh the channels by the transition's matrix elements."""
    if stack.is_anisotropic:
        return gamma_anisotropic(stack, z, transition, T, settings)
    return gamma_isotropic(stack, z, transition, T, settings)

