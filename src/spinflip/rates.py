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

* gamma_anisotropic (alias gamma_general) -- (w_M, w_N): the scattering-
  coefficient rate (uniaxial film allowed), random or fixed orientation;
* gamma_isotropic -- (w_M / PATH_CALIBRATION_RATIO, 0) for stacks of
  isotropic layers, for the preset the layered-medium form
  P * integral K^2 dK/(2 pi)^2 * e^{-2 K z}/2 * Im r_TE(K).

On isotropic stacks gamma_anisotropic / gamma_isotropic is therefore 3*pi up
to the near-field-small N channel, and the scattering route is the absolute
rate.  spin_flip_rate picks a route by the stack; each is one _gamma call.

_rate_integrand computes -2z and w_N k1^2 once per rate, and _gamma applies
the 1/(8 pi) with P, so each integrand call does only eta-dependent work.

Rates are "field" rates at zero temperature of the field; _result multiplies
them by (n_th + 1) and refuses an n_th that overflows.  Zero weights (zero
matrix elements) integrate to +0.0, and a zero rate has tau = inf; a negative
one raises DomainError, since it only arises where the quasi-static kernel
does not hold, and so does a rate whose arithmetic overflows double precision.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .constants import (CONSTANTS, RB87_CLOCK_TRANSITION, TransitionSpec,
                        rate_prefactor, real_in_range, thermal_photon_number)
from .errors import (DomainError, GrazingSingularityError, QuasiStaticWarning,
                     SpinflipError)
from .quadrature import (DEFAULT_SETTINGS, QuadratureDiagnostics, QuadratureSettings,
                         integrate_rows, integrate_semi_infinite)
from .stratified import (LayerStack, StackMedia, _real_eta, layer_wavevectors,
                         scattering_coefficients, stack_media, te_reflection)

__all__ = [
    "RateResult",
    "SpinOrientation",
    "PATH_CALIBRATION_RATIO",
    "PRESET_SPIN_WEIGHT",
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
    tau: float                     # 1/gamma_total (s); inf for a zero rate
    diagnostics: QuadratureDiagnostics


def _caller_stacklevel() -> int:
    """stacklevel that makes a warning issued by the calling function name
    the first frame outside the package: the caller of the public function."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _check_quasi_static(z: float, transition: TransitionSpec):
    """Warn (QuasiStaticWarning) if the atom height z is not small against
    the transition wavelength: the rate formulas are quasi-static.  Its
    callers, _gamma and sweep.run_sweep, pass a checked z and transition."""
    wavelength = CONSTANTS.c / transition.frequency
    if z > _QUASISTATIC_FRACTION * wavelength:
        warnings.warn(
            f"z = {z:g} m is not small against the transition wavelength "
            f"{wavelength:g} m; the quasi-static rate formulas degrade",
            QuasiStaticWarning, stacklevel=_caller_stacklevel())


def _result(gamma_field: float, transition: TransitionSpec, z: float, T: float,
            diag: QuadratureDiagnostics) -> RateResult:
    if gamma_field < 0:
        # A passive stack has a non-negative noise spectrum; a negative
        # rate means the kernel was evaluated where it no longer holds.
        raise DomainError(
            f"negative field rate {gamma_field:.3e} 1/s at z = {z:g} m: the "
            f"quasi-static rate kernel does not hold here (it needs z far below "
            f"the transition wavelength {CONSTANTS.c / transition.frequency:g} m "
            f"and a rate well above rounding)")
    n = thermal_photon_number(transition.frequency, T)
    gamma_total = gamma_field * (n + 1.0)
    if not gamma_total < math.inf:  # n_th overflowed: T far beyond any model
        raise _overflow(z, f"thermal occupation {n:g} at T = {T:g} K")
    tau = 1.0 / gamma_total if gamma_total > 0 else math.inf
    return RateResult(gamma_field, n, gamma_total, tau, diag)


def _overflow(z: float, cause) -> DomainError:
    """The DomainError of a rate at z whose arithmetic overflowed (`cause`)."""
    return DomainError(f"the rate at z = {z:g} m overflows double precision "
                       f"({cause}); an input is far outside its physical range")


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


def _rate_integrand(media: StackMedia, z, omega: float, w_m: float, w_n: float):
    """The one rate integrand, 8 pi times the kernel: eta -> e^{-2 eta z} *
    Im[w_m eta^2 M + w_n k1^2 N], (M, N) the film responses of `media` at
    `omega`.  With w_n = 0 only the M family is computed (te_reflection).  z
    may be an (R, 1) column of row heights for eta of shape (R, n), with the
    rows' fields of media, if it has any, on each eta node (_rows)."""
    neg_2z = -2.0 * z
    if w_n == 0.0:
        return lambda eta: np.exp(eta * neg_2z) * (w_m * eta**2 * te_reflection(media, eta).imag)
    w_nk = w_n * (omega / CONSTANTS.c) ** 2

    def integrand(eta):
        m, n = scattering_coefficients(media, eta)
        return np.exp(eta * neg_2z) * (w_m * eta**2 * m.imag + w_nk * n.imag)
    return integrand


def _row_integrals(media: StackMedia, z: list, omega: float, w_m: float, w_n: float,
                   settings: QuadratureSettings) -> list:
    """integrate_rows of the rate integrand of rows at heights z over `media`, each
    of whose fields holds one row for every height or a row per height (d: one
    value or one per height); a row that refines does so on its own column.  Only
    fields with a row per height are repeated over the first pass's nodes: also
    repeating the others made a figures pass about 16% slower."""
    def rows(select):  # the medium of select(x) for each field x with a row per height
        return StackMedia(*(select(x) if getattr(x, "shape", ())[-1:] == (len(z),) else x
                            for x in (media.kt2, media.k, media.anisotropy, media.d)))

    def first(eta):  # each row's fields on each of its eta nodes, as the coefficients ravel eta
        nodes = rows(lambda x: np.repeat(x, eta.shape[-1], axis=-1))
        return _rate_integrand(nodes, column, omega, w_m, w_n)(eta)

    def row(i):  # row i alone
        return _rate_integrand(rows(lambda x: x[..., i:i + 1]), z[i], omega, w_m, w_n)
    column = np.array(z)[:, None]
    return integrate_rows(first, column, settings, row)


def _gamma(stack: LayerStack, z: list, transition: TransitionSpec,
           T: float | list | None, settings: QuadratureSettings,
           orientation: SpinOrientation = SpinOrientation.RANDOM,
           m_only: bool | None = False, d: list | None = None) -> list:
    """The one rate entry: the RateResult of each row over the stack's medium,
    a row per atom height in the list z, at its temperature from the list T
    (or all at T) and with its film thickness from the list d (or all of
    thickness d) if given (checked by the caller), their first passes in one
    integrand call.  It checks z and the transition (stack_media checks the
    stack, omega and T): the orientation's channels on rate_prefactor(), or
    with `m_only` (None: if the stack is isotropic; uniaxial stacks refused)
    the M channel over PATH_CALIBRATION_RATIO (zero weights: +0.0).  An error
    of any row is raised; an overflow is a DomainError naming the largest z.
    One row integrates alone: through _row_integrals a rate took about 20 us
    more (Nb 86 -> 108 us, Cu 65 -> 85 us), and the benchmark's tracer sees
    single rates through rates.integrate_semi_infinite."""
    if not isinstance(transition, TransitionSpec):
        raise DomainError(f"transition must be a TransitionSpec, not {type(transition).__name__}")
    for x in z:
        if not real_in_range(x):
            raise DomainError("atom height z must be positive and finite")
    _check_quasi_static(top := max(z), transition)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            media = stack_media(stack, transition.omega, T)
            if m_only is None:
                m_only = not stack.is_anisotropic
            elif m_only and stack.is_anisotropic:
                raise DomainError("stack contains a uniaxial layer; use gamma_anisotropic")
            T = stack.temperature if T is None else T
            if d is not None:
                media = replace(media, d=np.array(d) if isinstance(d, list) else d)
            w_m, w_n = _channel_weights(transition, orientation)
            if m_only:
                w_m, w_n = w_m / PATH_CALIBRATION_RATIO, 0.0
            omega, prefactor = transition.omega, rate_prefactor() / (8.0 * math.pi)
            if len(z) > 1:
                return [_result(prefactor * value, transition, x, t, diag) for x, t, (value, diag)
                        in zip(z, T if isinstance(T, list) else [T] * len(z),
                               _row_integrals(media, z, omega, w_m, w_n, settings))]
            value, diag = integrate_semi_infinite(_rate_integrand(media, top, omega, w_m, w_n),
                                                  top, settings)
            return [_result(prefactor * value, transition, top, T, diag)]
    except SpinflipError:
        raise
    except ArithmeticError as exc:  # overflow, or 0/0 and inf - inf after one
        raise _overflow(top, exc.args[-1] if exc.args else type(exc).__name__) from exc


def gamma_isotropic(stack: LayerStack, z: float,
                    transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                    T: float | None = None,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """Spin-flip rate above a stack of isotropic layers: the M channel of
    gamma_anisotropic divided by PATH_CALIBRATION_RATIO."""
    return _gamma(stack, [z], transition, T, settings, m_only=True)[0]


def rate_integrand_anisotropic(stack: LayerStack, eta, z: float, omega: float):
    """Integrand of the anisotropic-route rate for the preset transition
    (before the global prefactor): e^{-2 eta z}/(8 pi) * Im[3 eta^2 M + k1^2 N]."""
    if not real_in_range(z):
        raise DomainError("z must be positive and finite")
    media = stack_media(stack, omega)
    integrand = _rate_integrand(media, z, omega, *_channel_weights(RB87_CLOCK_TRANSITION))
    return integrand(_real_eta(media, eta)) / (8.0 * math.pi)


def gamma_anisotropic(stack: LayerStack, z: float,
                      transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                      T: float | None = None,
                      settings: QuadratureSettings = DEFAULT_SETTINGS, *,
                      orientation: SpinOrientation = SpinOrientation.RANDOM) -> RateResult:
    """Spin-flip rate via the scattering-coefficient route (uniaxial film
    allowed) from the in-plane (parallel, doubly degenerate) and out-of-plane
    (perpendicular) components of the curl-curl noise tensor,

        Gamma = mu0 2 (muB gS)^2/hbar * [w_par * Im C_rr + w_perp * Im C_zz],
        Im C_rr = integral e^{-2 eta z}/(8 pi) Im[eta^2 M + k1^2 N] d eta,
        Im C_zz = integral e^{-2 eta z}/(8 pi) Im[2 eta^2 M]        d eta;

    `orientation` keeps one channel, and RANDOM sums both."""
    return _gamma(stack, [z], transition, T, settings, orientation)[0]


gamma_general = gamma_anisotropic


def double_curl_integrand(stack: LayerStack, eta, z: float, omega: float):
    """Full (retarded) integrand of the doubly curled scattering Green
    tensor contraction, without near-field approximation:

        i e^{2 i h z} / (4 pi) * [ M (eta^3/h - h eta/2) + N eta k^2/(2 h) ],

    h the vacuum z-wavenumber.  Its imaginary part is the rate integrand; for
    eta >> k it reduces to rate_integrand_anisotropic with an O((k/eta)^2)
    error.  Exposed for testing and as the full-retardation option."""
    if not real_in_range(z):
        raise DomainError("z must be positive and finite")
    media = stack_media(stack, omega)
    eta_arr = _real_eta(media, eta)
    k = omega / CONSTANTS.c
    h = layer_wavevectors(eta_arr, media)[0][0]  # row 0: the vacuum
    if (h == 0).any():
        raise GrazingSingularityError(
            "eta equals the free-space wavenumber; integrable grazing point")
    m, n = scattering_coefficients(media, eta_arr)
    bracket = m * (eta_arr**3 / h - h * eta_arr / 2.0) + n * eta_arr * k**2 / (2.0 * h)
    return 1j * np.exp(2j * h * z) / (4.0 * math.pi) * bracket


def spin_flip_rate(stack: LayerStack, z: float,
                   transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                   T: float | None = None,
                   settings: QuadratureSettings = DEFAULT_SETTINGS) -> RateResult:
    """Rate via the route appropriate to the stack: the scattering route if
    any layer is uniaxial, the isotropic route (M channel only) otherwise.
    Both weigh the channels by the transition's matrix elements."""
    return _gamma(stack, [z], transition, T, settings, m_only=None)[0]

