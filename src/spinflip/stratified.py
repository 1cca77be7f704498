"""Planar stack geometry and interface/stack coefficients.

Conventions, fixed once for the whole package:

* Layers are ordered top (atom side, always vacuum) to bottom (substrate).
  The first and last layers are semi-infinite; a three-layer stack has one
  interior film of thickness d.  Two-layer stacks (bare substrate) are
  handled as three-layer stacks with a zero-thickness film.
* The atom height z is measured from the TOP interface of the film.
* z-wavenumbers use the decaying branch: principal square root post-selected
  to Im >= 0 (and Re >= 0 on the real axis), so every propagation factor
  exp(2i h d), exp(2i h z) has magnitude <= 1.
* Two wave families propagate in a uniaxial layer: the ordinary family
  (h from k_t^2 = (omega/c)^2 eps_t, TE-like, "M") and the extraordinary
  family (TM-like, "N").  Interface coefficients R_H (TE family) and R_V
  (TM family) are signed as

      R_H(h_f, h_f1)          = (h_f1 - h_f)/(h_f1 + h_f) = -r_TE
      R_V(h_f, h_f1, k_f, k_f1) = (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 + h_f1 k_f^2)

  i.e. R_H is the negative of the usual TE Fresnel coefficient while R_V has
  the usual TM sign.
* The film scattering amplitudes returned by scattering_coefficients are
  phase-referenced to the top interface: the raw stack formula carries a
  factor exp(-2i h1 d) from an origin at the bottom of the film, which
  diverges for evanescent waves; referencing to the top interface absorbs it
  into the atom-side factor exp(2i h1 z) and keeps every integrand decaying.
  Signs: +quotient for the M family, -quotient for the N family, so in the
  isotropic limit B_M = -r_TE(stack) and B_N = -r_TM(stack).
* One film formula (generalized_r_te) composes the interface coefficients of
  both families, and one TE interface formula (interface_rh) serves both sign
  conventions: fresnel_te = -interface_rh, te_reflection = -B_M (evaluated
  without the TM family) and tm_reflection = -B_N.

All coefficient functions accept scalar or ndarray eta and vectorize.  A
rate sets its stack up once (stack_media: per layer one permittivity, kt^2,
k and anisotropy, with the checks on omega and eps_z) and passes the
StackMedia in place of the LayerStack, so a call per batch of eta does no
per-layer set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import (DegenerateInterfaceError, DomainError, ResonanceError,
                     SingularMaterialError)
from .materials import MaterialModel, PermittivityTensor, UniaxialSuperconductor, Vacuum, permittivity

__all__ = [
    "Layer",
    "LayerStack",
    "LayerMedium",
    "LayerWavevectors",
    "StackMedia",
    "layer_wavevectors",
    "stack_media",
    "fresnel_te",
    "generalized_r_te",
    "interface_rh",
    "interface_rv",
    "scattering_coefficients",
    "te_reflection",
    "tm_reflection",
]

_DENOMINATOR_GUARD = 1e-14


@dataclass(frozen=True)
class Layer:
    """One layer of the stack.  Thickness is ignored for the outer layers."""

    material: MaterialModel
    thickness: float = math.inf

    def __post_init__(self):
        if self.thickness < 0:
            raise DomainError("layer thickness must be non-negative")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers, top (atom side) to bottom, at one equilibrium temperature."""

    layers: tuple[Layer, ...]
    temperature: float

    def __post_init__(self):
        if not isinstance(self.layers, tuple):
            object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) not in (2, 3):
            raise DomainError("stack must have 2 or 3 layers")
        if not isinstance(self.layers[0].material, Vacuum):
            raise DomainError("layer 1 must be vacuum (the atom sits in it)")
        if self.temperature < 0:
            raise DomainError("temperature must be non-negative")
        for layer in self.layers[1:-1]:
            if not math.isfinite(layer.thickness):
                raise DomainError("interior layers must have finite thickness")

    @property
    def film_thickness(self) -> float:
        """Thickness of the interior film; 0 for a bare substrate."""
        return self.layers[1].thickness if len(self.layers) == 3 else 0.0

    @property
    def is_anisotropic(self) -> bool:
        return any(isinstance(l.material, UniaxialSuperconductor) for l in self.layers)

    def with_film_thickness(self, d: float) -> "LayerStack":
        """Same stack with the interior film thickness replaced by `d`.

        Only defined when a film exists; a bare substrate accepts d = 0 as a
        no-op (there is no film material to grow)."""
        if len(self.layers) == 2:
            if d != 0.0:
                raise DomainError("bare substrate has no film to resize")
            return self
        film = Layer(self.layers[1].material, d)
        return LayerStack((self.layers[0], film, self.layers[2]), self.temperature)

    def with_temperature(self, T: float) -> "LayerStack":
        return LayerStack(self.layers, T)


@dataclass(frozen=True)
class LayerWavevectors:
    """Ordinary (h1) and extraordinary (h2) z-wavenumbers in one layer."""

    h1: complex
    h2: complex


@dataclass(frozen=True)
class LayerMedium:
    """What the wavevectors of one layer need at one frequency, set up once
    per rate: kt2 = (omega/c)^2 eps_t, its decaying root k (the TM-family
    wavenumber) and the anisotropy 1 - eps_t/eps_z (None when isotropic)."""

    kt2: complex
    k: complex
    anisotropy: complex | None


@dataclass(frozen=True)
class StackMedia:
    """The three layers' LayerMedium and the film thickness d of a stack at
    one frequency (a bare substrate is a zero-thickness film of itself)."""

    layers: tuple[LayerMedium, LayerMedium, LayerMedium]
    d: float


def _decaying_sqrt(w):
    """Principal complex square root folded onto Im >= 0 (Re >= 0 on the real axis)."""
    root = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(root.imag < 0, -root, root)


def _layer_medium(omega: float, eps: PermittivityTensor) -> LayerMedium:
    """LayerMedium of a layer of permittivity `eps` at angular frequency `omega`."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    if eps.eps_z == 0:
        raise SingularMaterialError("eps_z = 0 makes the extraordinary wave singular")
    kt2 = (omega / CONSTANTS.c) ** 2 * eps.eps_t
    anisotropy = None if eps.is_isotropic else 1.0 - eps.eps_t / eps.eps_z
    return LayerMedium(kt2, _decaying_sqrt(kt2), anisotropy)


def stack_media(stack: LayerStack, omega: float) -> StackMedia:
    """StackMedia of `stack` at `omega`: one permittivity per layer."""
    mats = [layer.material for layer in stack.layers]
    if len(mats) == 2:
        mats, d = (mats[0], mats[1], mats[1]), 0.0
    else:
        d = stack.layers[1].thickness
    return StackMedia(tuple(_layer_medium(omega, permittivity(m, omega, stack.temperature))
                            for m in mats), d)


def layer_wavevectors(eta, omega: float,
                      eps: PermittivityTensor | LayerMedium) -> LayerWavevectors:
    """z-wavenumbers of both wave families at transverse wavenumber `eta`.

    h1^2 = (omega/c)^2 eps_t - eta^2
    h2^2 = eta^2 (1 - eps_t/eps_z) + (omega/c)^2 eps_t - eta^2

    For an isotropic permittivity the two are equal and h2 is h1.  `eps` may
    also be the layer's LayerMedium at `omega`, set up once for many calls.
    """
    medium = eps if isinstance(eps, LayerMedium) else _layer_medium(omega, eps)
    eta = np.asarray(eta, dtype=float)
    if (eta < 0).any():
        raise DomainError("eta must be non-negative")
    h1 = _decaying_sqrt(medium.kt2 - eta**2)
    if medium.anisotropy is None:
        return LayerWavevectors(h1, h1)
    h2 = _decaying_sqrt(eta**2 * medium.anisotropy + medium.kt2 - eta**2)
    return LayerWavevectors(h1, h2)


def fresnel_te(k1z, k2z):
    """TE Fresnel reflection coefficient (k1z - k2z)/(k1z + k2z)."""
    return -interface_rh(k1z, k2z)


def generalized_r_te(r12, r23, k2z, d: float):
    """Film reflection coefficient combining two interfaces with the interior
    round-trip phase:  (r12 + r23 e^{2i k2z d}) / (1 - r21 r23 e^{2i k2z d}),
    with r21 = -r12.  The one film formula of the package: both wave families
    compose their interface coefficients with it."""
    if d < 0:
        raise DomainError("film thickness must be non-negative")
    return _film(r12, r23, k2z, d)


def _film(r12, r23, k2z, d: float):
    """generalized_r_te for a thickness d >= 0 already checked."""
    phase = np.exp(2j * np.asarray(k2z, dtype=complex) * d)
    den = 1.0 + r12 * r23 * phase
    if (np.abs(den) < _DENOMINATOR_GUARD).any():
        raise ResonanceError("film denominator below guard threshold")
    return (r12 + r23 * phase) / den


def interface_rh(h_f, h_f1):
    """TE-family interface coefficient (h_f1 - h_f)/(h_f1 + h_f) = -fresnel_te."""
    den = h_f + h_f1
    if (np.abs(den) == 0).any():
        raise DegenerateInterfaceError("h_f + h_f1 = 0")
    return (h_f1 - h_f) / den


def interface_rv(h_f, h_f1, k_f, k_f1):
    """TM-family interface coefficient
    (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 + h_f1 k_f^2)."""
    a = h_f * k_f1**2
    b = h_f1 * k_f**2
    den = a + b
    if (np.abs(den) == 0).any():
        raise DegenerateInterfaceError("TM interface denominator vanished")
    return (a - b) / den


def _media(stack: LayerStack | StackMedia, omega: float) -> StackMedia:
    return stack if isinstance(stack, StackMedia) else stack_media(stack, omega)


def scattering_coefficients(stack: LayerStack | StackMedia, eta, omega: float):
    """Phase-referenced film scattering amplitudes (B_M, B_N) at `eta`.

    B_M uses the ordinary-family wavevectors and TE-family interface
    coefficients; B_N the extraordinary family and TM-family coefficients.
    Signs: B_M = +quotient, B_N = -quotient (see module docstring).  `stack`
    may also be its StackMedia at `omega`, set up once for many calls.
    """
    media = _media(stack, omega)
    m1, m2, m3 = media.layers
    wv1, wv2, wv3 = (layer_wavevectors(eta, omega, m) for m in media.layers)
    b_m = _film(interface_rh(wv1.h1, wv2.h1), interface_rh(wv2.h1, wv3.h1), wv2.h1, media.d)
    b_n = -_film(interface_rv(wv1.h2, wv2.h2, m1.k, m2.k),
                 interface_rv(wv2.h2, wv3.h2, m2.k, m3.k), wv2.h2, media.d)
    return b_m, b_n


def te_reflection(stack: LayerStack | StackMedia, eta, omega: float):
    """Generalized TE reflection coefficient of the stack at `eta` (= -B_M,
    computed without the TM family).  `stack` may also be its StackMedia."""
    media = _media(stack, omega)
    h1, h2, h3 = (layer_wavevectors(eta, omega, m).h1 for m in media.layers)
    return -_film(interface_rh(h1, h2), interface_rh(h2, h3), h2, media.d)


def tm_reflection(stack: LayerStack, eta, omega: float):
    """Generalized TM-family reflection coefficient of the stack (= -B_N)."""
    return -scattering_coefficients(stack, eta, omega)[1]
