"""Planar stack geometry and interface/stack coefficients.

Conventions, fixed once for the whole package:

* Layers are ordered top (atom side, always vacuum) to bottom (substrate).
  The first and last layers are semi-infinite; a three-layer stack has one
  interior film of thickness d.  A two-layer stack (bare substrate) is one
  interface, not a three-layer stack with a zero-thickness film.
* The atom height z is measured from the TOP interface of the film.
* z-wavenumbers use the decaying branch: principal square root post-selected
  to Im >= 0 (and Re >= 0 on the real axis), so every propagation factor
  exp(2i h d), exp(2i h z) has magnitude <= 1.
* Two wave families propagate in a uniaxial layer: the ordinary family
  (h from k_t^2 = (omega/c)^2 eps_t, TE-like, "M") and the extraordinary
  family (TM-like, "N").  Their interface coefficients carry the usual
  Fresnel signs of r_TE and r_TM:

      fresnel_te(h_f, h_f1) = (h_f - h_f1)/(h_f + h_f1)
      interface_rv(h_f, h_f1, k_f, k_f1) = (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 + h_f1 k_f^2)
* The film responses (M, N) returned by scattering_coefficients are
  phase-referenced to the top interface: the raw stack formula carries a
  factor exp(-2i h1 d) from an origin at the bottom of the film, which
  diverges for evanescent waves; referencing to the top interface absorbs it
  into the atom-side factor exp(2i h1 z) and keeps every integrand decaying.
  In the isotropic limit M = r_TE(stack) and N = r_TM(stack).
* One film formula (generalized_r_te) composes the interface coefficients of
  both families; te_reflection is M evaluated without the TM family.

All coefficient functions accept scalar or ndarray eta and vectorize.  A
rate sets its stack up once (stack_media: per layer one permittivity, kt^2,
k and anisotropy, with the checks on omega and eps_z) and passes the
StackMedia, which holds them as arrays on a leading layer axis, in place of
the LayerStack: one layer_wavevectors call then covers every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, real_in_range
from .errors import (DegenerateInterfaceError, DomainError, ResonanceError,
                     SingularMaterialError)
from .materials import MaterialModel, PermittivityTensor, UniaxialSuperconductor, Vacuum, permittivity

__all__ = [
    "Layer",
    "LayerStack",
    "LayerWavevectors",
    "StackMedia",
    "layer_wavevectors",
    "stack_media",
    "fresnel_te",
    "generalized_r_te",
    "interface_rv",
    "scattering_coefficients",
    "te_reflection",
]

_DENOMINATOR_GUARD = 1e-14


@dataclass(frozen=True)
class Layer:
    """One layer of the stack.  Thickness is ignored for the outer layers."""

    material: MaterialModel
    thickness: float = math.inf

    def __post_init__(self):
        if not (self.thickness == math.inf or real_in_range(self.thickness, or_zero=True)):
            raise DomainError("layer thickness must be non-negative and finite, "
                              "or inf for an outer layer")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers, top (atom side) to bottom, at one equilibrium temperature."""

    layers: tuple[Layer, ...]
    temperature: float

    def __post_init__(self):
        if not isinstance(self.layers, tuple):
            object.__setattr__(self, "layers", tuple(self.layers))
        if not all(isinstance(layer, Layer) for layer in self.layers):
            raise DomainError("every layer of a stack must be a Layer")
        if len(self.layers) not in (2, 3):
            raise DomainError("stack must have 2 or 3 layers")
        if not isinstance(self.layers[0].material, Vacuum):
            raise DomainError("layer 1 must be vacuum (the atom sits in it)")
        if not real_in_range(self.temperature, or_zero=True):
            raise DomainError("temperature must be non-negative and finite")
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
class StackMedia:
    """What the wavevectors of a stack's layers need at one frequency, set up
    once per rate, as arrays on a leading layer axis: kt2 = (omega/c)^2 eps_t,
    its decaying root k (the TM-family wavenumber) and the anisotropy
    1 - eps_t/eps_z (0 for an isotropic layer, and None when no layer is
    uniaxial); and the film thickness d (0 for a bare substrate)."""

    kt2: np.ndarray
    k: np.ndarray
    anisotropy: np.ndarray | None
    d: float


def _decaying_sqrt(w):
    """Principal complex square root folded onto Im >= 0 (Re >= 0 on the real axis)."""
    root = np.asarray(np.sqrt(np.asarray(w, dtype=complex)))  # 0-d stays writable
    return np.negative(root, out=root, where=root.imag < 0)


def _medium_terms(omega: float, eps: PermittivityTensor):
    """(kt2, anisotropy) of a layer of permittivity `eps` at angular
    frequency `omega`, on Python scalars; anisotropy None when isotropic."""
    if not real_in_range(omega):
        raise DomainError("omega must be positive and finite")
    if eps.eps_z == 0:
        raise SingularMaterialError("eps_z = 0 makes the extraordinary wave singular")
    kt2 = (omega / CONSTANTS.c) ** 2 * eps.eps_t
    return kt2, None if eps.is_isotropic else 1.0 - eps.eps_t / eps.eps_z


def stack_media(stack: LayerStack, omega: float) -> StackMedia:
    """StackMedia of `stack` at `omega`: one permittivity per layer, and each
    field built as one typed array."""
    kt2, anisotropy = zip(*(
        _medium_terms(omega, permittivity(layer.material, omega, stack.temperature))
        for layer in stack.layers))
    kt2 = np.array(kt2, dtype=complex)
    uniaxial = any(a is not None for a in anisotropy)
    anisotropy = np.array([a or 0 for a in anisotropy], dtype=complex) if uniaxial else None
    return StackMedia(kt2, _decaying_sqrt(kt2), anisotropy, stack.film_thickness)


def layer_wavevectors(eta, omega: float, eps: PermittivityTensor | StackMedia) -> LayerWavevectors:
    """z-wavenumbers of both wave families at transverse wavenumber `eta`.

    h1^2 = (omega/c)^2 eps_t - eta^2
    h2^2 = eta^2 (1 - eps_t/eps_z) + (omega/c)^2 eps_t - eta^2

    For an isotropic permittivity the two are equal and h2 is h1.  `eps` may
    also be a stack's StackMedia at `omega`, which gives every layer's h1 and
    h2 in one call: the layer axis comes first and eta's axes follow.
    """
    kt2, anisotropy = ((eps.kt2, eps.anisotropy) if isinstance(eps, StackMedia)
                       else _medium_terms(omega, eps))
    eta = np.asarray(eta, dtype=float)
    if np.count_nonzero(eta < 0):
        raise DomainError("eta must be non-negative")
    shape = np.shape(kt2) + (1,) * eta.ndim
    kt2, eta2 = np.reshape(kt2, shape), eta**2
    h1 = _decaying_sqrt(kt2 - eta2)
    if anisotropy is None:
        return LayerWavevectors(h1, h1)
    h2 = _decaying_sqrt(eta2 * np.reshape(anisotropy, shape) + kt2 - eta2)
    return LayerWavevectors(h1, h2)


def fresnel_te(k1z, k2z):
    """TE Fresnel reflection coefficient (k1z - k2z)/(k1z + k2z)."""
    den = k1z + k2z
    if np.count_nonzero(den) < np.size(den):
        raise DegenerateInterfaceError("k1z + k2z = 0")
    return (k1z - k2z) / den


def generalized_r_te(r12, r23, k2z, d: float):
    """Film reflection coefficient combining two interfaces with the interior
    round-trip phase:  (r12 + r23 e^{2i k2z d}) / (1 - r21 r23 e^{2i k2z d}),
    with r21 = -r12.  The one film formula of the package: both wave families
    compose their interface coefficients with it."""
    if not real_in_range(d, or_zero=True):
        raise DomainError("film thickness must be non-negative and finite")
    phase = np.exp(2j * np.asarray(k2z, dtype=complex) * d)
    den = r12 * r23 * phase
    den += 1.0
    if np.count_nonzero(np.abs(den) < _DENOMINATOR_GUARD):
        raise ResonanceError("film denominator below guard threshold")
    num = r23 * phase + r12
    num /= den  # num and den both span the broadcast of r12, r23 and phase
    return num


def interface_rv(h_f, h_f1, k_f, k_f1):
    """TM-family interface coefficient
    (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 + h_f1 k_f^2)."""
    a = h_f * k_f1**2
    b = h_f1 * k_f**2
    den = a + b
    if np.count_nonzero(den) < np.size(den):
        raise DegenerateInterfaceError("TM interface denominator vanished")
    return (a - b) / den


def _media(stack: LayerStack | StackMedia, omega: float) -> StackMedia:
    return stack if isinstance(stack, StackMedia) else stack_media(stack, omega)


def _stack_quotient(r, h, d: float):
    """One interface's coefficient r[0], or the film formula over layer h[1]."""
    return r[0] if len(r) == 1 else generalized_r_te(r[0], r[1], h[1], d)


def scattering_coefficients(stack: LayerStack | StackMedia, eta, omega: float):
    """Phase-referenced film responses (M, N) at `eta`.

    M composes the ordinary-family wavevectors with TE interface
    coefficients, N the extraordinary family with TM ones (see module
    docstring).  `stack` may also be its StackMedia at `omega`, set up once
    for many calls.
    """
    media = _media(stack, omega)
    wv = layer_wavevectors(eta, omega, media)
    m = _stack_quotient(fresnel_te(wv.h1[:-1], wv.h1[1:]), wv.h1, media.d)
    k = np.reshape(media.k, np.shape(media.k) + (1,) * (wv.h2.ndim - 1))
    n = _stack_quotient(interface_rv(wv.h2[:-1], wv.h2[1:], k[:-1], k[1:]), wv.h2, media.d)
    return m, n


def te_reflection(stack: LayerStack | StackMedia, eta, omega: float):
    """Generalized TE reflection coefficient of the stack at `eta`: M,
    computed without the TM family.  `stack` may also be its StackMedia."""
    media = _media(stack, omega)
    h = layer_wavevectors(eta, omega, media).h1
    return _stack_quotient(fresnel_te(h[:-1], h[1:]), h, media.d)
