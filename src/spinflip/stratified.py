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
  Fresnel signs of r_TE and r_TM and are one formula with a family wavenumber:

      interface_rv(h_f, h_f1, k_f, k_f1) = (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 + h_f1 k_f^2)
  at k = 1 (M) is fresnel_te(h_f, h_f1) = (h_f - h_f1)/(h_f + h_f1) to the bit.
* The film responses (M, N) returned by scattering_coefficients are
  phase-referenced to the top interface: the raw stack formula carries a
  factor exp(-2i h1 d) from an origin at the bottom of the film, which
  diverges for evanescent waves; referencing to the top interface absorbs it
  into the atom-side factor exp(2i h1 z) and keeps every integrand decaying.
  In the isotropic limit M = r_TE(stack) and N = r_TM(stack).
* One film formula (generalized_r_te) composes both families at once, on a
  leading (M, N) axis; te_reflection is M evaluated without the TM family.

StackMedia, the one medium type of layer_wavevectors, scattering_coefficients
and te_reflection, holds kt^2, k and the anisotropy of every layer on a
leading layer axis.  media_of builds it from permittivities (stack_media from
a LayerStack, once per rate); each function then covers every layer in one
pass, for scalar or ndarray eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CONSTANTS, real_in_range
from .errors import (DegenerateInterfaceError, DomainError, ResonanceError,
                     SingularMaterialError)
from .materials import MaterialModel, UniaxialSuperconductor, Vacuum, permittivity

__all__ = [
    "Layer",
    "LayerStack",
    "StackMedia",
    "layer_wavevectors",
    "media_of",
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
class StackMedia:
    """What the wavevectors of a stack's layers need at one frequency, as
    arrays on a leading layer axis: kt2 = (omega/c)^2 eps_t, its decaying
    root k (the TM-family wavenumber) and the anisotropy 1 - eps_t/eps_z (0
    for an isotropic layer, and None when no layer is uniaxial); and the film
    thickness d (0 for a bare substrate)."""

    kt2: np.ndarray
    k: np.ndarray
    anisotropy: np.ndarray | None
    d: float

    @cached_property
    def _families(self):
        """Per family (M, N), built on first use: eta^2 terms of h^2 + eta^2 - kt2, and k."""
        a, k = self.anisotropy, self.k
        return (None if a is None else np.array([np.zeros_like(a), a]),
                np.array([np.ones_like(k), k]))


def _decaying_sqrt(w):
    """Principal complex square root folded onto Im >= 0 (Re >= 0 on the real axis)."""
    root = np.asarray(np.sqrt(np.asarray(w, dtype=complex)))  # 0-d stays writable
    return np.negative(root, out=root, where=root.imag < 0)


def media_of(omega: float, eps, d: float = 0.0) -> StackMedia:
    """StackMedia at angular frequency `omega` of layers with permittivities
    `eps` (PermittivityTensors, top to bottom; the stack coefficients need 2
    or 3) and film thickness `d`: each field built as one typed array."""
    if not real_in_range(omega):
        raise DomainError("omega must be positive and finite")
    kt2, anisotropy = [], []
    for e in eps:
        if e.eps_z == 0:
            raise SingularMaterialError("eps_z = 0 makes the extraordinary wave singular")
        kt2.append((omega / CONSTANTS.c) ** 2 * e.eps_t)
        anisotropy.append(None if e.is_isotropic else 1.0 - e.eps_t / e.eps_z)
    kt2 = np.array(kt2, dtype=complex)
    anisotropy = (np.array([a or 0 for a in anisotropy], dtype=complex)
                  if any(a is not None for a in anisotropy) else None)
    return StackMedia(kt2, _decaying_sqrt(kt2), anisotropy, d)


def stack_media(stack: LayerStack, omega: float) -> StackMedia:
    """StackMedia of `stack` at `omega`: one permittivity per layer."""
    return media_of(omega, [permittivity(layer.material, omega, stack.temperature)
                            for layer in stack.layers], stack.film_thickness)


def layer_wavevectors(eta, media: StackMedia):
    """z-wavenumbers (h1, h2) of both wave families in every layer of
    `media` at transverse wavenumber `eta`:

    h1^2 = (omega/c)^2 eps_t - eta^2
    h2^2 = eta^2 (1 - eps_t/eps_z) + (omega/c)^2 eps_t - eta^2

    The layer axis comes first and eta's axes follow.  When no layer is
    uniaxial h2 is h1; otherwise (h1, h2) is one array, a root over a family axis.
    """
    eta = np.asarray(eta, dtype=float)
    if np.count_nonzero(eta < 0):
        raise DomainError("eta must be non-negative")
    shape = media.kt2.shape + (1,) * eta.ndim
    kt2, eta2 = media.kt2.reshape(shape), eta**2
    if media.anisotropy is None:
        h1 = _decaying_sqrt(kt2 - eta2)
        return h1, h1
    return _decaying_sqrt(eta2 * media._families[0].reshape((2,) + shape) + kt2 - eta2)


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


def _stack_quotient(r, h, d: float):
    """One interface's coefficient r[0], or the film formula over layer h[1]."""
    if not 1 <= len(r) <= 2:
        raise DomainError("reflection coefficients need a medium of 2 or 3 layers")
    return r[0] if len(r) == 1 else generalized_r_te(r[0], r[1], h[1], d)


def scattering_coefficients(media: StackMedia, eta):
    """Phase-referenced film responses (M, N) of `media` at `eta`.

    M composes the ordinary-family wavevectors with TE interface
    coefficients, N the extraordinary family with TM ones (see module
    docstring), in one pass on a leading family axis.
    """
    h = layer_wavevectors(eta, media)
    h = h[0][np.newaxis] if media.anisotropy is None else h  # one h serves both families
    k = media._families[1].reshape((2,) + media.k.shape + (1,) * (h.ndim - 2))
    r = interface_rv(h[:, :-1], h[:, 1:], k[:, :-1], k[:, 1:])  # M at k = 1
    if h.ndim == 2:  # scalar eta: numpy's scalar complex product rounds unlike its array loop
        return tuple(_stack_quotient(r[f], h[f % len(h)], media.d) for f in (0, 1))
    return tuple(_stack_quotient(r.swapaxes(0, 1), h.swapaxes(0, 1), media.d))


def te_reflection(media: StackMedia, eta):
    """Generalized TE reflection coefficient of `media` at `eta`: M,
    computed without the TM family."""
    h = layer_wavevectors(eta, media)[0]
    return _stack_quotient(fresnel_te(h[:-1], h[1:]), h, media.d)
