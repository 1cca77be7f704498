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
  leading (M, N) axis; te_reflection is M alone, from the same wavevector pass.

StackMedia is the one medium type of layer_wavevectors, scattering_coefficients
and te_reflection.  media_of checks omega, the permittivities and d once and
builds it (stack_media from a checked LayerStack, once per rate or sweep call);
each function checks only the medium's type and eta, and covers every layer in
one pass from its four fields, a scalar eta with its array element's bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, real_in_range
from .errors import DegenerateInterfaceError, DomainError, ResonanceError, SingularMaterialError
from .materials import (MaterialModel, PermittivityTensor, UniaxialSuperconductor, Vacuum,
                        permittivity)

__all__ = [
    "Layer",
    "LayerStack",
    "StackMedia",
    "layer_wavevectors",
    "media_of",
    "stack_media",
    "fresnel_te",
    "generalized_r_te",
    "scattering_coefficients",
    "te_reflection",
]

_DENOMINATOR_GUARD = 1e-14


def _tuple_of(items, name: str, kind: str) -> tuple:
    """`items` as a tuple; a DomainError when it is not an iterable."""
    if not isinstance(items, Iterable):
        raise DomainError(f"{name} must be an iterable of {kind}, not {type(items).__name__}")
    return tuple(items)


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
        object.__setattr__(self, "layers", _tuple_of(self.layers, "layers", "Layers"))
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


@dataclass(frozen=True, eq=False)
class StackMedia:
    """What the wavevectors of a stack's layers need at one frequency, as
    (layers, rows) arrays: kt2 = (omega/c)^2 eps_t, its decaying root k (the
    TM-family wavenumber) and the anisotropy 1 - eps_t/eps_z (0 for an
    isotropic layer, and None when no layer is uniaxial); and the film
    thickness d (0 for a bare substrate; one per row for rows of different d).
    A coefficient call forms what it reads from these.  A medium of R rows
    pairs them with eta's leading axis, of R or of 1 (rows that share their
    eta); one row (a single medium's) serves any eta.  Media compare and hash
    by identity, since their fields are arrays."""

    kt2: np.ndarray
    k: np.ndarray
    anisotropy: np.ndarray | None
    d: float


def _decaying_sqrt(w):
    """Principal complex square root folded onto Im >= 0 (Re >= 0 on the real axis)."""
    root = np.sqrt(w)
    return np.negative(root, out=root, where=root.imag < 0)


def media_of(omega: float, eps, d: float = 0.0) -> StackMedia:
    """StackMedia at angular frequency `omega` of layers with permittivities
    `eps` (PermittivityTensors, top to bottom; the stack coefficients need 2
    or 3) and film thickness `d`: kt2, k and anisotropy one column each."""
    if not (real_in_range(omega) and real_in_range(d, or_zero=True)):
        raise DomainError("omega must be positive and finite, and d non-negative and finite")
    try:
        k0_2 = (omega / CONSTANTS.c) ** 2
    except OverflowError as exc:
        raise DomainError(f"(omega/c)^2 at omega = {omega:g} rad/s overflows "
                          "double precision") from exc
    kt2, anisotropy = [], []
    for e in _tuple_of(eps, "eps", "PermittivityTensors"):
        if not isinstance(e, PermittivityTensor):
            raise DomainError(f"eps must hold PermittivityTensors, not {type(e).__name__}")
        if e.eps_z == 0:
            raise SingularMaterialError("eps_z = 0 makes the extraordinary wave singular")
        kt2.append(k0_2 * e.eps_t)
        anisotropy.append(None if e.is_isotropic else 1.0 - e.eps_t / e.eps_z)
    kt2 = np.array(kt2, dtype=complex)
    anisotropy = (np.array([a or 0 for a in anisotropy], dtype=complex)[:, None]
                  if any(a is not None for a in anisotropy) else None)
    return StackMedia(kt2[:, None], _decaying_sqrt(kt2)[:, None], anisotropy, d)  # one row


def stack_media(stack: LayerStack, omega: float, T: float | list | None = None) -> StackMedia:
    """StackMedia of `stack` at `omega` and `T` (default: the stack's
    temperature), or of a row per temperature of the list T: each layer's
    permittivity once per distinct T.  A single T keeps its own path, 11 us
    a call against 15 us through the list's."""
    if not isinstance(stack, LayerStack):
        raise DomainError(f"stack must be a LayerStack, not {type(stack).__name__}")
    if isinstance(T, list) and T:   # the rows' layers as layers of one medium, layer by layer
        eps = {t: [permittivity(layer.material, omega, t) for layer in stack.layers]
               for t in dict.fromkeys(T)}
        m = media_of(omega, [e for layer in zip(*map(eps.get, T)) for e in layer],
                     stack.film_thickness)
        return StackMedia(*(x if x is None else x.reshape(-1, len(T))
                            for x in (m.kt2, m.k, m.anisotropy)), m.d)
    T = stack.temperature if T is None else T
    return media_of(omega, [permittivity(layer.material, omega, T)
                            for layer in stack.layers], stack.film_thickness)


def _real_eta(media: StackMedia, eta) -> np.ndarray:
    """eta as a float array for a coefficient call on `media`: a DomainError if media
    is not a StackMedia, or eta does not cast to floats (complex or not numbers)."""
    if not isinstance(media, StackMedia):
        raise DomainError(f"media must be a StackMedia, not {type(media).__name__}")
    try:
        return np.asarray(eta).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"eta must be real numbers: {exc}") from exc


def _on_eta(x, nd: int):
    """Fields x of shape (..., rows) against eta of nd axes: the rows on eta's
    leading axis, and one row (a single medium's) against any eta."""
    return x if nd == 1 else x.reshape(x.shape[:-1] + (-1,) * (nd > 0) + (1,) * (nd - 1))


def layer_wavevectors(eta, media: StackMedia):
    """z-wavenumbers (h1, h2) of both wave families in every layer of
    `media` at transverse wavenumber `eta`:

    h1^2 = (omega/c)^2 eps_t - eta^2
    h2^2 = eta^2 (1 - eps_t/eps_z) + (omega/c)^2 eps_t - eta^2

    The layer axis comes first and eta's axes follow.  A medium of R > 1 rows
    pairs them with eta's leading axis, of 1 (rows that share their eta) or R.
    When no layer is uniaxial h2 is h1; otherwise (h1, h2) is one array, a root
    over a family axis.
    """
    eta, fields = _real_eta(media, eta), media.kt2.shape
    if len(fields) != 2 or fields[1] != 1 and eta.shape[:1] not in ((1,), fields[1:]):
        raise DomainError(f"eta of shape {eta.shape} does not pair with fields {fields}: a "
                          "medium's (layers, rows) pair their rows with eta's leading axis")
    if np.count_nonzero(eta < 0):
        raise DomainError("eta must be non-negative")
    eta2, kt2, a = np.square(eta), _on_eta(media.kt2, eta.ndim), media.anisotropy
    h = _decaying_sqrt(kt2 - eta2 if a is None else  # eta^2 terms -1 (M), anisotropy - 1 (N)
                       eta2 * _on_eta(np.array([np.full_like(a, -1.0), a - 1.0]), eta.ndim) + kt2)
    return (h, h) if a is None else h


def _interface_quotient(a, b, degenerate: str = "TM interface denominator vanished"):
    """The interface coefficient of both families, (a - b)/(a + b); a zero denominator
    raises DegenerateInterfaceError(`degenerate`), a non-number a DomainError."""
    try:
        den = a + b
        if np.count_nonzero(den) < np.size(den):
            raise DegenerateInterfaceError(degenerate)
        return (a - b) / den
    except TypeError as exc:
        raise DomainError(f"interface coefficients take numbers or numeric arrays: {exc}") from exc


def fresnel_te(k1z, k2z):
    """TE Fresnel reflection coefficient (k1z - k2z)/(k1z + k2z)."""
    return _interface_quotient(k1z, k2z, "k1z + k2z = 0")


def generalized_r_te(r12, r23, k2z, d: float):
    """Film reflection coefficient combining two interfaces with the interior
    round-trip phase:  (r12 + r23 e^{2i k2z d}) / (1 - r21 r23 e^{2i k2z d}),
    with r21 = -r12.  The one film formula of the package: both wave families
    compose their interface coefficients with its core _film, which takes 2i d."""
    if not real_in_range(d, or_zero=True):
        raise DomainError("film thickness must be non-negative and finite")
    return _film(r12, r23, k2z, 2j * d)


def _film(r12, r23, k2z, two_i_d: complex):
    """generalized_r_te of a checked thickness d, given as 2i d (a non-number: DomainError)."""
    try:
        back = r23 * np.exp(k2z * two_i_d)  # r23 e^{2i k2z d}
        den = r12 * back + 1.0
        if np.count_nonzero(np.abs(den) < _DENOMINATOR_GUARD):
            raise ResonanceError("film denominator below guard threshold")
        return (back + r12) / den
    except TypeError as exc:
        raise DomainError(f"the film formula takes numbers or numeric arrays: {exc}") from exc


def interface_rv(h_f, h_f1, k_f, k_f1):
    """TM-family interface coefficient (h_f k_f1^2 - h_f1 k_f^2)/(h_f k_f1^2 +
    h_f1 k_f^2), outside __all__: no program path calls it."""
    return _interface_quotient(h_f * k_f1**2, h_f1 * k_f**2)


def _stack_quotient(r, h, media: StackMedia):
    """One interface's coefficient, or the film formula over layer 1, of arrays of
    (families, layers) + eta's axes; a d per row pairs with eta's leading axis."""
    n = len(media.kt2)
    if not 2 <= n <= 3:
        raise DomainError("reflection coefficients need a medium of 2 or 3 layers")
    if n == 2:
        return r[:, 0]
    two_i_d = 2j * media.d
    if getattr(two_i_d, "size", 1) > 1:  # a d per row, paired as the rows of fields
        if r.shape[2:3] not in ((1,), two_i_d.shape):
            raise DomainError(f"d of shape {two_i_d.shape} does not pair with eta's axes "
                              f"{r.shape[2:]}: a d per row pairs with eta's leading axis")
        two_i_d = _on_eta(two_i_d, r.ndim - 2)
    return _film(r[:, 0], r[:, 1], h[:, 1], two_i_d)


def scattering_coefficients(media: StackMedia, eta):
    """Phase-referenced film responses (M, N) of `media` at `eta`.

    M composes the ordinary-family wavevectors with TE interface
    coefficients, N the extraordinary family with TM ones (see module
    docstring), as one array on a leading family axis; eta's axes follow,
    the leading one paired with the medium's rows as in layer_wavevectors.
    """
    eta = _real_eta(media, eta)
    h = layer_wavevectors(eta, media)
    h = h[0][np.newaxis] if media.anisotropy is None else h  # one h serves both families
    k2 = _on_eta(np.array([np.ones_like(media.k), media.k**2]), eta.ndim)  # per family
    r = _interface_quotient(h[:, :-1] * k2[:, 1:], h[:, 1:] * k2[:, :-1])
    return _stack_quotient(r, h, media)  # M at k^2 = 1


def te_reflection(media: StackMedia, eta):
    """Generalized TE reflection coefficient of `media` at `eta`: M, from
    row M of the same wavevector pass that scattering_coefficients takes."""
    h = layer_wavevectors(eta, media)[0][np.newaxis]  # the ordinary family's row
    return _stack_quotient(fresnel_te(h[:, :-1], h[:, 1:]), h, media)[0]
