"""Complex relative permittivity models.

Four material variants are supported: vacuum, a normal metal in the
low-frequency (Drude/skin-depth) limit, an isotropic two-fluid superconductor,
and a uniaxially anisotropic one (distinct in-plane and out-of-plane
penetration depths and normal-fluid conductivities).

The two-fluid permittivity is

    eps(omega, T) = 1 - 1/(k^2 lambda(T)^2) + i sigma_n(T)/(eps0 omega)

with k = omega/c, the Meissner term controlled by the temperature-dependent
penetration depth and the loss term by the normal-fluid conductivity.  Note
i*sigma_n/(eps0*omega) is identically 2i/(k^2 delta^2) with delta the skin
depth of the normal fluid; the conductivity form avoids dividing by a zero
conductivity at T = 0.

One carrier split, n_n(T)/n_0 = (T/Tc)^alpha, serves both penetration-depth
power laws (alpha = 4 conventional s-wave, alpha = 1 d-wave), so that
lambda(T) = lambda(0) [1 - (T/Tc)^alpha]^(-1/2) and sigma_n(T) = sigma (T/Tc)^alpha
remain mutually consistent.  At and above Tc every superconductor variant
degrades to the Drude metal of its normal-state conductivity.  Each value is
checked once, where it enters: the models' parameters by their constructors,
omega and T by permittivity, and the arguments of lambda_of_T and sigma_n_of_T
by those functions.  The private two-fluid core behind all three trusts them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .constants import CONSTANTS, real_in_range
from .errors import DomainError

__all__ = [
    "TwoFluidParams",
    "PermittivityTensor",
    "Vacuum",
    "DrudeMetal",
    "IsotropicSuperconductor",
    "UniaxialSuperconductor",
    "MaterialModel",
    "lambda_of_T",
    "sigma_n_of_T",
    "skin_depth",
    "permittivity",
    "material_presets",
    "preset",
]


@dataclass(frozen=True)
class TwoFluidParams:
    """Parameters of one two-fluid permittivity component."""

    lambda0: float        # zero-temperature penetration depth (m)
    Tc: float             # transition temperature (K)
    sigma_normal: float   # normal-state conductivity just above Tc (S/m)
    alpha: float = 4.0    # exponent of the (T/Tc)^alpha carrier split

    def __post_init__(self):
        for name in ("lambda0", "Tc", "sigma_normal", "alpha"):
            if not real_in_range(getattr(self, name)):
                raise DomainError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PermittivityTensor:
    """Uniaxial relative permittivity: eps_t in plane (xx = yy), eps_z out of plane."""

    eps_t: complex
    eps_z: complex

    @property
    def is_isotropic(self) -> bool:
        return self.eps_t == self.eps_z


@dataclass(frozen=True)
class Vacuum:
    label: str = "vacuum"


@dataclass(frozen=True)
class DrudeMetal:
    """Normal metal, eps = i sigma/(eps0 omega) (relative units)."""

    sigma: float          # DC conductivity (S/m)
    label: str = "metal"

    def __post_init__(self):
        if not real_in_range(self.sigma):
            raise DomainError("sigma must be positive and finite")


def _check_validity_metadata(material) -> None:
    """A superconductor's first critical field and gap frequency are each
    positive and finite, or None."""
    for name in ("first_critical_field", "gap_frequency"):
        value = getattr(material, name)
        if value is not None and not real_in_range(value):
            raise DomainError(f"{name} must be positive and finite, or None")


@dataclass(frozen=True)
class IsotropicSuperconductor:
    """s-wave-like superconductor: one two-fluid component for all axes."""

    params: TwoFluidParams
    label: str = "superconductor"
    # Validity metadata only (never enforced numerically): the model assumes
    # the Meissner state, i.e. local fields below the first critical field.
    first_critical_field: float | None = None   # (T)
    gap_frequency: float | None = None          # (Hz)

    def __post_init__(self):
        _check_validity_metadata(self)


@dataclass(frozen=True)
class UniaxialSuperconductor:
    """Layered (d-wave-like) superconductor with distinct in-plane and
    out-of-plane penetration depths.

    `transverse` governs eps_t (in-plane response, from the in-plane
    penetration depth); `longitudinal` governs eps_z."""

    transverse: TwoFluidParams
    longitudinal: TwoFluidParams
    label: str = "uniaxial superconductor"
    first_critical_field: float | None = None
    gap_frequency: float | None = None

    def __post_init__(self):
        _check_validity_metadata(self)
        if self.transverse.Tc != self.longitudinal.Tc:
            raise DomainError("transverse and longitudinal components must share Tc")


MaterialModel = Union[Vacuum, DrudeMetal, IsotropicSuperconductor, UniaxialSuperconductor]


def _below_tc(p: TwoFluidParams, T: float) -> tuple[float, float]:
    """lambda(T) and sigma_n(T) of checked parameters below Tc from one split (T/Tc)^alpha."""
    fraction = (T / p.Tc) ** p.alpha
    lam = p.lambda0 * (1.0 - fraction) ** -0.5 if fraction < 1.0 else math.inf
    if lam == math.inf:
        raise DomainError(f"lambda(T = {T:g} K) with Tc = {p.Tc:g} K, alpha = {p.alpha:g} "
                          f"overflows double precision")
    return lam, p.sigma_normal * fraction


def lambda_of_T(lambda0: float, T: float, Tc: float, alpha: float) -> float:
    """Penetration depth lambda(T) = lambda0 [1 - (T/Tc)^alpha]^(-1/2), only
    defined below Tc; strictly increasing in T."""
    p = TwoFluidParams(lambda0, Tc, 1.0, alpha)  # checks lambda0, Tc and alpha
    if not (real_in_range(T, or_zero=True) and T < Tc):
        raise DomainError("temperature must be non-negative, finite and below Tc")
    return _below_tc(p, T)[0]


def sigma_n_of_T(sigma_normal: float, T: float, Tc: float, alpha: float) -> float:
    """Normal-fluid conductivity sigma_n(T) = sigma_normal (T/Tc)^alpha,
    clamped to sigma_normal at and above Tc."""
    p = TwoFluidParams(1.0, Tc, sigma_normal, alpha)  # checks Tc, sigma_normal and alpha
    if not real_in_range(T, or_zero=True):
        raise DomainError("temperature must be non-negative and finite")
    return sigma_normal if T >= Tc else _below_tc(p, T)[1]


def skin_depth(omega: float, sigma: float) -> float:
    """Skin depth sqrt(2/(omega mu0 sigma)) of a conductor."""
    if not (real_in_range(omega) and real_in_range(sigma)):
        raise DomainError("omega and sigma must be positive and finite")
    product = omega * CONSTANTS.mu0 * sigma
    if product <= 2.0 / sys.float_info.max:  # 2/product overflows or divides by 0
        raise DomainError(f"skin depth at omega = {omega:g} rad/s and sigma = {sigma:g} "
                          f"S/m overflows double precision")
    return math.sqrt(2.0 / product)


def _drude_eps(sigma: float, omega: float) -> complex:
    # i*sigma/(eps0*omega) == 2i/(k^2 delta^2)
    return 1j * sigma / (CONSTANTS.eps0 * omega)


def _two_fluid_eps(p: TwoFluidParams, omega: float, T: float) -> complex:
    if T >= p.Tc:
        return _drude_eps(p.sigma_normal, omega)
    lam, sig_n = _below_tc(p, T)
    try:
        superfluid = 1.0 / (omega / CONSTANTS.c * lam) ** 2
    except ArithmeticError as exc:  # the square overflows, or underflows to 0
        raise DomainError(f"(omega lambda/c)^2 or its inverse at omega = {omega:g} rad/s and "
                          f"lambda = {lam:g} m overflows double precision") from exc
    return 1.0 - superfluid + _drude_eps(sig_n, omega)


def permittivity(material: MaterialModel, omega: float, T: float) -> PermittivityTensor:
    """Relative permittivity tensor of `material` at angular frequency `omega`
    and temperature `T`.  Superconductors evaluated at T >= Tc return their
    normal-state Drude permittivity."""
    if not real_in_range(omega):
        raise DomainError("omega must be positive and finite")
    if not real_in_range(T, or_zero=True):
        raise DomainError("temperature must be non-negative and finite")
    if isinstance(material, Vacuum):
        return PermittivityTensor(1.0 + 0.0j, 1.0 + 0.0j)
    if isinstance(material, DrudeMetal):
        e = _drude_eps(material.sigma, omega)
        return PermittivityTensor(e, e)
    if isinstance(material, IsotropicSuperconductor):
        e = _two_fluid_eps(material.params, omega, T)
        return PermittivityTensor(e, e)
    if isinstance(material, UniaxialSuperconductor):
        return PermittivityTensor(
            _two_fluid_eps(material.transverse, omega, T),
            _two_fluid_eps(material.longitudinal, omega, T),
        )
    raise DomainError(f"unknown material variant {type(material).__name__}")


# ---------------------------------------------------------------------------
# Presets
#
# Penetration depths, transition temperatures, critical fields and gap
# frequencies are published material values.  The normal-state conductivities
# are NOT: they are model defaults chosen so the canonical stacks reproduce
# the benchmark lifetimes documented in README.md, and every configuration
# file may override them.
# ---------------------------------------------------------------------------

NIOBIUM_SIGMA_NORMAL = 1.0e7       # S/m, thin-film value just above Tc
BSCCO_SIGMA_NORMAL = 4.5e7         # S/m, in-plane, just above Tc
BSCCO_SIGMA_ANISOTROPY = 1e-3      # out-of-plane / in-plane conductivity ratio
COPPER_SIGMA = 5.8e7               # S/m

VACUUM = Vacuum()
COPPER = DrudeMetal(sigma=COPPER_SIGMA, label="copper")
NIOBIUM = IsotropicSuperconductor(
    params=TwoFluidParams(lambda0=35e-9, Tc=8.3, sigma_normal=NIOBIUM_SIGMA_NORMAL,
                          alpha=4.0),
    label="niobium",
    first_critical_field=0.140,
    gap_frequency=700e9,
)
BSCCO = UniaxialSuperconductor(
    transverse=TwoFluidParams(lambda0=300e-9, Tc=90.0,
                              sigma_normal=BSCCO_SIGMA_NORMAL, alpha=1.0),
    longitudinal=TwoFluidParams(lambda0=100e-6, Tc=90.0,
                                sigma_normal=BSCCO_SIGMA_NORMAL * BSCCO_SIGMA_ANISOTROPY,
                                alpha=1.0),
    label="bscco",
    first_critical_field=0.013,
    gap_frequency=7.5e12,
)

_PRESETS = {m.label: m for m in (VACUUM, COPPER, NIOBIUM, BSCCO)}


def material_presets() -> tuple[MaterialModel, ...]:
    """All built-in material models."""
    return tuple(_PRESETS.values())


def preset(name: str) -> MaterialModel:
    """Look up a built-in material by label."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown material preset {name!r}; "
                          f"available: {sorted(_PRESETS)}") from None
