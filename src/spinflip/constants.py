"""Physical constants, unit conventions and the atomic transition description.

All quantities in this package are strict SI (m, s, K, Hz, S/m, T).  The
constants are CODATA 2018 values hard-coded to full published precision; the
electron g-factor is fixed at exactly 2 so that rate prefactors are
reproducible to the digit.  Every formula reads the one CONSTANTS instance;
none takes other values.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "Constants",
    "CONSTANTS",
    "TransitionSpec",
    "RB87_CLOCK_TRANSITION",
    "rate_prefactor",
    "thermal_photon_number",
]


def finite_real(x) -> bool:
    """The one rule for a usable real input: a real number that is not a
    bool and fits a float, so NaN, the infinities and ints beyond the float
    range all fail."""
    # The float test first: it runs on every rate, and an isinstance test
    # against the numbers ABC costs about 20 times as much.
    return ((isinstance(x, float) or isinstance(x, numbers.Real) and not isinstance(x, bool))
            and abs(x) <= sys.float_info.max)


def real_in_range(x, *, or_zero: bool = False) -> bool:
    """True for a finite_real in (0, inf), or [0, inf) with `or_zero`."""
    return finite_real(x) and (0 <= x if or_zero else 0 < x)


@dataclass(frozen=True)
class Constants:
    """Fundamental constants (SI units)."""

    mu0: float = 1.25663706212e-6    # vacuum permeability (H/m)
    eps0: float = 8.8541878128e-12   # vacuum permittivity (F/m)
    hbar: float = 1.054571817e-34    # reduced Planck constant (J s)
    h: float = 6.62607015e-34        # Planck constant (J s, exact)
    kB: float = 1.380649e-23         # Boltzmann constant (J/K, exact)
    c: float = 299792458.0           # speed of light (m/s, exact)
    muB: float = 9.2740100783e-24    # Bohr magneton (J/T)
    gS: float = 2.0                  # electron g-factor, exactly 2 here


CONSTANTS = Constants()


@dataclass(frozen=True)
class TransitionSpec:
    """Magnetic dipole transition driving the spin flip.

    ``matrix_elements`` is the complex 3-vector <f|S|i> in hbar units, which
    sets the rate's channel weights.  None means the Rb-87 ground-state
    transition |2,2> -> |2,1>, whose weights are (1/4)^2 per channel.
    """

    frequency: float                 # transition frequency (Hz)
    label: str = ""
    matrix_elements: tuple[complex, complex, complex] | None = None

    def __post_init__(self):
        if not real_in_range(self.frequency):
            raise DomainError("transition frequency must be a positive finite number")
        m = self.matrix_elements
        if m is not None and not (hasattr(m, "__len__") and len(m) == 3 and all(
                isinstance(x, numbers.Complex) and not isinstance(x, bool)
                and finite_real(x.real) and finite_real(x.imag) for x in m)):
            raise DomainError("matrix_elements must be a finite 3-vector of numbers")

    @property
    def omega(self) -> float:
        """Angular frequency (rad/s)."""
        return 2.0 * math.pi * self.frequency


# Default transition: Rb-87 ground state |2,2> -> |2,1> at 560 kHz.
RB87_CLOCK_TRANSITION = TransitionSpec(frequency=560e3, label="Rb-87 |2,2> -> |2,1>")


def rate_prefactor() -> float:
    """Common prefactor of the layered-medium spin-flip rate formulas,
    mu0 * (muB * gS)**2 / (8 * hbar), in SI units."""
    c = CONSTANTS
    return c.mu0 * (c.muB * c.gS) ** 2 / (8.0 * c.hbar)


def thermal_photon_number(frequency: float, T: float) -> float:
    """Planck occupation of the field mode at `frequency` and temperature `T`.

    Returns exactly 0 at T = 0.  Uses expm1 so the small-argument regime
    (hbar*omega << kB*T, the usual case at sub-MHz transitions) is evaluated
    without cancellation.
    """
    if not real_in_range(frequency):
        raise DomainError("frequency must be positive and finite")
    if not real_in_range(T, or_zero=True):
        raise DomainError("temperature must be non-negative and finite")
    if T == 0:
        return 0.0
    x = CONSTANTS.h * frequency / (CONSTANTS.kB * T)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        # x above ~709.8 (h f >> kB T): the occupation underflows to 0.
        return 0.0
