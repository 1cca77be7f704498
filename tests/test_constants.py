import math
import re
from decimal import Decimal, getcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinflip.constants import (CONSTANTS, RB87_CLOCK_TRANSITION,
                                TransitionSpec, rate_prefactor,
                                thermal_photon_number)
from spinflip.errors import DomainError


def decimal_prefactor() -> Decimal:
    """Independent high-precision evaluation of mu0 (muB gS)^2/(8 hbar)."""
    getcontext().prec = 50
    mu0 = Decimal("1.25663706212e-6")
    muB = Decimal("9.2740100783e-24")
    hbar = Decimal("1.054571817e-34")
    return mu0 * (muB * 2) ** 2 / (8 * hbar)


def decimal_photon_number(frequency: str, temperature: str) -> Decimal:
    """Independent high-precision 1/(exp(h f / kB T) - 1)."""
    getcontext().prec = 50
    h = Decimal("6.62607015e-34")
    kB = Decimal("1.380649e-23")
    x = h * Decimal(frequency) / (kB * Decimal(temperature))
    return 1 / (x.exp() - 1)


class TestConstants:
    def test_vacuum_relation(self):
        c = CONSTANTS
        assert abs(c.c**2 * c.mu0 * c.eps0 - 1.0) < 1e-9

    def test_all_positive(self):
        for name in ("mu0", "eps0", "hbar", "h", "kB", "c", "muB", "gS"):
            assert getattr(CONSTANTS, name) > 0

    def test_g_factor_exactly_two(self):
        assert CONSTANTS.gS == 2.0


class TestRatePrefactor:
    def test_value_against_decimal_oracle(self):
        oracle = float(decimal_prefactor())
        assert rate_prefactor() == pytest.approx(oracle, rel=1e-12)
        # coarse published-scale check
        assert rate_prefactor() == pytest.approx(5.125e-19, rel=1e-3)


class TestThermalPhotonNumber:
    def test_zero_temperature(self):
        assert thermal_photon_number(560e3, 0.0) == 0.0

    def test_helium_temperature_against_decimal_oracle(self):
        oracle = float(decimal_photon_number("560e3", "4.2"))
        value = thermal_photon_number(560e3, 4.2)
        assert abs(value - oracle) <= 1.0
        assert value == pytest.approx(1.5627e5, rel=1e-4)

    def test_ln2_argument_gives_unity(self):
        # h f = kB T ln 2  =>  n = 1/(2 - 1) = 1
        T = 1.0
        f = CONSTANTS.kB * T * math.log(2) / CONSTANTS.h
        assert thermal_photon_number(f, T) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("frequency,temperature", [(560e3, 1e-9), (1e15, 4.2)])
    def test_large_argument_underflows_to_zero(self, frequency, temperature):
        # h f / kB T above ~709.8 overflows exp; the occupation is 0
        assert thermal_photon_number(frequency, temperature) == 0.0

    @pytest.mark.parametrize("temperature", [1e-320, 5e-324, 1e-300])
    def test_tiny_temperature_gives_zero(self, temperature):
        # kB T underflows (or h f / kB T overflows): the occupation is 0
        assert thermal_photon_number(560e3, temperature) == 0.0

    @pytest.mark.parametrize("frequency,temperature", [(1e-300, 4.2), (1e-10, 1e300),
                                                       (560e3, 1e305)])
    def test_overflowing_occupation_is_domain_error(self, frequency, temperature):
        # h f / kB T rounds to 0 or so close to it that 1/x overflows
        with pytest.raises(DomainError,
                           match=re.escape(f"f = {frequency:g} Hz and T = {temperature:g} K")):
            thermal_photon_number(frequency, temperature)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thermal_photon_number(0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_photon_number(-1e5, 1.0)
        with pytest.raises(DomainError):
            thermal_photon_number(560e3, -0.1)

    @given(f=st.floats(1e3, 1e9), t1=st.floats(0.01, 400), t2=st.floats(0.01, 400))
    def test_monotone_in_temperature(self, f, t1, t2):
        lo, hi = sorted((t1, t2))
        if lo < hi:
            assert thermal_photon_number(f, lo) <= thermal_photon_number(f, hi)

    @given(t=st.floats(0.01, 400), f1=st.floats(1e3, 1e9), f2=st.floats(1e3, 1e9))
    def test_monotone_decreasing_in_frequency(self, t, f1, f2):
        lo, hi = sorted((f1, f2))
        if lo < hi:
            assert thermal_photon_number(lo, t) >= thermal_photon_number(hi, t)

    @given(x=st.floats(1e-9, 1e-3))
    def test_small_argument_expansion(self, x):
        # for h f / kB T = x << 1: n ~ 1/x - 1/2 with relative error < 1e-6
        T = 4.2
        f = x * CONSTANTS.kB * T / CONSTANTS.h
        n = thermal_photon_number(f, T)
        xeff = CONSTANTS.h * f / (CONSTANTS.kB * T)
        assert abs(n - (1 / xeff - 0.5)) / n < 1e-6


class TestTransitionSpec:
    def test_default_preset(self):
        assert RB87_CLOCK_TRANSITION.frequency == 560e3
        assert RB87_CLOCK_TRANSITION.matrix_elements is None
        assert RB87_CLOCK_TRANSITION.omega == pytest.approx(2 * math.pi * 560e3)

    def test_validation(self):
        with pytest.raises(DomainError):
            TransitionSpec(frequency=0.0)
        with pytest.raises(DomainError):
            TransitionSpec(frequency=560e3, matrix_elements=(1, 0))
        spec = TransitionSpec(frequency=1e6, matrix_elements=(0.25, 0.25j, 0.0))
        assert spec.matrix_elements == (0.25, 0.25j, 0.0)

    @pytest.mark.parametrize("make", [
        lambda: TransitionSpec("5e5"),
        lambda: TransitionSpec(None),
        lambda: TransitionSpec(560e3, matrix_elements=("a", 0, 0)),
        lambda: TransitionSpec(560e3, matrix_elements=(None, 0, 0)),
        lambda: TransitionSpec(560e3, matrix_elements=5),
        lambda: TransitionSpec(560e3, matrix_elements="abc"),
    ], ids=["frequency-str", "frequency-none", "element-str", "element-none",
            "elements-int", "elements-str"])
    def test_wrong_type_is_domain_error(self, make):
        # Not a bare TypeError from the comparison or from cmath.isfinite.
        with pytest.raises(DomainError):
            make()
