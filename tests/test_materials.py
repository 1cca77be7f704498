import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinflip.constants import CONSTANTS
from spinflip.errors import DomainError
from spinflip.materials import (BSCCO, COPPER, NIOBIUM, VACUUM, DrudeMetal,
                                IsotropicSuperconductor, TwoFluidParams,
                                UniaxialSuperconductor, lambda_of_T,
                                material_presets, permittivity, preset,
                                sigma_n_of_T, skin_depth)

OMEGA = 2 * math.pi * 560e3


class TestLambdaOfT:
    def test_zero_temperature(self):
        assert lambda_of_T(35e-9, 0.0, 8.3, 4) == 35e-9

    def test_dwave_three_quarters(self):
        # (1 - 0.75)^(-1/2) = 2 exactly
        assert lambda_of_T(300e-9, 3.0, 4.0, 1) == 2 * 300e-9

    def test_swave_half_tc(self):
        expected = 35e-9 * (1 - (0.5) ** 4) ** -0.5
        assert lambda_of_T(35e-9, 2.0, 4.0, 4) == expected
        assert lambda_of_T(35e-9, 2.0, 4.0, 4) == pytest.approx(1.03280 * 35e-9, rel=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_of_T(35e-9, 8.3, 8.3, 4)
        with pytest.raises(DomainError):
            lambda_of_T(35e-9, 9.0, 8.3, 4)
        with pytest.raises(DomainError):
            lambda_of_T(35e-9, -1.0, 8.3, 4)
        with pytest.raises(DomainError):
            lambda_of_T(-35e-9, 1.0, 8.3, 4)

    @given(t1=st.floats(0.0, 0.999), t2=st.floats(0.0, 0.999),
           alpha=st.sampled_from([1.0, 2.0, 4.0]))
    def test_strictly_increasing(self, t1, t2, alpha):
        lo, hi = sorted((t1, t2))
        # the carrier fractions must differ resolvably at double precision,
        # otherwise both depths round to the same float
        assume(hi**alpha - lo**alpha > 1e-12)
        tc = 10.0
        assert lambda_of_T(1e-7, lo * tc, tc, alpha) < lambda_of_T(1e-7, hi * tc, tc, alpha)


class TestSigmaN:
    def test_endpoints(self):
        assert sigma_n_of_T(1e7, 0.0, 8.3, 4) == 0.0
        assert sigma_n_of_T(1e7, 8.3, 8.3, 4) == 1e7
        assert sigma_n_of_T(1e7, 20.0, 8.3, 4) == 1e7

    def test_half_tc_swave(self):
        assert sigma_n_of_T(1e7, 2.0, 4.0, 4) == 1e7 / 16


class TestSkinDepth:
    def test_copper_value(self):
        assert skin_depth(OMEGA, 5.8e7) == pytest.approx(8.831e-5, rel=1e-3)

    def test_scaling(self):
        base = skin_depth(OMEGA, 5.8e7)
        assert skin_depth(OMEGA / 4, 5.8e7) == pytest.approx(2 * base, rel=1e-12)
        assert skin_depth(OMEGA, 4 * 5.8e7) == pytest.approx(base / 2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            skin_depth(0.0, 5.8e7)
        with pytest.raises(DomainError):
            skin_depth(OMEGA, -1.0)


class TestFormulaDomain:
    # Each public formula either returns a finite real or raises a
    # DomainError that names its inputs: no complex value from a negative
    # alpha, no bare ZeroDivisionError where (T/Tc)^alpha rounds to 1 or
    # omega mu0 sigma underflows.
    @pytest.mark.parametrize("make, message", [
        (lambda: lambda_of_T(1e-7, 1.0, 9.0, -1.0), "alpha"),
        (lambda: lambda_of_T(1e-7, 1.0, 9.0, 0.0), "alpha"),
        (lambda: sigma_n_of_T(1e7, 0.0, 9.0, -1.0), "alpha"),
        (lambda: sigma_n_of_T(1e7, 1.0, 9.0, "4"), "alpha"),
        (lambda: lambda_of_T(1e-7, 1.0, 9.0, 1e-300), "alpha = 1e-300"),
        (lambda: lambda_of_T(1e-7, "1", 9.0, 4.0), "temperature"),
        (lambda: sigma_n_of_T(1e7, "20", 8.3, 4.0), "temperature"),
        (lambda: skin_depth(1e-300, 1e-300), "omega = 1e-300 rad/s and sigma = 1e-300"),
        (lambda: skin_depth(1e-300, 1e-10), "omega = 1e-300 rad/s and sigma = 1e-10"),
        (lambda: lambda_of_T(1.7e308, 8.2, 8.3, 4.0), "overflows double precision"),
    ], ids=["lambda-alpha-negative", "lambda-alpha-zero", "sigma-alpha-negative",
            "sigma-alpha-str", "lambda-fraction-rounds-to-one", "lambda-T-str",
            "sigma-T-str-above-tc", "skin-depth-underflow", "skin-depth-overflow",
            "lambda-lambda0-overflow"])
    def test_raises_domain_error(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()


class TestPermittivity:
    def test_vacuum_exact(self):
        eps = permittivity(VACUUM, OMEGA, 300.0)
        assert eps.eps_t == 1.0 and eps.eps_z == 1.0

    def test_copper_oracle(self):
        # i sigma/(eps0 omega), equivalently 2i/(k delta)^2
        eps = permittivity(COPPER, OMEGA, 4.2)
        oracle = 5.8e7 / (CONSTANTS.eps0 * OMEGA)
        assert eps.eps_t == pytest.approx(1j * oracle, rel=1e-12)
        assert eps.eps_t.imag == pytest.approx(1.8616e12, rel=1e-3)
        k = OMEGA / CONSTANTS.c
        delta = skin_depth(OMEGA, 5.8e7)
        assert eps.eps_t.imag == pytest.approx(2 / (k * delta) ** 2, rel=1e-12)

    def test_superconductor_zero_temperature_is_real(self):
        eps = permittivity(NIOBIUM, OMEGA, 0.0)
        k = OMEGA / CONSTANTS.c
        assert eps.eps_t.imag == 0.0
        assert eps.eps_t.real == pytest.approx(1 - 1 / (k * 35e-9) ** 2, rel=1e-12)

    @pytest.mark.parametrize("material, omega", [
        (NIOBIUM, 1e308), (BSCCO, 1e308), (NIOBIUM, 1e-300)],
        ids=["niobium-huge", "bscco-huge", "niobium-tiny"])
    def test_superfluid_term_beyond_double_precision_names_omega(self, material, omega):
        # (omega lambda/c)^2 overflows, or underflows to 0 under a division:
        # a DomainError naming omega, not a raw OverflowError (34, ...) or
        # ZeroDivisionError.
        with pytest.raises(DomainError, match=re.escape(f"at omega = {omega:g} rad/s")
                           + ".* overflows double precision"):
            permittivity(material, omega, 4.2)

    def test_uniaxial_isotropic_reduction(self):
        p = TwoFluidParams(lambda0=300e-9, Tc=90.0, sigma_normal=1e6, alpha=1)
        uni = UniaxialSuperconductor(transverse=p, longitudinal=p)
        eps = permittivity(uni, OMEGA, 10.0)
        assert eps.eps_t == eps.eps_z

    @given(
        lam0=st.floats(1e-9, 1e-4),
        tc=st.floats(1.0, 150.0),
        sigma=st.floats(1e2, 1e9),
        alpha=st.sampled_from([1.0, 4.0]),
        f=st.floats(1e3, 1e12),
        above=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2),
        anywhere=st.lists(st.floats(0.0, 1e300), min_size=2, max_size=2),
    )
    def test_above_tc_equals_drude(self, lam0, tc, sigma, alpha, f, above, anywhere):
        sc = IsotropicSuperconductor(TwoFluidParams(35e-9, 8.3, 1e7, 4))
        metal = DrudeMetal(1e7)
        for T in (8.3, 9.0, 77.0):
            assert permittivity(sc, OMEGA, T) == permittivity(metal, OMEGA, T)

        # run_sweep shares one field rate among rows that differ only in a T at
        # or above every Tc: each permittivity there is bitwise the same at any
        # such T, and at any T at all for vacuum and a normal metal.
        def bits(mat, T):
            eps = permittivity(mat, 2 * math.pi * f, T)
            return [x.hex() for e in (eps.eps_t, eps.eps_z) for x in (e.real, e.imag)]

        p = TwoFluidParams(lam0, tc, sigma, alpha)
        superconductors = (IsotropicSuperconductor(p), UniaxialSuperconductor(
            p, TwoFluidParams(lam0 * 10, tc, sigma / 3, alpha)))
        for mat, temperatures in ((VACUUM, anywhere), (DrudeMetal(sigma), anywhere),
                                  *((m, [tc, *(tc + u for u in above)]) for m in superconductors)):
            first = bits(mat, temperatures[0])
            assert all(bits(mat, T) == first for T in temperatures[1:])

    def test_continuity_at_tc(self):
        # The Meissner term vanishes linearly in Tc - T but is ~7 orders of
        # magnitude above the loss term at a relative offset of 1e-8 for
        # niobium-scale parameters at 560 kHz, so the 1e-6 agreement window
        # only opens within ~1e-14 of Tc.
        sc = IsotropicSuperconductor(TwoFluidParams(35e-9, 8.3, 1e7, 4))
        T = 8.3 * (1 - 5e-15)
        below = permittivity(sc, OMEGA, T).eps_t
        at = permittivity(DrudeMetal(1e7), OMEGA, 8.3).eps_t
        assert abs(below - at) / abs(at) < 1e-6

    def test_conductivity_form_consistency(self):
        # eps = 1 + i sigma(omega)/(eps0 omega) with the two-fluid optical
        # conductivity sigma = 2/(omega mu0 delta^2) + i/(omega mu0 lambda^2)
        # must agree with the direct evaluation.
        p = TwoFluidParams(lambda0=35e-9, Tc=8.3, sigma_normal=1e7, alpha=4)
        T = 4.2
        lam = lambda_of_T(p.lambda0, T, p.Tc, p.alpha)
        delta = skin_depth(OMEGA, sigma_n_of_T(p.sigma_normal, T, p.Tc, p.alpha))
        sigma = 2 / (OMEGA * CONSTANTS.mu0 * delta**2) + 1j / (OMEGA * CONSTANTS.mu0 * lam**2)
        alt = 1 + 1j * sigma / (CONSTANTS.eps0 * OMEGA)
        direct = permittivity(IsotropicSuperconductor(p), OMEGA, T).eps_t
        assert alt == pytest.approx(direct, rel=1e-12)

    @given(
        lam0=st.floats(1e-9, 1e-4),
        tc=st.floats(1.0, 150.0),
        sigma=st.floats(1e2, 1e9),
        alpha=st.sampled_from([1.0, 4.0]),
        t_frac=st.floats(0.0, 2.0),
        f=st.floats(1e3, 1e12),
    )
    def test_passivity(self, lam0, tc, sigma, alpha, t_frac, f):
        omega = 2 * math.pi * f
        T = t_frac * tc
        p = TwoFluidParams(lam0, tc, sigma, alpha)
        for mat in (VACUUM, DrudeMetal(sigma), IsotropicSuperconductor(p),
                    UniaxialSuperconductor(p, TwoFluidParams(lam0 * 10, tc, sigma / 3, alpha))):
            eps = permittivity(mat, omega, T)
            assert eps.eps_t.imag >= 0
            assert eps.eps_z.imag >= 0


class TestPresets:
    def test_listing(self):
        labels = {m.label for m in material_presets()}
        assert {"vacuum", "copper", "niobium", "bscco"} <= labels

    def test_niobium(self):
        nb = preset("niobium")
        assert nb.params.lambda0 == 35e-9
        assert nb.params.Tc == 8.3
        assert nb.params.alpha == 4.0
        assert nb.first_critical_field == pytest.approx(0.140)
        assert nb.gap_frequency == pytest.approx(700e9)

    def test_bscco(self):
        b = preset("bscco")
        assert b.transverse.Tc == 90.0
        assert b.transverse.lambda0 == 300e-9
        assert b.longitudinal.lambda0 == 100e-6
        assert b.transverse.alpha == 1.0
        assert b.first_critical_field == pytest.approx(0.013)
        assert b.gap_frequency == pytest.approx(7.5e12)

    def test_unknown(self):
        with pytest.raises(DomainError):
            preset("unobtainium")

    def test_mismatched_tc_rejected(self):
        with pytest.raises(DomainError):
            UniaxialSuperconductor(
                TwoFluidParams(300e-9, 90.0, 1e6, 1),
                TwoFluidParams(100e-6, 80.0, 1e3, 1))


class TestConstructors:
    @pytest.mark.parametrize("make", [
        lambda: DrudeMetal("5"),
        lambda: DrudeMetal(None),
        lambda: TwoFluidParams("1", 8.3, 1e7),
        lambda: TwoFluidParams(35e-9, "8.3", 1e7),
        lambda: TwoFluidParams(35e-9, 8.3, [1e7]),
        lambda: TwoFluidParams(35e-9, 8.3, 1e7, 4j),
    ], ids=["sigma-str", "sigma-none", "lambda0-str", "Tc-str", "sigma_normal-list",
            "alpha-complex"])
    def test_wrong_type_is_domain_error(self, make):
        # At construction, not as a TypeError from a range comparison.
        with pytest.raises(DomainError):
            make()
