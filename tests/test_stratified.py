import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinflip.constants import CONSTANTS
from spinflip.errors import (DegenerateInterfaceError, DomainError,
                             ResonanceError, SingularMaterialError)
from spinflip.materials import (COPPER, NIOBIUM, VACUUM, DrudeMetal,
                                PermittivityTensor, TwoFluidParams,
                                UniaxialSuperconductor, permittivity)
from spinflip.stratified import (Layer, LayerStack, fresnel_te,
                                 generalized_r_te, interface_rh, interface_rv,
                                 layer_wavevectors, scattering_coefficients,
                                 te_reflection, tm_reflection)

OMEGA = 2 * math.pi * 560e3
K0 = OMEGA / CONSTANTS.c

finite = dict(allow_nan=False, allow_infinity=False)
passive_eps = st.builds(
    complex,
    st.floats(-1e12, 1e12, **finite),
    st.floats(1e-3, 1e12, **finite),
)
wavenumbers = st.builds(
    complex,
    st.floats(1e-3, 1e7, **finite),
    st.floats(1e-3, 1e7, **finite),
)


def interface_rv_general(h_f, h_f1, k_f, k_f1, w1=1.0, w2=1.0):
    """Weighted TM-family interface coefficient (X - 1)/(X + 1) with
    X = h_f [(w1 - w2) h_f1^2 + w2 k_f1^2] / (h_f1 [(w1 - w2) h_f^2 + w2 k_f^2]).

    Reduces algebraically to interface_rv at w1 = w2 = 1; the reference for
    that identity."""
    x = (h_f * ((w1 - w2) * h_f1**2 + w2 * k_f1**2)) / (
        h_f1 * ((w1 - w2) * h_f**2 + w2 * k_f**2))
    return (x - 1.0) / (x + 1.0)


def stack(film_material, d, substrate=COPPER, T=4.2):
    return LayerStack((Layer(VACUUM), Layer(film_material, d), Layer(substrate)), T)


class TestLayerStack:
    def test_validation(self):
        with pytest.raises(DomainError):
            LayerStack((Layer(COPPER), Layer(VACUUM)), 4.2)  # atom layer not vacuum
        with pytest.raises(DomainError):
            LayerStack((Layer(VACUUM),), 4.2)
        with pytest.raises(DomainError):
            LayerStack((Layer(VACUUM), Layer(COPPER)), -1.0)
        with pytest.raises(DomainError):
            LayerStack((Layer(VACUUM), Layer(NIOBIUM), Layer(COPPER)), 4.2)  # inf film

    def test_film_thickness(self):
        assert stack(NIOBIUM, 1e-6).film_thickness == 1e-6
        assert LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2).film_thickness == 0.0

    def test_anisotropy_flag(self):
        from spinflip.materials import BSCCO
        assert stack(BSCCO, 1e-6).is_anisotropic
        assert not stack(NIOBIUM, 1e-6).is_anisotropic

    def test_with_film_thickness(self):
        s = stack(NIOBIUM, 1e-6).with_film_thickness(2e-6)
        assert s.film_thickness == 2e-6
        bare = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        assert bare.with_film_thickness(0.0) is bare
        with pytest.raises(DomainError):
            bare.with_film_thickness(1e-6)


class TestLayerWavevectors:
    def test_isotropic_families_coincide(self):
        eps = PermittivityTensor(2.0 + 1.0j, 2.0 + 1.0j)
        wv = layer_wavevectors(1e5, OMEGA, eps)
        assert wv.h1 == wv.h2

    def test_isotropic_h2_is_h1(self):
        eta = np.linspace(0.0, 1e7, 50)
        eps = permittivity(COPPER, OMEGA, 4.2)
        assert eps.is_isotropic
        wv = layer_wavevectors(eta, OMEGA, eps)
        assert wv.h2 is wv.h1
        # Same value as the extraordinary formula written out in full.
        h2 = np.sqrt(eta**2 * (1.0 - eps.eps_t / eps.eps_z)
                     + (OMEGA / CONSTANTS.c) ** 2 * eps.eps_t - eta**2 + 0j)
        h2 = np.where(h2.imag < 0, -h2, h2)
        np.testing.assert_allclose(wv.h2, h2, rtol=1e-15)

    def test_vacuum_normal_incidence(self):
        wv = layer_wavevectors(0.0, OMEGA, PermittivityTensor(1.0, 1.0))
        assert wv.h1 == pytest.approx(K0)
        assert wv.h1.imag == 0.0

    def test_vacuum_evanescent_branch(self):
        eta = 1e5
        wv = layer_wavevectors(eta, OMEGA, PermittivityTensor(1.0, 1.0))
        assert wv.h1.real == 0.0
        assert wv.h1.imag == pytest.approx(math.sqrt(eta**2 - K0**2), rel=1e-12)

    def test_singular_material(self):
        with pytest.raises(SingularMaterialError):
            layer_wavevectors(1e5, OMEGA, PermittivityTensor(1.0, 0.0))

    @given(eps_t=passive_eps, eps_z=passive_eps, eta=st.floats(0.0, 1e8))
    def test_decaying_branch(self, eps_t, eps_z, eta):
        wv = layer_wavevectors(eta, OMEGA, PermittivityTensor(eps_t, eps_z))
        for h in (complex(wv.h1), complex(wv.h2)):
            assert h.imag >= 0
            if h.imag == 0:
                assert h.real >= 0


class TestFresnel:
    def test_identical_media(self):
        assert fresnel_te(1.0 + 1.0j, 1.0 + 1.0j) == 0.0

    def test_perfect_conductor_limit(self):
        assert fresnel_te(1.0, 1e9) == pytest.approx(-1.0, abs=1e-8)

    @given(a=wavenumbers, b=wavenumbers)
    def test_antisymmetry(self, a, b):
        assert fresnel_te(a, b) == pytest.approx(-fresnel_te(b, a), rel=1e-12)

    def test_degenerate_interface(self):
        with pytest.raises(DegenerateInterfaceError):
            fresnel_te(1.0 + 0j, -1.0 + 0j)


class TestGeneralizedReflection:
    @given(a=wavenumbers, b=wavenumbers, c=wavenumbers)
    def test_zero_thickness_composition(self, a, b, c):
        # (r12 + r23)/(1 + r12 r23) == r13.  The strategy spans 10 orders of
        # magnitude, and the composition cancels one digit per order when b
        # is far from both a and c, so 1e-6 is the conditioning floor here;
        # physically sampled media stay at machine precision (asserted at
        # 1e-12 absolute in the acceptance suite).
        r12, r23 = fresnel_te(a, b), fresnel_te(b, c)
        composed = generalized_r_te(r12, r23, b, 0.0)
        assert composed == pytest.approx(fresnel_te(a, c), rel=1e-6, abs=1e-6)

    def test_thick_film_limit(self):
        r12, r23 = 0.3 + 0.1j, 0.5 - 0.2j
        k2z = 1.0 + 1e4j
        assert generalized_r_te(r12, r23, k2z, 1.0) == r12

    def test_transparent_back_interface(self):
        r12 = 0.3 + 0.1j
        for d in (0.0, 1e-7, 1e-5):
            assert generalized_r_te(r12, 0.0, 1e5 + 1e4j, d) == r12

    def test_resonant_denominator_flagged(self):
        with pytest.raises(ResonanceError):
            generalized_r_te(1j, 1j, 0.0, 0.0)

    def test_negative_thickness(self):
        with pytest.raises(DomainError):
            generalized_r_te(0.1, 0.1, 1.0, -1e-9)


class TestInterfaceCoefficients:
    def test_rh_equal_media(self):
        assert interface_rh(2.0 + 1.0j, 2.0 + 1.0j) == 0.0

    @given(a=wavenumbers, b=wavenumbers)
    def test_rh_antisymmetry(self, a, b):
        assert interface_rh(a, b) == pytest.approx(-interface_rh(b, a), rel=1e-12)

    @given(a=wavenumbers, b=wavenumbers)
    def test_rh_is_negated_fresnel(self, a, b):
        assert interface_rh(a, b) == pytest.approx(-fresnel_te(a, b), rel=1e-12)

    def test_rv_identical_media(self):
        assert interface_rv(1.0 + 1.0j, 1.0 + 1.0j, 2.0, 2.0) == 0.0

    def test_rv_conductor_limit(self):
        # k_{f+1} -> inf at fixed h gives +1
        assert interface_rv(1.0 + 1.0j, 2.0 + 0.5j, 1.0, 1e9) == pytest.approx(1.0, abs=1e-8)

    @given(h1=wavenumbers, h2=wavenumbers, k1=wavenumbers, k2=wavenumbers)
    def test_rv_general_reduces_at_unit_weights(self, h1, h2, k1, k2):
        reduced = interface_rv(h1, h2, k1, k2)
        assume(abs(reduced) < 1e3)  # both forms blow up at the X = -1 pole
        general = interface_rv_general(h1, h2, k1, k2, 1.0, 1.0)
        assert general == pytest.approx(reduced, rel=1e-12, abs=1e-12)


class TestScatteringCoefficients:
    eta_grid = np.geomspace(1e0, 1e7, 30)

    def test_zero_thickness_is_single_interface(self):
        s = stack(NIOBIUM, 0.0)
        b_m, _ = scattering_coefficients(s, self.eta_grid, OMEGA)
        bare = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        h1 = layer_wavevectors(self.eta_grid, OMEGA, PermittivityTensor(1, 1)).h1
        h3 = layer_wavevectors(self.eta_grid, OMEGA, permittivity(COPPER, OMEGA, 4.2)).h1
        np.testing.assert_allclose(b_m, -fresnel_te(h1, h3), rtol=1e-12, atol=1e-12)

    def test_transparent_back_is_single_interface(self):
        # layer 3 identical to layer 2: R2 = 0, so B_M = R1
        metal = DrudeMetal(1e6)
        s = stack(metal, 3e-6, substrate=metal)
        b_m, _ = scattering_coefficients(s, self.eta_grid, OMEGA)
        h1 = layer_wavevectors(self.eta_grid, OMEGA, PermittivityTensor(1, 1)).h1
        h2 = layer_wavevectors(self.eta_grid, OMEGA, permittivity(metal, OMEGA, 4.2)).h1
        np.testing.assert_allclose(b_m, interface_rh(h1, h2), rtol=1e-12)

    def test_isotropic_degeneracy(self):
        # for an isotropic film both families collapse onto the generalized
        # reflection coefficients: B_M = -r_TE, B_N = -r_TM
        s = stack(DrudeMetal(1e6), 1e-6)
        b_m, b_n = scattering_coefficients(s, self.eta_grid, OMEGA)
        np.testing.assert_allclose(b_m, -te_reflection(s, self.eta_grid, OMEGA),
                                   rtol=1e-10)
        np.testing.assert_allclose(b_n, -tm_reflection(s, self.eta_grid, OMEGA),
                                   rtol=1e-10)

    def test_te_reflection_is_exactly_minus_b_m(self):
        # the rate kernel takes M from te_reflection when the TM family has
        # zero weight and from -B_M otherwise; both must be the same numbers
        from spinflip.materials import BSCCO
        for s in (stack(NIOBIUM, 1e-6), stack(BSCCO, 2.5e-6),
                  LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)):
            b_m, _ = scattering_coefficients(s, self.eta_grid, OMEGA)
            np.testing.assert_array_equal(te_reflection(s, self.eta_grid, OMEGA), -b_m)

    def test_zero_thickness_layer_elision(self):
        s3 = stack(NIOBIUM, 0.0)
        s2 = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        bm3, bn3 = scattering_coefficients(s3, self.eta_grid, OMEGA)
        bm2, bn2 = scattering_coefficients(s2, self.eta_grid, OMEGA)
        np.testing.assert_allclose(bm3, bm2, rtol=1e-12, atol=1e-12)
        # TM-family interface coefficients of a conductor-grade film sit
        # within ~1e-11 of +-1 at 560 kHz, so the d = 0 composition cancels
        # ~11 digits; agreement is conditioning-limited, not a formula error.
        np.testing.assert_allclose(bn3, bn2, rtol=1e-12, atol=1e-9)
        r3 = te_reflection(s3, self.eta_grid, OMEGA)
        r2 = te_reflection(s2, self.eta_grid, OMEGA)
        np.testing.assert_allclose(r3, r2, rtol=1e-12, atol=1e-12)

    def test_uniaxial_film_families_differ(self):
        from spinflip.materials import BSCCO
        b_m, b_n = scattering_coefficients(stack(BSCCO, 1e-6), self.eta_grid, OMEGA)
        assert not np.allclose(b_m, -b_n)

    def test_passivity_of_te_reflection(self, rng):
        # evanescent reflection off random passive lossy stacks has Im >= 0
        for _ in range(50):
            sigma_f = 10 ** rng.uniform(2, 9)
            sigma_s = 10 ** rng.uniform(2, 9)
            d = 10 ** rng.uniform(-9, -5)
            s = stack(DrudeMetal(sigma_f), d, substrate=DrudeMetal(sigma_s))
            eta = 10 ** rng.uniform(0, 7, size=40)
            r = te_reflection(s, eta, OMEGA)
            assert np.all(r.imag >= 0)
