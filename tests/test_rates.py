import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import spinflip.constants
import spinflip.quadrature
import spinflip.rates
import spinflip.stratified
from spinflip.constants import CONSTANTS, RB87_CLOCK_TRANSITION, TransitionSpec, rate_prefactor
from spinflip.errors import (DomainError, GrazingSingularityError, QuasiStaticWarning,
                             SpinflipError)
from spinflip.materials import (BSCCO, COPPER, NIOBIUM, VACUUM, DrudeMetal,
                                IsotropicSuperconductor, TwoFluidParams,
                                UniaxialSuperconductor, lambda_of_T, sigma_n_of_T,
                                skin_depth)
from spinflip.quadrature import QuadratureSettings, integrate_semi_infinite
from spinflip.rates import (PATH_CALIBRATION_RATIO, RateResult, SpinOrientation,
                            double_curl_integrand, gamma_anisotropic,
                            gamma_general, gamma_isotropic,
                            rate_integrand_anisotropic, spin_flip_rate)
from spinflip.stratified import (Layer, LayerStack, media_of, scattering_coefficients,
                                 stack_media, te_reflection)
from spinflip.sweep import screening_factor

OMEGA = RB87_CLOCK_TRANSITION.omega

# Adaptive result for the bare copper substrate at z = 10 um, T = 4.2 K,
# frozen as the screening-denominator oracle (checked against the dense
# Riemann sum below).
TAU_BARE_COPPER = 387.81191936628557


def riemann_gamma_isotropic(stack, z, n=2_000_000, umax=80.0):
    """Independent fixed-grid evaluation of the isotropic-route field rate."""
    u = np.linspace(2e-9, umax, n)
    eta = u / (2 * z)
    r = te_reflection(stack_media(stack, OMEGA), eta)
    integrand = eta**2 * np.exp(-2 * eta * z) / 2 * r.imag / (2 * math.pi) ** 2
    return rate_prefactor() * np.trapezoid(integrand, eta)


class TestIsotropicRate:
    def test_lossless_stack_has_zero_rate(self):
        # at T = 0 the two-fluid permittivity is purely real: no noise
        lossless = LayerStack((Layer(VACUUM), Layer(NIOBIUM)), 0.0)
        result = gamma_isotropic(lossless, 10e-6)
        assert result.gamma_field == 0.0
        assert result.gamma_total == 0.0
        assert math.isinf(result.tau)

    def test_bare_copper_against_riemann_oracle(self, copper_stack):
        result = gamma_isotropic(copper_stack, 10e-6)
        oracle = riemann_gamma_isotropic(copper_stack, 10e-6)
        assert result.gamma_field == pytest.approx(oracle, rel=1e-4, abs=0)
        assert result.tau == pytest.approx(TAU_BARE_COPPER, rel=1e-6, abs=0)

    def test_thermal_scaling_is_exact(self, niobium_stack):
        result = gamma_isotropic(niobium_stack, 10e-6)
        assert result.gamma_total / result.gamma_field == pytest.approx(
            result.n_th + 1.0, rel=1e-13, abs=0)
        assert result.tau * result.gamma_total == pytest.approx(1.0, rel=1e-13, abs=0)

    def test_temperature_argument_overrides_stack(self, niobium_stack):
        hot = gamma_isotropic(niobium_stack, 10e-6, T=6.0)
        cold = gamma_isotropic(LayerStack(niobium_stack.layers, 6.0), 10e-6)
        assert hot.gamma_total == cold.gamma_total

    def test_rejects_uniaxial_stack(self, bscco_stack):
        with pytest.raises(DomainError):
            gamma_isotropic(bscco_stack, 10e-6)

    def test_rejects_bad_height(self, copper_stack):
        with pytest.raises(DomainError):
            gamma_isotropic(copper_stack, 0.0)

    def test_quasistatic_warning(self, copper_stack):
        with pytest.warns(UserWarning, match="quasi-static"):
            gamma_isotropic(copper_stack, 10.0)

    @pytest.mark.filterwarnings("ignore:.*quasi-static:UserWarning")
    @pytest.mark.parametrize("z, frequency", [
        (10e-6, 1e15),   # 0.3 um wavelength: the kernel gives -4.6e-7 1/s
        (1.0, 560e3),    # the kernel gives -1.4e-36 1/s
    ])
    def test_negative_rate_is_domain_error(self, niobium_stack, z, frequency):
        with pytest.raises(DomainError, match="negative field rate.*quasi-static"):
            spin_flip_rate(niobium_stack, z, TransitionSpec(frequency=frequency))

    def test_distance_decay(self, niobium_stack):
        zs = np.geomspace(1e-6, 1e-4, 8)
        gammas = [gamma_isotropic(niobium_stack, z).gamma_field for z in zs]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_zero_thickness_equals_bare_substrate(self, copper_stack):
        film0 = LayerStack((Layer(VACUUM), Layer(NIOBIUM, 0.0), Layer(COPPER)), 4.2)
        a = gamma_isotropic(film0, 10e-6).gamma_field
        b = gamma_isotropic(copper_stack, 10e-6).gamma_field
        assert a == pytest.approx(b, rel=1e-6, abs=0)


class TestQuasiStaticWarning:
    @pytest.mark.parametrize("route", [spin_flip_rate, gamma_anisotropic, gamma_general])
    def test_attributed_to_the_caller(self, niobium_stack, bscco_stack, route):
        fast = TransitionSpec(frequency=1e12)  # quasi-static below z ~ 3 um
        for stack in (niobium_stack, bscco_stack):
            with pytest.warns(QuasiStaticWarning, match="quasi-static") as record:
                route(stack, 10e-6, fast)
            assert [w.filename for w in record] == [__file__]


class TestAnisotropicRate:
    def test_lossless_stack(self):
        lossless = LayerStack((Layer(VACUUM), Layer(NIOBIUM, 1e-6), Layer(NIOBIUM)), 0.0)
        assert gamma_anisotropic(lossless, 10e-6).gamma_field == 0.0

    def test_bscco_zero_thickness_equals_bare_substrate(self, bscco_stack):
        film0 = bscco_stack.with_film_thickness(0.0)
        bare = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        a = gamma_anisotropic(film0, 10e-6).gamma_field
        b = gamma_anisotropic(bare, 10e-6).gamma_field
        assert a == pytest.approx(b, rel=1e-6, abs=0)

    def test_path_ratio_is_three_pi(self):
        s = LayerStack((Layer(VACUUM), Layer(DrudeMetal(1e6), 1e-6), Layer(COPPER)), 4.2)
        for z in (1e-6, 10e-6):
            ratio = gamma_anisotropic(s, z).gamma_field / gamma_isotropic(s, z).gamma_field
            assert ratio == pytest.approx(PATH_CALIBRATION_RATIO, rel=1e-6, abs=0)

    def test_nonnegative_over_random_passive_stacks(self, rng):
        for _ in range(25):
            film = DrudeMetal(10 ** rng.uniform(3, 8))
            sub = DrudeMetal(10 ** rng.uniform(3, 8))
            s = LayerStack((Layer(VACUUM), Layer(film, 10 ** rng.uniform(-9, -5)),
                            Layer(sub)), rng.uniform(0.1, 300))
            z = 10 ** rng.uniform(-6, -4)
            assert gamma_anisotropic(s, z).gamma_field >= 0
            assert gamma_isotropic(s, z).gamma_field >= 0


class TestClosedFormLimits:
    """The scattering route's absolute rate against closed-form limits of a
    Drude conductor (copper, 300 K, skin depth delta = 88.3 um at the Rb-87
    clock frequency), on isotropic stacks: the shared-wavevector branch of
    scattering_coefficients.

    Unit: N(z) = mu0^2 (muB gS)^2 sigma kB T/(16 pi hbar^2 z), the classical
    rate of the near-field kernel, so the field rate enters with the
    classical occupation kB T/(hbar omega) in place of n_th + 1 (they differ
    by hbar omega/(2 kB T) = 4.5e-8 here).  Derivation (Varpula & Poutanen,
    J. Appl. Phys. 55, 4015 (1984); Henkel, Poetting & Wilkens, Appl. Phys. B
    69, 379 (1999)): quasi-statically a half-space has kt^2 = 2i/delta^2,
    and with x = eta delta,

        x^2 Im r_TE = w^3/(1 + w),   x = w (1 - w^2)^(-1/4),  0 <= w < 1,

    so Gamma/N = (3/32) R(t), t = z/delta, R(t) = 4t int e^(-2tx) x^2 Im r_TE dx,
    with R -> 1 at z << delta.  3/32 is Henkel et al.'s half-space tensor
    diag(1/2, 1/2, 1) contracted with the preset's w_par = w_perp = 1/16.
    * z << delta: R = 1 - (32/15) t + pi t^2 + O(t^3), from
      int (x^2 Im r_TE - 1/2) dx = -8/15 and int x (x^2 Im r_TE - 1/2) dx
      = -pi/8.  Bound: 4 t^2.
    * z >> delta: x^2 Im r_TE = x^3 - x^4 + x^5/4 + O(x^7) and Watson's
      lemma give R = (3/(2 t^3)) (1 - 2/t + 5/(4 t^2) + O(t^-4)), i.e.
      Gamma/N -> (9/64)(delta/z)^3.  Bound: 1.5/t^2 on the bracket.
    * A film of thickness d << z << delta on vacuum: to first order in
      kt^2, Im r_TE = (1 - e^(-2 eta d))/(2 eta^2 delta^2), so
      Gamma/N = (3/32) d/(z + d) = (3/32)(d/z)(1 - d/z + (d/z)^2 - ...), with
      screening corrections of order (z d/delta^2)^2.  Bound: 1.5 (d/z)^2.
    The constants 4 and 1.5 are the derived next-order coefficients (pi, 5/4,
    1) rounded up, not fits to the route under test.
    """

    T = 300.0
    SETTINGS = QuadratureSettings(rel_tol=1e-12)
    DELTA = math.sqrt(2.0 / (CONSTANTS.mu0 * COPPER.sigma * OMEGA))

    def over_unit(self, stack, z):
        c = CONSTANTS
        gamma = gamma_anisotropic(stack, z, settings=self.SETTINGS).gamma_field
        classical = gamma * c.kB * self.T / (c.hbar * OMEGA)
        unit = (c.mu0**2 * (c.muB * c.gS) ** 2 * COPPER.sigma * c.kB * self.T
                / (16.0 * math.pi * c.hbar**2 * z))
        return classical / unit

    def half_space(self):
        return LayerStack((Layer(VACUUM), Layer(COPPER)), self.T)

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
    def test_half_space_near_field(self, t):
        r = self.over_unit(self.half_space(), t * self.DELTA) / (3.0 / 32.0)
        assert abs(r - (1.0 - 32.0 / 15.0 * t)) <= 4.0 * t**2

    @pytest.mark.parametrize("t", [10.0, 30.0, 100.0])
    def test_half_space_far_from_the_skin_depth(self, t):
        r = self.over_unit(self.half_space(), t * self.DELTA) / (9.0 / 64.0 / t**3)
        assert abs(r - (1.0 - 2.0 / t)) <= 1.5 / t**2

    @pytest.mark.parametrize("d, z", [(1e-9, 1e-6), (1e-8, 1e-6), (1e-9, 1e-5)])
    def test_thin_film(self, d, z):
        film = LayerStack((Layer(VACUUM), Layer(COPPER, d), Layer(VACUUM)), self.T)
        r = self.over_unit(film, z) / (3.0 / 32.0 * d / z)
        assert abs(r - (1.0 - d / z)) <= 1.5 * (d / z) ** 2


def _thick_superconductor_cases():
    """(material, T/Tc, z): the Nb-class s-wave film at alpha = 4 and the
    d-wave law alpha = 1, and a BSCCO-class uniaxial half-space."""
    cases = [pytest.param(IsotropicSuperconductor(TwoFluidParams(35e-9, 8.3, 1e7, alpha)),
                          t, z, id=f"{alpha}-{t}-{z}")
             for alpha in (1.0, 4.0) for t in (0.3, 0.6, 0.9) for z in (10e-6, 1e-6)]
    cases += [pytest.param(UniaxialSuperconductor(TwoFluidParams(300e-9, 90.0, 4.5e7, 1.0),
                                                  TwoFluidParams(lambda_z, 90.0, 4.5e4, 1.0)),
                           t, z, id=f"uniaxial-{lambda_z}-{t}-{z}")
              for lambda_z in (100e-6, 1e-3) for t in (0.3, 0.6, 0.9) for z in (10e-6, 50e-6)]
    return cases


class TestThickSuperconductorLimit:
    """The scattering route's absolute rate above a thick two-fluid
    superconductor against its lambda/z expansion (Skagerstam, Hohenester,
    Eiguren & Rekdal, PRL 97, 070401 (2006); Hohenester et al., PRA 76,
    033618 (2007)): an isotropic one (lambda0 = 35 nm, Tc = 8.3 K,
    sigma_normal = 1e7 S/m) and a BSCCO-class uniaxial one (in plane
    lambda0 = 300 nm, Tc = 90 K, sigma_normal = 4.5e7 S/m, alpha = 1; out of
    plane lambda0 = 100 um or 1 mm).

    With C = Gamma_total 16 pi hbar^2 z^4/(mu0^2 (muB gS)^2 kB T sigma_n(T)
    lambda(T)^3) and x = lambda(T)/z, C -> 9/32: the lifetime follows
    tau(T) ~ [1 - (T/Tc)^alpha]^(3/2)/(T (T/Tc)^alpha), the s-wave (alpha = 4)
    versus d-wave (alpha = 1) law.  Derivation: quasi-statically the
    half-space has h = i q, q^2 = eta^2 + lambda^-2 - i mu0 sigma_n omega, so
    to first order in the loss mu0 sigma_n omega lambda^2 (below 1e-6 here)
    Im r_TE = mu0 sigma_n omega lambda^2 s f(s), s = eta lambda,
    f(s) = e^(-2 asinh s)/sqrt(1 + s^2) = 1 - 2s + (3/2)s^2 + 0 s^3 - (5/8)s^4.
    Under the kernel eta^2 e^(-2 eta z) an s^n term weighs (3+n)!/(3! 2^n)
    x^n, so C 32/9 = (1 - 4x + 7.5x^2 - 32.8x^4)(1 + hbar omega/(2 kB T)), the
    last factor from n_th + 1 = (kB T/hbar omega)(1 + hbar omega/(2 kB T)).
    In a uniaxial layer M is the ordinary family, which sees only eps_t, so
    lambda and sigma_n are the in-plane ones; the out-of-plane response
    enters only through the N channel, whose weight k1^2 is near-field small.
    K = 8.5 is the derived x^2 coefficient 7.5 plus a margin of 1 for the
    occupation term, which is at most 0.43 x^2 on this grid.
    gamma_isotropic reads C/(3 pi) = 0.0294 at z = 10 um.
    """

    SETTINGS = QuadratureSettings(rel_tol=1e-12)

    @pytest.mark.parametrize("material, t, z", _thick_superconductor_cases())
    def test_lambda_over_z_expansion(self, material, t, z):
        p = getattr(material, "params", None) or material.transverse  # the in-plane component
        c, T = CONSTANTS, t * p.Tc
        stack = LayerStack((Layer(VACUUM), Layer(material)), T)
        gamma = gamma_anisotropic(stack, z, settings=self.SETTINGS).gamma_total
        lam = lambda_of_T(p.lambda0, T, p.Tc, p.alpha)
        sigma = sigma_n_of_T(p.sigma_normal, T, p.Tc, p.alpha)
        C = (gamma * 16.0 * math.pi * c.hbar**2 * z**4
             / (c.mu0**2 * (c.muB * c.gS) ** 2 * c.kB * T * sigma * lam**3))
        x = lam / z
        assert abs(C * 32.0 / 9.0 - (1.0 - 4.0 * x)) <= 8.5 * x**2

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.7, 0.8])
    @pytest.mark.parametrize("film, d", [(NIOBIUM, 2e-6), (BSCCO, 20e-6)],
                             ids=["niobium", "bscco"])
    def test_log_slope_of_thick_film_on_copper(self, film, d, t):
        # Gamma_field = Gamma_total/(n_th + 1) goes as sigma_n lambda^3 (1 -
        # 4x + 7.5x^2), sigma_n ~ t^alpha and lambda ~ (1 - t^alpha)^(-1/2), so
        # d ln Gamma_field/d ln T = alpha + (3 alpha/2) s + (alpha/2) s x(-4 +
        # 15x)/(1 - 4x + 7.5x^2), s = t^alpha/(1 - t^alpha): the s-wave (alpha
        # = 4) and d-wave (alpha = 1) slopes that criterion 11b orders.  The
        # film is thick enough (d/lambda >= 29) that the copper below is not seen.
        p, z, step = getattr(film, "params", None) or film.transverse, 10e-6, 1e-4
        T = t * p.Tc

        def log_gamma(ln_shift):
            stack = LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)),
                               T * math.exp(ln_shift))
            return math.log(gamma_anisotropic(stack, z, settings=self.SETTINGS).gamma_field)

        slope = (log_gamma(step) - log_gamma(-step)) / (2.0 * step)
        a, x = p.alpha, in_plane_lambda(film, T) / z
        s = t**a / (1.0 - t**a)
        expected = a + 1.5 * a * s + 0.5 * a * s * x * (-4.0 + 15.0 * x) / (1.0 - 4.0 * x
                                                                           + 7.5 * x**2)
        assert abs(slope - expected) <= a * x**2 * s


def in_plane_lambda(film, T):
    """lambda(T) of an isotropic film, or the in-plane one of a uniaxial film."""
    p = getattr(film, "params", None) or film.transverse
    return lambda_of_T(p.lambda0, T, p.Tc, p.alpha)


def pearl_sheet_coefficient(z):
    """C(z) = lim (1 - Gamma/Gamma0) lambda^2/(d z) as d -> 0 over bare copper,
    from the first-order response of a sheet of kinetic inductance
    mu0 lambda^2/d (Pearl, Appl. Phys. Lett. 5, 65 (1964)): the sheet adds
    d/lambda^2 to kappa_1 = -i h1 in r = (h0 - h1)/(h0 + h1), so dr/d(d/lambda^2)
    = -2i h0/(h0 + h1)^2, h0 and h1 the decaying (Im h > 0) z-wavenumbers of
    vacuum and copper.  With scipy.integrate.quad over u = 2 eta z:

        C(z) = -(1/2z) int eta^2 e^(-2 eta z) Im[-4i h0/(h0 + h1)^2] d eta
                       / int eta^2 e^(-2 eta z) Im[(h0 - h1)/(h0 + h1)] d eta.
    """
    quad = pytest.importorskip("scipy.integrate").quad
    k2 = (OMEGA / CONSTANTS.c) ** 2
    eps_cu = 1 + 1j * COPPER.sigma / (CONSTANTS.eps0 * OMEGA)

    def weighted(u, response):
        eta = u / (2 * z)
        h0, h1 = np.sqrt(k2 - eta**2 + 0j), np.sqrt(k2 * eps_cu - eta**2)
        return u**2 * math.exp(-u) * response(h0, h1).imag

    def integral(response):
        return quad(weighted, 0, np.inf, args=(response,), epsabs=0, epsrel=1e-12,
                    limit=200)[0]

    sheet = integral(lambda h0, h1: -4j * h0 / (h0 + h1) ** 2)
    return -sheet / integral(lambda h0, h1: (h0 - h1) / (h0 + h1)) / (2 * z)


class TestFilmScreeningLimits:
    """Screening of the copper substrate by an s-wave (Nb) and a d-wave (BSCCO)
    film at both ends of its thickness d, lambda the film's (in-plane) lambda(T).

    Thick film: the field leaks through the film as e^(-2d/lambda), the decay
    that criterion 10b's xfail reason names, so -(lambda/2) d ln(Gamma(d) -
    Gamma(inf))/dd -> 1, Gamma(inf) the film material as a half-space on the
    film's rate route.  It reads 1.0000 on Nb and 1.0005 on BSCCO from 6 lambda
    up (1.0007 and 1.0010 at 4 lambda).

    Thin film: the film acts as a sheet of kinetic inductance mu0 lambda^2/d,
    whose scale against z is the Pearl length 2 lambda^2/d (Pearl, Appl. Phys.
    Lett. 5, 65 (1964)), not lambda.  So (1 - Gamma/Gamma0) lambda^2/(d z),
    Gamma0 the bare copper, tends to the sheet's C(z), set by the substrate and
    z alone (pearl_sheet_coefficient): 2.7521 at z = 10 um and 1.5200 at 30 um.
    The rates read 2.7515 (Nb) and 2.7532 (BSCCO) at 10 um, 1.5196 and 1.5202
    at 30 um, at 0 K and 4.2 K alike.  Both rates come from gamma_anisotropic:
    spin_flip_rate takes the scattering route on a BSCCO film and the 3 pi route
    on bare copper, and that ratio reads -7.95e6.
    """

    SETTINGS = QuadratureSettings(rel_tol=1e-13)

    @pytest.mark.parametrize("thickness", [6, 8, 10])   # in units of lambda
    @pytest.mark.parametrize("film", [NIOBIUM, BSCCO], ids=["niobium", "bscco"])
    def test_thick_film_leaks_as_exp_minus_2d_over_lambda(self, film, thickness):
        z, T = 10e-6, 4.2
        lam = in_plane_lambda(film, T)
        half_space = LayerStack((Layer(VACUUM), Layer(film)), T)
        gamma_inf = spin_flip_rate(half_space, z, settings=self.SETTINGS).gamma_total

        def log_excess(d):
            s = LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), T)
            return math.log(spin_flip_rate(s, z, settings=self.SETTINGS).gamma_total - gamma_inf)

        d, h = thickness * lam, 1e-3 * lam
        decay = -(lam / 2) * (log_excess(d + h) - log_excess(d - h)) / (2 * h)
        assert abs(decay - 1) <= 2e-3

    @pytest.mark.parametrize("T", [0.0, 4.2])
    @pytest.mark.parametrize("z", [10e-6, 30e-6])
    def test_thin_film_screens_by_the_pearl_length(self, z, T):
        d = 1e-14
        bare = gamma_anisotropic(LayerStack((Layer(VACUUM), Layer(COPPER)), T), z,
                                 settings=self.SETTINGS).gamma_total

        def coefficient(film):
            s = LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), T)
            screened = 1 - gamma_anisotropic(s, z, settings=self.SETTINGS).gamma_total / bare
            return screened * in_plane_lambda(film, T) ** 2 / (d * z)

        nb, bscco = coefficient(NIOBIUM), coefficient(BSCCO)
        assert nb > 0   # the film screens
        assert bscco == pytest.approx(nb, rel=1e-3, abs=0)
        sheet = pearl_sheet_coefficient(z)
        assert sheet == pytest.approx({10e-6: 2.7521, 30e-6: 1.5200}[z], rel=0, abs=1e-4)
        assert nb == pytest.approx(sheet, rel=1e-3, abs=0)
        assert bscco == pytest.approx(sheet, rel=1e-3, abs=0)


class TestNearMetalAccuracy:
    @pytest.mark.parametrize("film, d, z, T", [
        # The integrand peaks at small u = 2 eta z, between the Gauss nodes
        # of the first panel; |K21 - G10| alone as the error estimate
        # stopped 9.5e-8 and 1.1e-8 away from the converged rate.
        (BSCCO, 1.1367124191224407e-07, 3.9049753802193675e-07, 189.16829505828946),
        (NIOBIUM, 2.4029521023469546e-07, 1.2677749460686655e-06, 201.66802937103276),
    ], ids=["bscco", "niobium"])
    def test_near_metal_rate_meets_tolerance(self, film, d, z, T):
        s = LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), T)
        tight = QuadratureSettings(rel_tol=1e-12, max_refinements=1000)
        assert spin_flip_rate(s, z).gamma_field == pytest.approx(
            spin_flip_rate(s, z, settings=tight).gamma_field, rel=1e-8, abs=0)


def criterion13_stacks():
    """(stack, z) of each of the 1,000 random passive stacks of acceptance
    criterion 13, drawn in the same order from the same seed."""
    rng = np.random.default_rng(987654321)
    rng.uniform(0, 7, size=40)  # the criterion's eta grid
    for i in range(1000):
        kind = i % 3
        T = float(rng.uniform(0.0, 300.0))
        if kind == 0:
            film = DrudeMetal(10 ** rng.uniform(2, 9))
        elif kind == 1:
            tc = rng.uniform(1.0, 150.0)
            film = IsotropicSuperconductor(TwoFluidParams(
                10 ** rng.uniform(-8, -5), tc, 10 ** rng.uniform(2, 9),
                float(rng.choice([1.0, 4.0]))))
        else:
            tc = rng.uniform(1.0, 150.0)
            film = UniaxialSuperconductor(
                TwoFluidParams(10 ** rng.uniform(-8, -5), tc, 10 ** rng.uniform(2, 9), 1.0),
                TwoFluidParams(10 ** rng.uniform(-6, -3), tc, 10 ** rng.uniform(1, 6), 1.0))
        substrate = DrudeMetal(10 ** rng.uniform(2, 9))
        stack = LayerStack((Layer(VACUUM), Layer(film, 10 ** rng.uniform(-9, -5)),
                            Layer(substrate)), T)
        yield stack, 10 ** rng.uniform(-6, -4)


class TestRandomPassiveStackAccuracy:
    # With one first panel [2e-9, 0.25] in u these four rates reported
    # convergence while 5.1e-7, 1.7e-6, 4.3e-7 and 5.5e-7 away from the
    # converged value: the panel's error estimate missed the structure at
    # small u.  Stack 462 is an 8.6 um Drude film (6.6e3 S/m) on a 157 S/m
    # substrate at z = 1.55 um.
    def test_criterion13_stacks_meet_tolerance(self):
        picked = (330, 462, 675, 794)
        tight = QuadratureSettings(rel_tol=1e-13, max_refinements=1000)
        for i, (stack, z) in enumerate(criterion13_stacks()):
            if i in picked:
                assert spin_flip_rate(stack, z).gamma_field == pytest.approx(
                    spin_flip_rate(stack, z, settings=tight).gamma_field, rel=1e-8, abs=0), i


class TestDoubleCurlIntegrand:
    @pytest.mark.parametrize("multiple,tol", [(10, 1e-2), (100, 1e-4), (1000, 1e-5)])
    def test_near_field_reduction(self, niobium_stack, bscco_stack, multiple, tol):
        k = OMEGA / CONSTANTS.c
        z = 10e-6
        for stack in (niobium_stack, bscco_stack):
            eta = multiple * k
            full = complex(double_curl_integrand(stack, eta, z, OMEGA))
            near = float(rate_integrand_anisotropic(stack, eta, z, OMEGA))
            assert full.imag == pytest.approx(near, rel=tol, abs=0)

    def test_vanishing_coefficients(self):
        all_vacuum = LayerStack((Layer(VACUUM), Layer(VACUUM, 1e-6), Layer(VACUUM)), 4.2)
        value = complex(double_curl_integrand(all_vacuum, 1e5, 10e-6, OMEGA))
        assert value == 0.0

    def test_grazing_singularity_flagged(self, niobium_stack):
        k = OMEGA / CONSTANTS.c
        with pytest.raises(GrazingSingularityError):
            double_curl_integrand(niobium_stack, k, 10e-6, OMEGA)

    @pytest.mark.parametrize("integrand", [double_curl_integrand, rate_integrand_anisotropic])
    @pytest.mark.parametrize("eta, message", [
        (1e5 + 1j, "^eta must be real numbers: .*complex128"),
        (np.array([1e5 + 1j, 2e5]), "^eta must be real numbers: .*complex128"),
        ("x", r"^eta must be real numbers: .*<U1"),
    ], ids=["complex-scalar", "complex-array", "str"])
    def test_eta_is_read_as_real_numbers(self, integrand, eta, message, bscco_stack):
        # Not a TypeError, a ValueError, or a ComplexWarning that drops the
        # imaginary part.
        with pytest.raises(DomainError, match=message):
            integrand(bscco_stack, eta, 10e-6, OMEGA)


class TestOrientation:
    def test_parallel_perpendicular_factor_two(self, niobium_stack, bscco_stack):
        for stack in (niobium_stack, bscco_stack):
            par = gamma_general(stack, 10e-6, orientation=SpinOrientation.PARALLEL)
            perp = gamma_general(stack, 10e-6, orientation=SpinOrientation.PERPENDICULAR)
            ratio = par.tau / perp.tau
            assert 1.6 <= ratio <= 2.4
            assert par.tau > perp.tau  # parallel orientation lives longer

    def test_random_is_channel_sum(self, niobium_stack):
        par = gamma_general(niobium_stack, 10e-6, orientation=SpinOrientation.PARALLEL)
        perp = gamma_general(niobium_stack, 10e-6, orientation=SpinOrientation.PERPENDICULAR)
        rand = gamma_general(niobium_stack, 10e-6, orientation=SpinOrientation.RANDOM)
        assert rand.gamma_field == pytest.approx(
            par.gamma_field + perp.gamma_field, rel=1e-9, abs=0)

    def test_preset_random_reproduces_anisotropic_route(self, bscco_stack):
        a = gamma_general(bscco_stack, 10e-6)
        b = gamma_anisotropic(bscco_stack, 10e-6)
        assert a.gamma_field == pytest.approx(b.gamma_field, rel=1e-9, abs=0)

    def test_perpendicular_is_scaled_isotropic_route(self, niobium_stack):
        # both are the M channel alone: weights 2 (preset, perpendicular)
        # and 1/pi (isotropic route) on the same kernel
        perp = gamma_general(niobium_stack, 10e-6, orientation=SpinOrientation.PERPENDICULAR)
        iso = gamma_isotropic(niobium_stack, 10e-6)
        assert perp.gamma_field == pytest.approx(2 * math.pi * iso.gamma_field, rel=1e-14, abs=0)

    def test_tm_channel_grows_with_height(self, niobium_stack):
        # Gamma_par/Gamma_perp - 1/2 = N/(2M) is the TM-like channel's share.
        # It vanishes to rounding at atom-chip heights but not at 1 cm, far
        # below the quasi-static warning height (5.35 m at 560 kHz).
        def tm_share(z):
            par = gamma_general(niobium_stack, z, orientation=SpinOrientation.PARALLEL)
            perp = gamma_general(niobium_stack, z, orientation=SpinOrientation.PERPENDICULAR)
            return par.gamma_field / perp.gamma_field - 0.5
        assert abs(tm_share(10e-6)) <= 1e-12
        assert tm_share(1e-2) >= 1e-7

    @pytest.mark.parametrize("film, d", [(BSCCO, 2.5e-6), (NIOBIUM, 1e-6)],
                             ids=["bscco", "niobium"])
    def test_integrand_weighs_n_by_k1_squared(self, film, d):
        # The integrand's N weight k1^2 is computed once per rate.  At 1 cm
        # the N term reaches 1e-3 of the integrand at small eta; below 10 um
        # N/(2M) <= 1e-12, far under the tolerances of the rate tests.
        z = 1e-2
        stack = LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), 4.2)
        eta = np.geomspace(1e-3, 60.0, 200) / (2 * z)
        m, n = scattering_coefficients(stack_media(stack, OMEGA), eta)
        m_term = 3 * eta**2 * m.imag
        n_term = (OMEGA / CONSTANTS.c) ** 2 * n.imag
        want = np.exp(-2 * eta * z) / (8 * math.pi) * (m_term + n_term)
        np.testing.assert_allclose(rate_integrand_anisotropic(stack, eta, z, OMEGA), want,
                                   rtol=1e-14, atol=0)
        assert np.max(n_term / (m_term + n_term)) > 1e-4

    def test_zero_matrix_elements_zero_rate(self, niobium_stack, bscco_stack, copper_stack):
        # Zero weights run the one integral, which comes out exactly +0.0.
        silent = TransitionSpec(frequency=560e3, matrix_elements=(0, 0, 0))
        for stack in (niobium_stack, bscco_stack, copper_stack):
            for z in (0.1e-6, 10e-6, 1e-2):
                results = [spin_flip_rate(stack, z, silent)] + [
                    gamma_anisotropic(stack, z, silent, orientation=o) for o in SpinOrientation]
                if not stack.is_anisotropic:
                    results.append(gamma_isotropic(stack, z, silent))
                for result in results:
                    assert math.copysign(1.0, result.gamma_field) == 1.0
                    assert result.gamma_field == 0.0 and math.isinf(result.tau)
            # Zero weights do not skip the integrand: arithmetic that overflows
            # is a DomainError, as it is for nonzero elements.
            with pytest.raises(DomainError, match="overflows double precision"):
                spin_flip_rate(stack, 1e-300, silent)

    def test_explicit_elements_scale_quadratically(self, niobium_stack):
        single = TransitionSpec(frequency=560e3, matrix_elements=(0.25, 0, 0))
        double = TransitionSpec(frequency=560e3, matrix_elements=(0.5, 0, 0))
        a = gamma_general(niobium_stack, 10e-6, transition=single).gamma_field
        b = gamma_general(niobium_stack, 10e-6, transition=double).gamma_field
        assert b == pytest.approx(4 * a, rel=1e-9, abs=0)


class TestRouteDispatch:
    def test_dispatch(self, niobium_stack, bscco_stack):
        iso = spin_flip_rate(niobium_stack, 10e-6)
        assert iso.gamma_field == gamma_isotropic(niobium_stack, 10e-6).gamma_field
        aniso = spin_flip_rate(bscco_stack, 10e-6)
        assert aniso.gamma_field == gamma_anisotropic(bscco_stack, 10e-6).gamma_field

    def test_route_follows_class_not_permittivity(self):
        # A uniaxial film with equal components has Nb's isotropic permittivity,
        # yet takes the scattering route, bit for bit.
        p = NIOBIUM.params

        def stack(film):
            return LayerStack((Layer(VACUUM), Layer(film, 1e-6), Layer(COPPER)), 4.2)

        uniaxial = spin_flip_rate(stack(UniaxialSuperconductor(p, p)), 10e-6)
        isotropic = gamma_anisotropic(stack(IsotropicSuperconductor(p)), 10e-6)
        assert uniaxial.gamma_field == isotropic.gamma_field
        assert uniaxial.tau == isotropic.tau

    def test_benchmark_magnitudes(self, niobium_stack, bscco_stack):
        # canonical stacks at z = 10 um, 4.2 K (defaults documented in README)
        tau_nb = spin_flip_rate(niobium_stack, 10e-6).tau
        tau_b = spin_flip_rate(bscco_stack, 10e-6).tau
        assert tau_nb == pytest.approx(1.9386e11, rel=1e-3, abs=0)
        assert tau_b == pytest.approx(1.1713e7, rel=1e-3, abs=0)

    def test_tight_tolerance_converges(self, niobium_stack):
        settings = QuadratureSettings(rel_tol=1e-11)
        loose = spin_flip_rate(niobium_stack, 10e-6).gamma_field
        tight = spin_flip_rate(niobium_stack, 10e-6, settings=settings).gamma_field
        assert tight == pytest.approx(loose, rel=1e-7, abs=0)


class TestCallSites:
    # A rate looks these names up in their modules on every call, so a
    # patch of the module attribute (as the benchmark's tracer does) sees
    # every coefficient, wavevector and permittivity call of the rate.
    def test_patched_module_names_see_every_call(self, monkeypatch, niobium_stack,
                                                 bscco_stack, copper_stack):
        counts = Counter()
        for module, name in ((spinflip.rates, "te_reflection"),
                             (spinflip.rates, "scattering_coefficients"),
                             (spinflip.stratified, "layer_wavevectors"),
                             (spinflip.stratified, "permittivity")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        # One permittivity per layer and rate; one layer_wavevectors call
        # covers every layer of a coefficient call.
        for stack, coefficients, permittivities in (
                (niobium_stack, "te_reflection", 3),
                (bscco_stack, "scattering_coefficients", 3),
                (copper_stack, "te_reflection", 2)):
            counts.clear()
            diag = spin_flip_rate(stack, 10e-6).diagnostics
            calls = 1 + diag.refinements  # integrand calls
            assert counts == {coefficients: calls, "layer_wavevectors": calls,
                              "permittivity": permittivities}

    @pytest.mark.parametrize("z", [1e-6, 10e-6])
    def test_integrand_values_do_not_depend_on_call_grouping(self, monkeypatch, z,
                                                             niobium_stack, bscco_stack,
                                                             copper_stack):
        # The rate integrand works node by node, so the quadrature may group
        # its nodes into calls as it likes: one call on the first pass's 168
        # nodes, calls of 84 and 4 x 21 nodes, and one call per panel give the
        # same bits.
        seen = []

        def recording(integrand, *args, _real=spinflip.rates.integrate_semi_infinite):
            seen.append(integrand)
            return _real(integrand, *args)
        monkeypatch.setattr(spinflip.rates, "integrate_semi_infinite", recording)
        eta = spinflip.quadrature._INITIAL[2] * (1.0 / (2.0 * z))
        assert eta.size == 168
        groupings = [[slice(0, 168)],
                     [slice(0, 84)] + [slice(i, i + 21) for i in range(84, 168, 21)],
                     [slice(i, i + 21) for i in range(0, 168, 21)]]
        # The Nb film and bare Cu through te_reflection, BSCCO through
        # scattering_coefficients (test_patched_module_names_see_every_call).
        for stack in (niobium_stack, bscco_stack, copper_stack):
            seen.clear()
            spin_flip_rate(stack, z)
            f, = seen
            values = [np.concatenate([f(eta[s]) for s in calls]) for calls in groupings]
            assert values[0].dtype == np.float64 and np.isfinite(values[0]).all()
            assert values[0].tobytes() == values[1].tobytes() == values[2].tobytes()


class TestCheckedOnce:
    # Each value is checked where it enters; the private cores of a rate
    # trust it.  The 12 checks of a film stack: z by _gamma and by the
    # quadrature, omega and T by permittivity for each of the 3 layers, omega
    # and d by media_of, and frequency and T by thermal_photon_number.
    def test_finite_real_calls_per_rate(self, monkeypatch, niobium_stack, bscco_stack,
                                        copper_stack):
        calls, real = [], spinflip.constants.finite_real
        monkeypatch.setattr(spinflip.constants, "finite_real",
                            lambda x: calls.append(x) or real(x))
        for stack in (niobium_stack, bscco_stack, copper_stack):
            calls.clear()
            assert spin_flip_rate(stack, 10e-6).diagnostics.refinements == 0
            assert len(calls) <= 12

    @pytest.mark.parametrize("T", [4.2, 40.0, 100.0])
    def test_temperature_argument_equals_rebuilt_stack(self, niobium_stack, bscco_stack,
                                                       copper_stack, T):
        # The rate passes T down instead of rebuilding the stack at T.
        for stack in (niobium_stack, bscco_stack, copper_stack):
            assert spin_flip_rate(stack, 10e-6, T=T) == spin_flip_rate(
                LayerStack(stack.layers, T), 10e-6)


NB_STACK = LayerStack((Layer(VACUUM), Layer(NIOBIUM, 1e-6), Layer(COPPER)), 4.2)


class TestNonFiniteInputs:
    # An input that is not a finite real (NaN, an infinity, a bool, an int
    # beyond the float range, a string) or is out of its range fails at its
    # check, not later as a RuntimeWarning, a misleading "integrand not
    # finite" or "negative field rate", a bare OverflowError or
    # ZeroDivisionError, or a NaN.
    @pytest.mark.parametrize("make", [
        lambda: spin_flip_rate(NB_STACK, math.nan),
        lambda: spin_flip_rate(NB_STACK, math.inf),
        lambda: spin_flip_rate(NB_STACK, 10e-6, T=math.inf),
        lambda: spin_flip_rate(NB_STACK, 10e-6, T=math.nan),
        lambda: TransitionSpec(560e3, matrix_elements=(math.nan, 0, 0)),
        lambda: TransitionSpec(560e3, matrix_elements=(complex(0, math.inf), 0, 0)),
        lambda: TransitionSpec(math.nan),
        lambda: TransitionSpec(math.inf),
        lambda: LayerStack((Layer(VACUUM), Layer(COPPER)), math.nan),
        lambda: LayerStack((Layer(VACUUM), Layer(COPPER)), math.inf),
        lambda: Layer(NIOBIUM, math.nan),
        lambda: DrudeMetal(math.nan),
        lambda: DrudeMetal(math.inf),
        lambda: TwoFluidParams(math.nan, 8.3, 1e7),
        lambda: TwoFluidParams(35e-9, math.nan, 1e7),
        lambda: TwoFluidParams(35e-9, 8.3, math.inf),
        lambda: TwoFluidParams(35e-9, 8.3, 1e7, alpha=math.nan),
        lambda: lambda_of_T(35e-9, math.nan, 8.3, 4.0),
        lambda: sigma_n_of_T(1e7, math.nan, 8.3, 4.0),
        lambda: skin_depth(math.nan, 1e7),
        lambda: spin_flip_rate(NB_STACK, "1e-5"),
        lambda: gamma_general(NB_STACK, 10e-6, orientation="parallel"),
        lambda: spin_flip_rate(NB_STACK, True),
        lambda: spin_flip_rate(NB_STACK, 10**400),
        lambda: spin_flip_rate(NB_STACK, 10e-6, T=True),
        lambda: Layer(COPPER, True),
        lambda: spin_flip_rate(NB_STACK.with_film_thickness(10**400), 10e-6),
        lambda: TransitionSpec(True),
        lambda: DrudeMetal(True),
        lambda: TransitionSpec(560e3, matrix_elements=(True, 0, 0)),
        lambda: TransitionSpec(560e3, matrix_elements=(10**400, 0, 0)),
        lambda: QuadratureSettings(math.inf),
        lambda: QuadratureSettings(True),
        lambda: IsotropicSuperconductor(NIOBIUM.params, first_critical_field=-0.14),
        lambda: UniaxialSuperconductor(BSCCO.transverse, BSCCO.longitudinal,
                                       gap_frequency=-7.5e12),
        lambda: double_curl_integrand(NB_STACK, 1e5, math.nan, OMEGA),
        lambda: TransitionSpec(1e308),
        lambda: spin_flip_rate(NB_STACK, 1e-5, settings="x"),
        lambda: spin_flip_rate(NB_STACK, 1e-5, transition=None),
        lambda: spin_flip_rate("x", 1e-5),
        lambda: gamma_anisotropic(None, 1e-5),
        lambda: screening_factor(NB_STACK, 1e-5, "x"),
        lambda: integrate_semi_infinite(lambda eta: eta, 1e-5, "x"),
        lambda: double_curl_integrand("x", 1e5, 1e-5, OMEGA),
        lambda: double_curl_integrand(NB_STACK, 1e5, 1e-5, "x"),
        lambda: rate_integrand_anisotropic("x", 1e5, 1e-5, OMEGA),
        lambda: rate_integrand_anisotropic(NB_STACK, 1e5, "x", OMEGA),
        lambda: stack_media("x", OMEGA),
        lambda: media_of(OMEGA, ["x"]),
    ], ids=["z-nan", "z-inf", "T-inf", "T-nan", "element-nan", "element-inf",
            "frequency-nan", "frequency-inf", "stack-T-nan", "stack-T-inf",
            "thickness-nan", "sigma-nan", "sigma-inf", "lambda0-nan", "Tc-nan",
            "sigma_normal-inf", "alpha-nan", "lambda_of_T-nan", "sigma_n_of_T-nan",
            "skin_depth-nan", "z-str", "orientation-str", "z-bool", "z-huge-int",
            "T-bool", "thickness-bool", "film-huge-int", "frequency-bool", "sigma-bool",
            "element-bool", "element-huge-int", "rel_tol-inf", "rel_tol-bool",
            "first_critical_field-negative", "gap_frequency-negative",
            "double_curl-z-nan", "frequency-omega-overflow", "settings-str",
            "transition-none", "stack-str", "stack-none", "screening-transition-str",
            "integrate-settings-str", "double_curl-stack-str", "double_curl-omega-str",
            "integrand-stack-str", "integrand-z-str", "stack_media-stack-str",
            "media_of-eps-str"])
    def test_raises_domain_error(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("T", [[], [4.2], [4.2, 5.0]], ids=["none", "one", "two"])
    def test_a_list_of_temperatures_is_refused(self, T):
        # A list of T makes a medium with rows: a rate has one row, and one T.
        with pytest.raises(DomainError):
            spin_flip_rate(NB_STACK, 10e-6, T=T)

    def test_unknown_substrate_variant(self):
        with pytest.raises(DomainError, match="unknown material variant object"):
            spin_flip_rate(LayerStack((Layer(VACUUM), Layer(object())), 4.2), 10e-6)

    def test_outer_layers_stay_semi_infinite(self):
        assert Layer(COPPER).thickness == math.inf
        assert LayerStack((Layer(VACUUM), Layer(COPPER, math.inf)), 4.2).film_thickness == 0.0


def sc_stack(**params):
    """NB_STACK with its film's two-fluid parameters replaced."""
    p = {"lambda0": 35e-9, "Tc": 8.3, "sigma_normal": 1e7, "alpha": 4.0, **params}
    film = IsotropicSuperconductor(TwoFluidParams(**p))
    return LayerStack((Layer(VACUUM), Layer(film, 1e-6), Layer(COPPER)), 4.2)


class TestOverflowingInputs:
    # Finite inputs far outside any physical range overflow the arithmetic
    # of the rate.  Each is a DomainError naming the overflow, not a bare
    # OverflowError or ZeroDivisionError, a RuntimeWarning with "integrand
    # not finite", or a silent tau = 0.
    @pytest.mark.parametrize("make", [
        lambda: spin_flip_rate(NB_STACK, 1e-300),
        lambda: spin_flip_rate(NB_STACK, 10e-6, TransitionSpec(1e200)),
        lambda: spin_flip_rate(NB_STACK, 10e-6, T=1e305),
        lambda: spin_flip_rate(NB_STACK, 10e-6, TransitionSpec(560e3, matrix_elements=(1e200, 0, 0))),
        lambda: gamma_general(NB_STACK, 10e-6, TransitionSpec(
            560e3, matrix_elements=(complex(1.7e308, 1.7e308), 0, 0))),
        lambda: spin_flip_rate(NB_STACK, 10e-6, TransitionSpec(560e3, matrix_elements=(1e148, 0, 0))),
        lambda: spin_flip_rate(sc_stack(lambda0=1e-300), 10e-6),
        lambda: spin_flip_rate(sc_stack(lambda0=1e300), 10e-6),
        lambda: spin_flip_rate(sc_stack(alpha=1e-300), 10e-6),
        lambda: spin_flip_rate(sc_stack(sigma_normal=1e308), 10e-6),
    ], ids=["z-tiny", "frequency-huge", "T-huge", "element-huge", "element-abs-overflow",
            "weighted-integrand-overflow", "lambda0-tiny", "lambda0-huge", "alpha-tiny",
            "sigma_normal-huge"])
    def test_raises_domain_error(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiStaticWarning)
            with pytest.raises(DomainError, match="overflows double precision") as err:
                make()
        # The cause is the exception's message, not the repr of an
        # OverflowError's (errno, message) args.
        assert "(34," not in str(err.value)

    def test_cause_without_a_message_is_the_exception_type(self, monkeypatch):
        def overflow(*args):
            raise OverflowError
        monkeypatch.setattr(spinflip.rates, "integrate_semi_infinite", overflow)
        with pytest.raises(DomainError, match=r"overflows double precision \(OverflowError\)"):
            spin_flip_rate(NB_STACK, 10e-6)

    def test_extreme_inputs_that_stay_representable_still_compute(self):
        # The guard is on the arithmetic, not on a range of inputs.
        assert spin_flip_rate(NB_STACK, 1e-120).tau > 0
        assert spin_flip_rate(sc_stack(alpha=1e300), 10e-6).tau > 0

    def test_thermal_occupation_overflow(self):
        # gamma_field (n_th + 1) overflows after both factors computed.
        bare = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        strong = TransitionSpec(560e3, matrix_elements=(1e6, 0, 0))
        assert spin_flip_rate(bare, 1e-6, strong, T=1e290).gamma_total == pytest.approx(
            4.03e300, rel=1e-3)
        with pytest.raises(DomainError, match="overflows double precision .thermal occupation"):
            spin_flip_rate(bare, 1e-6, strong, T=1e300)


# Zero, negatives, non-finite floats, bools and ints beyond the float range.
EDGE_VALUES = [0.0, -0.0, -1.0, -5e-324, math.nan, math.inf, -math.inf,
               True, False, 10**400, -10**400]


def number(lo, hi):
    """A value in the physical range [lo, hi], a positive float from 5e-324
    to 1.8e308, or an edge value."""
    return st.floats(lo, hi) | st.floats(5e-324, 1.8e308) | st.sampled_from(EDGE_VALUES)


class TestAnyInput:
    # run_sweep records a SpinflipError as a row failure and lets any other
    # exception abort the sweep.  That is the whole row-failure policy only
    # if every input gives a RateResult or a SpinflipError.
    @seed(20261018)
    @settings(max_examples=300)
    @given(film=st.sampled_from([None, "drude", NIOBIUM, BSCCO]),
           sigma=number(1e2, 1e9), d=number(1e-9, 1e-5), z=number(1e-7, 1e-3),
           T=number(0.0, 300.0), frequency=number(1e3, 1e9),
           elements=st.none() | st.tuples(*[number(-1.0, 1.0) | st.complex_numbers(
               max_magnitude=1.8e308, allow_infinity=False, allow_nan=False)] * 3))
    def test_rate_or_spinflip_error(self, film, sigma, d, z, T, frequency, elements):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiStaticWarning)
            try:
                layers = (Layer(VACUUM), Layer(COPPER))
                if film is not None:
                    material = DrudeMetal(sigma) if film == "drude" else film
                    layers = (Layer(VACUUM), Layer(material, d), Layer(COPPER))
                transition = TransitionSpec(frequency, matrix_elements=elements)
                result = spin_flip_rate(LayerStack(layers, T), z, transition)
            except SpinflipError:
                return
        assert isinstance(result, RateResult) and result.gamma_field >= 0
