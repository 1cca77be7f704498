"""Independent oracle for the rate: the film formulas written out on scalars
with cmath and integrated by scipy.integrate.quad.

For a seeded grid of stacks (bare Cu, and Nb, BSCCO and Cu films on Cu),
heights and temperatures, each default-settings gamma_field of
spin_flip_rate must match the oracle to 1e-8.  A second grid, of
normal-state Nb films about three heights thick, holds rates that refine
their initial panels, so the check covers the adaptive split loop as well.
At six points u = 2 eta z of every stack, both film responses M and N of
scattering_coefficients must match the cmath ones to 1e-12 as complex values.
Only the permittivities and the rate prefactor come from the package; the
wavenumbers, interface and film coefficients, channel weights and the
integral do not.
"""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from spinflip.constants import CONSTANTS, RB87_CLOCK_TRANSITION, rate_prefactor
from spinflip.materials import BSCCO, COPPER, NIOBIUM, VACUUM, permittivity
from spinflip.rates import spin_flip_rate
from spinflip.stratified import Layer, LayerStack, scattering_coefficients, stack_media

integrate = pytest.importorskip("scipy.integrate")

OMEGA = RB87_CLOCK_TRANSITION.omega
K1 = OMEGA / CONSTANTS.c
CASES = 32
REFINING_CASES = 16
# Substituted variable u = 2 eta z, split where the integrand changes scale
# (near metals its structure sits at u ~ z / skin depth).
EDGES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
         64.0, math.inf)
# u = 2 eta z of the coefficient comparison, across the integrand's range.
U_POINTS = (1e-4, 1e-2, 0.3, 1.0, 5.0, 30.0)


def decaying_sqrt(w: complex) -> complex:
    root = cmath.sqrt(w)
    return -root if root.imag < 0 else root


def quotient(r: list, h: list, d: float) -> complex:
    """One interface's coefficient, or the film formula over layer h[1]."""
    if len(r) == 1:
        return r[0]
    phase = cmath.exp(2j * h[1] * d)
    return (r[0] + r[1] * phase) / (1 + r[0] * r[1] * phase)


def oracle_media(stack: LayerStack):
    """kt2 = (omega/c)^2 eps_t and the anisotropy 1 - eps_t/eps_z of each layer."""
    eps = [permittivity(layer.material, OMEGA, stack.temperature) for layer in stack.layers]
    return [K1**2 * e.eps_t for e in eps], [1 - e.eps_t / e.eps_z for e in eps]


def oracle_m(kt2: list, d: float, eta: float) -> complex:
    """TE-like film response M: ordinary wavenumbers, TE interface coefficients."""
    h1 = [decaying_sqrt(k - eta**2) for k in kt2]
    r_te = [(h1[i] - h1[i + 1]) / (h1[i] + h1[i + 1]) for i in range(len(kt2) - 1)]
    return quotient(r_te, h1, d)


def oracle_n(kt2: list, anisotropy: list, d: float, eta: float) -> complex:
    """TM-like film response N: extraordinary wavenumbers, TM interface
    coefficients weighted by kt2."""
    h2 = [decaying_sqrt(eta**2 * a + k - eta**2) for k, a in zip(kt2, anisotropy)]
    r_v = [(h2[i] * kt2[i + 1] - h2[i + 1] * kt2[i])
           / (h2[i] * kt2[i + 1] + h2[i + 1] * kt2[i]) for i in range(len(kt2) - 1)]
    return quotient(r_v, h2, d)


def oracle_gamma_field(stack: LayerStack, z: float) -> float:
    kt2, anisotropy = oracle_media(stack)
    d = stack.film_thickness
    # Rb-87 preset, (1/4)^2 per spin channel: (w_M, w_N) = (3, 1); an
    # isotropic stack keeps w_M / (3 pi) alone.
    w_m, w_n = (3.0, 1.0) if stack.is_anisotropic else (1.0 / math.pi, 0.0)

    def integrand(eta: float) -> float:
        value = w_m * eta**2 * oracle_m(kt2, d, eta)
        if w_n:
            value += w_n * K1**2 * oracle_n(kt2, anisotropy, d, eta)
        return math.exp(-2 * eta * z) / (8 * math.pi) * value.imag

    scale = 1 / (2 * z)
    pieces = []
    with warnings.catch_warnings():
        # quad warns when roundoff stops it short of epsrel; the error
        # estimate is checked below.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(EDGES[:-1], EDGES[1:]):
            pieces.append(integrate.quad(lambda u: integrand(u * scale) * scale, a, b,
                                         epsabs=0, epsrel=1e-12, limit=200))
    total = math.fsum(p[0] for p in pieces)
    assert math.fsum(p[1] for p in pieces) <= 1e-10 * abs(total)
    return rate_prefactor() * total


def grid():
    rng = random.Random("oracle")
    films = (None, NIOBIUM, BSCCO, COPPER)
    for i in range(CASES):
        film = films[i % len(films)]
        T = rng.uniform(0.2, 100.0)
        z = math.exp(rng.uniform(math.log(1e-7), math.log(1e-4)))
        if film is None:
            yield LayerStack((Layer(VACUUM), Layer(COPPER)), T), z
        else:
            d = math.exp(rng.uniform(math.log(1e-9), math.log(1e-5)))
            yield LayerStack((Layer(VACUUM), Layer(film, d), Layer(COPPER)), T), z


def refining_grid():
    """Nb films on Cu above Tc, T 10-100 K, z 1.7-3 um and d 2.5-3.5 z: 5 of
    these 16 rates refine at the default settings."""
    rng = random.Random("oracle-refining")
    for _ in range(REFINING_CASES):
        T = rng.uniform(10.0, 100.0)
        z = rng.uniform(1.7e-6, 3e-6)
        d = rng.uniform(2.5, 3.5) * z
        yield LayerStack((Layer(VACUUM), Layer(NIOBIUM, d), Layer(COPPER)), T), z


def case_id(case) -> str:
    stack, z = case
    film = stack.layers[1].material.label if len(stack.layers) == 3 else "bare"
    return f"{film}-d{stack.film_thickness:.1e}-z{z:.1e}-T{stack.temperature:.0f}"


ALL_CASES = list(grid()) + list(refining_grid())


@pytest.mark.parametrize("stack, z", ALL_CASES, ids=map(case_id, ALL_CASES))
def test_gamma_field_matches_quad(stack, z):
    want = oracle_gamma_field(stack, z)
    got = spin_flip_rate(stack, z).gamma_field
    assert got == pytest.approx(want, rel=1e-8, abs=0)


@pytest.mark.parametrize("stack, z", ALL_CASES, ids=map(case_id, ALL_CASES))
def test_coefficients_match_cmath(stack, z):
    # The rate test above cannot see N: below 10 um N/(2M) <= 1e-12, far
    # under its 1e-8 bound.  Compare both film responses of every stack,
    # isotropic ones included, as complex values (Im N alone is ~1e-17
    # against |N| ~ 1, and ill-conditioned).
    kt2, anisotropy = oracle_media(stack)
    d = stack.film_thickness
    eta = np.array(U_POINTS) / (2 * z)
    m, n = scattering_coefficients(stack_media(stack, OMEGA), eta)
    for i, e in enumerate(eta):
        want_m, want_n = oracle_m(kt2, d, e), oracle_n(kt2, anisotropy, d, e)
        assert abs(m[i] - want_m) <= 1e-12 * abs(want_m)
        assert abs(n[i] - want_n) <= 1e-12 * abs(want_n)


def test_refining_grid_refines():
    # Without a refining rate the oracle would not reach the split loop.
    assert any(spin_flip_rate(stack, z).diagnostics.refinements
               for stack, z in refining_grid())
