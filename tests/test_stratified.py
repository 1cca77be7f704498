import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinflip.constants import CONSTANTS
from spinflip.errors import (DegenerateInterfaceError, DomainError,
                             ResonanceError, SingularMaterialError)
from spinflip.materials import (BSCCO, COPPER, NIOBIUM, VACUUM, DrudeMetal,
                                PermittivityTensor, TwoFluidParams,
                                UniaxialSuperconductor, permittivity)
from spinflip.stratified import (Layer, LayerStack, StackMedia, fresnel_te,
                                 generalized_r_te, interface_rv,
                                 layer_wavevectors, media_of,
                                 scattering_coefficients, stack_media,
                                 te_reflection)

OMEGA = 2 * math.pi * 560e3
K0 = OMEGA / CONSTANTS.c

finite = dict(allow_nan=False, allow_infinity=False)
passive_eps = st.builds(
    complex,
    st.floats(-1e12, 1e12, **finite),
    st.floats(1e-3, 1e12, **finite),
)
# Either sign of Im: an active medium's roots need folding onto Im >= 0.
any_eps = st.builds(
    complex,
    st.floats(-1e12, 1e12, **finite),
    st.floats(1e-3, 1e12, **finite) | st.floats(-1e12, -1e-3, **finite),
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


def wavevectors(eta, eps):
    """(h1, h2) of one layer of permittivity `eps` at OMEGA: row 0 of a
    one-layer StackMedia."""
    h1, h2 = layer_wavevectors(eta, media_of(OMEGA, [eps]))
    return h1[0], h2[0]


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

    @pytest.mark.parametrize("make", [
        lambda: Layer(NIOBIUM, "1e-6"),
        lambda: Layer(NIOBIUM, 1e-6j),
        lambda: LayerStack((Layer(VACUUM), Layer(COPPER)), "4"),
        lambda: LayerStack((Layer(VACUUM), Layer(COPPER)), None),
        lambda: LayerStack((Layer(VACUUM), "copper"), 4.2),
        lambda: LayerStack(5, 4.2),
        lambda: LayerStack(None, 4.2),
        lambda: media_of(OMEGA, 5),
    ], ids=["thickness-str", "thickness-complex", "temperature-str", "temperature-none",
            "layer-str", "layers-int", "layers-none", "media_of-eps-int"])
    def test_wrong_type_is_domain_error(self, make):
        # At construction, not as a TypeError from a range comparison or a loop.
        with pytest.raises(DomainError):
            make()

    def test_layer_list_is_stored_as_a_tuple(self):
        layers = [Layer(VACUUM), Layer(NIOBIUM, 1e-6), Layer(COPPER)]
        built = LayerStack(layers, 4.2)
        assert type(built.layers) is tuple
        assert built == stack(NIOBIUM, 1e-6)
        assert hash(built) == hash(stack(NIOBIUM, 1e-6))
        layers.pop()   # the caller's list does not reach into the stack
        assert len(built.layers) == 3

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


class TestStackMedia:
    @pytest.mark.parametrize("layers", [
        stack(NIOBIUM, 1e-6), stack(BSCCO, 1e-6), LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2),
    ], ids=["nb", "bscco", "bare-cu"])
    def test_media_compare_and_hash_by_identity(self, layers):
        # Their fields are arrays, so two media built alike are two objects:
        # == and hash() must not raise on them.
        m, other = stack_media(layers, OMEGA), stack_media(layers, OMEGA)
        assert m == m and not m != m
        assert m != other and not m == other
        assert len({m, other, m}) == 2

    # Rows across each film's Tc, a repeated T, and T = 0.
    ROW_TEMPERATURES = [4.2, 0.0, 8.0, 8.3, 95.0, 4.2, 300.0]

    @pytest.mark.parametrize("layers", [
        stack(NIOBIUM, 1e-6), stack(BSCCO, 1e-6), LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2),
    ], ids=["nb", "bscco", "bare-cu"])
    def test_rows_are_each_rows_own_medium_to_the_bit(self, layers):
        rows = stack_media(layers, OMEGA, self.ROW_TEMPERATURES)
        assert rows.kt2.shape == rows.k.shape == (len(layers.layers), len(self.ROW_TEMPERATURES))
        for i, T in enumerate(self.ROW_TEMPERATURES):
            own = stack_media(layers, OMEGA, T)
            assert own.kt2.shape == (len(layers.layers), 1)  # a single T: one row
            for name in ("kt2", "k", "anisotropy"):
                field, mine = getattr(rows, name), getattr(own, name)
                assert (field is None) == (mine is None)
                if mine is not None:
                    assert field[:, i:i + 1].tobytes() == mine.tobytes()
            assert rows.d == own.d == layers.film_thickness

    def test_rows_evaluate_each_permittivity_once_per_distinct_temperature(self, monkeypatch):
        import spinflip.stratified as stratified_mod
        calls = []
        monkeypatch.setattr(stratified_mod, "permittivity",
                            lambda material, omega, T: calls.append(T) or permittivity(
                                material, omega, T))
        stack_media(stack(NIOBIUM, 1e-6), OMEGA, self.ROW_TEMPERATURES)
        assert calls == [T for T in dict.fromkeys(self.ROW_TEMPERATURES) for _ in range(3)]

    @pytest.mark.parametrize("layers", [stack(NIOBIUM, 1e-6), stack(BSCCO, 1e-7),
                                        stack(COPPER, 1e-6, substrate=NIOBIUM)],
                             ids=["nb", "bscco", "cu-on-nb"])
    def test_rows_pair_with_etas_leading_axis(self, layers):
        # A medium of R rows, a T or a d per row, pairs them with eta's
        # leading axis: row i with eta[i] (a row of nodes, or one node), or
        # every row with one shared eta row.  Each row is its own medium's call, to the bit, whichever
        # layers it shares with the other rows.
        temps, ds = [4.2, 6.0, 80.0, 100.0], [0.0, 1e-8, 1e-7, 5e-6]
        eta = np.geomspace(1e3, 1e6, 4 * 5).reshape(4, 5)
        one = stack_media(layers, OMEGA)
        media = [(stack_media(layers, OMEGA, temps), [stack_media(layers, OMEGA, T) for T in temps]),
                 (replace(one, d=np.array(ds)), [replace(one, d=d) for d in ds])]
        for call in (lambda m, e: np.array(layer_wavevectors(e, m)),
                     scattering_coefficients, te_reflection):
            for rows, own in media:
                for etas in (eta, eta[:1], eta[:, 0]):   # eta[:, 0]: row i on node i
                    together = call(rows, etas)
                    for i, alone in enumerate(own):
                        want = call(alone, etas[i % len(etas)])
                        got = (together[..., i] if etas.ndim == 1 else np.broadcast_to(
                            together, want.shape[:-1] + (4, 5))[..., i, :])
                        assert got.tobytes() == want.tobytes()

    def test_rows_that_differ_only_in_anisotropy_take_each_rows_own_roots(self):
        # Rows whose film differs only in eps_z have one kt2 but each its own
        # anisotropy: on a shared eta row the film's N root is each row's own.
        eps = [[PermittivityTensor(1.0, 1.0), PermittivityTensor(-3e9 + 2e3j, eps_z),
                permittivity(COPPER, OMEGA, 4.2)] for eps_z in (-5e9 + 2e3j, -1e9 + 5e2j, -2e8 + 7j)]
        one = media_of(OMEGA, [e for layer in zip(*eps) for e in layer], 1e-7)
        rows = StackMedia(*(x.reshape(3, -1) for x in (one.kt2, one.k, one.anisotropy)), one.d)
        eta = np.geomspace(1e3, 1e6, 7)
        together = layer_wavevectors(eta[np.newaxis], rows)
        assert (rows.kt2[1] == rows.kt2[1, 0]).all()
        for i, row in enumerate(eps):
            alone = media_of(OMEGA, row, 1e-7)
            assert together[:, :, i].tobytes() == layer_wavevectors(eta, alone).tobytes()
            assert scattering_coefficients(rows, eta[np.newaxis])[:, i].tobytes() == \
                scattering_coefficients(alone, eta).tobytes()

    @pytest.mark.parametrize("call", [layer_wavevectors, scattering_coefficients, te_reflection],
                             ids=["wavevectors", "coefficients", "te"])
    def test_eta_that_does_not_pair_with_the_rows_is_a_domain_error(self, call):
        # Neither 1 nor R on eta's leading axis, or no leading axis: a
        # DomainError naming both shapes, never numpy's broadcast ValueError.
        rows = stack_media(stack(BSCCO, 1e-7), OMEGA, [4.2, 6.0, 80.0, 100.0])
        thick = replace(stack_media(stack(NIOBIUM, 1e-6), OMEGA), d=np.array([0.0, 1e-8, 1e-7, 1e-6]))
        for bad in (np.geomspace(1e3, 1e6, 15).reshape(3, 5), np.geomspace(1e3, 1e6, 3), 3e5):
            args = (bad, rows) if call is layer_wavevectors else (rows, bad)
            with pytest.raises(DomainError, match=rf"^eta of shape {re.escape(str(np.shape(bad)))} "
                                                  r"does not pair with fields \(3, 4\)"):
                call(*args)
            if call is not layer_wavevectors:   # the wavevectors do not read d
                with pytest.raises(DomainError, match=r"^d of shape \(4,\) does not pair with "
                                                      rf"eta's axes {re.escape(str(np.shape(bad)))}"):
                    call(thick, bad)
        flat = StackMedia(rows.kt2[:, 0], rows.k[:, 0], None, rows.d)   # fields without rows
        with pytest.raises(DomainError, match=r"does not pair with fields \(3,\)"):
            te_reflection(flat, np.geomspace(1e3, 1e6, 4))


class TestLayerWavevectors:
    def test_isotropic_families_coincide(self):
        eps = PermittivityTensor(2.0 + 1.0j, 2.0 + 1.0j)
        h1, h2 = wavevectors(1e5, eps)
        assert h1 == h2

    def test_isotropic_h2_is_h1(self):
        eta = np.linspace(0.0, 1e7, 50)
        eps = permittivity(COPPER, OMEGA, 4.2)
        assert eps.is_isotropic
        h1, h2 = layer_wavevectors(eta, media_of(OMEGA, [eps]))
        assert h2 is h1
        # Same value as the extraordinary formula written out in full.
        want = np.sqrt(eta**2 * (1.0 - eps.eps_t / eps.eps_z)
                       + (OMEGA / CONSTANTS.c) ** 2 * eps.eps_t - eta**2 + 0j)
        want = np.where(want.imag < 0, -want, want)
        np.testing.assert_allclose(h2[0], want, rtol=1e-15)

    def test_vacuum_normal_incidence(self):
        h1, _ = wavevectors(0.0, PermittivityTensor(1.0, 1.0))
        assert h1 == pytest.approx(K0)
        assert h1.imag == 0.0

    def test_vacuum_evanescent_branch(self):
        eta = 1e5
        h1, _ = wavevectors(eta, PermittivityTensor(1.0, 1.0))
        assert h1.real == 0.0
        assert h1.imag == pytest.approx(math.sqrt(eta**2 - K0**2), rel=1e-12)

    def test_singular_material(self):
        with pytest.raises(SingularMaterialError):
            media_of(OMEGA, [PermittivityTensor(1.0, 0.0)])

    @pytest.mark.parametrize("omega", [0.0, math.nan, math.inf, True])
    def test_omega_domain(self, omega):
        with pytest.raises(DomainError):
            media_of(omega, [PermittivityTensor(1.0, 1.0)])

    def test_omega_whose_square_overflows_is_named(self):
        # (omega/c)^2 overflows for a finite omega: a DomainError naming it,
        # not a raw OverflowError (34, ...).
        stack = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        with pytest.raises(DomainError, match=r"\(omega/c\)\^2 at omega = 1e\+308 rad/s "
                                              r"overflows double precision"):
            stack_media(stack, 1e308)

    @pytest.mark.parametrize("film", [NIOBIUM, "bscco", None],
                             ids=["isotropic", "uniaxial", "bare"])
    @pytest.mark.parametrize("eta", [3e5, np.geomspace(1e0, 1e8, 40)],
                             ids=["scalar", "array"])
    def test_stack_media_equals_per_layer_calls(self, film, eta):
        from spinflip.materials import BSCCO
        film = BSCCO if film == "bscco" else film
        s = (LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2) if film is None
             else stack(film, 1e-6))
        h1, h2 = layer_wavevectors(eta, stack_media(s, OMEGA))
        assert h1.shape == (len(s.layers),) + np.shape(eta)
        for i, layer in enumerate(s.layers):
            alone = wavevectors(eta, permittivity(layer.material, OMEGA, 4.2))
            np.testing.assert_array_equal(h1[i], alone[0])
            np.testing.assert_array_equal(h2[i], alone[1])
        if film is BSCCO:
            # Only the uniaxial film's two families differ.
            assert not np.array_equal(h2[1], h1[1])
        else:
            assert h2 is h1

    def test_stack_media_rejects_negative_eta(self, niobium_stack):
        with pytest.raises(DomainError):
            layer_wavevectors(np.array([1.0, -1.0]), stack_media(niobium_stack, OMEGA))

    @given(eps_t=passive_eps, eps_z=passive_eps, eta=st.floats(0.0, 1e8))
    def test_decaying_branch(self, eps_t, eps_z, eta):
        for h in map(complex, wavevectors(eta, PermittivityTensor(eps_t, eps_z))):
            assert h.imag >= 0
            if h.imag == 0:
                assert h.real >= 0

    @given(eps_t=any_eps, eps_z=any_eps, eta=st.floats(0.0, 1e8))
    def test_fold_only_where_needed(self, eps_t, eps_z, eta):
        # h^2 is kt2 - eta^2, or eta^2 (anisotropy - 1) + kt2, as one
        # multiply-add.  Every root is folded onto Im >= 0, and the fold
        # changes a root only where its Im is negative: wherever no fold is
        # needed the bits are those of the unfolded principal root.
        assume(eps_z != 0)
        media = media_of(OMEGA, [PermittivityTensor(eps_t, eps_z)])
        kt2, eta2 = media.kt2, np.array([eta * eta])  # a column: the medium's one row
        h2 = [kt2 - eta2]
        if media.anisotropy is not None:
            h2.append(eta2 * (media.anisotropy - 1.0) + kt2)
        root = np.sqrt(np.array(h2))
        want = np.where(root.imag < 0, -root, root)
        got = layer_wavevectors(np.array([eta]), media)
        np.testing.assert_array_equal(got[: len(h2)], want)
        assert np.all(np.asarray(got).imag >= 0)

    def test_axes_of_eta_follow(self):
        # Any shape of eta is one flat eta axis inside, reshaped on the way out.
        eta = np.geomspace(1e2, 1e7, 12)
        for s in (stack(NIOBIUM, 1e-6), stack(BSCCO, 1e-7, T=40.0)):
            media = stack_media(s, OMEGA)
            flat = [np.asarray(layer_wavevectors(eta, media)), te_reflection(media, eta),
                    scattering_coefficients(media, eta)]
            grid = [np.asarray(layer_wavevectors(eta.reshape(3, 4), media)),
                    te_reflection(media, eta.reshape(3, 4)),
                    scattering_coefficients(media, eta.reshape(3, 4))]
            for f, g in zip(flat, grid):
                assert g.shape == f.shape[:-1] + (3, 4)
                np.testing.assert_array_equal(g.reshape(f.shape), f)


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
        for d in (-1e-9, math.nan, math.inf):
            with pytest.raises(DomainError):
                generalized_r_te(0.1, 0.1, 1.0, d)
            with pytest.raises(DomainError):  # at construction, not at a coefficient call
                media_of(OMEGA, [PermittivityTensor(1.0, 1.0)] * 3, d)


class TestInterfaceCoefficients:
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
        m, _ = scattering_coefficients(stack_media(s, OMEGA), self.eta_grid)
        h1, _ = wavevectors(self.eta_grid, PermittivityTensor(1, 1))
        h3, _ = wavevectors(self.eta_grid, permittivity(COPPER, OMEGA, 4.2))
        np.testing.assert_allclose(m, fresnel_te(h1, h3), rtol=1e-12, atol=1e-12)

    def test_transparent_back_is_single_interface(self):
        # layer 3 identical to layer 2: r23 = 0, so M = r12
        metal = DrudeMetal(1e6)
        s = stack(metal, 3e-6, substrate=metal)
        m, _ = scattering_coefficients(stack_media(s, OMEGA), self.eta_grid)
        h1, _ = wavevectors(self.eta_grid, PermittivityTensor(1, 1))
        h2, _ = wavevectors(self.eta_grid, permittivity(metal, OMEGA, 4.2))
        np.testing.assert_allclose(m, fresnel_te(h1, h2), rtol=1e-12)

    def test_isotropic_degeneracy(self):
        # For an isotropic film both families are the generalized reflection
        # coefficients, M = r_TE and N = r_TM of the stack, composed here
        # layer by layer from the interface formulas.
        d = 1e-6
        s = stack(DrudeMetal(1e6), d)
        m, n = scattering_coefficients(stack_media(s, OMEGA), self.eta_grid)
        eps = [permittivity(layer.material, OMEGA, 4.2) for layer in s.layers]
        h1, h2, h3 = (wavevectors(self.eta_grid, e)[1] for e in eps)
        k1, k2, k3 = (K0 * np.sqrt(complex(e.eps_t)) for e in eps)
        np.testing.assert_allclose(
            m, generalized_r_te(fresnel_te(h1, h2), fresnel_te(h2, h3), h2, d), rtol=1e-10)
        np.testing.assert_allclose(
            n, generalized_r_te(interface_rv(h1, h2, k1, k2), interface_rv(h2, h3, k2, k3),
                                h2, d), rtol=1e-10)

    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "array"])
    @pytest.mark.parametrize("layers", [
        (Layer(VACUUM), Layer(BSCCO, 1e-6), Layer(COPPER)),
        (Layer(VACUUM), Layer(BSCCO)),
        (Layer(VACUUM), Layer(NIOBIUM, 1e-6), Layer(COPPER)),
    ], ids=["uniaxial-film", "uniaxial-bare", "isotropic-film"])
    def test_one_pass_is_the_per_family_formulas(self, layers, scalar):
        # scattering_coefficients computes both families in one pass on a
        # family axis; each must be the numbers of its own formula chain,
        # built here from layer_wavevectors' (h1, h2) and media.k on an eta
        # array.  A scalar eta takes the array path too, so its reference is
        # the chain on a 1-element array, over 200 eta.
        media = stack_media(LayerStack(layers, 40.0), OMEGA)

        def formulas(eta):
            h1, h2 = layer_wavevectors(eta, media)
            k = media.k  # a column: the medium's one row
            r_m = fresnel_te(h1[:-1], h1[1:])
            r_n = interface_rv(h2[:-1], h2[1:], k[:-1], k[1:])
            if len(layers) == 2:
                return r_m[0], r_n[0]
            return (generalized_r_te(r_m[0], r_m[1], h1[1], media.d),
                    generalized_r_te(r_n[0], r_n[1], h2[1], media.d))

        cases = ([(eta, np.array([eta]), 0) for eta in np.geomspace(1e2, 1e7, 200)] if scalar
                 else [(self.eta_grid, self.eta_grid, slice(None))])
        for eta, array, element in cases:
            got = scattering_coefficients(media, eta)
            assert len(got) == 2
            for g, w in zip(got, formulas(array)):
                assert np.shape(g) == np.shape(eta)
                np.testing.assert_array_equal(g, w[element])

    def test_te_reflection_is_exactly_m(self):
        # the rate kernel takes M from te_reflection when the TM family has
        # zero weight and from scattering_coefficients otherwise; both must
        # be the same numbers
        from spinflip.materials import BSCCO
        for s in (stack(NIOBIUM, 1e-6), stack(BSCCO, 2.5e-6),
                  LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)):
            m, _ = scattering_coefficients(stack_media(s, OMEGA), self.eta_grid)
            np.testing.assert_array_equal(te_reflection(stack_media(s, OMEGA), self.eta_grid), m)

    @pytest.mark.parametrize("d", [1e-9, 1e-7, 2.5e-6, 1e-5])
    @pytest.mark.parametrize("T", [4.2, 60.0, 100.0])
    def test_te_reflection_on_uniaxial_film_is_m_bit_for_bit(self, d, T):
        # On a uniaxial stack te_reflection keeps the bits of M.
        from spinflip.materials import BSCCO
        media = stack_media(stack(BSCCO, d, T=T), OMEGA)
        for eta in (self.eta_grid, 3e5):
            m, _ = scattering_coefficients(media, eta)
            got = te_reflection(media, eta)
            assert np.shape(got) == np.shape(m)
            assert np.array_equal(got, m) and np.array_equal(np.signbit(got.imag),
                                                             np.signbit(m.imag))

    def test_zero_thickness_layer_elision(self):
        s3 = stack(NIOBIUM, 0.0)
        s2 = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        m3, n3 = scattering_coefficients(stack_media(s3, OMEGA), self.eta_grid)
        m2, n2 = scattering_coefficients(stack_media(s2, OMEGA), self.eta_grid)
        np.testing.assert_allclose(m3, m2, rtol=1e-12, atol=1e-12)
        # TM-family interface coefficients of a conductor-grade film sit
        # within ~1e-11 of +-1 at 560 kHz, so the d = 0 composition cancels
        # ~11 digits; agreement is conditioning-limited, not a formula error.
        np.testing.assert_allclose(n3, n2, rtol=1e-12, atol=1e-9)
        r3 = te_reflection(stack_media(s3, OMEGA), self.eta_grid)
        r2 = te_reflection(stack_media(s2, OMEGA), self.eta_grid)
        np.testing.assert_allclose(r3, r2, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("eta", [3e5, eta_grid], ids=["scalar", "array"])
    def test_bare_substrate_is_exactly_a_zero_thickness_film_of_itself(self, eta):
        # A bare substrate is one interface.  The film formula over a
        # zero-thickness film of the substrate composes it with a zero
        # interface coefficient, which gives the same numbers to the bit.
        bare = LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2)
        film = stack(COPPER, 0.0)
        np.testing.assert_array_equal(te_reflection(stack_media(bare, OMEGA), eta),
                                      te_reflection(stack_media(film, OMEGA), eta))
        for c2, c3 in zip(scattering_coefficients(stack_media(bare, OMEGA), eta),
                          scattering_coefficients(stack_media(film, OMEGA), eta)):
            np.testing.assert_array_equal(c2, c3)

    @pytest.mark.parametrize("layers", [1, 4])
    def test_needs_two_or_three_layers(self, layers):
        # layer_wavevectors takes any number of layers; the stack formulas
        # do not, and must not drop a layer silently.
        media = media_of(OMEGA, [permittivity(COPPER, OMEGA, 4.2)] * layers, 1e-6)
        for coefficients in (te_reflection, scattering_coefficients):
            with pytest.raises(DomainError, match="2 or 3 layers"):
                coefficients(media, self.eta_grid)

    def test_uniaxial_film_families_differ(self):
        from spinflip.materials import BSCCO
        m, n = scattering_coefficients(stack_media(stack(BSCCO, 1e-6), OMEGA), self.eta_grid)
        assert not np.allclose(m, -n)

    def test_passivity_of_te_reflection(self, rng):
        # evanescent reflection off random passive lossy stacks has Im >= 0
        for _ in range(50):
            sigma_f = 10 ** rng.uniform(2, 9)
            sigma_s = 10 ** rng.uniform(2, 9)
            d = 10 ** rng.uniform(-9, -5)
            s = stack(DrudeMetal(sigma_f), d, substrate=DrudeMetal(sigma_s))
            eta = 10 ** rng.uniform(0, 7, size=40)
            r = te_reflection(stack_media(s, OMEGA), eta)
            assert np.all(r.imag >= 0)


class TestGuards:
    """Each guard rejects an offending entry that sits beside a NaN, with its
    own error type and message, and lets a NaN alone through."""

    def test_negative_eta_beside_nan(self, niobium_stack):
        eta = np.array([np.nan, -1.0])
        for media in (media_of(OMEGA, [permittivity(NIOBIUM, OMEGA, 4.2)]),
                      stack_media(niobium_stack, OMEGA)):
            with pytest.raises(DomainError, match="^eta must be non-negative$"):
                layer_wavevectors(eta, media)

    def test_degenerate_te_interface_beside_nan(self):
        # k1z + k2z = [nan, 0]
        with pytest.raises(DegenerateInterfaceError, match=r"^k1z \+ k2z = 0$"):
            fresnel_te(np.array([np.nan, 1.0 + 1j]), np.array([np.nan, -1.0 - 1j]))

    def test_degenerate_tm_interface_beside_nan(self):
        # h_f k_f1^2 + h_f1 k_f^2 = [nan, 0]
        with pytest.raises(DegenerateInterfaceError,
                           match="^TM interface denominator vanished$"):
            interface_rv(np.array([np.nan, 1.0]), np.array([1.0, -1.0]), 1.0, 1.0)

    def test_resonant_film_beside_nan(self):
        # 1 + r12 r23 e^{2i k2z d} = [nan, 0]
        with pytest.raises(ResonanceError, match="^film denominator below guard threshold$"):
            generalized_r_te(np.array([np.nan, 1j]), np.array([1.0, 1j]), 0.0, 0.0)

    def test_nan_alone_passes_every_guard(self, niobium_stack):
        nan = np.array([np.nan, np.nan])
        with np.errstate(invalid="ignore"):  # NaN in a complex division
            assert np.isnan(layer_wavevectors(nan, stack_media(niobium_stack, OMEGA))[0]).all()
            assert np.isnan(fresnel_te(nan, nan)).all()
            assert np.isnan(interface_rv(nan, nan, 1.0, 1.0)).all()
            assert np.isnan(generalized_r_te(nan, nan, 0.0, 0.0)).all()


ENTRIES = {
    "layer_wavevectors": lambda media, eta: layer_wavevectors(eta, media),
    "scattering_coefficients": scattering_coefficients,
    "te_reflection": te_reflection,
}


class TestEntryChecks:
    """Each coefficient entry checks its medium and reads eta through one
    reader: a wrong type or a complex eta is a DomainError, not a raw
    AttributeError, TypeError or ValueError, or a ComplexWarning that drops
    the imaginary part."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("media", [None, "x", stack(NIOBIUM, 1e-6)],
                             ids=["none", "str", "layer-stack"])
    def test_medium_is_checked(self, entry, media):
        with pytest.raises(DomainError, match="^media must be a StackMedia, not "):
            ENTRIES[entry](media, 1e5)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("eta, message", [
        (1e5 + 1j, "^eta must be real numbers: .*complex128"),
        (np.array([1e5 + 1j]), "^eta must be real numbers: .*complex128"),
        ([1e5, 1j], "^eta must be real numbers: .*complex128"),
        ("x", r"^eta must be real numbers: .*<U1"),
        ([1e5, [2e5]], "^eta must be real numbers: setting an array element with a sequence"),
        (None, r"^eta must be real numbers: .*dtype\('O'\)"),
    ], ids=["complex-scalar", "complex-array", "complex-list", "str", "ragged", "none"])
    def test_eta_is_read_as_real_numbers(self, entry, eta, message):
        with pytest.raises(DomainError, match=message):
            ENTRIES[entry](stack_media(stack(BSCCO, 1e-7), OMEGA), eta)


KERNELS = {   # each exported interface kernel: valid arguments, and the start of its message
    "fresnel_te": (fresnel_te, (1 + 1j, 2 + 0.5j), "interface coefficients take"),
    "generalized_r_te": (generalized_r_te, (0.3 + 0.1j, 0.5 - 0.2j, 2e5 + 3e4j, 1e-6),
                         "the film formula takes"),
}


class TestKernelArguments:
    """An exported kernel given a non-number raises a DomainError, not the
    raw TypeError of its arithmetic."""

    @pytest.mark.parametrize("bad", [None, "x"], ids=["none", "str"])
    @pytest.mark.parametrize("kernel, position", [
        (name, i) for name, (_, args, _) in KERNELS.items() for i in range(len(args))])
    def test_non_number_is_a_domain_error(self, kernel, position, bad):
        call, args, message = KERNELS[kernel]
        args = list(args)
        args[position] = bad
        if (kernel, position) == ("generalized_r_te", 3):   # d is checked before any arithmetic
            message = "film thickness must be non-negative and finite$"
        with pytest.raises(DomainError, match=f"^{message}"):
            call(*args)

    def test_interface_rv_is_not_exported(self):
        # No program path calls it; the tests keep it as the N family's reference.
        import spinflip
        import spinflip.stratified
        assert "interface_rv" not in spinflip.__all__
        assert "interface_rv" not in spinflip.stratified.__all__


class TestInputsUnchanged:
    """The coefficient functions compute into arrays they make themselves."""

    def test_input_arrays_are_not_written(self, rng, niobium_stack):
        a, b, c, d = (rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(4))
        eta = np.geomspace(1.0, 1e8, 8)
        media = stack_media(niobium_stack, OMEGA)
        uniaxial = stack_media(stack(BSCCO, 1e-7), OMEGA)
        inputs = [a, b, c, d, eta, media.kt2, media.k, uniaxial.kt2, uniaxial.k,
                  uniaxial.anisotropy]
        saved = [x.copy() for x in inputs]
        results = [fresnel_te(a, b), interface_rv(a, b, c, d),
                   generalized_r_te(a, b, 1e5 * c, 1e-7), generalized_r_te(a, 0.0, c, 0.0)]
        for m in (media_of(OMEGA, [permittivity(BSCCO, OMEGA, 40.0)]), media, uniaxial):
            results.extend(layer_wavevectors(eta, m))
        for x, before in zip(inputs, saved):
            np.testing.assert_array_equal(x, before)
        assert not any(np.shares_memory(r, x) for r in results for x in inputs)


class TestScalarInputs:
    """Scalar and 0-d inputs keep their values and scalar kinds (values
    pinned from the out-of-place formulas)."""

    def test_interface_coefficients(self):
        te = fresnel_te(1 + 2j, 3 - 1j)
        assert type(te) is complex and te == complex(-0.29411764705882354, 0.8235294117647058)
        te0 = fresnel_te(np.array(1 + 2j), np.array(3 - 1j))
        assert np.ndim(te0) == 0 and te0 == te
        rv = interface_rv(1 + 1j, 2 - 1j, 3.0, 1j)
        assert type(rv) is complex
        assert rv == complex(-1.0359897172236505, -0.13881748071979438)
        rv0 = interface_rv(*map(np.array, (1 + 1j, 2 - 1j, 3.0, 1j)))
        assert np.ndim(rv0) == 0 and rv0 == complex(-1.0359897172236505, -0.1388174807197944)
        assert fresnel_te(1.0, 3.0) == -0.5

    def test_film(self):
        want = complex(0.7040226205212191, 0.06263382547159728)
        assert generalized_r_te(0.3 + 0.1j, 0.5 - 0.2j, 2e5 + 3e4j, 1e-6) == want
        film0 = generalized_r_te(*map(np.array, (0.3 + 0.1j, 0.5 - 0.2j, 2e5 + 3e4j)), 1e-6)
        assert np.ndim(film0) == 0 and film0 == want

    @pytest.mark.parametrize("eta", [3e5, np.array(3e5)], ids=["scalar", "0-d"])
    def test_wavevectors_and_stack_coefficients(self, eta):
        h1, h2 = layer_wavevectors(eta, media_of(OMEGA, [permittivity(BSCCO, OMEGA, 40.0)]))
        assert h1.shape == h2.shape == (1,)  # the layer axis alone
        assert h1[0] == complex(17.668192337701974, 2502566.5838264935)
        assert h2[0] == complex(-78847.29415308007, 100030765.00364907)
        te = te_reflection(stack_media(stack(NIOBIUM, 1e-6), OMEGA), eta)
        assert type(te) is np.complex128  # a numpy scalar, not a 0-d array
        assert te == complex(-0.9785104203635796, 4.039294048587252e-11)
        m, n = scattering_coefficients(stack_media(stack(BSCCO, 1e-7, T=40.0), OMEGA), eta)
        assert np.ndim(m) == 0 and np.ndim(n) == 0
        assert m == complex(-0.4947147976896543, 0.00016483480721807335)
        assert n == complex(1.0000000000000149, 1.1943282021008256e-17)

    @pytest.mark.parametrize("s", [
        LayerStack((Layer(VACUUM), Layer(COPPER)), 4.2),
        stack(NIOBIUM, 1e-6),
        stack(COPPER, 1e-6, substrate=NIOBIUM),
        stack(BSCCO, 1e-7, T=40.0),
        stack(BSCCO, 1e-7),
    ], ids=["bare-Cu", "Nb-film", "Cu-film", "BSCCO-film-40K", "BSCCO-film-4.2K"])
    def test_scalar_eta_is_its_array_element_to_the_bit(self, s):
        # One arithmetic path: a coefficient does not depend on whether its
        # eta comes alone or inside an array.
        media = stack_media(s, OMEGA)
        grid = np.geomspace(1e2, 1e7, 200)
        for call in (lambda e: np.array(layer_wavevectors(e, media)),
                     lambda e: scattering_coefficients(media, e),
                     lambda e: te_reflection(media, e)):
            batch = call(grid)
            mismatches = sum(np.count_nonzero(call(float(e)) != batch[..., i])
                             for i, e in enumerate(grid))
            assert mismatches == 0
