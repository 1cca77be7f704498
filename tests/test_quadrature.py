import math
import re

import numpy as np
import pytest

from spinflip import quadrature
from spinflip.errors import DomainError, QuadratureError
from spinflip.quadrature import (QuadratureSettings, integrate_semi_infinite)


def riemann(integrand, z, n=2_000_000, umax=80.0):
    """Dense fixed-grid trapezoid oracle on the same u = 2 eta z substitution."""
    u = np.linspace(2e-9, umax, n)
    eta = u / (2 * z)
    return np.trapezoid(integrand(eta), eta)


class TestAnalyticMoments:
    @pytest.mark.parametrize("z", [1e-6, 1e-5, 1e-4])
    def test_quadratic_moment(self, z):
        value, diag = integrate_semi_infinite(lambda eta: eta**2 * np.exp(-2 * eta * z), z)
        assert value == pytest.approx(1 / (4 * z**3), rel=1e-8)
        assert diag.evaluations > 0

    @pytest.mark.parametrize("z", [1e-6, 1e-5, 1e-4])
    def test_plain_exponential(self, z):
        value, _ = integrate_semi_infinite(lambda eta: np.exp(-2 * eta * z), z)
        assert value == pytest.approx(1 / (2 * z), rel=1e-8)

    def test_cubic_moment_against_riemann_oracle(self):
        z = 1e-5
        f = lambda eta: eta**3 * np.exp(-2 * eta * z)
        value, _ = integrate_semi_infinite(f, z)
        assert value == pytest.approx(6 / (2 * z) ** 4, rel=1e-8)
        assert value == pytest.approx(riemann(f, z), rel=1e-6)


class TestKronrodRule:
    def test_embedded_gauss_rule_is_gauss_legendre_10(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(quadrature._KRONROD_NODES[1::2], nodes, rtol=0, atol=2e-16)
        np.testing.assert_allclose(quadrature._GAUSS_WEIGHTS, weights, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("nodes, weights, degree", [
        (slice(None), quadrature._KRONROD_WEIGHTS, 31),
        (slice(0, None, 2), quadrature._REST_WEIGHTS, 11),
    ])
    def test_rule_exact_through_its_degree(self, nodes, weights, degree):
        x = quadrature._KRONROD_NODES[nodes]
        assert np.all(np.diff(quadrature._KRONROD_NODES) > 0)
        assert x.size == weights.size
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(weights @ x**k) == pytest.approx(exact, abs=1e-14), k

    def test_one_integrand_call_per_panel(self):
        z = 1e-5
        calls = []

        def f(eta):
            calls.append(eta.size)
            return np.abs(eta * 2 * z - 1.3) * np.exp(-2 * eta * z)

        _, diag = integrate_semi_infinite(f, z)
        assert diag.refinements > 0
        # The four graded panels of [2e-9, 0.25] share one call, each octave
        # panel is one call and each split evaluates both halves in one call.
        assert calls == [84] + [21] * 8 + [42] * diag.refinements
        assert diag.panels == 12 + diag.refinements
        assert diag.evaluations == sum(calls) == 21 * (diag.panels + diag.refinements)

    def test_panels_in_one_call_equal_panels_alone(self):
        g = lambda u: u**3 * np.exp(-u) + np.sqrt(u)
        a, b = [2e-9, 0.25 / 64, 1.0], [0.25 / 64, 0.25, 3.0]

        def rules(lo, hi):
            _, _, u, half = quadrature._panel_set(lo, hi)
            return quadrature._rules(g(u), lo, hi, half)

        values, errors = rules(a, b)
        for i, (lo, hi) in enumerate(zip(a, b)):
            value1, err1 = (x[0] for x in rules([lo], [hi]))
            assert values[i] == pytest.approx(value1, rel=1e-15, abs=0)
            # An estimate is a difference of two rules: its rounding is the value's.
            assert errors[i] == pytest.approx(err1, rel=0, abs=4e-16 * abs(values[i]))

    def test_non_finite_panel_is_named(self):
        def f(eta):
            u = eta * 2e-5
            return np.where((u > 0.25 / 16) & (u < 0.25 / 4), np.nan, np.exp(-u))

        with pytest.raises(QuadratureError, match=r"panel \[0\.015625, 0\.0625\]"):
            integrate_semi_infinite(f, 1e-5)


# The 12 initial panels in u: [2e-9, 0.25] graded at 0.25 * 4^-k, then octaves up to 60.
INITIAL_EDGES = (2e-9, 0.25 / 64, 0.25 / 16, 0.25 / 4, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                 32.0, 60.0)


class TestFirstPass:
    """A rate that converges on its first pass: 9 integrand calls into one
    252-value array, the 12 panels tested and summed as arrays, no panel records."""

    def test_value_and_diagnostics_are_the_per_panel_sums(self):
        z = 1e-5
        seen = []

        def f(eta):
            seen.append(eta.copy())
            return eta**2 * np.exp(-2 * eta * z)

        value, diag = integrate_semi_infinite(f, z)
        assert [e.size for e in seen] == [84] + [21] * 8
        assert (diag.evaluations, diag.panels, diag.refinements) == (252, 12, 0)
        # The rule columns K21, G10 and R11 on each panel, built here.
        a, b = np.array(INITIAL_EDGES[:-1]), np.array(INITIAL_EDGES[1:])
        half = 0.5 * (b - a)[:, None]
        u = ((a[:, None] + half) + half * quadrature._KRONROD_NODES).ravel()
        eta = np.concatenate(seen)
        np.testing.assert_array_equal(eta, u * (1.0 / (2 * z)))
        rules = half * (f(eta).reshape(12, 21) @ quadrature._RULES)
        kronrod = rules[:, 0].tolist()
        errors = [max(abs(k - g), abs(k - r)) for k, g, r in rules.tolist()]
        total = math.fsum(kronrod)
        assert value == total * (1.0 / (2 * z))
        assert diag.est_error == math.fsum(errors) / abs(total)
        # The same sums from the weights alone, one panel at a time.
        by_panel = [math.fsum(half[i, 0] * w * v for w, v in zip(
            quadrature._KRONROD_WEIGHTS, f(eta[21 * i:21 * (i + 1)]))) for i in range(12)]
        assert kronrod == pytest.approx(by_panel, rel=1e-14)
        assert value == pytest.approx(1 / (4 * z**3), rel=1e-12)

    @pytest.mark.parametrize("first", range(12))
    def test_first_non_finite_panel_in_u_order_is_named(self, first):
        # NaN inside panel `first` and inside every later third panel; the
        # error names `first` wherever its call falls among the 9.
        bad = [first] + list(range(first + 3, 12, 3))
        z = 1e-5

        def f(eta):
            u = eta * 2 * z
            inside = np.zeros(u.shape, dtype=bool)
            for i in bad:
                inside |= (u > INITIAL_EDGES[i]) & (u < INITIAL_EDGES[i + 1])
            return np.where(inside, np.nan, np.exp(-u))

        a, b = INITIAL_EDGES[first], INITIAL_EDGES[first + 1]
        with pytest.raises(QuadratureError, match=re.escape(f"panel [{a}, {b}]")):
            integrate_semi_infinite(f, z)

    @pytest.mark.parametrize("f, settings, refinements, value", [
        (lambda u: np.abs(u - 1.3) * np.exp(-u), QuadratureSettings(), 8, 42253.17920398576),
        (lambda u: np.abs(u - 1.3) * np.exp(-u), QuadratureSettings(1e-12, 200), 18,
         42253.17917340528),
        (lambda u: np.sqrt(u) * np.exp(-u), QuadratureSettings(), 1, 44311.34629323637),
        (lambda u: np.sin(10 * u) ** 2 * np.exp(-u), QuadratureSettings(), 29, 24937.65575742366),
    ], ids=["kink", "kink-1e-12", "sqrt", "oscillatory"])
    def test_refining_rate_keeps_its_counts(self, f, settings, refinements, value):
        # Counts and values as they were when every panel was a record from
        # the start: splitting begins from the same 12 panels.
        z = 1e-5
        got, diag = integrate_semi_infinite(lambda eta: f(eta * 2 * z), z, settings)
        assert (diag.refinements, diag.panels) == (refinements, 12 + refinements)
        assert diag.evaluations == 252 + 42 * refinements
        assert got == pytest.approx(value, rel=1e-15)


    @pytest.mark.parametrize("dtype", [object, np.float32])
    def test_every_call_is_read_as_floats(self, dtype):
        # The first pass and each split read the integrand's values with one
        # rule: as float64, whatever array type the integrand returns.
        z = 1e-5
        f = lambda eta: np.abs(eta * 2 * z - 1.3) * np.exp(-eta * 2 * z)
        want, want_diag = integrate_semi_infinite(lambda eta: f(eta).astype(dtype).astype(float), z)
        got, diag = integrate_semi_infinite(lambda eta: f(eta).astype(dtype), z)
        assert diag.refinements == want_diag.refinements > 0
        assert got == want


class TestEngine:
    def test_oscillatory_integrand(self):
        z = 1e-5
        f = lambda eta: np.sin(10 * eta * 2 * z) ** 2 * np.exp(-2 * eta * z)
        value, _ = integrate_semi_infinite(f, z)
        assert value == pytest.approx(riemann(f, z), rel=1e-6)

    def test_diagnostics(self):
        z = 1e-5
        value, diag = integrate_semi_infinite(lambda eta: eta**2 * np.exp(-2 * eta * z), z)
        assert diag.truncation_eta * 2 * z >= 40.0
        assert diag.est_error <= 1e-8
        assert diag.panels >= 2
        assert diag.evaluations == 21 * (diag.panels + diag.refinements)

    def test_zero_integrand(self):
        value, diag = integrate_semi_infinite(lambda eta: np.zeros_like(eta), 1e-5)
        assert value == 0.0
        assert diag.est_error == 0.0

    def test_nonconvergence_carries_partial_value(self):
        z = 1e-5
        # kink (|u - 1.3|) needs many splits; budget of 2 cannot reach 1e-12
        f = lambda eta: np.abs(eta * 2 * z - 1.3) * np.exp(-2 * eta * z)
        settings = QuadratureSettings(rel_tol=1e-12, max_refinements=2)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(f, z, settings)
        assert err.value.partial_value is not None
        assert err.value.partial_value > 0
        assert err.value.diagnostics.refinements == 2

    def test_partial_value_is_in_units_of_eta(self):
        # The Jacobian 1/(2z) of u = 2 eta z is applied once, to the total;
        # the error path's partial value must carry it too.
        z = 1e-5
        f = lambda eta: np.abs(eta * 2 * z - 1.3) * np.exp(-2 * eta * z)
        settings = QuadratureSettings(rel_tol=1e-12, max_refinements=2)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(f, z, settings)
        exact = (0.3 + 2 * math.exp(-1.3)) / (2 * z)
        assert abs(err.value.partial_value / exact - 1) <= err.value.diagnostics.est_error

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda eta: np.full_like(eta, np.nan), 1e-5)

    def test_domain(self):
        for z in (0.0, math.inf, math.nan, True):
            with pytest.raises(DomainError):
                integrate_semi_infinite(lambda eta: eta, z)

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            QuadratureSettings(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSettings(max_refinements=0)
        for field in ("rel_tol", "max_refinements"):
            with pytest.raises(DomainError):
                QuadratureSettings(**{field: math.nan})
        # Wrong types fail here, not as a TypeError from a range comparison;
        # a refinement budget is a whole number, not a float or a bool, and
        # at most MAX_REFINEMENTS.
        for args in (("1e-8",), (1e-8, 2.5), (1e-8, True),
                     (1e-300, quadrature.MAX_REFINEMENTS + 1)):
            with pytest.raises(DomainError):
                QuadratureSettings(*args)

