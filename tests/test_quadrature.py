import math

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
        together = quadrature._panels(g, *quadrature._panel_set(a, b))
        alone = [quadrature._panels(g, *quadrature._panel_set([lo], [hi]))[0]
                 for lo, hi in zip(a, b)]
        for (err, lo, hi, value), (err1, lo1, hi1, value1) in zip(together, alone):
            assert (lo, hi) == (lo1, hi1)
            assert value == pytest.approx(value1, rel=1e-15, abs=0)
            # An estimate is a difference of two rules: its rounding is the value's.
            assert err == pytest.approx(err1, rel=0, abs=4e-16 * abs(value))

    def test_non_finite_panel_is_named(self):
        def f(eta):
            u = eta * 2e-5
            return np.where((u > 0.25 / 16) & (u < 0.25 / 4), np.nan, np.exp(-u))

        with pytest.raises(QuadratureError, match=r"panel \[0\.015625, 0\.0625\]"):
            integrate_semi_infinite(f, 1e-5)


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
        # a refinement budget is a whole number, not a float or a bool.
        for args in (("1e-8",), (1e-8, 2.5), (1e-8, True)):
            with pytest.raises(DomainError):
                QuadratureSettings(*args)

