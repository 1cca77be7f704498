import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

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


# The orthonormal Legendre polynomials p_0..p_20 on the 21 Kronrod nodes (columns).
P21 = np.polynomial.legendre.legvander(quadrature._KRONROD_NODES, 20) * np.sqrt(np.arange(21) + 0.5)


def lower_degree_rules():
    """G10, the 10-point Gauss rule on the odd nodes, and R11, the rule on the
    11 even nodes exact for the Legendre polynomials P_0..P_10, as weights on
    all 21 nodes (rows)."""
    x = quadrature._KRONROD_NODES
    rules = np.zeros((2, x.size))
    rules[0, 1::2] = np.polynomial.legendre.leggauss(10)[1]
    moments = np.eye(11)[0] * 2.0  # integral of P_k over [-1, 1]
    rules[1, 0::2] = np.linalg.solve(np.polynomial.legendre.legvander(x[0::2], 10).T, moments)
    return rules


LOWER_DEGREE_RULES = lower_degree_rules()


class TestKronrodRule:
    def test_embedded_gauss_rule_is_gauss_legendre_10(self):
        nodes, _ = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(quadrature._KRONROD_NODES[1::2], nodes, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("nodes, weights, degree", [
        (slice(None), quadrature._KRONROD_WEIGHTS, 31),
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
        # The 8 initial panels share one call and each split evaluates both
        # halves in one call.
        assert calls == [168] + [42] * diag.refinements
        assert diag.panels == 8 + diag.refinements
        assert diag.evaluations == sum(calls) == 21 * (diag.panels + diag.refinements)

    def test_legendre_columns_are_the_interpolant_coefficients(self):
        # Column 1 + i of _RULES applied to the orthonormal Legendre
        # polynomial p_m on the nodes gives 1 for m = 20 - i and 0 otherwise.
        got = quadrature._RULES[:, 1:].T @ P21
        want = np.eye(21)[::-1][:got.shape[0]]
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)

    def test_4_low_bounds_the_lower_degree_rule_differences(self):
        # On the 21 values f is its degree-20 interpolant sum c_k p_k, so
        # K21 - rule applied to f is sum c_k (K21 - rule)(p_k).  For G10 (the
        # Gauss rule on the odd nodes) and R11 (the interpolatory rule on the
        # even ones) that is 0 below degree 7 and sums to under 4 above, so
        # the unresolved estimate 4 low = 4 max |c_k|, k >= 7, bounds both.
        on_p = (quadrature._KRONROD_WEIGHTS - LOWER_DEGREE_RULES) @ P21  # K21 - G10, K21 - R11
        for weights, total in zip(on_p, (1.7414, 1.7708)):
            np.testing.assert_allclose(weights[:7], 0.0, rtol=0, atol=1e-13)
            assert math.fsum(abs(weights[7:])) == pytest.approx(total, abs=1e-4)

    @given(st.one_of(
        st.lists(st.floats(-1e100, 1e100), min_size=21, max_size=21).map(np.array),
        # decaying Legendre coefficients, as on a resolved panel
        st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=21, max_size=21),
                  st.floats(0.0, 3.0)).map(
            lambda t: P21 @ (np.array(t[0]) * 10.0 ** (-t[1] * np.arange(21))))))
    def test_4_low_bounds_both_differences_of_any_values(self, f):
        low = np.abs(f @ quadrature._RULES[:, 1:]).max()
        differences = np.abs(f @ quadrature._KRONROD_WEIGHTS - f @ LOWER_DEGREE_RULES.T)
        assert differences.max() <= 4 * low + 4 * np.finfo(float).eps * np.abs(f).sum()

    def test_panels_in_one_call_equal_panels_alone(self):
        g = lambda u: u**3 * np.exp(-u) + np.sqrt(u)
        a, b = [0.0, 0.25 / 64, 1.0], [0.25 / 64, 0.25, 3.0]

        def rules(lo, hi):
            panels = quadrature._panel_set(lo, hi)
            return quadrature._rules(g(panels[2]), panels)

        values, errors = rules(a, b)
        for i, (lo, hi) in enumerate(zip(a, b)):
            value1, err1 = (x[0] for x in rules([lo], [hi]))
            assert values[i] == pytest.approx(value1, rel=1e-15, abs=0)
            # An estimate is made of coefficients of f: its rounding is the value's.
            assert errors[i] == pytest.approx(err1, rel=0, abs=4e-16 * abs(values[i]))

    def test_non_finite_panel_is_named(self):
        def f(eta):
            u = eta * 2e-5
            return np.where((u > 0.25 / 16) & (u < 0.25 / 4), np.nan, np.exp(-u))

        with pytest.raises(QuadratureError, match=r"panel \[0\.015625, 0\.0625\]"):
            integrate_semi_infinite(f, 1e-5)


# The 8 initial panels in u: [0, 0.25] graded at 0.25 * 4^-k, then edges 1, 4, 16 and 60.
INITIAL_EDGES = (0.0, 0.25 / 64, 0.25 / 16, 0.25 / 4, 0.25, 1.0, 4.0, 16.0, 60.0)

def panel_estimates(values, half):
    """Each panel's error estimate from its definition in the module
    docstring, for f on the 21 nodes of each row of `values` and panels of
    half-widths `half`: the module's rule columns, then panel by panel."""
    n, eps = len(values), np.finfo(float).eps
    tilt = np.exp(half[:, None] * (quadrature._KRONROD_NODES - 1.0))  # g = f e^u, up to a factor
    rules = np.concatenate((values, values * tilt)) @ quadrature._RULES
    integral_abs = np.abs(values) @ quadrature._KRONROD_WEIGHTS
    estimates = []
    for h, (_, *c), g, a in zip(half, rules[:n], rules[n:], integral_abs):
        c = np.abs(c)  # c_20, ..., c_7
        top, low = max(c[0], c[1]), max(c)
        if max(abs(g[1]), abs(g[2])) <= 1e-6 * abs(g[0]):
            err = 10 * top * (top / low if low else 0.0)
        else:
            err = 4 * low
        estimates.append(h * max(err, 50 * eps * a))
    return estimates


class TestFirstPass:
    """A rate that converges on its first pass: one integrand call on the 168
    nodes, the 8 panels tested and summed as arrays, no split."""

    def test_value_and_diagnostics_are_the_per_panel_sums(self):
        z = 1e-5
        seen = []

        def f(eta):
            seen.append(eta.copy())
            return eta**2 * np.exp(-2 * eta * z)

        value, diag = integrate_semi_infinite(f, z)
        assert [e.size for e in seen] == [168]
        assert (diag.evaluations, diag.panels, diag.refinements) == (168, 8, 0)
        a, b = np.array(INITIAL_EDGES[:-1]), np.array(INITIAL_EDGES[1:])
        half = 0.5 * (b - a)
        u = ((a + half)[:, None] + half[:, None] * quadrature._KRONROD_NODES).ravel()
        eta = np.concatenate(seen)
        np.testing.assert_array_equal(eta, u * (1.0 / (2 * z)))
        values = f(eta).reshape(8, 21)
        kronrod = (half * (values @ quadrature._RULES)[:, 0]).tolist()
        total = math.fsum(kronrod)
        assert value == total * (1.0 / (2 * z))
        assert diag.est_error == math.fsum(panel_estimates(values, half)) / abs(total)
        # The same sums from the weights alone, one panel at a time.
        by_panel = [math.fsum(h * w * v for w, v in zip(quadrature._KRONROD_WEIGHTS, row))
                    for h, row in zip(half, values)]
        assert kronrod == pytest.approx(by_panel, rel=1e-14)
        assert value == pytest.approx(1 / (4 * z**3), rel=1e-12)

    @pytest.mark.parametrize("g", [
        lambda u: u**2 * np.exp(-u),                  # resolved: extrapolation and floor
        lambda u: np.exp(-u) / (1 + u),
        lambda u: np.abs(u - 1.3) * np.exp(-u),       # a kink: 4 low
        lambda u: np.cos(12 * u + 1) * np.exp(-u),    # aliased on the wide panels
    ], ids=["u2", "pole", "kink", "aliased"])
    def test_each_panel_estimate_is_its_definition(self, g):
        a, b = INITIAL_EDGES[:-1], INITIAL_EDGES[1:]
        panels = _, _, u, half, _ = quadrature._panel_set(a, b)
        _, errors = quadrature._rules(g(u), panels)
        assert errors.tolist() == panel_estimates(g(u).reshape(8, 21), half[:, 0])

    @pytest.mark.parametrize("first", range(8))
    def test_first_non_finite_panel_in_u_order_is_named(self, first):
        # NaN inside panel `first` and inside every later third panel; the
        # error names `first`, the first non-finite panel in u order.
        bad = [first] + list(range(first + 3, 8, 3))
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

    @pytest.mark.parametrize("f, settings, refinements, value, exact", [
        (lambda u: np.abs(u - 1.3) * np.exp(-u), QuadratureSettings(), 12, 42253.17930571759,
         0.3 + 2 * math.exp(-1.3)),
        (lambda u: np.abs(u - 1.3) * np.exp(-u), QuadratureSettings(1e-12, 200), 20,
         42253.179303401324, 0.3 + 2 * math.exp(-1.3)),
        (lambda u: np.sqrt(u) * np.exp(-u), QuadratureSettings(), 5, 44311.34627296087,
         math.sqrt(math.pi) / 2),
        (lambda u: np.sin(10 * u) ** 2 * np.exp(-u), QuadratureSettings(), 26, 24937.655862602638,
         200 / 401),
    ], ids=["kink", "kink-1e-12", "sqrt", "oscillatory"])
    def test_refining_rate_keeps_its_counts(self, f, settings, refinements, value, exact):
        # Counts and values as they were when every panel was a record from
        # the start: splitting begins from the same 8 panels.  Each value is
        # within its tolerance of the exact integral over u, (0, inf).
        z = 1e-5
        got, diag = integrate_semi_infinite(lambda eta: f(eta * 2 * z), z, settings)
        assert (diag.refinements, diag.panels) == (refinements, 8 + refinements)
        assert diag.evaluations == 168 + 42 * refinements
        assert got == pytest.approx(value, rel=1e-15)
        assert abs(got * 2 * z - exact) <= settings.rel_tol * exact

    def test_lower_limit_is_zero(self):
        # The first panel starts at u = 0 and no node sits on it.  Starting
        # at u = 2e-9 dropped 1.3 * 2e-9 of this integral, 3.1e-9 of it,
        # while the estimate read 2.9e-13.
        z, seen = 1e-5, []

        def f(eta):
            seen.append(eta)
            return np.abs(eta * 2 * z - 1.3) * np.exp(-eta * 2 * z)

        value, diag = integrate_semi_infinite(f, z, QuadratureSettings(1e-12, 200))
        exact = (0.3 + 2 * math.exp(-1.3)) / (2 * z)
        assert abs(value - exact) <= diag.est_error * exact <= 1e-12 * exact
        assert min(e.min() for e in seen) > 0

    @pytest.mark.parametrize("settings", [QuadratureSettings(), QuadratureSettings(rel_tol=1e-6)],
                             ids=["default", "1e-6"])
    @pytest.mark.parametrize("dtype", [object, np.float32])
    def test_every_call_is_read_as_floats(self, dtype, settings):
        # The first pass and each split read the integrand's values with one
        # rule: as float64, whatever array type the integrand returns.  Both
        # integrands return the same value and diagnostics, or raise the same
        # QuadratureError: float32 values carry a rounding of 6e-8 that the
        # estimate sees, and whether 1e-8 is reached through it is up to the
        # last bits of the coefficient weights.
        z = 1e-5
        f = lambda eta: np.abs(eta * 2 * z - 1.3) * np.exp(-eta * 2 * z)

        def outcome(integrand):
            try:
                return integrate_semi_infinite(integrand, z, settings)
            except QuadratureError as err:
                return "raised", err.partial_value, err.diagnostics

        want = outcome(lambda eta: f(eta).astype(dtype).astype(float))
        got = outcome(lambda eta: f(eta).astype(dtype))
        assert got == want and got[-1].refinements > 0


class TestDampedOscillations:
    """u^k e^-u cos(omega u + phi): smooth, but aliased on the wide initial
    panels, where f's Legendre coefficients can still look converged."""

    @given(k=st.integers(0, 3), omega=st.floats(0.0, 30.0), phi=st.floats(0.0, 2 * math.pi),
           rel_tol=st.sampled_from([1e-8, 1e-12]))
    def test_value_within_tolerance(self, k, omega, phi, rel_tol):
        exact = (cmath.exp(1j * phi) * math.factorial(k) / (1 - 1j * omega) ** (k + 1)).real
        # The integral of |f| is at most k!.  Within 50 eps of it the floors
        # refuse the rate (test_cancellation_is_limited_by_the_floor); within
        # 1e3 eps of it, rounding in the sum, not the rule, sets the accuracy.
        assume(rel_tol * abs(exact) >= 1e3 * np.finfo(float).eps * math.factorial(k))
        z = 1e-5
        g = lambda u: u**k * np.exp(-u) * np.cos(omega * u + phi)
        settings = QuadratureSettings(rel_tol, quadrature.MAX_REFINEMENTS)
        value, _ = integrate_semi_infinite(lambda eta: g(eta * 2 * z), z, settings)
        assert abs(value * 2 * z - exact) <= rel_tol * abs(exact)


def record_loop(integrand, z, settings):
    """Worst-first splitting over (error, a, b, value) records, a stable sort
    and pop() taking the worst: (value or partial value, refinements, panels,
    evaluations, est_error), for an integral that is not zero."""
    scale = 1 / (2 * z)
    a, b = INITIAL_EDGES[:-1], INITIAL_EDGES[1:]
    first = quadrature._panel_set(a, b)
    kronrod, errors = quadrature._rules(integrand(first[2] * scale), first)
    panels = list(zip(errors.tolist(), a, b, kronrod.tolist()))
    refinements = 0
    while True:
        total, err_total = math.fsum(p[3] for p in panels), math.fsum(p[0] for p in panels)
        if err_total <= settings.rel_tol * abs(total) or refinements == settings.max_refinements:
            break
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        halves = quadrature._panel_set((lo, mid), (mid, hi))
        kronrod, errors = quadrature._rules(integrand(halves[2] * scale), halves)
        panels += zip(errors.tolist(), (lo, mid), (mid, hi), kronrod.tolist())
        refinements += 1
    return (float(np.float64(total) * scale), refinements, len(panels),
            168 + 42 * refinements, err_total / abs(total))


class TestEngine:
    @given(kind=st.sampled_from(["kink", "step", "oscillating", "square"]),
           c=st.floats(0.01, 30.0), p=st.floats(0.1, 1.5), omega=st.floats(0.0, 300.0),
           k=st.integers(-3, 11), rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12, 1e-13]),
           budget=st.integers(1, 200))
    @example(kind="square", c=1.0, p=1.0, omega=0.0, k=3, rel_tol=1e-8, budget=7)
    def test_splits_match_the_record_loop(self, kind, c, p, omega, k, rel_tol, budget):
        # Panels of equal estimates are split latest first, as pop() takes
        # the last of them after a stable sort, so every count and bit agrees,
        # whether the budget suffices or runs out.  A square wave of period
        # 2^(1-k) in u repeats on both halves of a split, so their estimates
        # are equal; the example splits them in the other order if the first
        # of the largest estimates is taken.
        g = {"kink": lambda u: np.abs(u - c) ** p * np.exp(-u),
             "step": lambda u: np.where(u > c, 2.0, 1.0) * np.exp(-u),
             "oscillating": lambda u: (1.5 + np.cos(omega * u)) * np.exp(-u),
             "square": lambda u: np.floor(u * 2.0**k) % 2 + 0.5}[kind]
        z, settings = 1e-5, QuadratureSettings(rel_tol, budget)
        f = lambda eta: g(eta * 2 * z)
        try:
            value, diag = integrate_semi_infinite(f, z, settings)
        except QuadratureError as err:
            value, diag = err.partial_value, err.diagnostics
        assert (value, diag.refinements, diag.panels, diag.evaluations,
                diag.est_error) == record_loop(f, z, settings)

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

    def test_cancellation_is_limited_by_the_floor(self):
        # e^-u cos(30u): its integral is 1/901 and that of |f| about 2/pi, 574
        # times more.  Its panels' floors of 50 eps sum to 6.4e-12 of the
        # integral: 1e-10 is met, 1e-12 never is.
        z = 1e-5
        f = lambda eta: np.exp(-eta * 2 * z) * np.cos(30 * eta * 2 * z)
        exact = 1 / 901 / (2 * z)
        value, _ = integrate_semi_infinite(f, z, QuadratureSettings(1e-10, 200))
        assert abs(value - exact) <= 1e-10 * exact
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(f, z, QuadratureSettings(1e-12, 200))
        floor = 50 * np.finfo(float).eps * (2 / math.pi) * 901
        assert err.value.diagnostics.est_error >= 0.95 * floor
        assert abs(err.value.partial_value - exact) <= 1e-10 * exact

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda eta: np.full_like(eta, np.nan), 1e-5)

    @pytest.mark.parametrize("integrand, shape", [
        (lambda eta: 1.0, "()"),
        (lambda eta: np.exp(-eta[::2]), "(84,)"),
        (lambda eta: np.tile(np.exp(-eta), 2), "(336,)"),
        (lambda eta: np.exp(-eta)[:, None], "(168, 1)"),
    ], ids=["scalar", "half", "twice", "column"])
    def test_integrand_of_another_shape_is_named(self, integrand, shape):
        # One value per eta is the integrand's contract; any other shape is a
        # DomainError naming both shapes, not a numpy error from the rules
        # and not, for a column, a silent reshape.
        with pytest.raises(DomainError, match=re.escape(
                f"integrand returned shape {shape} for eta of shape (168,)")):
            integrate_semi_infinite(integrand, 1e-5)

    def test_complex_integrand_is_refused(self):
        # Real values are the contract too: complex ones are not cast to
        # their real part under a ComplexWarning.
        with pytest.raises(DomainError, match=re.escape(
                "integrand returned shape (168,) for eta of shape (168,) (dtype complex128")):
            integrate_semi_infinite(lambda eta: np.exp(-eta * 2e-5) * (1 + 1j), 1e-5)

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
        # The floors sum to 50 eps of the integral of |f| however fine the
        # panels, so a smaller rel_tol could never be met; QUADPACK refuses
        # it too (ier = 6).
        floor = 50 * np.finfo(float).eps
        assert QuadratureSettings(rel_tol=floor).rel_tol == floor
        for rel_tol in (0.99 * floor, 1e-300):
            with pytest.raises(DomainError, match="rel_tol must be at least 50 machine epsilons"):
                QuadratureSettings(rel_tol=rel_tol)

