import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import spinflip.sweep
from spinflip.constants import TransitionSpec
from spinflip.errors import ConfigError, QuasiStaticWarning, SpinflipError
from spinflip.figures import figure_curves
from spinflip.materials import (BSCCO, COPPER, NIOBIUM, VACUUM, DrudeMetal,
                                IsotropicSuperconductor, TwoFluidParams,
                                UniaxialSuperconductor, Vacuum)
from spinflip.quadrature import QuadratureSettings
from spinflip.rates import _gamma, spin_flip_rate
from spinflip.stratified import Layer, LayerStack
from spinflip.sweep import (CHUNK, MAX_POINTS, RunConfig, SweepSpec, SweepTable, emit_csv,
                            parse_config, run_sweep, screening_factor)


def nb_config(**overrides):
    raw = {
        "stack": {"layers": [{"material": "vacuum"},
                             {"material": "niobium", "thickness": 1e-6},
                             {"material": "copper"}],
                  "temperature": 4.2},
        "z": 1e-5,
    }
    raw.update(overrides)
    return raw


# Paths to every numeric field of a config with all optional sections.
NUMERIC_FIELDS = [
    ("stack", "temperature"),
    ("stack", "layers", 1, "thickness"),
    ("z",),
    ("transition", "frequency"),
    ("transition", "matrix_elements", 0),
    ("quadrature", "rel_tol"),
    ("quadrature", "max_refinements"),
    ("sweep", "min"),
    ("sweep", "max"),
    ("sweep", "points"),
]

TWO_FLUID = {"lambda0": 3e-7, "Tc": 80.0, "sigma_normal": 1e6, "alpha": 1}


def full_config():
    """A config that uses every object of the schema and every optional key."""
    return {
        "materials": [
            {"label": "gap", "variant": "vacuum", "parameters": {}},
            {"label": "bulk", "variant": "drude_metal", "parameters": {"sigma": 5.8e7}},
            {"label": "sc", "variant": "isotropic_sc",
             "parameters": {**TWO_FLUID, "first_critical_field": 0.1, "gap_frequency": 7e11}},
            {"label": "layered", "variant": "uniaxial_sc",
             "parameters": {"transverse": dict(TWO_FLUID),
                            "longitudinal": {**TWO_FLUID, "lambda0": 1e-4},
                            "first_critical_field": None, "gap_frequency": 7e12}},
        ],
        "stack": {"layers": [{"material": "gap"},
                             {"material": "layered", "thickness": 1e-6},
                             {"material": "bulk"}],
                  "temperature": 4.2},
        "z": 1e-5,
        "transition": {"frequency": 560e3, "label": "clock",
                       "matrix_elements": [0.25, 0, 0.25]},
        "quadrature": {"rel_tol": 1e-8, "max_refinements": 60},
        "sweep": {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 3,
                  "spacing": "log"},
    }


# Paths to every JSON object of full_config().
CONFIG_OBJECTS = [
    (), ("stack",), ("stack", "layers", 0), ("stack", "layers", 1), ("stack", "layers", 2),
    ("transition",), ("quadrature",), ("sweep",),
    *(("materials", i) for i in range(4)), *(("materials", i, "parameters") for i in range(4)),
    ("materials", 3, "parameters", "transverse"), ("materials", 3, "parameters", "longitudinal"),
]

# Any value json.load can return (NaN and infinities included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


class TestSweepSpec:
    def test_grid_shapes(self):
        lin = SweepSpec("distance_z", 1e-6, 1e-4, 5).grid()
        assert lin[0] == 1e-6 and lin[-1] == 1e-4 and len(lin) == 5
        log = SweepSpec("distance_z", 1e-6, 1e-4, 5, "log").grid()
        assert log[1] / log[0] == pytest.approx(log[2] / log[1], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec("bogus_axis", 0.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", 1.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", 0.0, 1.0, 5, "log")
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", 0.0, 1.0, 5, "cubic")
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", 1e-6, math.inf, 5)
        with pytest.raises(ConfigError):
            SweepSpec("distance_z", math.nan, 1.0, 5)

    @pytest.mark.parametrize("args", [
        ("distance_z", 1e-6, 1e-5, 2.5),
        ("distance_z", 1e-6, 1e-5, 5.0),
        ("distance_z", 1e-6, 1e-5, "5"),
        ("distance_z", "1e-6", 1e-5, 5),
        ("distance_z", 1e-6, None, 5),
        ("thickness_d", 0, 10**400, 3),
        ("distance_z", False, 1e-5, 3),
    ], ids=["points-fraction", "points-float", "points-str", "min-str", "max-none",
            "max-huge-int", "min-bool"])
    def test_wrong_type_is_config_error(self, args):
        # At construction, not as a TypeError from grid() or a comparison
        # or a numpy UFuncTypeError from run_sweep.
        with pytest.raises(ConfigError):
            SweepSpec(*args)

    def test_points_bounded(self):
        # Construction only: no grid of the maximum size is built here.
        assert SweepSpec("distance_z", 1e-6, 1e-5, MAX_POINTS).points == MAX_POINTS
        for points in (MAX_POINTS + 1, 10**9, 10**15):
            with pytest.raises(ConfigError, match="points"):
                SweepSpec("distance_z", 1e-6, 1e-5, points)


class TestRunConfig:
    @pytest.mark.parametrize("z", ["1e-5", None, 1e-5j], ids=["str", "none", "complex"])
    def test_wrong_type_z_is_config_error(self, copper_stack, z):
        with pytest.raises(ConfigError):
            RunConfig(copper_stack, z)

    @pytest.mark.parametrize("field, value", [
        ("stack", "x"), ("stack", None), ("transition", None), ("transition", 560e3),
        ("settings", None), ("settings", {"rel_tol": 1e-8})])
    def test_wrong_type_field_is_config_error(self, copper_stack, field, value):
        # At construction, not as an AttributeError from run_sweep or a
        # failure on every row.
        kwargs = {"stack": copper_stack, "z": 1e-5, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be a"):
            RunConfig(**kwargs)


class TestScreeningFactor:
    def test_zero_thickness_is_zero(self, niobium_stack):
        s = screening_factor(niobium_stack.with_film_thickness(0.0), 1e-5)
        assert s == 0.0

    def test_copper_film_on_copper_screens_nothing(self, copper_stack):
        s = LayerStack((Layer(VACUUM), Layer(COPPER, 1e-6), Layer(COPPER)), 4.2)
        assert abs(screening_factor(s, 1e-5)) < 1e-6

    def test_saturation_beyond_ten_penetration_depths(self, niobium_stack):
        s10 = screening_factor(niobium_stack.with_film_thickness(350e-9), 1e-5)
        s20 = screening_factor(niobium_stack.with_film_thickness(700e-9), 1e-5)
        assert s20 >= s10
        assert (s20 - s10) <= 0.05 * s20

    def test_positive_for_canonical_film(self, niobium_stack):
        assert screening_factor(niobium_stack, 1e-5) > 1.0


class TestRunSweep:
    def test_distance_sweep_monotone_tau(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 6, "spacing": "log"}))
        table = run_sweep(spec, config)
        tau = table.columns["tau_s"]
        assert all(a < b for a, b in zip(tau, tau[1:]))
        assert all(s == "ok" for s in table.columns["status"])

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("film, sweep", [
        ("niobium", {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 7,
                     "spacing": "log"}),
        ("bscco", {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 7,
                   "spacing": "log"}),
        ("niobium", {"axis": "thickness_d", "min": 0.0, "max": 2e-6, "points": 7}),
        ("bscco", {"axis": "thickness_d", "min": 1e-8, "max": 5e-6, "points": 7,
                   "spacing": "log"}),
        ("niobium", {"axis": "temperature_T", "min": 1.0, "max": 12.0, "points": 7}),
        ("bscco", {"axis": "reduced_T_over_Tc", "min": 0.2, "max": 1.4, "points": 7}),
        # One chunk and then some: the rows span two calls.
        ("niobium", {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": CHUNK + 6,
                     "spacing": "log"}),
        # z = 0 fails, and with it the call that holds it: its rows run again
        # one at a time, and only z = 0 is an error row.
        ("bscco", {"axis": "distance_z", "min": 0.0, "max": 1e-4, "points": 5}),
        # d < 0 fails as its stack is built, before any call.
        ("niobium", {"axis": "thickness_d", "min": -5e-7, "max": 1e-6, "points": 4}),
        # T rows share calls over a medium with a row axis: a first chunk that
        # crosses Tc (its last row, 8.51 K, stands for every row above it),
        # and curves of two and three chunks.
        ("niobium", {"axis": "temperature_T", "min": 4.2, "max": 12.2, "points": CHUNK + 6}),
        ("bscco", {"axis": "temperature_T", "min": 1.0, "max": 120.0,
                   "points": 2 * CHUNK + 3}),
        ("niobium", {"axis": "reduced_T_over_Tc", "min": 0.05, "max": 0.95,
                     "points": 2 * CHUNK + 1}),
        ("bscco", {"axis": "reduced_T_over_Tc", "min": 0.1, "max": 1.2,
                   "points": CHUNK + 3, "spacing": "log"}),
        # d rows at one height share their eta, roots and interface quotients,
        # over three calls.
        ("bscco", {"axis": "thickness_d", "min": 1e-9, "max": 1e-5,
                   "points": 2 * CHUNK + 3, "spacing": "log"}),
        # T rows whose substrate changes with T below its Tc (a "film/substrate"
        # stack, "/substrate" a bare one): only the layers that are the same in
        # every row of a call may share a root.
        ("bscco/niobium", {"axis": "temperature_T", "min": 1.0, "max": 120.0,
                           "points": 2 * CHUNK + 3}),
        ("/niobium", {"axis": "temperature_T", "min": 1.0, "max": 12.0, "points": CHUNK + 3}),
        ("copper/niobium", {"axis": "temperature_T", "min": 1.0, "max": 12.0,
                            "points": CHUNK + 3}),
    ], ids=["z-nb", "z-bscco", "d-nb", "d-bscco", "T-nb", "T/Tc-bscco", "z-chunks",
            "z-zero", "d-negative", "T-nb-crossing-chunk", "T-bscco-chunks",
            "T/Tc-nb-chunks", "T/Tc-bscco-chunks", "d-bscco-chunks", "T-bscco-on-nb",
            "T-bare-nb", "T-cu-on-nb"])
    def test_rows_match_direct_calls(self, monkeypatch, film, sweep, rel_tol):
        # Every row of a sweep equals its own spin_flip_rate, bit for bit,
        # however the sweep groups the rows into calls; a row that refines
        # (most do at rel_tol 1e-12) refines as it does alone.  A call fails
        # only if one of its rows does, so no call runs again row by row.
        failed = []   # the rows of each rate call that raised

        def recorded(stack, z, *args, _real=spinflip.sweep._gamma, **kwargs):
            try:
                return _real(stack, z, *args, **kwargs)
            except SpinflipError:
                failed.append(len(z))
                raise
        monkeypatch.setattr(spinflip.sweep, "_gamma", recorded)
        raw = nb_config(sweep=sweep, quadrature={"rel_tol": rel_tol, "max_refinements": 200})
        film, substrate = film.split("/") if "/" in film else (film, "copper")
        raw["stack"]["layers"] = [{"material": "vacuum"}, *(
            [{"material": film, "thickness": 1e-6}] if film else []), {"material": substrate}]
        config, spec = parse_config(raw)
        table = run_sweep(spec, config)
        # Tc of each superconducting layer below the vacuum, top to bottom
        tcs = [m.params.Tc if isinstance(m, IsotropicSuperconductor) else m.transverse.Tc
               for m in (layer.material for layer in config.stack.layers[1:])
               if isinstance(m, (IsotropicSuperconductor, UniaxialSuperconductor))]
        stack, z, T = config.stack, config.z, config.stack.temperature
        row = {"distance_z": lambda v: (stack, v, T),
               "thickness_d": lambda v: (stack.with_film_thickness(v), z, T),
               "temperature_T": lambda v: (stack, z, v),
               "reduced_T_over_Tc": lambda v: (stack, z, v * tcs[0])}[spec.axis]
        expected = {"gamma_total_per_s": [], "tau_s": [], "n_th": [], "status": []}
        refining = 0
        for v in spec.grid():
            try:
                s, zv, Tv = row(float(v))
                r = spin_flip_rate(s, zv, config.transition, Tv, config.settings)
            except SpinflipError as exc:
                values, status = [math.nan] * 3, f"error: {exc}"
            else:
                values = [r.gamma_total, r.tau, r.n_th]
                status = "normal-state film" if any(Tv >= tc for tc in tcs) else "ok"
                refining += r.diagnostics.refinements > 0
            for name, value in zip(expected, values + [status]):
                expected[name].append(value)
        for name, column in expected.items():
            np.testing.assert_array_equal(table.columns[name], column, strict=True)
        errors = sum(status.startswith("error:") for status in expected["status"])
        assert errors == (sweep["min"] <= 0 and sweep["axis"] != "thickness_d"
                          or sweep["min"] < 0)
        # z = 0 fails its call of every row, then alone; d < 0 fails before any call
        assert failed == ([spec.points, 1] if errors and spec.axis == "distance_z" else [])
        assert (refining > 0) == (rel_tol == 1e-12)

    @given(kind=st.integers(0, 2), T=st.floats(0.0, 300.0), film_sigma=st.floats(2, 9),
           lambda0=st.floats(-8, -5), tc=st.floats(1.0, 150.0), alpha=st.sampled_from([1.0, 4.0]),
           lambda_perp0=st.floats(-6, -3), sigma_perp=st.floats(1, 6),
           d=st.floats(-9, -5), substrate_sigma=st.floats(2, 9))
    # A 10 um film far below its Tc = 1 K on a poor conductor: at these T
    # the integrand is subnormal, and the rows converge on the absolute floor.
    @example(kind=1, T=1e-310, film_sigma=7.0, lambda0=-8.0, tc=1.0, alpha=1.0,
             lambda_perp0=-6.0, sigma_perp=1.0, d=-5.0, substrate_sigma=2.0)
    @example(kind=1, T=2.225073858507e-311, film_sigma=7.0, lambda0=-8.0, tc=1.0, alpha=1.0,
             lambda_perp0=-6.0, sigma_perp=1.0, d=-5.0, substrate_sigma=2.0)
    def test_rate_is_completely_monotone_in_z(self, kind, T, film_sigma, lambda0, tc, alpha,
                                              lambda_perp0, sigma_perp, d, substrate_sigma):
        # Gamma(z) is the Laplace transform of a non-negative spectrum over a
        # passive stack (the random stacks of acceptance criterion 13), so by
        # Bernstein's theorem it decreases and is log-convex in z: no oracle
        # needed.  The slack is the quadrature's relative tolerance.
        if kind == 0:
            film = DrudeMetal(10 ** film_sigma)
        elif kind == 1:
            film = IsotropicSuperconductor(TwoFluidParams(10 ** lambda0, tc, 10 ** film_sigma,
                                                          alpha))
        else:
            film = UniaxialSuperconductor(
                TwoFluidParams(10 ** lambda0, tc, 10 ** film_sigma, 1.0),
                TwoFluidParams(10 ** lambda_perp0, tc, 10 ** sigma_perp, 1.0))
        stack = LayerStack((Layer(VACUUM), Layer(film, 10 ** d),
                            Layer(DrudeMetal(10 ** substrate_sigma))), T)
        spec = SweepSpec("distance_z", 1e-6, 1e-4, 9, "log")
        table = run_sweep(spec, RunConfig(stack, 1e-5))
        z, gamma = np.array(table.columns["z_m"]), np.array(table.columns["gamma_total_per_s"])
        slack = 3 * RunConfig(stack, 1e-5).settings.rel_tol
        assert np.all(gamma >= 0) and np.all(gamma[1:] <= gamma[:-1] * (1 + slack))
        # Each inner point lies on or below the chord of its neighbours, where
        # the rates are far from the subnormal range (a screened film can
        # underflow the rate to 0).
        w = (z[2:] - z[1:-1]) / (z[2:] - z[:-2])
        log_gamma = np.log(np.maximum(gamma, 1e-250))
        chord = w * log_gamma[:-2] + (1 - w) * log_gamma[2:]
        assert np.all((log_gamma[1:-1] <= chord + slack) | (gamma[2:] <= 1e-250))

    def test_thickness_sweep_screening_endpoint(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "thickness_d", "min": 0.0, "max": 1e-6,
                   "points": 4, "spacing": "linear"}))
        table = run_sweep(spec, config)
        s = table.columns["screening_factor"]
        assert s[0] == 0.0  # exact: identical evaluation of d = 0
        assert all(b >= a for a, b in zip(s, s[1:]))

    @pytest.mark.parametrize("lo, calls", [(0.0, 1), (1e-7, 2)],
                             ids=["grid-holds-0", "grid-without-0"])
    def test_tau0_is_a_row_of_the_chunked_calls(self, monkeypatch, lo, calls):
        # The bare substrate's tau0 is the first distinct row of the sweep's
        # _gamma calls, not a spin_flip_rate call of its own: a grid of CHUNK
        # rows that holds d = 0 takes one call, and one without it two.
        config, spec = parse_config(nb_config(
            sweep={"axis": "thickness_d", "min": lo, "max": 2e-6, "points": CHUNK}))
        import spinflip.sweep as sweep_mod
        gammas, singles = [], []
        monkeypatch.setattr(sweep_mod, "_gamma",
                            lambda *args, **kw: gammas.append(kw["d"]) or _gamma(*args, **kw))
        monkeypatch.setattr(sweep_mod, "spin_flip_rate", lambda *args: singles.append(args))
        table = run_sweep(spec, config)
        assert singles == [] and len(gammas) == calls and gammas[0][0] == 0.0
        tau0 = spin_flip_rate(config.stack.with_film_thickness(0.0), config.z,
                              config.transition, None, config.settings).tau
        assert table.columns["screening_factor"] == [(tau - tau0) / tau0
                                                     for tau in table.columns["tau_s"]]

    def test_failing_tau0_raises_its_error(self, monkeypatch):
        # Every grid row succeeds, but without tau0 no row has a screening factor.
        config, spec = parse_config(nb_config(
            sweep={"axis": "thickness_d", "min": 1e-7, "max": 2e-6, "points": 3}))
        import spinflip.sweep as sweep_mod

        def flaky(*args, d, **kwargs):
            if 0.0 in (d if isinstance(d, list) else [d]):
                raise SpinflipError("synthetic tau0 failure")
            return _gamma(*args, d=d, **kwargs)

        monkeypatch.setattr(sweep_mod, "_gamma", flaky)
        with pytest.raises(SpinflipError, match="^synthetic tau0 failure$"):
            run_sweep(spec, config)

    def test_temperature_sweep_regime_status(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "temperature_T", "min": 4.2, "max": 12.0,
                   "points": 5, "spacing": "linear"}))
        table = run_sweep(spec, config)
        for T, status in zip(table.columns["T_K"], table.columns["status"]):
            assert status == ("normal-state film" if T >= 8.3 else "ok")

    def test_above_tc_rows_equal_drude_stack(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "temperature_T", "min": 9.0, "max": 20.0,
                   "points": 4, "spacing": "linear"}))
        table = run_sweep(spec, config)
        drude = LayerStack((Layer(VACUUM), Layer(DrudeMetal(1e7), 1e-6),
                            Layer(COPPER)), 4.2)
        for T, tau in zip(table.columns["T_K"], table.columns["tau_s"]):
            ref = spin_flip_rate(drude, 1e-5, T=T)
            assert tau == pytest.approx(ref.tau, rel=1e-10)

    def test_reduced_temperature_axis(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "reduced_T_over_Tc", "min": 0.5, "max": 1.5,
                   "points": 5, "spacing": "linear"}))
        table = run_sweep(spec, config)
        # T/Tc = 1.5 must equal a plain temperature evaluation at 1.5 * 8.3 K
        ref = spin_flip_rate(config.stack, 1e-5, T=1.5 * 8.3)
        assert table.columns["tau_s"][-1] == pytest.approx(ref.tau, rel=1e-12)

    def test_reused_rows_match_the_definition(self, monkeypatch):
        # Rows whose medium repeats (every film above its Tc) share one field
        # rate; each row must still equal its own spin_flip_rate.  `calls`
        # holds the rows of each _gamma call: one per distinct medium.
        import spinflip.sweep as sweep_mod
        calls = []

        def spy(stack, z, *args, **kwargs):
            calls.extend(z)
            return _gamma(stack, z, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_gamma", spy)
        counts = []
        for curve in figure_curves("fig4") + figure_curves("fig5"):
            config, spec = parse_config({k: v for k, v in curve.items() if k != "name"})
            tc = NIOBIUM.params.Tc if curve["name"].startswith("niobium") else BSCCO.transverse.Tc
            calls.clear()
            table = run_sweep(spec, config)
            counts.append(len(calls))
            temps = [float(v) * (tc if spec.axis == "reduced_T_over_Tc" else 1.0)
                     for v in spec.grid()]
            rates = [spin_flip_rate(config.stack, config.z, config.transition, T,
                                    config.settings) for T in temps]
            expected = {"gamma_total_per_s": [r.gamma_total for r in rates],
                        "tau_s": [r.tau for r in rates], "n_th": [r.n_th for r in rates]}
            for name, column in expected.items():
                np.testing.assert_array_equal(table.columns[name], column, strict=True)
            assert table.columns["status"] == [
                "normal-state film" if T >= tc else "ok" for T in temps]
        assert counts == [6, 55, 25, 25, 31, 31]

    def test_failing_row_of_a_temperature_chunk(self, monkeypatch):
        # 4.2-12.2 K over Nb: rows below 8.3 K are 5 media, and the 4 rows
        # above share the 9.2 K row's; all 6 are one call.  The 6.2 K row
        # fails, and with it that call: its rows run again one at a time, and
        # every other row keeps its own values and status.
        config, spec = parse_config(nb_config(
            sweep={"axis": "temperature_T", "min": 4.2, "max": 12.2, "points": 9}))
        import spinflip.sweep as sweep_mod
        temps = [float(T) for T in spec.grid()]
        calls = []

        def flaky(stack, z, transition, T, *args, **kwargs):
            calls.append(T)
            if temps[2] in (T if isinstance(T, list) else [T]):
                raise SpinflipError("synthetic failure")
            return _gamma(stack, z, transition, T, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_gamma", flaky)
        table = run_sweep(spec, config)
        assert calls == [temps[:6]] + temps[:6]
        for i, T in enumerate(temps):
            values = [table.columns[name][i] for name in ("gamma_total_per_s", "tau_s", "n_th")]
            if i == 2:
                assert table.columns["status"][i] == "error: synthetic failure"
                assert all(math.isnan(v) for v in values)
                continue
            r = spin_flip_rate(config.stack, config.z, config.transition, T, config.settings)
            assert values == [r.gamma_total, r.tau, r.n_th]
            assert table.columns["status"][i] == ("normal-state film" if T >= 8.3 else "ok")

    def test_reused_row_overflow_is_a_row_error(self, monkeypatch):
        # T = 2e303 K and 4e303 K share the 1 K row's field rate over bare
        # copper, and their thermal occupation overflows double precision.
        config, spec = parse_config({
            "stack": {"layers": [{"material": "vacuum"}, {"material": "copper"}],
                      "temperature": 4.2},
            "z": 1e-8,
            "transition": {"frequency": 560e3, "matrix_elements": [1e3, 1e3, 1e3]},
            "sweep": {"axis": "temperature_T", "min": 1, "max": 4e303, "points": 3}})
        import spinflip.sweep as sweep_mod
        calls = []
        monkeypatch.setattr(sweep_mod, "_gamma",
                            lambda *args, **kw: calls.append(args) or _gamma(*args, **kw))
        status = run_sweep(spec, config).columns["status"]
        expected = []
        for T in spec.grid():
            try:
                spin_flip_rate(config.stack, config.z, config.transition, float(T),
                               config.settings)
                expected.append("ok")
            except SpinflipError as exc:
                expected.append(f"error: {exc}")
        assert len(calls) == 1   # the overflowing rows reuse the first row's rate
        assert status == expected
        assert status[1].startswith("error: the rate at z = 1e-08 m overflows double "
                                    "precision (thermal occupation ")

    def test_per_row_errors_recorded(self, monkeypatch):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        import spinflip.sweep as sweep_mod
        real = sweep_mod._gamma
        middle = float(spec.grid()[1])

        def flaky(stack, z, *args, **kwargs):
            # The middle row fails, and with it every call that includes it.
            if middle in z:
                raise SpinflipError("synthetic failure")
            return real(stack, z, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "_gamma", flaky)
        table = run_sweep(spec, config)
        status = table.columns["status"]
        assert status[1].startswith("error:")
        assert math.isnan(table.columns["tau_s"][1])
        assert status[0] == "ok" and status[2] == "ok"

    def test_wrong_type_arguments_are_config_errors(self, copper_stack):
        spec = SweepSpec("distance_z", 1e-6, 1e-5, 3)
        config = RunConfig(copper_stack, 1e-5)
        for args in (("x", config), (spec, "x"), (spec, None), (config, spec)):
            with pytest.raises(ConfigError, match="run_sweep needs a SweepSpec and a RunConfig"):
                run_sweep(*args)

    def test_all_rows_failing_raises(self, monkeypatch):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        import spinflip.sweep as sweep_mod

        def broken(*args, **kwargs):
            raise SpinflipError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "_gamma", broken)
        with pytest.raises(SpinflipError, match="synthetic failure"):
            run_sweep(spec, config)

    def test_reduced_temperature_without_superconductor(self, monkeypatch):
        raw = nb_config(sweep={"axis": "reduced_T_over_Tc", "min": 0.5, "max": 1.5,
                               "points": 3})
        raw["stack"]["layers"] = [{"material": "vacuum"}, {"material": "copper"}]
        config, spec = parse_config(raw)
        import spinflip.sweep as sweep_mod
        calls = []
        monkeypatch.setattr(sweep_mod, "_gamma", lambda *args, **kw: calls.append(args))
        with pytest.raises(ConfigError, match="superconducting layer"):
            run_sweep(spec, config)
        assert calls == []

    def test_thickness_sweep_without_film(self, monkeypatch):
        raw = nb_config(sweep={"axis": "thickness_d", "min": 0.0, "max": 1e-6,
                               "points": 3})
        raw["stack"]["layers"] = [{"material": "vacuum"}, {"material": "copper"}]
        config, spec = parse_config(raw)
        import spinflip.sweep as sweep_mod
        calls = []
        monkeypatch.setattr(sweep_mod, "_gamma", lambda *args, **kw: calls.append(args))
        with pytest.raises(ConfigError, match="^thickness sweep requires a film layer$"):
            run_sweep(spec, config)
        assert calls == []

    @pytest.mark.parametrize("axis, lo, hi", [
        ("distance_z", 1e-5, 2e-5), ("temperature_T", 4.2, 6.0)])
    def test_quasi_static_warning_once_per_sweep(self, axis, lo, hi):
        # At 1e12 Hz every z >= 3 um is outside the quasi-static limit.
        config, spec = parse_config(nb_config(
            transition={"frequency": 1e12},
            sweep={"axis": axis, "min": lo, "max": hi, "points": 5}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_sweep(spec, config)
        assert table.rows == 5
        assert [w.category for w in caught] == [QuasiStaticWarning]
        assert caught[0].filename == __file__
        assert f"z = {hi if axis == 'distance_z' else 1e-5:g} m" in str(caught[0].message)


class TestEmitCsv:
    def make_table(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        return run_sweep(spec, config)

    def test_structure(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments[0].startswith("# spinflip ")
        assert any(l.startswith("# input:") for l in comments)
        header = lines[len(comments)]
        assert header.split(",")[0] == "z_m"
        assert len(lines) == len(comments) + 1 + table.rows

    def test_round_trip_is_value_exact(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        names = lines[0].split(",")
        for i, line in enumerate(lines[1:]):
            for name, field in zip(names, line.split(",")):
                original = table.columns[name][i]
                if isinstance(original, float):
                    assert float(field) == original or (
                        math.isnan(float(field)) and math.isnan(original))

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self.make_table(), a)
        emit_csv(self.make_table(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_comment_always_present(self, tmp_path):
        table = self.make_table()
        table.metadata = {}
        path = tmp_path / "bare.csv"
        emit_csv(table, path)
        assert path.read_text().startswith("# spinflip ")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(SpinflipError):
            emit_csv(self.make_table(), tmp_path / "missing" / "out.csv")

    def test_quoted_status_round_trips(self, tmp_path):
        status = 'error: a, "b"\nc'
        table = SweepTable(columns={"z_m": [1e-6, 0.1], "status": [status, "ok"]}, metadata={})
        path = tmp_path / "quoted.csv"
        emit_csv(table, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows == [["z_m", "status"], [format(1e-6, ".17g"), status],
                        [format(0.1, ".17g"), "ok"]]


class TestParseConfig:
    def test_minimal(self):
        config, spec = parse_config(nb_config())
        assert spec is None
        assert config.z == 1e-5
        assert config.stack.temperature == 4.2
        assert config.transition.frequency == 560e3

    def test_material_override(self):
        raw = nb_config(materials=[
            {"label": "dirty-metal", "variant": "drude_metal",
             "parameters": {"sigma": 1e5}}])
        raw["stack"]["layers"][2] = {"material": "dirty-metal"}
        config, _ = parse_config(raw)
        assert config.stack.layers[2].material.sigma == 1e5

    def test_repeated_material_label_is_refused(self):
        # A layer of 'm' would silently get the later entry's sigma.
        raw = nb_config(materials=[
            {"label": "m", "variant": "drude_metal", "parameters": {"sigma": 1e7}},
            {"label": "x", "variant": "vacuum"},
            {"label": "m", "variant": "drude_metal", "parameters": {"sigma": 5e7}}])
        raw["stack"]["layers"][2] = {"material": "m"}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == "materials[2] repeats the label 'm' of materials[0]"

    def test_preset_label_may_be_overridden(self):
        raw = nb_config(materials=[
            {"label": "copper", "variant": "drude_metal", "parameters": {"sigma": 1e7}}])
        config, _ = parse_config(raw)
        assert config.stack.layers[2].material == DrudeMetal(1e7, label="copper")

    def test_custom_materials_all_variants(self):
        raw = nb_config(materials=[
            {"label": "my-sc", "variant": "isotropic_sc",
             "parameters": {"lambda0": 50e-9, "Tc": 9.0, "sigma_normal": 1e6,
                            "alpha": 4}},
            {"label": "my-layered", "variant": "uniaxial_sc",
             "parameters": {
                 "transverse": {"lambda0": 3e-7, "Tc": 80.0,
                                "sigma_normal": 1e6, "alpha": 1},
                 "longitudinal": {"lambda0": 1e-4, "Tc": 80.0,
                                  "sigma_normal": 1e3, "alpha": 1}}}])
        raw["stack"]["layers"][1] = {"material": "my-layered", "thickness": 1e-6}
        config, _ = parse_config(raw)
        assert config.stack.is_anisotropic

    def test_quadrature_and_transition_sections(self):
        raw = nb_config(quadrature={"rel_tol": 1e-6},
                        transition={"frequency": 1e6, "label": "test"})
        config, _ = parse_config(raw)
        assert config.settings.rel_tol == 1e-6
        assert config.transition.frequency == 1e6

    def test_custom_vacuum_material(self):
        raw = nb_config(materials=[{"label": "gap", "variant": "vacuum"}])
        raw["stack"]["layers"][0] = {"material": "gap"}
        config, _ = parse_config(raw)
        assert config.stack.layers[0].material == Vacuum(label="gap")

    def test_matrix_elements(self):
        raw = nb_config(transition={"frequency": 1e6,
                                    "matrix_elements": [0.25, [0, 0.25], 0]})
        config, _ = parse_config(raw)
        assert config.transition.matrix_elements == (0.25, 0.25j, 0.0)

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw.pop("stack"),
        lambda raw: raw.pop("z"),
        lambda raw: raw.update(z=-1.0),
        lambda raw: raw["stack"].pop("temperature"),
        lambda raw: raw["stack"]["layers"][1].pop("thickness"),
        lambda raw: raw["stack"]["layers"].__setitem__(
            0, {"material": "copper"}),
        lambda raw: raw["stack"]["layers"].__setitem__(
            1, {"material": "nope", "thickness": 1e-6}),
        lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1.0,
                                      "max": 0.1, "points": 5}),
        lambda raw: raw.update(transition={"frequency": -5.0}),
        lambda raw: raw.update(z=math.nan),
        lambda raw: raw.update(z=math.inf),
        lambda raw: raw["stack"].update(temperature="warm"),
        lambda raw: raw["stack"].update(temperature=None),
        lambda raw: raw["stack"].update(temperature=math.nan),
        lambda raw: raw["stack"]["layers"][1].update(thickness="thin"),
        lambda raw: raw["stack"]["layers"][1].update(thickness=None),
        lambda raw: raw.update(sweep={"axis": "distance_z", "min": "a",
                                      "max": 1e-4, "points": 5}),
        lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6,
                                      "max": None, "points": 5}),
        lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6,
                                      "max": 1e-4, "points": "many"}),
        lambda raw: raw.update(quadrature={"rel_tol": "tight"}),
        lambda raw: raw.update(quadrature={"rel_tol": math.nan}),
        lambda raw: raw.update(stack=5),
        lambda raw: raw.update(quadrature=5),
        lambda raw: raw.update(transition=5),
        lambda raw: raw.update(transition=[560e3]),
        lambda raw: raw.update(sweep="distance_z"),
        lambda raw: raw.update(materials=5),
        lambda raw: raw.update(materials=[5]),
        lambda raw: raw.update(materials=[{"label": "m", "variant": "drude_metal",
                                           "parameters": 5}]),
        lambda raw: raw["stack"]["layers"].__setitem__(1, 5),
        lambda raw: raw["stack"]["layers"][2].update(material=["copper"]),
        lambda raw: raw.update(materials=[{
            "label": "m", "variant": "isotropic_sc",
            "parameters": {"lambda0": 5e-8, "Tc": 9.0, "sigma_normal": 1e6,
                           "alpha": 4, "first_critical_field": "high"}}]),
        lambda raw: raw.update(materials=[{
            "label": "m", "variant": "uniaxial_sc",
            "parameters": {
                "transverse": {"lambda0": 3e-7, "Tc": 80.0, "sigma_normal": 1e6,
                               "alpha": 1},
                "longitudinal": {"lambda0": 1e-4, "Tc": 70.0, "sigma_normal": 1e3,
                                 "alpha": 1}}}]),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": ["a", 0, 0]}),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": [["a", 0], 0, 0]}),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": [[1, 0, 0], 0, 0]}),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": [math.nan, 0, 0]}),
        lambda raw: raw.update(transition={"frequency": 1e6, "matrix_elements": 5}),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": [0.25, 0]}),
        lambda raw: raw.update(quadrature={"rel_tl": 1e-3}),
        lambda raw: raw.update(quadrature={"tail_threshold": 1e-12}),
        lambda raw: raw.update(quadrature={"abs_floor": 0.0}),
        lambda raw: raw.update(z="1e-5"),
        lambda raw: raw.update(z=True),
        lambda raw: raw.update(z=10**400),
        lambda raw: raw["stack"].update(temperature=False),
        lambda raw: raw.update(quadrature={"max_refinements": 7.9}),
        lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6,
                                      "max": 1e-4, "points": 5.5}),
        lambda raw: raw.update(transition={"frequency": 1e6,
                                           "matrix_elements": [True, 0, 0]}),
        lambda raw: raw.update(quadrature={"rel_tol": 1e-300, "max_refinements": 10**9}),
        lambda raw: raw["stack"].update(layers=[{"material": "vacuum"}]),
        lambda raw: raw["stack"].update(layers={"material": "vacuum"}),
    ])
    def test_invalid_configs_rejected(self, mutate):
        raw = nb_config()
        mutate(raw)
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("mutate, message", [
        (lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                                       "points": 3, "spaceing": "log"}), "'spaceing' in sweep"),
        (lambda raw: raw.update(transition={"frequency": 560e3, "matrix_element": [0.5, 0, 0]}),
         "'matrix_element' in transition"),
        (lambda raw: raw.update(quadratue={"rel_tol": 1e-3}), "'quadratue' in configuration"),
        (lambda raw: raw["stack"]["layers"][2].update(thickness=5.0),
         r"'thickness' in stack.layers\[2\]"),
        (lambda raw: raw["stack"]["layers"][0].update(thickness=5.0),
         r"'thickness' in stack.layers\[0\]"),
        (lambda raw: raw.update(comment="Nb on Cu"), "'comment' in configuration"),
        (lambda raw: raw.update(materials=[{"label": "m", "variant": "vacuum",
                                            "parameters": {"sigma": 1e7}}]),
         "'sigma' in material 'm' parameters"),
    ], ids=["sweep", "transition", "top-level-section", "substrate-thickness",
            "vacuum-thickness", "top-level", "vacuum-parameters"])
    def test_unknown_key_names_object_and_key(self, mutate, message):
        raw = nb_config()
        mutate(raw)
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) {message}"):
            parse_config(raw)

    @given(path=st.sampled_from(CONFIG_OBJECTS), key=st.text(max_size=8), value=JSON_VALUES)
    def test_any_extra_key_in_any_object(self, path, key, value):
        # full_config() holds every optional key, so any other key is unknown.
        raw = full_config()
        target = raw
        for step in path:
            target = target[step]
        assume(key not in target)
        target[key] = value
        with pytest.raises(ConfigError) as caught:
            parse_config(raw)
        assert f"unknown key(s) {key!r} in " in str(caught.value)

    @pytest.mark.parametrize("mutate, message", [
        (lambda raw: raw.update(materials=[{"label": 5, "variant": "vacuum"}]),
         r"materials\[0\]\.label must be a string"),
        (lambda raw: raw.update(transition={"frequency": 560e3, "label": {"a": 1}}),
         r"transition\.label must be a string"),
        (lambda raw: raw.update(sweep={"axis": 5, "min": 1e-6, "max": 1e-4, "points": 3}),
         r"sweep\.axis must be a string"),
        (lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                                       "points": 3, "spacing": ["log"]}),
         r"sweep\.spacing must be a string"),
    ], ids=["material-label", "transition-label", "axis", "spacing"])
    def test_text_field_is_a_string(self, mutate, message):
        # Read, not coerced: a number is not a label ("label": 5 once defined material '5').
        raw = nb_config()
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    def test_null_optional_key_is_absent(self):
        raw = nb_config(
            materials=[{"label": "sc", "variant": "isotropic_sc", "parameters": {
                "lambda0": 5e-8, "Tc": 9.0, "sigma_normal": 1e7, "alpha": 4,
                "gap_frequency": None}}],
            transition={"frequency": 560e3, "label": None, "matrix_elements": None},
            quadrature={"rel_tol": None, "max_refinements": 30},
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 3,
                   "spacing": None})
        config, spec = parse_config(raw)
        assert spec.spacing == "linear"
        assert config.transition == TransitionSpec(frequency=560e3, label="")
        assert config.settings == QuadratureSettings(max_refinements=30)
        nulls, spec = parse_config(nb_config(materials=None, transition=None,
                                             quadrature=None, sweep=None))
        plain, _ = parse_config(nb_config())
        assert spec is None
        assert (nulls.stack, nulls.transition, nulls.settings) == (
            plain.stack, plain.transition, plain.settings)

    @pytest.mark.parametrize("mutate, message", [
        (lambda raw: raw.update(z=None), "null 'z' in configuration"),
        (lambda raw: raw["stack"].update(temperature=None), "null 'temperature' in stack"),
        (lambda raw: raw.update(transition={"frequency": None}),
         "null 'frequency' in transition"),
        (lambda raw: raw.update(materials=[{"label": None, "variant": "vacuum"}]),
         r"null 'label' in materials\[0\]"),
        (lambda raw: raw.update(sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                                       "points": None}), "null 'points' in sweep"),
    ], ids=["z", "temperature", "frequency", "label", "points"])
    def test_null_required_key_names_it(self, mutate, message):
        raw = nb_config()
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    PARAMETERS = {   # a valid parameters object of each variant that takes numbers
        "drude_metal": {"sigma": 5.8e7},
        "isotropic_sc": {**TWO_FLUID, "first_critical_field": 0.1, "gap_frequency": 7e11},
        "uniaxial_sc": {"transverse": dict(TWO_FLUID),
                        "longitudinal": {**TWO_FLUID, "lambda0": 1e-4}, "gap_frequency": 7e12},
    }

    @staticmethod
    def material_error(variant, parameters):
        raw = nb_config(materials=[{"label": "m", "variant": variant, "parameters": parameters}])
        with pytest.raises(ConfigError) as caught:
            parse_config(raw)
        return str(caught.value)

    @pytest.mark.parametrize("value, problem", [("5e7", "a number"), (math.inf, "finite")],
                             ids=["string", "inf"])
    @pytest.mark.parametrize("variant, key, required", [
        ("drude_metal", "sigma", "sigma"),
        *(("isotropic_sc", key, key) for key in TWO_FLUID),
        ("isotropic_sc", "first_critical_field", "lambda0"),
        ("isotropic_sc", "gap_frequency", "lambda0"),
        ("uniaxial_sc", "gap_frequency", "transverse"),
    ])
    def test_parameter_value_error_names_its_object(self, variant, key, required, value,
                                                    problem):
        # The object that a missing required key of the same parameters names:
        # "material 'm' parameters", for a value error as for a key error.
        parameters = self.PARAMETERS[variant]
        missing = self.material_error(
            variant, {k: v for k, v in parameters.items() if k != required})
        assert missing.startswith(f"missing '{required}' in ")
        place = missing.split(" in ", 1)[1]
        assert place == "material 'm' parameters"
        assert (self.material_error(variant, {**parameters, key: value})
                == f"{place}.{key} must be {problem}")

    def test_uniaxial_component_names_its_part(self):
        parameters = self.PARAMETERS["uniaxial_sc"]
        transverse = {k: v for k, v in TWO_FLUID.items() if k != "lambda0"}
        assert (self.material_error("uniaxial_sc", {**parameters, "transverse": transverse})
                == "missing 'lambda0' in material 'm' transverse")
        assert (self.material_error("uniaxial_sc", {
            **parameters, "transverse": {**transverse, "lambda0": "3e-7"}})
            == "material 'm' transverse.lambda0 must be a number")

    def test_unknown_material_names_its_layer(self):
        raw = nb_config()
        raw["stack"]["layers"][1]["material"] = "nope"
        with pytest.raises(ConfigError, match=r"^stack\.layers\[1\]: unknown material 'nope'$"):
            parse_config(raw)

    def test_full_config_parses(self):
        config, spec = parse_config(full_config())
        assert config.stack.layers[1].material.label == "layered"
        assert spec.spacing == "log"

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_whole_number_fields(self):
        config, spec = parse_config(nb_config(
            quadrature={"max_refinements": 7.0},
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 5.0}))
        assert config.settings.max_refinements == 7 and spec.points == 5

    @given(path=st.sampled_from(NUMERIC_FIELDS), value=JSON_VALUES)
    def test_any_json_value_in_a_numeric_field(self, path, value):
        raw = nb_config(
            transition={"frequency": 560e3, "matrix_elements": [0.25, 0, 0.25]},
            quadrature={"rel_tol": 1e-8, "max_refinements": 60},
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 3})
        *parents, last = path
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
        try:
            config, _ = parse_config(raw)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)
