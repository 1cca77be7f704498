import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinflip.errors import ConfigError, QuasiStaticWarning, SpinflipError
from spinflip.materials import COPPER, DrudeMetal, NIOBIUM, VACUUM
from spinflip.rates import spin_flip_rate
from spinflip.stratified import Layer, LayerStack
from spinflip.sweep import (MAX_POINTS, RunConfig, SweepSpec, emit_csv, parse_config,
                            run_sweep, screening_factor)


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

    def test_rows_match_direct_calls(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        table = run_sweep(spec, config)
        for z, tau in zip(table.columns["z_m"], table.columns["tau_s"]):
            direct = spin_flip_rate(config.stack, z, config.transition,
                                    None, config.settings)
            assert tau == direct.tau

    def test_thickness_sweep_screening_endpoint(self):
        config, spec = parse_config(nb_config(
            sweep={"axis": "thickness_d", "min": 0.0, "max": 1e-6,
                   "points": 4, "spacing": "linear"}))
        table = run_sweep(spec, config)
        s = table.columns["screening_factor"]
        assert s[0] == 0.0  # exact: identical evaluation of d = 0
        assert all(b >= a for a, b in zip(s, s[1:]))

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

    def test_per_row_errors_recorded(self, monkeypatch):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        import spinflip.sweep as sweep_mod
        real = sweep_mod.spin_flip_rate
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SpinflipError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "spin_flip_rate", flaky)
        table = run_sweep(spec, config)
        status = table.columns["status"]
        assert status[1].startswith("error:")
        assert math.isnan(table.columns["tau_s"][1])
        assert status[0] == "ok" and status[2] == "ok"

    def test_all_rows_failing_raises(self, monkeypatch):
        config, spec = parse_config(nb_config(
            sweep={"axis": "distance_z", "min": 1e-6, "max": 1e-4,
                   "points": 3, "spacing": "log"}))
        import spinflip.sweep as sweep_mod

        def broken(*args, **kwargs):
            raise SpinflipError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "spin_flip_rate", broken)
        with pytest.raises(SpinflipError, match="synthetic failure"):
            run_sweep(spec, config)

    def test_reduced_temperature_without_superconductor(self, monkeypatch):
        raw = nb_config(sweep={"axis": "reduced_T_over_Tc", "min": 0.5, "max": 1.5,
                               "points": 3})
        raw["stack"]["layers"] = [{"material": "vacuum"}, {"material": "copper"}]
        config, spec = parse_config(raw)
        import spinflip.sweep as sweep_mod
        calls = []
        monkeypatch.setattr(sweep_mod, "spin_flip_rate", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="superconducting layer"):
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
    ])
    def test_invalid_configs_rejected(self, mutate):
        raw = nb_config()
        mutate(raw)
        with pytest.raises(ConfigError):
            parse_config(raw)

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
