import contextlib
import csv
import io
import json
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflip.cli import main
from spinflip.errors import QuadratureError
from spinflip.quadrature import QuadratureSettings


def write_config(tmp_path, name="cfg.json", sweep=None, film="niobium", **overrides):
    raw = {
        "stack": {"layers": [{"material": "vacuum"},
                             {"material": film, "thickness": 1e-6},
                             {"material": "copper"}],
                  "temperature": 4.2},
        "z": 1e-5,
    }
    if sweep is not None:
        raw["sweep"] = sweep
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestRateCommand:
    def test_prints_key_value_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["rate", "--config", str(cfg)]) == 0
        out = capsys.readouterr()
        fields = dict(line.split("=", 1) for line in out.out.strip().splitlines())
        assert float(fields["tau_s"]) == pytest.approx(1.9386e11, rel=1e-3)
        assert float(fields["n_th"]) == pytest.approx(1.5627e5, rel=1e-3)
        assert "Meissner" in out.err  # validity note for the superconductor

    def test_quiet_suppresses_notes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["rate", "--config", str(cfg), "--quiet"]) == 0
        assert "Meissner" not in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rate", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        # json.load raises RecursionError, not JSONDecodeError, on this nesting.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert main(["rate", "--config", str(deep)]) == 1
        err = capsys.readouterr().err
        assert f"error: malformed JSON in {deep}" in err
        assert "Traceback" not in err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["rate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["rate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot read config {bad}" in err
        assert "Traceback" not in err

    def test_invalid_schema_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"z": 1e-5}))
        assert main(["rate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("overrides", [
        {"quadrature": 5},
        {"transition": {"frequency": 1e6, "matrix_elements": [["a", 0], 0, 0]}},
    ])
    def test_malformed_section_is_usage_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["rate", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"z": 1e-300},
        {"transition": {"frequency": 560e3, "matrix_elements": [1e200, 0, 0]}},
        {"materials": [{"label": "thin", "variant": "isotropic_sc", "parameters": {
            "lambda0": 1e-300, "Tc": 8.3, "sigma_normal": 1e7, "alpha": 4}}],
         "stack": {"layers": [{"material": "vacuum"}, {"material": "thin", "thickness": 1e-6},
                              {"material": "copper"}], "temperature": 4.2}},
    ], ids=["z", "matrix-element", "lambda0"])
    def test_overflowing_input_is_computation_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["rate", "--config", str(cfg), "--quiet"]) == 2
        assert "overflows double precision" in capsys.readouterr().err

    def test_negative_rate_is_computation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, transition={"frequency": 1e15})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["rate", "--config", str(cfg), "--quiet"]) == 2
        assert not caught  # --quiet silences the quasi-static warning
        assert "negative field rate" in capsys.readouterr().err

    def test_quasi_static_warning_without_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, transition={"frequency": 1e15})
        with pytest.warns(UserWarning, match="quasi-static"):
            assert main(["rate", "--config", str(cfg)]) == 2
        assert "negative field rate" in capsys.readouterr().err

    def test_quasi_static_warning_is_one_stderr_line(self, tmp_path, capsys, monkeypatch):
        # pytest records warnings; this display writes what formatwarning
        # makes of one to stderr, as the default display does outside pytest.
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
        monkeypatch.setattr(warnings, "showwarning", show)
        cfg = write_config(tmp_path, z=1000.0)
        format_before = warnings.formatwarning
        assert main(["rate", "--config", str(cfg)]) == 2
        assert warnings.formatwarning is format_before  # main restores it
        err = capsys.readouterr().err.splitlines()
        assert err[1] == ("warning: z = 1000 m is not small against the transition wavelength "
                          "535.344 m; the quasi-static rate formulas degrade")
        assert err[0].startswith("note: niobium") and err[2].startswith("computation error:")
        assert len(err) == 3
        assert main(["rate", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("computation error:")

    def test_unknown_quadrature_key_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, quadrature={"rel_tl": 1e-3})
        assert main(["rate", "--config", str(cfg)]) == 1
        assert "rel_tl" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"sweep": {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 3,
                    "spaceing": "log"}}, "'spaceing' in sweep"),
        ({"transition": {"frequency": 560e3, "matrix_element": [0.5, 0, 0]}},
         "'matrix_element' in transition"),
        ({"quadratue": {"rel_tol": 1e-3}}, "'quadratue' in configuration"),
        ({"stack": {"layers": [{"material": "vacuum"}, {"material": "copper", "thickness": 5.0}],
                    "temperature": 4.2}}, "'thickness' in stack.layers[1]"),
    ], ids=["sweep", "transition", "top-level", "substrate-thickness"])
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        assert main(["rate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: unknown key(s) {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, key", [
        ('"z": 1e-6, "z": 1e-5', "z"),
        ('"z": 1e-5', "temperature"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_usage_error(self, tmp_path, capsys, text, key):
        # json.load keeps the last value of a repeated key, so a copy-paste
        # slip would run silently at it.
        temperature = '4.2, "temperature": 77.0' if key == "temperature" else "4.2"
        cfg = tmp_path / "repeated.json"
        cfg.write_text('{"stack": {"layers": [{"material": "vacuum"}, {"material": "copper"}], '
                       f'"temperature": {temperature}}}, {text}}}')
        assert main(["rate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: repeated key {key!r}" in err
        assert "Traceback" not in err

    def test_numeric_material_label_is_usage_error(self, tmp_path, capsys):
        # A label is read as a string, not coerced: 5 once defined material '5'.
        cfg = write_config(tmp_path, film="5", materials=[
            {"label": 5, "variant": "drude_metal", "parameters": {"sigma": 1e7}}])
        assert main(["rate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: materials[0].label must be a string" in err
        assert "Traceback" not in err

    def test_non_finite_value_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, z=float("nan"))
        assert main(["rate", "--config", str(cfg)]) == 1
        assert "z must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"materials": [{"label": "m1", "variant": "drude_metal", "parameters": {"sigma": 1e7}},
                        {"label": "m2", "variant": "drude_metal", "parameters": {"sigma": -1}}],
          "stack": {"layers": [{"material": "vacuum"}, {"material": "m1", "thickness": 1e-6},
                               {"material": "m2"}], "temperature": 4.2}},
         "material 'm2': sigma must be positive"),
        ({"materials": [{"label": "b", "variant": "uniaxial_sc", "parameters": {
            "transverse": {"lambda0": 3e-7, "Tc": 90, "sigma_normal": 4.5e7, "alpha": 1},
            "longitudinal": {"lambda0": -1e-4, "Tc": 90, "sigma_normal": 4.5e4, "alpha": 1}}}]},
         "material 'b' longitudinal: lambda0 must be positive"),
        ({"stack": {"layers": [{"material": "vacuum"},
                               {"material": "niobium", "thickness": -1e-6},
                               {"material": "copper"}], "temperature": 4.2}},
         "stack.layers[1]: layer thickness must be non-negative"),
        ({"stack": {"layers": [{"material": "vacuum"}, {"material": "copper"}],
                    "temperature": -1}}, "stack: temperature must be non-negative"),
        ({"stack": {"layers": [{"material": "copper"}, {"material": "vacuum"}],
                    "temperature": 4.2}}, "stack: layer 1 must be vacuum"),
        ({"transition": {"frequency": 1e308}}, "transition: transition frequency 1e+308 Hz: 2 pi f overflows"),
        ({"quadrature": {"rel_tol": -1e-8}}, "quadrature: rel_tol"),
        ({"quadrature": {"rel_tol": 1e-300, "max_refinements": 10**9}},
         "quadrature: max_refinements must be from 1 to 1000"),
        ({"quadrature": {"rel_tol": 1e-15}}, "quadrature: rel_tol must be at least 50"),
        ({"materials": [{"label": "c", "variant": "drude_metal", "parameters": {"sigma": "5e7"}}],
          "stack": {"layers": [{"material": "vacuum"}, {"material": "niobium", "thickness": 1e-6},
                               {"material": "c"}], "temperature": 4.2}},
         "material 'c' parameters.sigma must be a number"),
        ({"materials": [{"label": "m", "variant": "drude_metal", "parameters": {"sigma": 1e7}},
                        {"label": "m", "variant": "drude_metal", "parameters": {"sigma": 5e7}}],
          "stack": {"layers": [{"material": "vacuum"}, {"material": "niobium", "thickness": 1e-6},
                               {"material": "m"}], "temperature": 4.2}},
         "materials[1] repeats the label 'm' of materials[0]"),
    ], ids=["two-materials", "uniaxial-component", "layer", "temperature", "top-layer",
            "transition", "quadrature", "max-refinements", "rel-tol-floor", "string-parameter",
            "repeated-label"])
    def test_range_error_names_its_place(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        assert main(["rate", "--config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1e999"])
    def test_bad_tol_is_usage_error(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path)
        assert main(["rate", "--config", str(cfg), "--tol", tol]) == 1
        assert f"tolerance {tol}: rel_tol must be positive and finite" in capsys.readouterr().err

    def test_tol_below_the_quadrature_floor_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["rate", "--config", str(cfg), "--tol", "1e-15"]) == 1
        assert "rel_tol must be at least 50 machine epsilons" in capsys.readouterr().err

    def test_tol_keeps_other_quadrature_fields(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, quadrature={"max_refinements": 7})
        import spinflip.cli as cli_mod
        seen = []
        real = cli_mod.spin_flip_rate

        def spy(stack, z, transition, T, settings):
            seen.append(settings)
            return real(stack, z, transition, T, settings)

        monkeypatch.setattr(cli_mod, "spin_flip_rate", spy)
        assert main(["rate", "--config", str(cfg), "--tol", "1e-6", "--quiet"]) == 0
        assert seen == [QuadratureSettings(rel_tol=1e-6, max_refinements=7)]

    def test_photon_energy_far_above_thermal(self, tmp_path, capsys):
        # h f / kB T ~ 3e4: the thermal occupation underflows to exactly 0
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["stack"]["temperature"] = 1e-9
        cfg.write_text(json.dumps(raw))
        assert main(["rate", "--config", str(cfg), "--quiet"]) == 0
        fields = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["n_th"]) == 0.0


def rate_lines(tmp_path, capsys, film, elements=None):
    """Output lines of `spinflip rate` on a film-on-copper stack, with the
    given transition.matrix_elements (None: no transition section)."""
    overrides = {}
    if elements is not None:
        overrides["transition"] = {"frequency": 560e3, "matrix_elements": elements}
    cfg = write_config(tmp_path, film=film, **overrides)
    assert main(["rate", "--config", str(cfg), "--quiet"]) == 0
    return capsys.readouterr().out.strip().splitlines()


def fields_of(lines):
    return {k: float(v) for k, v in (line.split("=", 1) for line in lines)}


class TestMatrixElements:
    @pytest.mark.parametrize("film", ["niobium", "bscco"])
    def test_preset_weights_print_the_preset_rate(self, tmp_path, capsys, film):
        # (1/4, 0, 1/4) has the preset's weights (1/16, 1/16)
        assert (rate_lines(tmp_path, capsys, film, [0.25, 0, 0.25])
                == rate_lines(tmp_path, capsys, film))

    @pytest.mark.parametrize("film", ["niobium", "bscco"])
    def test_zero_elements_give_infinite_lifetime(self, tmp_path, capsys, film):
        lines = rate_lines(tmp_path, capsys, film, [0, 0, 0])
        assert "gamma_field_per_s=0" in lines and "tau_s=inf" in lines

    @pytest.mark.parametrize("film", ["niobium", "bscco"])
    def test_doubled_elements_quadruple_the_rate(self, tmp_path, capsys, film):
        preset = fields_of(rate_lines(tmp_path, capsys, film))
        doubled = fields_of(rate_lines(tmp_path, capsys, film, [0.5, 0, 0.5]))
        assert doubled["gamma_field_per_s"] == pytest.approx(
            4 * preset["gamma_field_per_s"], rel=1e-14, abs=0)

    def test_sweep_rows_honour_elements(self, tmp_path):
        sweep = {"axis": "distance_z", "min": 1e-6, "max": 1e-4, "points": 3}
        taus = []
        for elements in (None, [0.5, 0, 0.5]):
            extra = {} if elements is None else {
                "transition": {"frequency": 560e3, "matrix_elements": elements}}
            cfg = write_config(tmp_path, sweep=sweep, **extra)
            out = tmp_path / "out.csv"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
            taus.append([float(r.split(",")[2]) for r in rows])
        # n_th is the same, so tau scales as 1/4 of the preset's
        assert taus[1] == pytest.approx([t / 4 for t in taus[0]], rel=1e-14)


class TestSweepCommands:
    def test_sweep_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"axis": "distance_z", "min": 1e-6,
                                            "max": 1e-4, "points": 3,
                                            "spacing": "log"})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--tol", "1e-6", "--quiet"]) == 0
        text = out.read_text()
        assert text.startswith("# spinflip ")
        assert "z_m" in text.splitlines()[2]

    def test_sweep_without_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()  # no partial output on usage error

    def test_screening_requires_thickness_axis(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"axis": "distance_z", "min": 1e-6,
                                            "max": 1e-4, "points": 3})
        out = tmp_path / "out.csv"
        assert main(["screening", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_screening_emits_screening_column(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"axis": "thickness_d", "min": 0.0,
                                            "max": 1e-6, "points": 3})
        out = tmp_path / "s.csv"
        assert main(["screening", "--config", str(cfg), "--out", str(out),
                     "--tol", "1e-6", "--quiet"]) == 0
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert "screening_factor" in header

    def test_screening_over_bare_substrate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "thickness_d", "min": 1e-7,
                                            "max": 1e-6, "points": 3})
        raw = json.loads(cfg.read_text())
        raw["stack"]["layers"] = [{"material": "vacuum"}, {"material": "copper"}]
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        assert main(["screening", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: thickness sweep requires a film layer\n"
        assert not out.exists()

    def test_reduced_temperature_without_superconductor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, film="copper",
                           sweep={"axis": "reduced_T_over_Tc", "min": 0.5, "max": 1.5,
                                  "points": 3})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "superconducting layer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [1e15, 1e9])
    def test_huge_point_count_is_usage_error(self, tmp_path, monkeypatch, capsys, points):
        cfg = write_config(tmp_path, sweep={"axis": "distance_z", "min": 1e-6,
                                            "max": 1e-4, "points": points})
        import spinflip.cli as cli_mod

        def never(*args, **kwargs):  # the count must be refused before any grid or rate
            raise AssertionError("run_sweep reached")

        monkeypatch.setattr(cli_mod, "run_sweep", never)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "points" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_reused_row_overflow_is_a_row_status(self, tmp_path, capsys):
        # The 2e303 K and 4e303 K rows reuse the 1 K row's field rate over bare
        # copper; their thermal occupation overflows, which is a row's error.
        cfg = write_config(
            tmp_path, z=1e-8,
            stack={"layers": [{"material": "vacuum"}, {"material": "copper"}],
                   "temperature": 4.2},
            transition={"frequency": 560e3, "matrix_elements": [1e3, 1e3, 1e3]},
            sweep={"axis": "temperature_T", "min": 1, "max": 4e303, "points": 3})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert [r["status"] for r in rows][0] == "ok"
        for row, T in zip(rows[1:], ("2e+303", "4e+303")):
            assert row["status"].startswith(
                "error: the rate at z = 1e-08 m overflows double precision (thermal occupation ")
            assert f"at T = {T} K); an input is far outside its physical range" in row["status"]

    def test_computation_error_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "distance_z", "min": 1e-6,
                                            "max": 1e-4, "points": 3})
        import spinflip.cli as cli_mod

        def exploding(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(cli_mod, "run_sweep", exploding)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "computation error" in capsys.readouterr().err


class TestMaterialsCommand:
    def test_lists_presets(self, capsys):
        assert main(["materials"]) == 0
        out = capsys.readouterr().out
        assert "niobium" in out and "3.5e-08" in out and "Tc=8.3" in out
        assert "bscco" in out and "0.0001" in out  # lambda_perp = 100 um
        assert "copper" in out and "vacuum" in out

    def test_full_listing(self, capsys):
        assert main(["materials"]) == 0
        assert capsys.readouterr().out == (
            "vacuum: vacuum\n"
            "copper: drude_metal sigma=5.8e+07 S/m\n"
            "niobium: isotropic_sc lambda0=3.5e-08 m Tc=8.3 K alpha=4 sigma_normal=1e+07 S/m "
            "[Bc1=0.14 T, gap=7e+11 Hz; Meissner state assumed]\n"
            "bscco: uniaxial_sc lambda_par0=3e-07 m lambda_perp0=0.0001 m Tc=90 K alpha=1 "
            "sigma_normal_par=4.5e+07 S/m sigma_normal_perp=45000 S/m "
            "[Bc1=0.013 T, gap=7.5e+12 Hz; Meissner state assumed]\n")


class TestReproduceCommand:
    def test_fig3_smoke(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "--out", str(tmp_path),
                     "--tol", "1e-5"]) == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["fig3_bscco.csv", "fig3_niobium.csv"]
        for p in tmp_path.glob("*.csv"):
            body = [l for l in p.read_text().splitlines() if not l.startswith("#")]
            assert len(body) == 1 + 40  # header + points

    def test_unknown_figure(self, capsys):
        assert main(["reproduce", "fig9", "--out", "."]) == 1

    def test_two_figures(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "fig5", "--out", str(tmp_path),
                     "--tol", "1e-5", "--quiet"]) == 0
        names = {p.name.split("_")[0] for p in tmp_path.glob("*.csv")}
        assert names == {"fig3", "fig5"}

    def test_no_figure_runs_all_four(self, tmp_path, capsys):
        assert main(["reproduce", "--out", str(tmp_path), "--tol", "1e-5"]) == 0
        names = {p.name.split("_")[0] for p in tmp_path.glob("*.csv")}
        assert names == {"fig2", "fig3", "fig4", "fig5"}
        assert len(capsys.readouterr().out.splitlines()) == 12

    def test_bad_name_among_good_ones_runs_nothing(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "fig9", "--out", str(tmp_path)]) == 1
        assert "fig9" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_tol_is_usage_error(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "--out", str(tmp_path), "--tol", "nan"]) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_out_is_computation_error(self, tmp_path, capsys, under):
        # The same error as sweep --out on an unwritable path: exit 2, no traceback.
        blocker = tmp_path / "taken"
        blocker.write_text("a regular file")
        out = blocker / "figs" if under else blocker
        assert main(["reproduce", "fig3", "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"computation error: cannot write CSV to {out}" in err
        assert "Traceback" not in err
        assert blocker.read_text() == "a regular file"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["rate"]) == 1


# Any value json.load can return (NaN and infinities included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

# Paths to the fields and sections of a config that uses every section.
# sweep.points is left out: any count up to sweep.MAX_POINTS is a legitimate
# request for that many rates (parse_config's own property test covers the
# field, and TestSweepCommands the counts above the maximum).
CONFIG_FIELDS = [
    ("materials",), ("materials", 0), ("materials", 0, "label"),
    ("materials", 0, "variant"), ("materials", 0, "parameters"),
    ("materials", 0, "parameters", "sigma"),
    ("stack",), ("stack", "layers"), ("stack", "layers", 1),
    ("stack", "layers", 1, "material"), ("stack", "layers", 1, "thickness"),
    ("stack", "layers", 2, "material"), ("stack", "temperature"),
    ("z",),
    ("transition",), ("transition", "frequency"), ("transition", "label"),
    ("transition", "matrix_elements"), ("transition", "matrix_elements", 0),
    ("quadrature",), ("quadrature", "rel_tol"), ("quadrature", "max_refinements"),
    ("sweep",), ("sweep", "axis"), ("sweep", "min"), ("sweep", "max"),
    ("sweep", "spacing"),
]


def full_config():
    return {
        "materials": [{"label": "bulk", "variant": "drude_metal",
                       "parameters": {"sigma": 5.8e7}}],
        "stack": {"layers": [{"material": "vacuum"},
                             {"material": "niobium", "thickness": 1e-6},
                             {"material": "bulk"}],
                  "temperature": 4.2},
        "z": 1e-5,
        "transition": {"frequency": 560e3, "label": "clock",
                       "matrix_elements": [0.25, 0, 0.25]},
        "quadrature": {"rel_tol": 1e-8, "max_refinements": 60},
        "sweep": {"axis": "distance_z", "min": 1e-6, "max": 1e-5, "points": 3,
                  "spacing": "log"},
    }


class TestAnyConfigValue:
    # Whatever JSON value a config field holds, the CLI exits 0, 1 or 2,
    # names the error when it does not succeed, and never raises.
    @settings(max_examples=150)
    @given(command=st.sampled_from(["rate", "sweep"]),
           path=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES,
           quiet=st.booleans())
    def test_exit_code_and_message(self, tmp_path_factory, command, path, value, quiet):
        raw = full_config()
        *parents, last = path
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
        work = tmp_path_factory.mktemp("any-config")
        cfg = work / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = [command, "--config", str(cfg)] + ["--quiet"] * quiet
        if command == "sweep":
            argv += ["--out", str(work / "out.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert "error:" in err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()
