import json

import pytest

from spinflip.cli import main
from spinflip.errors import QuadratureError
from spinflip.quadrature import QuadratureSettings


def write_config(tmp_path, name="cfg.json", sweep=None, **overrides):
    raw = {
        "stack": {"layers": [{"material": "vacuum"},
                             {"material": "niobium", "thickness": 1e-6},
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

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["rate", "--config", str(tmp_path / "nope.json")]) == 1

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

    def test_negative_rate_is_computation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, transition={"frequency": 1e15})
        with pytest.warns(UserWarning, match="quasi-static"):
            assert main(["rate", "--config", str(cfg), "--quiet"]) == 2
        assert "negative field rate" in capsys.readouterr().err

    def test_non_finite_value_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, z=float("nan"))
        assert main(["rate", "--config", str(cfg)]) == 1
        assert "z must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_bad_tol_is_usage_error(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path)
        assert main(["rate", "--config", str(cfg), "--tol", tol]) == 1
        assert "tolerance must be positive" in capsys.readouterr().err

    def test_tol_keeps_other_quadrature_fields(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, quadrature={"abs_floor": 1e-30,
                                                 "max_refinements": 7,
                                                 "tail_threshold": 1e-10})
        import spinflip.cli as cli_mod
        seen = []
        real = cli_mod.spin_flip_rate

        def spy(stack, z, transition, T, settings):
            seen.append(settings)
            return real(stack, z, transition, T, settings)

        monkeypatch.setattr(cli_mod, "spin_flip_rate", spy)
        assert main(["rate", "--config", str(cfg), "--tol", "1e-6", "--quiet"]) == 0
        assert seen == [QuadratureSettings(rel_tol=1e-6, abs_floor=1e-30,
                                           max_refinements=7, tail_threshold=1e-10)]

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

    def test_bad_tol_is_usage_error(self, tmp_path, capsys):
        assert main(["reproduce", "fig3", "--out", str(tmp_path), "--tol", "nan"]) == 1
        assert not list(tmp_path.glob("*.csv"))


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["rate"]) == 1
