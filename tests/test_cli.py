"""End-to-end CLI checks: subcommands, exit codes, file formats, determinism."""
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from nanotrap.atom_cs import AtomicData
from nanotrap.cli import RunConfig, main
from nanotrap.fiber_mode import field_at
from nanotrap.light_matter import fictitious_field

PAPER_CFG = str(resources.files("nanotrap").joinpath("data/paper.cfg"))


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[fiber]\nradius = 250 nm\nbogus = 1\n")
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_required_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[fiber]\nradius = 250 nm\n")
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_wrong_unit_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(PAPER_CFG).read_text().replace("radius = 250 nm", "radius = 250 G"))
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_set_overrides_config(self, tmp_path):
        code = run(
            [
                "mode",
                "--config",
                PAPER_CFG,
                "--out",
                str(tmp_path),
                "--set",
                "fiber.radius=200 nm",
                "--field",
                "red",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "mode.json").read_text())
        assert doc["config"]["fiber.radius"] == pytest.approx(200e-9)

    def test_malformed_data_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("delta_Hz,probability\n0.0,not-a-number\n")
        code = run(
            ["mw", "fit", "--config", PAPER_CFG, "--data", str(bad), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        # no sign change of the scalar polarizability inside this bracket
        code = run(
            [
                "tuneout",
                "--config",
                PAPER_CFG,
                "--out",
                str(tmp_path),
                "--set",
                "tuneout.min=865 nm",
                "--set",
                "tuneout.max=870 nm",
            ]
        )
        assert code == 3


class TestOutputs:
    def test_mode_json(self, outdir):
        assert run(["mode", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        doc = json.loads((outdir / "mode.json").read_text())
        assert set(doc["modes"]) == {"blue", "red", "probe", "manipulation"}
        assert doc["modes"]["probe"]["v_number"] == pytest.approx(1.94, abs=0.01)
        for mode in doc["modes"].values():
            assert not mode["multimode"]

    def test_trap_json_anchors(self, outdir):
        assert run(["trap", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        doc = json.loads((outdir / "trap.json").read_text())
        d_nm = doc["minimum_position"]["distance_to_surface_m"] * 1e9
        assert d_nm == pytest.approx(230, abs=30)
        nu = doc["trap_frequencies_Hz"]
        assert nu[0] == pytest.approx(120e3, rel=0.25)
        assert nu[1] == pytest.approx(87e3, rel=0.25)
        assert nu[2] == pytest.approx(186e3, rel=0.25)
        assert "clock_splitting_Hz" in doc
        assert "Bfict_upper_G" in doc and "Bfict_lower_G" in doc

    def test_trap_fields_belong_to_the_reported_minimum(self, tmp_path):
        # an unbalanced red standing wave moves the minimum and gives it a
        # fictitious field; both must come from the configuration that was run
        override = "red.backward_power=0.4 mW"
        assert run(["trap", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", override]) == 0
        doc = json.loads((tmp_path / "trap.json").read_text())
        pos = doc["minimum_position"]
        site = (pos["r_m"], pos["phi_rad"], pos["z_m"])
        cfg = RunConfig.load(PAPER_CFG, [override])
        expected = np.zeros(3)
        for fld in cfg.trap_config().fields():
            expected = expected + fictitious_field(field_at(fld, *site), fld.mode.wavelength, 4, cfg.data)
        assert pos["distance_to_surface_m"] * 1e9 == pytest.approx(308.2, abs=1.0)
        assert doc["Bfict_upper_G"] == pytest.approx(list(expected), rel=1e-12, abs=1e-15)
        assert doc["Bfict_lower_G"][1] == pytest.approx(-doc["Bfict_upper_G"][1], rel=1e-9)
        assert doc["Bfict_upper_G"][1] > 1e-2
        assert abs(doc["clock_splitting_Hz"]) > 100.0

    def test_data_file_parsed_once_per_config(self, monkeypatch):
        calls = []
        parse = AtomicData.from_file.__func__

        def counted(cls, path=None):
            calls.append(path)
            return parse(cls, path)

        monkeypatch.setattr(AtomicData, "from_file", classmethod(counted))
        cfg = RunConfig.load(PAPER_CFG, [])
        assert len(calls) == 1
        assert cfg.data.c3_ground_jm3 == cfg["surface.c3"]

    def test_bfict_tilt_zero_angle(self, outdir):
        code = run(
            ["bfict", "--config", PAPER_CFG, "--out", str(outdir), "--scheme", "tilt", "--phi-b", "0"]
        )
        assert code == 0
        doc = json.loads((outdir / "bfict.json").read_text())
        assert np.linalg.norm(doc["Bfict_upper_G"]) < 1e-9
        assert doc["clock_splitting_Hz"] == pytest.approx(0.0, abs=1e-6)
        assert doc["mw_splitting_3m3_4m3_Hz"] == pytest.approx(0.0, abs=1e-6)

    def test_pump_json(self, outdir):
        assert run(["pump", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        doc = json.loads((outdir / "pump.json").read_text())
        steady = doc["steady_state"]
        assert len(steady) == 9
        assert sum(steady) == pytest.approx(1.0, abs=1e-9)
        assert steady[8] > 0.9  # pumped towards the stretched state
        assert doc["pumping_time_1_e"] > 0
        assert doc["intensity_fractions_sigma_plus_pi_sigma_minus"][0] == pytest.approx(
            0.92, abs=0.01
        )

    def test_spectrum_round_trip_within_3_sigma(self, outdir):
        assert (
            run(["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(outdir), "--seed", "7"])
            == 0
        )
        csv_path = outdir / "spectrum.csv"
        lines = csv_path.read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "detuning_Hz,counts,reference_counts"
        assert (
            run(
                [
                    "spectrum",
                    "fit",
                    "--config",
                    PAPER_CFG,
                    "--data",
                    str(csv_path),
                    "--out",
                    str(outdir),
                ]
            )
            == 0
        )
        doc = json.loads((outdir / "spectrum_fit.json").read_text())
        truth = {
            "od_plus": 1.0,
            "od_minus": 0.9,
            "delta_plus_hz": 39.82e6,
            "delta_minus_hz": -38.55e6,
            "gamma_hz": 8.3e6,
        }
        for name, value in truth.items():
            pull = abs(doc["parameters"][name] - value) / doc["sigmas"][name]
            assert pull <= 3.0, f"{name} off by {pull} sigma"
        assert doc["ndof"] == 76
        corr = np.array(doc["correlation"])
        assert np.allclose(np.diag(corr), 1.0, atol=1e-9)

    def test_mw_round_trip(self, outdir):
        assert run(["mw", "simulate", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        csv_path = outdir / "mw.csv"
        lines = csv_path.read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "delta_Hz,probability"
        assert (
            run(["mw", "fit", "--config", PAPER_CFG, "--data", str(csv_path), "--out", str(outdir)])
            == 0
        )
        doc = json.loads((outdir / "mw_fit.json").read_text())
        assert doc["splitting_hz"] == pytest.approx(60.7e3, abs=0.9e3)

    def test_tuneout_json(self, outdir):
        assert run(["tuneout", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        doc = json.loads((outdir / "tuneout.json").read_text())
        assert doc["tune_out_wavelength_nm"] == pytest.approx(880.25, abs=1.5)

    def test_fieldmap_header(self, outdir):
        code = run(
            [
                "fieldmap",
                "--config",
                PAPER_CFG,
                "--out",
                str(outdir),
                "--field",
                "probe",
                "--kind",
                "field",
                "--set",
                "grid.n_r=4",
                "--set",
                "grid.n_phi=6",
            ]
        )
        assert code == 0
        lines = (outdir / "fieldmap.csv").read_text().splitlines()
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert data_lines[0] == "r_m,phi_rad,z_m,Ex_re,Ex_im,Ey_re,Ey_im,Ez_re,Ez_im"
        assert len(data_lines) == 1 + 4 * 6
        # config echo present
        assert any(ln.startswith("# fiber.radius") for ln in lines)


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert (
                run(
                    [
                        "spectrum",
                        "simulate",
                        "--config",
                        PAPER_CFG,
                        "--out",
                        str(out),
                        "--seed",
                        "33",
                    ]
                )
                == 0
            )
            assert run(["mw", "simulate", "--config", PAPER_CFG, "--out", str(out), "--seed", "33"]) == 0
            assert run(["tuneout", "--config", PAPER_CFG, "--out", str(out)]) == 0
        for name in ("spectrum.csv", "mw.csv", "tuneout.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seed_changes_counts(self, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        run(["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(out1), "--seed", "1"])
        run(["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(out2), "--seed", "2"])
        assert (out1 / "spectrum.csv").read_bytes() != (out2 / "spectrum.csv").read_bytes()
