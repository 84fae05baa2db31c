"""End-to-end CLI checks: subcommands, exit codes, file formats, determinism."""
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from field_oracle import fictitious_field, spherical_components

import nanotrap
from nanotrap import cli
from nanotrap.atom_cs import AtomicData
from nanotrap.cli import RunConfig, main
from nanotrap.constants import default_data_path
from nanotrap.errors import ConfigError
from nanotrap.fiber_mode import field_at

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

    @pytest.mark.parametrize(
        "row",
        ["1.0,0.2,0.3", "1.0", "1.0,nan"],
        ids=["three columns", "one column", "nan probability"],
    )
    def test_bad_data_csv_row_exits_2_naming_path_line(self, tmp_path, capsys, row):
        # a numpy traceback (exit 1), an unpacking error (exit 1) and a non-finite fit (exit 3)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# mw data\ndelta_Hz,probability\n-1000.0,0.1\n{row}\n1000.0,0.2\n")
        args = ["mw", "fit", "--config", PAPER_CFG, "--data", str(bad), "--out", str(tmp_path)]
        assert run(args) == 2
        assert f"{bad}:4:" in capsys.readouterr().err
        assert not (tmp_path / "mw_fit.json").exists()

    @pytest.mark.parametrize(
        "command, rows, message",
        [
            ("spectrum", ["-1e6,-3,100", "0.0,40,100", "1e6,80,100"], "counts must be non-negative"),
            ("spectrum", ["-1e6,30,100", "0.0,40,100"], "need at least 25 spectral points"),
            ("mw", ["0.0,0.5"], "not enough points"),
            ("mw", [], "not enough points"),
        ],
        ids=["negative count", "two spectrum rows", "one mw row", "no mw rows"],
    )
    def test_fit_data_the_fit_refuses_exits_2_naming_the_file(
        self, tmp_path, capsys, command, rows, message
    ):
        # a numerical failure (exit 3) naming no file
        columns = cli.SPECTRUM_COLUMNS if command == "spectrum" else cli.MW_COLUMNS
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([",".join(columns), *rows]) + "\n")
        args = [command, "fit", "--config", PAPER_CFG, "--data", str(bad), "--out", str(tmp_path)]
        assert run(args) == 2
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.json")) == []

    def test_repeated_config_key_exits_2_naming_path_line(self, tmp_path, capsys):
        # the last value silently won
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(PAPER_CFG).read_text().replace("n_r = 50", "n_r = 50\nn_r = 60"))
        lineno = bad.read_text().splitlines().index("n_r = 60") + 1
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}:" in err and "grid.n_r" in err

    def test_removed_tuneout_bracket_key_is_unknown(self, tmp_path, capsys):
        # the tune-out wavelength is a closed form: its former search bracket is no key
        args = ["tuneout", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "tuneout.min=865 nm"]
        assert run(args) == 2
        assert "unknown key 'tuneout.min'" in capsys.readouterr().err
        assert not (tmp_path / "tuneout.json").exists()


INVALID_VALUES = [
    ("grid.n_r", "0"),
    ("grid.n_phi", "-3"),
    ("mw.points", "1.5"),
    ("spectrum.reference_counts", "1e400"),
    ("spectrum.reference_counts", "1e20"),  # `spectrum simulate` exited 1: numpy's Poisson limit is ~9.2e18
    ("run.seed", "-1"),
    ("run.seed", "0.5"),
    ("fiber.radius", "nan nm"),
    ("fiber.radius", "-250 nm"),
    ("fiber.radius", "0 nm"),
    ("blue.wavelength", "-783 nm"),
    ("grid.r_max", "-1 um"),
    ("pump.duration", "0 ms"),
    ("mw.pulse_duration", "-40 us"),
    ("blue.power", "inf mW"),
    ("red.backward_power", "-0.1 mW"),
    ("manipulation.power", "-1 uW"),
    ("magnetics.offset_field", "-inf G"),
    ("scheme.red_imbalance", "nan"),
    # values that reached the models: a numpy traceback (exit 1) from `mw simulate`, or
    # a "numerical failure" (exit 3) naming no key from `spectrum`, `pump`, `trap`, `fieldmap`
    ("mw.noise_sigma", "-1"),
    ("spectrum.gamma", "-1 MHz"),
    ("spectrum.gamma", "0 MHz"),
    ("spectrum.od_plus", "-1"),
    ("spectrum.od_minus", "-0.5"),
    ("pump.saturation", "-0.01"),
    ("pump.saturation", "0"),
    ("scheme.red_imbalance", "-0.5"),
    ("grid.r_max", "250 nm"),  # equal to fiber.radius
    ("grid.r_max", "100 nm"),
    # transfer probabilities: `mw simulate` wrote a "probability" of 3.04, or clipped a negative dip
    ("mw.amplitude_1", "3"),
    ("mw.amplitude_1", "-0.5"),
    ("mw.amplitude_2", "1.5"),
]

# bfict flags that reached the trap: exit 3 naming no key, or numpy RuntimeWarnings
INVALID_BFICT_FLAGS = [
    ("imbalance", "--imbalance", "-1", "scheme.red_imbalance"),
    ("imbalance", "--imbalance", "nan", "scheme.red_imbalance"),
    ("tilt", "--phi-b", "nan", "scheme.phi_b"),
    ("tilt", "--phi-b", "inf", "scheme.phi_b"),
]


class TestConfigDomain:
    @pytest.mark.parametrize("key, value", INVALID_VALUES, ids=[f"{k}={v}" for k, v in INVALID_VALUES])
    def test_invalid_value_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        args = ["mode", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"{key}={value}"]
        assert run(args) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, expected",
        [("run.seed", "0", 0.0), ("red.power", "0 mW", 0.0), ("grid.z", "-20 nm", -20e-9),
         ("mw.points", "2.0", 2.0),
         ("mw.noise_sigma", "0", 0.0), ("scheme.red_imbalance", "0", 0.0),
         ("mw.amplitude_1", "0", 0.0), ("mw.amplitude_2", "1", 1.0)],
    )
    def test_boundary_values_accepted(self, key, value, expected):
        assert cli._parse_value(key, value) == expected

    @pytest.mark.parametrize("scheme, flag, value, key", INVALID_BFICT_FLAGS)
    def test_invalid_bfict_flag_exits_2_naming_the_key(self, tmp_path, capsys, scheme, flag, value, key):
        args = ["bfict", "--config", PAPER_CFG, "--out", str(tmp_path), "--scheme", scheme, flag, value]
        assert run(args) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bfict.json").exists()

    @pytest.mark.parametrize("command, key, value", [("trap", "blue.wavelength", "1600 nm"),
                                                     ("mode", "probe.wavelength", "300 nm")])
    def test_wavelength_outside_the_sellmeier_fit_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                         command, key, value):
        # it reached solve_he11 and exited 3 as a numerical failure
        args = [command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"{key}={value}"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert key in err and "numerical failure" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["trap", "mode"])
    def test_fiber_without_a_guided_root_exits_2_naming_radius_and_wavelength(self, tmp_path, capsys, command):
        # the solver's bracket ends at n_eff = 1 + 2e-6; this exited 3 as a numerical failure, at 5 nm
        # because K(w) there was below its range, and at 1e-300 m squaring 1 / (a k) overflowed (exit 1)
        # the message names the rejected radius and V to 4 significant digits: 1e-300 m read "a=0.0 nm"
        for radius, named in (("20 nm", "a=20 nm"), ("5 nm", "a=5 nm"), ("1e-300 m", "a=1e-291 nm")):
            args = [command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"fiber.radius={radius}"]
            assert run(args) == 2
            err = capsys.readouterr().err
            assert "config error: fiber.radius, blue.wavelength: " in err and "no HE11 root" in err
            assert f"{named} at 783.00 nm (V=" in err and "(V=0.000)" not in err
            assert not any(tmp_path.iterdir())
        assert re.search(r"\(V=8\.\d{3}e-294\)", err)

    @pytest.mark.parametrize("low, high", [("80 MHz", "-80 MHz"), ("10 MHz", "10 MHz")])
    def test_spectrum_range_not_increasing_exits_2_naming_both_keys(self, tmp_path, capsys, low, high):
        # it exited 3 as a numerical failure: "detunings must be strictly increasing"
        args = ["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(tmp_path)]
        assert run([*args, "--set", f"spectrum.min={low}", "--set", f"spectrum.max={high}"]) == 2
        assert capsys.readouterr().err.startswith("config error: spectrum.min, spectrum.max: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("low, high", [("60 kHz", "-60 kHz"), ("10 kHz", "10 kHz")])
    def test_mw_range_not_increasing_exits_2_naming_both_keys(self, tmp_path, capsys, low, high):
        # it wrote 121 equal detunings (or a reversed range), and mw fit on the equal ones exited 3
        args = ["mw", "simulate", "--config", PAPER_CFG, "--out", str(tmp_path)]
        assert run([*args, "--set", f"mw.min={low}", "--set", f"mw.max={high}"]) == 2
        assert capsys.readouterr().err.startswith("config error: mw.min, mw.max: ")
        assert not any(tmp_path.iterdir())

    def test_spectrum_of_one_point_may_have_min_equal_to_max(self, tmp_path):
        args = ["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(tmp_path), "--set",
                "spectrum.points=1", "--set", "spectrum.min=10 MHz", "--set", "spectrum.max=10 MHz"]
        assert run(args) == 0
        rows = [ln for ln in (tmp_path / "spectrum.csv").read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 2 and float(rows[1].split(",")[0]) == 10e6

    def test_mw_of_one_point_may_have_min_equal_to_max(self, tmp_path):
        args = ["mw", "simulate", "--config", PAPER_CFG, "--out", str(tmp_path), "--set",
                "mw.points=1", "--set", "mw.min=10 kHz", "--set", "mw.max=10 kHz"]
        assert run(args) == 0
        rows = [ln for ln in (tmp_path / "mw.csv").read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 2 and float(rows[1].split(",")[0]) == 10e3

    def test_beam_map_solves_only_its_own_mode(self, tmp_path, capsys):
        # at 90 nm the 783 nm mode is guided and the 1064 nm one is not; a blue map solved both
        # trap modes and exited 2 naming red.wavelength
        args = ["fieldmap", "--config", PAPER_CFG, "--set", "fiber.radius=90 nm", "--field"]
        assert run([*args, "blue", "--out", str(tmp_path / "blue")]) == 0
        assert (tmp_path / "blue" / "fieldmap.csv").read_text().count("\n") > 50 * 64
        capsys.readouterr()
        assert run([*args, "red", "--out", str(tmp_path / "red")]) == 2
        err = capsys.readouterr().err
        assert "config error: fiber.radius, red.wavelength: " in err and "no HE11 root" in err
        assert not any((tmp_path / "red").iterdir())

    @pytest.mark.parametrize("value", ["1 m", "200 um"])
    def test_fieldmap_beyond_the_bessel_range_exits_2_naming_the_largest_radius(self, tmp_path, capsys, value):
        # K(q r) holds for q r <= 700: 171.0 um for the 852.347 nm probe on a 250 nm fiber;
        # this exited 3 naming the Bessel range
        args = ["fieldmap", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"grid.r_max={value}"]
        assert run(args) == 2
        assert "config error: grid.r_max: the probe field maps out to 171.0 um\n" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_fieldmap_within_the_bessel_range_writes_its_map(self, tmp_path):
        args = ["fieldmap", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "grid.r_max=100 um",
                "--set", "grid.n_r=3", "--set", "grid.n_phi=2"]
        assert run(args) == 0
        rows = (tmp_path / "fieldmap.csv").read_text().splitlines()
        assert rows[-1].startswith(f"{cli._parse_value('grid.r_max', '100 um')!r},")

    @pytest.mark.parametrize("command, key, value", [
        *[(command, key, value) for command in (["trap"], ["bfict", "--scheme", "tilt"], ["pump"],
                                                ["bfict", "--scheme", "tuneout"])
          for key, value in (("blue.wavelength", "852.3472758 nm"), ("red.wavelength", "894.5929599 nm"))],
        (["bfict", "--scheme", "tuneout"], "manipulation.wavelength", "852.3472758 nm"),
    ])
    def test_near_resonant_light_shift_beam_exits_2_naming_the_key(self, tmp_path, capsys, command, key, value):
        # within 10 linewidths of D2 (852.35 nm) or D1 (894.59 nm) the polarizabilities refuse
        # the wavelength; it exited 3 as a numerical failure naming no key
        args = [*command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"{key}={value}"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and "within 10 linewidths of a D line" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", [(["fieldmap", "--field", "blue"], "blue.wavelength"),
                                              (["trap"], "manipulation.wavelength")], ids=["fieldmap", "trap"])
    def test_near_resonant_beam_whose_shift_is_not_computed_runs(self, tmp_path, command, key):
        # a field map needs no polarizability, and trap never adds the manipulation beam
        args = [*command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"{key}=852.3472758 nm"]
        assert run(args) == 0

    def test_non_finite_data_file_value_exits_2_naming_file_line_and_key(self, tmp_path, capsys):
        # a NaN mass reached the trap frequencies and died with a LinAlgError traceback
        custom = tmp_path / "nan_mass.dat"
        lines = default_data_path().read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("mass_kg "))
        lines[lineno - 1] = "mass_kg = nan"
        custom.write_text("\n".join(lines) + "\n")
        args = ["trap", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"atoms.data_file={custom}"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"{custom}:{lineno}:" in err and "mass_kg" in err
        assert not (tmp_path / "trap.json").exists()

    def test_invalid_value_in_config_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(PAPER_CFG).read_text().replace("n_r = 50", "n_r = 0"))
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_invalid_value_in_config_file_names_path_line_and_key(self, tmp_path, capsys):
        # named only the key, unlike every other config-file error
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(PAPER_CFG).read_text().replace("n_r = 50", "n_r = 0"))
        lineno = bad.read_text().splitlines().index("n_r = 0") + 1
        assert run(["mode", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}: grid.n_r: '0' is outside [1, inf)" in err
        assert not (tmp_path / "mode.json").exists()

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(sorted(cli.SCHEMA)),
        number=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.integers(-(10**400), 10**400).map(str),
            st.from_regex(r"\A[-+]?[0-9]*\.?[0-9]*(e[-+]?[0-9]{1,4})?\Z"),
        ),
        unit_pick=st.integers(0, 10),
    )
    def test_parser_returns_finite_float_or_config_error(self, key, number, unit_pick):
        units = sorted(cli.UNIT_FACTORS[cli.SCHEMA[key][0]])
        raw = f"{number} {units[unit_pick % len(units)]}".strip()
        try:
            value = cli._parse_value(key, raw)
        except ConfigError as exc:
            assert key in str(exc)
        else:
            assert isinstance(value, float) and np.isfinite(value)


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

    def test_data_file_sets_the_fiber_index(self, tmp_path):
        # the Sellmeier fit of atoms.data_file reaches the mode solver
        custom = tmp_path / "custom.dat"
        text = default_data_path().read_text()
        custom.write_text(re.sub(r"(?m)^sellmeier_b1 .*$", "sellmeier_b1 = 0.9", text))
        neff = {}
        for name, extra in (("default", []), ("custom", ["--set", f"atoms.data_file={custom}"])):
            out = tmp_path / name
            args = ["mode", "--config", PAPER_CFG, "--out", str(out), "--field", "blue", *extra]
            assert run(args) == 0
            doc = json.loads((out / "mode.json").read_text())
            neff[name] = doc["modes"]["blue"]["effective_index"]
        assert neff["default"] == pytest.approx(1.1756339504815894, rel=1e-12)
        assert neff["custom"] == pytest.approx(1.233309886466731, rel=1e-12)

    def test_bfict_tilt_zero_angle(self, outdir):
        code = run(
            ["bfict", "--config", PAPER_CFG, "--out", str(outdir), "--scheme", "tilt", "--phi-b", "0"]
        )
        assert code == 0
        doc = json.loads((outdir / "bfict.json").read_text())
        assert np.linalg.norm(doc["Bfict_upper_G"]) < 1e-9
        assert doc["clock_splitting_Hz"] == pytest.approx(0.0, abs=1e-6)
        assert doc["mw_splitting_3m3_4m3_Hz"] == pytest.approx(0.0, abs=1e-6)

    def test_bfict_fields_belong_to_its_own_minimum(self, tmp_path):
        # the scheme's trap must carry red.backward_power, so an unbalanced
        # standing wave moves the site off the balanced 482.9 nm minimum
        override = "red.backward_power=0.4 mW"
        args = ["--scheme", "tilt", "--phi-b", "0", "--set", override]
        assert run(["bfict", "--config", PAPER_CFG, "--out", str(tmp_path), *args]) == 0
        doc = json.loads((tmp_path / "bfict.json").read_text())
        site = tuple(doc["site_upper"])
        cfg = RunConfig.load(PAPER_CFG, [override])
        expected = np.zeros(3)
        for fld in cfg.trap_config().fields():
            expected = expected + fictitious_field(field_at(fld, *site), fld.mode.wavelength, 4, cfg.data)
        assert (site[0] - cfg["fiber.radius"]) * 1e9 == pytest.approx(308.2, abs=1.0)
        assert doc["Bfict_upper_G"] == pytest.approx(list(expected), rel=1e-12, abs=1e-15)
        assert doc["Bfict_upper_G"][1] > 1e-2

    def test_trap_and_bfict_tilt_share_one_scheme_transform(self, tmp_path):
        # scheme.* (trap) and the bfict flags (tilt, then imbalance) reach the same
        # with_scheme rule, and the flags are echoed as the overrides they stand for
        offset = ["--set", "magnetics.offset_field=3 G"]
        cases = [
            ("scheme.phi_b=5 deg", ["--scheme", "tilt", "--phi-b", "5"]),
            ("scheme.red_imbalance=0.8", ["--scheme", "imbalance", "--imbalance", "0.8"]),
        ]
        for override, flags in cases:
            docs = {}
            for name, args in (("trap", ["--set", override]), ("bfict", flags)):
                assert run([name, *args, *offset, "--config", PAPER_CFG, "--out", str(tmp_path)]) == 0
                docs[name] = json.loads((tmp_path / f"{name}.json").read_text())
            trap, bfict = docs["trap"], docs["bfict"]
            assert bfict["config"] == trap["config"], override
            pos = trap["minimum_position"]
            assert bfict["site_upper"] == [pos["r_m"], pos["phi_rad"], pos["z_m"]]
            for key in ("Bfict_upper_G", "Bfict_lower_G", "clock_splitting_Hz", "clock_splitting_quadratic_Hz"):
                assert bfict[key] == trap[key], (override, key)

    def test_bfict_flags_reach_the_trap_and_the_config_echo(self, tmp_path):
        # the tilt scheme dropped --imbalance and wrote "red_imbalance": 1.0
        args = ["--scheme", "tilt", "--phi-b", "5", "--imbalance", "0.8"]
        assert run(["bfict", "--config", PAPER_CFG, "--out", str(tmp_path), *args]) == 0
        doc = json.loads((tmp_path / "bfict.json").read_text())
        assert doc["red_imbalance"] == 0.8 and doc["config"]["scheme.red_imbalance"] == 0.8
        assert doc["phi_b_rad"] == doc["config"]["scheme.phi_b"] == pytest.approx(np.deg2rad(5.0))

    def test_pump_site_is_the_configured_trap_minimum(self, tmp_path):
        # scheme.* reaches pump as it reaches trap: the tilted trap's minimum is pumped
        docs = {}
        for command in ("trap", "pump"):
            args = [command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "scheme.phi_b=5 deg"]
            assert run(args) == 0
            docs[command] = json.loads((tmp_path / f"{command}.json").read_text())
        pos = docs["trap"]["minimum_position"]
        assert pos["phi_rad"] != 0.0  # the tilt moves the minimum out of plane P
        assert docs["pump"]["site"] == [pos["r_m"], pos["phi_rad"], pos["z_m"]]

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

    def test_pump_fractions_are_the_spherical_decomposition_about_y(self, tmp_path):
        # the closed-form |E_z -+ i E_x|^2 / 2 and |E_y|^2 against the decomposition about
        # an arbitrary axis; the tilt moves the site out of plane P, where pi is nonzero
        args = ["pump", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "scheme.phi_b=5 deg"]
        assert run(args) == 0
        doc = json.loads((tmp_path / "pump.json").read_text())
        e_site = field_at(RunConfig.load(PAPER_CFG, []).field("probe"), *doc["site"])
        intensities = np.abs(spherical_components(e_site, [0.0, 1.0, 0.0])) ** 2
        fractions = doc["intensity_fractions_sigma_plus_pi_sigma_minus"]
        assert fractions[1] > 1e-6
        assert fractions == pytest.approx(intensities / intensities.sum(), rel=1e-14, abs=0)

    def test_pump_one_second_reaches_steady_state(self, tmp_path):
        # exact propagation: the cost does not grow with the pumped duration
        t0 = time.perf_counter()
        args = ["pump", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "pump.duration=1 s"]
        assert run(args) == 0
        assert time.perf_counter() - t0 < 10.0
        doc = json.loads((tmp_path / "pump.json").read_text())
        assert doc["evolution_duration_s"] == 1.0
        assert doc["evolved_state"] == pytest.approx(doc["steady_state"], rel=0, abs=1e-12)

    @pytest.mark.parametrize("duration", ["1 s", "1e5 s", "1e11 s", "1e12 s"])
    def test_pump_long_duration_matches_steady_state(self, tmp_path, duration):
        # the renormalised squarings keep their rounding at any duration
        args = ["pump", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", f"pump.duration={duration}"]
        assert run(args) == 0
        doc = json.loads((tmp_path / "pump.json").read_text())
        assert doc["evolved_state"] == pytest.approx(doc["steady_state"], rel=0, abs=5e-15)

    @pytest.mark.parametrize("duration", ["1e305 s"])
    def test_pump_non_finite_result_exits_3(self, tmp_path, capsys, duration):
        # |G t|_1 overflows; refused before any numpy arithmetic can warn
        override = f"pump.duration={duration}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["pump", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", override]) == 3
        assert [str(w.message) for w in caught] == []
        assert "numerical failure in pump" in capsys.readouterr().err
        assert not (tmp_path / "pump.json").exists()

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

    def test_mw_fit_bisects_the_pi_pulse_width_once(self, outdir, monkeypatch):
        # the fit's start and degeneracy scale is the width mw_fit.json reports as fourier_fwhm_hz
        from nanotrap import spectra
        calls, width_of = [], spectra.pi_pulse_fwhm
        monkeypatch.setattr(spectra, "pi_pulse_fwhm", lambda tau: calls.append(tau) or width_of(tau))
        assert run(["mw", "simulate", "--config", PAPER_CFG, "--out", str(outdir)]) == 0
        fit = ["mw", "fit", "--config", PAPER_CFG, "--data", str(outdir / "mw.csv"), "--out", str(outdir)]
        calls.clear()
        assert run(fit) == 0
        doc = json.loads((outdir / "mw_fit.json").read_text())
        assert calls == [doc["pulse_duration_s"]]
        assert doc["fourier_fwhm_hz"] == width_of(calls[0])

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

    def test_fieldmap_lines_end_in_lf_only(self, tmp_path):
        grid = ["--set", "grid.n_r=3", "--set", "grid.n_phi=5"]
        for kind in ("field", "intensity", "ellipticity"):
            out = tmp_path / kind
            assert run(["fieldmap", "--config", PAPER_CFG, "--out", str(out), "--kind", kind, *grid]) == 0
            text = (out / "fieldmap.csv").read_bytes()
            assert b"\r" not in text, kind
            lines = text.split(b"\n")
            assert lines[-1] == b""
            assert len([ln for ln in lines[:-1] if not ln.startswith(b"#")]) == 1 + 3 * 5


def test_pump_zero_probe_power_exits_2_naming_the_key(tmp_path, capsys):
    # the drive fractions are those of the probe's field at the site: a zero
    # probe power left them undefined (exit 3 naming no key)
    args = ["pump", "--config", PAPER_CFG, "--out", str(tmp_path), "--set", "probe.power=0 pW"]
    assert run(args) == 2
    assert "probe.power" in capsys.readouterr().err
    assert not (tmp_path / "pump.json").exists()


@pytest.mark.parametrize(
    "field, overrides",
    [("probe", ["probe.power=0 pW"]), ("blue", ["blue.power=0 W"]),
     ("red", ["red.power=0 W", "red.backward_power=0 W"]), ("manipulation", ["manipulation.power=0 W"])],
    ids=["probe", "blue", "red", "manipulation"],
)
def test_zero_field_ellipticity_map_exits_2_naming_the_key(tmp_path, capsys, field, overrides):
    # the ellipticity is undefined where the field vanishes, and a beam of zero power leaves no
    # field anywhere: a config error naming the key (it was exit 3 naming none), never nan
    sets = [arg for item in overrides for arg in ("--set", item)]
    args = ["fieldmap", "--kind", "ellipticity", "--field", field, *sets]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*args, "--config", PAPER_CFG, "--out", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert f"config error: {field}.power" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ellipticity_map_of_one_red_beam_runs(tmp_path):
    # with the forward red beam off the backward one still guides a field everywhere
    args = ["fieldmap", "--kind", "ellipticity", "--field", "red", "--set", "red.power=0 W",
            "--set", "grid.n_r=3", "--set", "grid.n_phi=5"]
    assert run([*args, "--config", PAPER_CFG, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fieldmap.csv").exists()


@pytest.mark.parametrize(
    "override", ["scheme.red_imbalance=0", "red.backward_power=0 mW", "red.power=0 mW"]
)
@pytest.mark.parametrize(
    "command", [["trap"], ["bfict", "--scheme", "tilt"], ["pump"]], ids=["trap", "bfict", "pump"]
)
def test_trap_without_axial_confinement_is_a_no_trap_error(tmp_path, capsys, command, override):
    # with one red beam off every field is a running wave, so nothing confines along z;
    # this once surfaced as "curvature matrix is not positive definite"
    assert run([*command, "--config", PAPER_CFG, "--out", str(tmp_path), "--set", override]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure in {command[0]}: no axial confinement" in err
    assert list(tmp_path.iterdir()) == []


def test_interrupted_field_map_leaves_earlier_file_intact(tmp_path, monkeypatch):
    from nanotrap import fiber_mode

    cfg = RunConfig.load(PAPER_CFG, [])
    grid = fiber_mode.PolarGrid(r_min=250e-9, r_max=1e-6, n_r=6, n_phi=8, z=0.0)
    path = tmp_path / "fieldmap.csv"
    cli.write_field_map_csv(path, cfg.field("probe"), grid, header_lines=["first = 1"])
    earlier = path.read_bytes()
    assert path.stat().st_mode & 0o777 == 0o666 & ~_umask()

    written = []
    r, phi = (np.ravel(axis) for axis in grid.mesh())

    def failing_repr(value):  # shadows the builtin inside fiber_mode's row writer
        if value == r[1]:  # the second block's first new text: the first block is written
            raise RuntimeError("interrupted")
        written.append(value)
        return repr(value)

    monkeypatch.setattr(fiber_mode, "repr", failing_repr, raising=False)
    for write in (
        lambda: cli.write_field_map_csv(path, cfg.field("probe"), grid, header_lines=["second"]),
        lambda: cli.write_scalar_map_csv(path, grid, np.ones((6, 8)), "x", ["second"]),
    ):
        written.clear()
        with pytest.raises(RuntimeError, match="interrupted"):
            write()
        # the failure came after the first block (phi[0] = +0.0 needs no repr)
        assert {r[0], *phi[1:]} <= set(written)
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fieldmap.csv"]


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_cli_never_imports_scipy(tmp_path):
    # scipy is a test oracle only: importing it costs about 0.3 s per process;
    # a fresh interpreter, so modules imported by other tests do not count
    script = f"""
import sys
from nanotrap.cli import main
common = ["--config", {PAPER_CFG!r}, "--out", {str(tmp_path)!r}]
for args in (["mode"], ["fieldmap"], ["trap"], ["bfict", "--scheme", "tilt"], ["tuneout"], ["pump"],
             ["spectrum", "simulate"], ["spectrum", "fit", "--data", {str(tmp_path / "spectrum.csv")!r}],
             ["mw", "simulate"], ["mw", "fit", "--data", {str(tmp_path / "mw.csv")!r}]):
    assert main([*args, *common]) == 0, args
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(nanotrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "steps",
    [
        # (a module to import or main's arguments, the optional modules loaded after it)
        [("nanotrap", []), ("nanotrap.cli", []), (["mode"], []), (["fieldmap"], []),
         (["fieldmap", "--field", "manipulation", "--kind", "intensity"], []), (["tuneout"], []),
         (["trap"], ["light_matter"]), (["bfict", "--scheme", "tilt"], ["light_matter"])],
        [("nanotrap.spectra", ["spectra"]), (["spectrum", "simulate"], ["spectra"]),
         (["mw", "simulate"], ["spectra"]), (["pump"], ["dynamics", "light_matter", "spectra"])],
    ],
    ids=["mode-fieldmap-tuneout-trap-bfict", "spectrum-mw-pump"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, steps):
    # light_matter, dynamics and spectra are imported by the subcommands that call them;
    # a fresh interpreter, so modules imported by other tests do not count
    script = f"""
import importlib, json, sys
common = ["--config", {PAPER_CFG!r}, "--out", {str(tmp_path)!r}]
for step, _ in {steps!r}:
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        assert importlib.import_module("nanotrap.cli").main([*step, *common]) == 0, step
    print("loaded", json.dumps([step, [m for m in ("dynamics", "light_matter", "spectra")
                                       if "nanotrap." + m in sys.modules]]))
"""
    src = str(Path(nanotrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [json.loads(line[7:]) for line in proc.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == [[step, modules] for step, modules in steps]


def test_every_public_name_resolves():
    # a stale __all__ entry (a name removed from its module) makes a star import raise
    modules = ["nanotrap"] + [f"nanotrap.{m.name}" for m in pkgutil.iter_modules(nanotrap.__path__)]
    for name in modules:
        public = getattr(importlib.import_module(name), "__all__", [])
        assert len(set(public)) == len(public), name
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(public) <= set(namespace), name


def test_mode_reads_the_data_file_once(tmp_path):
    # a fresh interpreter, so data loaded by other tests does not count
    script = f"""
import pathlib
reads = []
read_text = pathlib.Path.read_text
def counted(self, *args, **kwargs):
    if self.suffix == ".dat":
        reads.append(str(self))
    return read_text(self, *args, **kwargs)
pathlib.Path.read_text = counted
from nanotrap.cli import main
assert main(["mode", "--config", {PAPER_CFG!r}, "--out", {str(tmp_path)!r}]) == 0
print(reads)
"""
    src = str(Path(nanotrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([str(default_data_path())])


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

    def test_outputs_independent_of_simd_dispatch(self, tmp_path):
        # numpy picks its SIMD kernels per host; a child restricted to X86_V2 dispatch must
        # write the same bytes, and trap.json, both bfict.json, pump.json and the field maps
        # (their Bessel values and sums round differently) the same numbers within 1e-9
        # relative; numpy ignores feature names a host lacks
        script = f"""
import sys
from nanotrap.cli import main
common = ["--config", {PAPER_CFG!r}, "--out", sys.argv[1], "--seed", "1"]
for args in (["mode"], ["trap"], ["bfict", "--scheme", "tilt", "--phi-b", "5"], ["pump"], ["tuneout"],
             ["spectrum", "simulate"], ["spectrum", "fit", "--data", sys.argv[1] + "/spectrum.csv"],
             ["mw", "simulate"], ["mw", "fit", "--data", sys.argv[1] + "/mw.csv"]):
    assert main([*args, *common]) == 0, args
tuneout = ["bfict", "--scheme", "tuneout", "--config", {PAPER_CFG!r}, "--out", sys.argv[1] + "/tuneout"]
assert main([*tuneout, "--seed", "1"]) == 0
for kind in ("field", "intensity", "ellipticity"):
    args = ["fieldmap", "--kind", kind, "--config", {PAPER_CFG!r}, "--out", sys.argv[1] + "/" + kind]
    assert main(args) == 0, kind
"""
        src = str(Path(nanotrap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        restricted = dict(env, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
        for out, child_env in ((tmp_path / "full", env), (tmp_path / "v2", restricted)):
            proc = subprocess.run([sys.executable, "-c", script, str(out)], env=child_env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        for name in ("mode.json", "tuneout.json", "spectrum.csv", "spectrum_fit.json", "mw.csv", "mw_fit.json"):
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "v2" / name).read_bytes(), name

        def numbers(node):
            if isinstance(node, dict):
                return [v for key in sorted(node) for v in numbers(node[key])]
            if isinstance(node, list):
                return [v for item in node for v in numbers(item)]
            return [node]

        def values(path):
            if path.suffix == ".json":
                return numbers(json.loads(path.read_text()))
            rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            return [float(v) for line in rows[1:] for v in line.split(",")]

        for name in ("trap.json", "bfict.json", "pump.json", "field/fieldmap.csv",
                     "intensity/fieldmap.csv", "ellipticity/fieldmap.csv"):
            full, v2 = (values(tmp_path / side / name) for side in ("full", "v2"))
            assert len(full) == len(v2), name
            for a, b in zip(full, v2):
                assert b == (pytest.approx(a, rel=1e-9, abs=0) if isinstance(a, float) else a), name

        # the tune-out search ends on phi = 0 at one level and a few 1e-14 rad off it at the
        # other, so the entries that vanish by symmetry (the upper site's phi, B_x at both
        # sites) meet an absolute floor per key instead, in rad and G
        floors = {("site_upper", 1): 1e-12, ("Bfict_upper_G", 0): 1e-12, ("Bfict_lower_G", 0): 1e-12}
        full, v2 = (json.loads((tmp_path / s / "tuneout/bfict.json").read_text()) for s in ("full", "v2"))
        assert sorted(full) == sorted(v2)
        for key in full:
            for i, (a, b) in enumerate(zip(numbers(full[key]), numbers(v2[key]), strict=True)):
                if (key, i) in floors:
                    assert b == pytest.approx(a, rel=0, abs=floors[key, i]), (key, i)
                else:
                    assert b == (pytest.approx(a, rel=1e-9, abs=0) if isinstance(a, float) else a), (key, i)

    def test_different_seed_changes_counts(self, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        run(["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(out1), "--seed", "1"])
        run(["spectrum", "simulate", "--config", PAPER_CFG, "--out", str(out2), "--seed", "2"])
        assert (out1 / "spectrum.csv").read_bytes() != (out2 / "spectrum.csv").read_bytes()
