"""Command-line entry point: mode solving, field maps, trap reports,
per-site field predictions, pumping simulations, and spectrum fits.

Usage:  nanotrap <subcommand> --config <path> [--out <dir>] [--seed <n>]
                 [--set section.key=value ...]

Config files are line-oriented ``key = value`` with ``[section]`` headers
and explicit SI unit suffixes (nm, mW, G, us, ...).  Flags override config
values; the effective configuration is echoed into every output file.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import atom_cs
from .constants import read_key_values, stripped_lines
from .errors import ConfigError, DomainError, NanotrapError, NearResonanceError, NoModeError
from .fiber_mode import (
    GRID_COLUMNS,
    SELLMEIER_RANGE_M,
    FiberSpec,
    LightField,
    PolarGrid,
    atomic_open,
    ellipticity_map,
    field_at,
    intensity_map,
    solve_he11,
    v_number,
    write_csv,
    write_field_map_csv,
    write_scalar_map_csv,
)
from .numerics import K_MAX_ARG

UNIT_FACTORS = {
    "length": {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0},
    "power": {"pW": 1e-12, "nW": 1e-9, "uW": 1e-6, "mW": 1e-3, "W": 1.0},
    "field": {"mG": 1e-3, "G": 1.0},
    "angle": {"deg": np.pi / 180.0, "rad": 1.0},
    "time": {"us": 1e-6, "ms": 1e-3, "s": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "c3": {"Jm3": 1.0},
    "count": {"": 1.0},
    "dimensionless": {"": 1.0},
}

WAVELENGTH_DOMAIN = "[{!r}, {!r}]".format(*SELLMEIER_RANGE_M)  # where the core's Sellmeier index holds
# section.key -> (dimension, default in SI units or None for required, domain); the
# domain is the interval of allowed SI values, "[" and "]" closed, "(" and ")" open
SCHEMA = {
    "fiber.radius": ("length", None, "(0, inf)"),
    "blue.wavelength": ("length", None, WAVELENGTH_DOMAIN),
    "blue.power": ("power", None, "[0, inf)"),
    "red.wavelength": ("length", None, WAVELENGTH_DOMAIN),
    "red.power": ("power", None, "[0, inf)"),
    "red.backward_power": ("power", "red.power", "[0, inf)"),
    "red.relative_phase": ("angle", 0.0, "(-inf, inf)"),
    "probe.wavelength": ("length", 852.347e-9, WAVELENGTH_DOMAIN),
    "probe.power": ("power", 4e-12, "[0, inf)"),
    "probe.polarization_angle": ("angle", 0.0, "(-inf, inf)"),
    "manipulation.wavelength": ("length", 880.2524e-9, WAVELENGTH_DOMAIN),
    "manipulation.power": ("power", 100e-6, "[0, inf)"),
    "manipulation.polarization_angle": ("angle", 0.0, "(-inf, inf)"),
    "scheme.phi_b": ("angle", 0.0, "(-inf, inf)"),
    "scheme.red_imbalance": ("dimensionless", 1.0, "[0, inf)"),
    "magnetics.offset_field": ("field", 28.0, "(-inf, inf)"),
    "surface.c3": ("c3", "data:c3_ground_jm3", "(-inf, inf)"),
    "pump.saturation": ("dimensionless", 0.01, "(0, inf)"),  # zero leaves no steady state
    "pump.duration": ("time", 1e-3, "(0, inf)"),
    "mw.pulse_duration": ("time", 40e-6, "(0, inf)"),
    "mw.center_1": ("frequency", -30.35e3, "(-inf, inf)"),
    "mw.center_2": ("frequency", 30.35e3, "(-inf, inf)"),
    "mw.amplitude_1": ("dimensionless", 0.45, "[0, 1]"),  # transfer probabilities
    "mw.amplitude_2": ("dimensionless", 0.5, "[0, 1]"),
    "mw.noise_sigma": ("dimensionless", 0.02, "[0, inf)"),
    "mw.min": ("frequency", -60e3, "(-inf, inf)"),
    "mw.max": ("frequency", 60e3, "(-inf, inf)"),
    "mw.points": ("count", 121, "[1, inf)"),
    "spectrum.od_plus": ("dimensionless", 1.0, "[0, inf)"),
    "spectrum.od_minus": ("dimensionless", 0.9, "[0, inf)"),
    "spectrum.delta_plus": ("frequency", 39.82e6, "(-inf, inf)"),
    "spectrum.delta_minus": ("frequency", -38.55e6, "(-inf, inf)"),
    "spectrum.gamma": ("frequency", 8.3e6, "(0, inf)"),
    "spectrum.min": ("frequency", -80e6, "(-inf, inf)"),
    "spectrum.max": ("frequency", 80e6, "(-inf, inf)"),
    "spectrum.points": ("count", 81, "[1, inf)"),
    "spectrum.reference_counts": ("count", 1e4, "[1, 1e18]"),  # below numpy's Poisson limit
    "grid.r_max": ("length", 1.5e-6, "(0, inf)"),
    "grid.n_r": ("count", 50, "[1, inf)"),
    "grid.n_phi": ("count", 64, "[1, inf)"),
    "grid.z": ("length", 0.0, "(-inf, inf)"),
    "run.seed": ("count", 1, "[0, inf)"),
}

STRING_KEYS = {"atoms.data_file"}
KEYS = SCHEMA.keys() | STRING_KEYS
BEAMS = ["blue", "red", "probe", "manipulation"]  # the guided beams a config sets
# columns of the CSV each "simulate" action writes and its "fit" action reads
SPECTRUM_COLUMNS = ["detuning_Hz", "counts", "reference_counts"]
MW_COLUMNS = ["delta_Hz", "probability"]


def _parse_value(key: str, raw: str) -> float | str:
    """One config value in SI units; ConfigError naming ``key`` when it is invalid.

    Numbers must be finite and inside the key's ``SCHEMA`` domain, and counts
    whole numbers; a ``STRING_KEYS`` value is returned as given.
    """
    if key in STRING_KEYS:
        return raw
    dimension, _, domain = SCHEMA[key]
    parts = raw.split()
    if len(parts) == 1:
        number, unit = parts[0], ""
    elif len(parts) == 2:
        number, unit = parts
    else:
        raise ConfigError(f"{key}: expected 'number [unit]', got {raw!r}")
    table = UNIT_FACTORS[dimension]
    if unit not in table:
        raise ConfigError(f"{key}: unit {unit!r} invalid for {dimension} (allowed: {sorted(table)})")
    try:
        value = float(number) * table[unit]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad number {number!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite number")
    if dimension == "count" and value != int(value):
        raise ConfigError(f"{key}: {raw!r} is not a whole number")
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    closed = (value == low and domain[0] == "[") or (value == high and domain[-1] == "]")
    if not (low < value < high or closed):
        raise ConfigError(f"{key}: {raw!r} is outside {domain}")
    return value


class RunConfig:
    """Resolved configuration: every schema key in SI units."""

    def __init__(self, values: dict, data_file: str | None, data: atom_cs.AtomicData):
        self.values = values
        self.data_file = data_file
        self.data = data
        self._modes: dict[tuple[float, float], object] = {}

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    @classmethod
    def load(cls, path: str | None, overrides: list[str]) -> "RunConfig":
        values = {} if path is None else read_key_values(path, "config", KEYS, _parse_value)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects section.key=value, got {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in KEYS:
                raise ConfigError(f"--set: unknown key {key!r}")
            values[key] = _parse_value(key, value.strip())
        data_file = values.pop("atoms.data_file", None)
        # defaults may reference other keys or the atomic data file
        data = atom_cs.AtomicData.from_file(data_file)
        for key, (_, default, _) in SCHEMA.items():
            if key in values:
                continue
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            if isinstance(default, str):
                if default.startswith("data:"):
                    values[key] = getattr(data, default.split(":", 1)[1])
                else:
                    values[key] = values[default]
            else:
                values[key] = float(default)
        if values["grid.r_max"] <= values["fiber.radius"]:
            raise ConfigError("grid.r_max: the map's outer radius must exceed fiber.radius")
        return cls(values, data_file, data)

    def echo_lines(self) -> list[str]:
        lines = [f"{key} = {repr(self.values[key])}" for key in sorted(self.values)]
        if self.data_file:
            lines.append(f"atoms.data_file = {self.data_file}")
        return lines

    # --- physics builders -------------------------------------------------

    def fiber(self) -> FiberSpec:
        return FiberSpec(radius=self["fiber.radius"], sellmeier=self.data.sellmeier)

    def mode(self, name: str):
        key = (self["fiber.radius"], self[f"{name}.wavelength"])
        if key not in self._modes:
            try:
                self._modes[key] = solve_he11(self.fiber(), key[1])
            except NoModeError as exc:
                raise ConfigError(f"fiber.radius, {name}.wavelength: {exc}") from exc
        return self._modes[key]

    def field(self, name: str) -> LightField:
        """Beam ``name`` of ``BEAMS``, its mode alone solved; blue and red with ``scheme.*`` applied."""
        if name not in ("blue", "red"):
            return self._beam(name, polarization_angle=self[f"{name}.polarization_angle"])
        from . import light_matter
        red = {"configuration": "standing", "backward_power": self["red.backward_power"],
               "relative_phase": self["red.relative_phase"]}
        nominal = self._beam(name, **(red if name == "red" else {}))
        scheme = self["scheme.phi_b"], self["scheme.red_imbalance"]
        return light_matter.beam_with_scheme(name, nominal, *scheme)

    def _beam(self, name: str, **options) -> LightField:
        mode = self.mode(name)
        return LightField(mode=mode, power=self[f"{name}.power"], **options)

    def check_off_resonance(self, *beams: str) -> None:
        """Refuse, naming its key, a beam whose light shift the run computes too near a D line."""
        for name in beams:
            try:
                atom_cs._check_wavelength(self[f"{name}.wavelength"], self.data)
            except NearResonanceError as exc:
                raise ConfigError(f"{name}.wavelength: {exc}") from exc

    def trap_config(self):
        """The trap of ``field("blue")`` and ``field("red")``, as ``light_matter.with_scheme`` sets it."""
        from . import light_matter
        blue, red, c3 = self.field("blue"), self.field("red"), self["surface.c3"]
        return light_matter.TrapConfig(fiber=self.fiber(), blue=blue, red=red, c3=c3 or None)  # 0 disables


def _write_json(path: Path, cfg: RunConfig, payload: dict):
    doc = {"config": {k: cfg.values[k] for k in sorted(cfg.values)}, **payload}
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, cfg: RunConfig, header: list[str], table):
    write_csv(path, cfg.echo_lines(), header, table)


def _fit(path: str, fit, *args, **kwargs):
    """``fit(*args, **kwargs)``; its DomainError, a refusal of the data in ``path``, exits 2."""
    try:
        return fit(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_csv(path: str | None, columns: list[str], command: str) -> np.ndarray:
    """The ``columns`` of the data CSV that ``command`` fits, one row per line.

    Every row holds one finite number per header column.
    """
    if path is None:
        raise ConfigError(f"{command} fit requires --data <csv>")
    lines = stripped_lines(path, "data file")
    header = [c.strip() for c in next(lines, (0, ""))[1].split(",")]
    if header != columns:
        raise ConfigError(f"{path}: expected {command} CSV header {columns}, got {header}")
    rows = []
    for lineno, line in lines:
        try:
            rows.append([float(c) for c in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed data row") from exc
        if len(rows[-1]) != len(columns) or not np.all(np.isfinite(rows[-1])):
            raise ConfigError(f"{path}:{lineno}: expected {len(columns)} finite values, got {line!r}")
    return np.array(rows).reshape(-1, len(columns))  # too few rows: the fit refuses them (_fit)


# --- subcommands ---------------------------------------------------------


def cmd_mode(cfg: RunConfig, args, out: Path) -> None:
    payload = {}
    for name in BEAMS if args.field == "all" else [args.field]:
        wavelength = cfg[f"{name}.wavelength"]
        m = cfg.mode(name)
        payload[name] = {
            "wavelength_m": wavelength,
            "beta_rad_per_m": float(m.beta),
            "effective_index": float(m.effective_index),
            "v_number": float(v_number(cfg.fiber(), wavelength)),
            "interior_parameter_per_m": float(m.interior_parameter),
            "exterior_parameter_per_m": float(m.exterior_parameter),
            "normalization_v_per_m_sqrt_w": float(m.normalization),
            "multimode": bool(m.multimode),
        }
        print(
            f"{name}: beta = {m.beta!r} rad/m, neff = {m.effective_index!r}, "
            f"V = {payload[name]['v_number']!r}"
        )
    _write_json(out / "mode.json", cfg, {"modes": payload})


def cmd_fieldmap(cfg: RunConfig, args, out: Path) -> None:
    light = cfg.field(args.field)
    if args.kind == "ellipticity" and light.power + light.backward_power == 0.0:
        raise ConfigError(f"{args.field}.power: 0 leaves no field, whose ellipticity is undefined")
    if cfg["grid.r_max"] * (q := light.mode.exterior_parameter) > K_MAX_ARG:  # where K(q r) holds
        raise ConfigError(f"grid.r_max: the {args.field} field maps out to {K_MAX_ARG / q * 1e6:.1f} um")
    grid = PolarGrid(
        r_min=cfg["fiber.radius"],
        r_max=cfg["grid.r_max"],
        n_r=int(cfg["grid.n_r"]),
        n_phi=int(cfg["grid.n_phi"]),
        z=cfg["grid.z"],
    )
    path = out / "fieldmap.csv"
    if args.kind == "field":
        write_field_map_csv(path, light, grid, header_lines=cfg.echo_lines())
    elif args.kind == "intensity":
        values = intensity_map(light, grid)
        write_scalar_map_csv(path, grid, values, "intensity_V2_per_m2", cfg.echo_lines())
    else:  # ellipticity
        columns = [*GRID_COLUMNS, "eps_x", "eps_y", "eps_z"]
        _write_csv(path, cfg, columns, grid.table(ellipticity_map(light, grid)))
    print(f"wrote {path}")


def _site_payload(env: light_matter.MagneticEnvironment, data: atom_cs.AtomicData) -> dict:
    """Per-site fictitious fields and clock splitting, as ``trap`` and ``bfict`` report them."""
    from . import light_matter
    split = light_matter.clock_splitting(env, data)
    return {
        "Bfict_upper_G": list(env.fictitious_field_upper),
        "Bfict_lower_G": list(env.fictitious_field_lower),
        "clock_splitting_Hz": split.exact_hz,
        "clock_splitting_quadratic_Hz": split.approximate_hz,
    }


def cmd_trap(cfg: RunConfig, args, out: Path) -> None:
    from . import light_matter
    cfg.check_off_resonance("blue", "red")
    trap = cfg.trap_config()
    boff = cfg["magnetics.offset_field"]
    minimum = light_matter.find_trap_minimum(trap, data=cfg.data)
    freqs = light_matter.trap_frequencies(trap, minimum=minimum, data=cfg.data)
    env = light_matter.site_environment(trap, boff, minimum, data=cfg.data)
    payload = {
        "minimum_position": {
            "r_m": minimum[0],
            "phi_rad": minimum[1],
            "z_m": minimum[2],
            "distance_to_surface_m": minimum[0] - cfg["fiber.radius"],
        },
        "trap_frequencies_Hz": list(freqs),
        **_site_payload(env, cfg.data),
    }
    _write_json(out / "trap.json", cfg, payload)
    d_nm = payload["minimum_position"]["distance_to_surface_m"] * 1e9
    print(
        f"minimum {d_nm!r} nm above surface; frequencies "
        f"{[f / 1e3 for f in freqs]!r} kHz"
    )


def cmd_bfict(cfg: RunConfig, args, out: Path) -> None:
    from . import light_matter
    cfg.check_off_resonance("blue", "red", *(["manipulation"] if args.scheme == "tuneout" else []))
    trap = cfg.trap_config()
    if args.scheme == "tuneout":
        trap = replace(trap, manipulation=cfg.field("manipulation"))
    site = light_matter.find_trap_minimum(trap, data=cfg.data)
    env = light_matter.site_environment(trap, cfg["magnetics.offset_field"], site, data=cfg.data)
    mw = light_matter.mw_splitting(env, (3, -3), (4, -3), cfg.data)
    b_up, b_lo = env.total_magnitudes()
    payload = {
        "scheme": args.scheme,
        "phi_b_rad": cfg["scheme.phi_b"],
        "red_imbalance": cfg["scheme.red_imbalance"],
        "site_upper": list(env.site_upper),
        "site_lower": list(env.site_lower),
        **_site_payload(env, cfg.data),
        "B_total_upper_G": b_up,
        "B_total_lower_G": b_lo,
        "mw_splitting_3m3_4m3_Hz": mw,
    }
    _write_json(out / "bfict.json", cfg, payload)
    print(
        f"scheme {args.scheme}: |Bfict_upper| = "
        f"{float(np.linalg.norm(env.fictitious_field_upper))!r} G, "
        f"clock splitting = {payload['clock_splitting_Hz']!r} Hz"
    )


def cmd_pump(cfg: RunConfig, args, out: Path) -> None:
    from . import dynamics, light_matter
    if cfg["probe.power"] == 0.0:  # the drive fractions are those of the probe's field
        raise ConfigError("probe.power: pump needs a nonzero probe power (0 leaves no drive)")
    cfg.check_off_resonance("blue", "red")
    site = light_matter.find_trap_minimum(cfg.trap_config(), data=cfg.data)
    e_x, e_y, e_z = field_at(cfg.field("probe"), *site)
    # (sigma+, pi, sigma-) intensities about the offset field's +y: |E_z -+ i E_x|^2 / 2, |E_y|^2
    intensities = np.array([abs(e_z - 1j * e_x) ** 2 / 2, abs(e_y) ** 2, abs(e_z + 1j * e_x) ** 2 / 2])
    fractions = intensities / intensities.sum()
    rates = dynamics.pump_rates(fractions, cfg["pump.saturation"], cfg.data)
    steady = dynamics.pump_steady_state(rates, cfg.data)
    uniform = dynamics.PopulationVector(4, np.full(9, 1.0 / 9.0))
    evolved = dynamics.pump_evolution(rates, uniform, cfg["pump.duration"], cfg.data)
    payload = {
        "site": list(site),
        "intensity_fractions_sigma_plus_pi_sigma_minus": list(fractions),
        "steady_state": [float(v) for v in steady.populations],
        "evolved_state": [float(v) for v in evolved.populations],
        "evolution_duration_s": cfg["pump.duration"],
        "pumping_time_1_e": dynamics.pumping_time_constant(rates),
    }
    _write_json(out / "pump.json", cfg, payload)
    print(
        f"sigma+ fraction {float(fractions[0])!r}; steady-state stretched population "
        f"{steady.population(4)!r}"
    )


def _detunings(cfg: RunConfig, section: str) -> np.ndarray:
    """The ``section``.points detunings from ``section``.min to .max; ConfigError unless they increase."""
    low, high, points = cfg[f"{section}.min"], cfg[f"{section}.max"], int(cfg[f"{section}.points"])
    if points > 1 and not low < high:
        raise ConfigError(f"{section}.min, {section}.max: the detunings must increase (min < max)")
    return np.linspace(low, high, points)


def cmd_spectrum(cfg: RunConfig, args, out: Path) -> None:
    from . import spectra
    model = spectra.SpectrumModel(
        od_plus=cfg["spectrum.od_plus"],
        od_minus=cfg["spectrum.od_minus"],
        delta_plus=cfg["spectrum.delta_plus"],
        delta_minus=cfg["spectrum.delta_minus"],
        gamma=cfg["spectrum.gamma"],
    )
    if args.action == "simulate":
        grid = _detunings(cfg, "spectrum")
        data = spectra.simulate_spectrum(
            model, grid, cfg["spectrum.reference_counts"], seed=int(cfg["run.seed"])
        )
        table = np.column_stack([data.detunings_hz, data.transmitted, data.reference])
        _write_csv(out / "spectrum.csv", cfg, SPECTRUM_COLUMNS, table)
        print(f"wrote {out / 'spectrum.csv'}")
        return
    columns = _read_csv(args.data, SPECTRUM_COLUMNS, "spectrum").T
    data = _fit(args.data, spectra.SpectrumData, *columns)
    result = _fit(args.data, spectra.fit_transmission, data, model)
    names = ["od_plus", "od_minus", "delta_plus_hz", "delta_minus_hz", "gamma_hz"]
    sig = result.sigmas
    denom = np.outer(sig, sig)
    corr = np.where(denom > 0, result.covariance / denom, 0.0)
    payload = {
        "parameters": dict(zip(names, [float(v) for v in result.parameters])),
        "sigmas": dict(zip(names, [float(v) for v in sig])),
        "correlation": [[float(c) for c in row] for row in corr],
        "chi2": float(result.residual_norm**2),
        "ndof": int(data.detunings_hz.size - 5),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    _write_json(out / "spectrum_fit.json", cfg, payload)
    print(
        f"delta+ = {payload['parameters']['delta_plus_hz']!r} Hz, "
        f"delta- = {payload['parameters']['delta_minus_hz']!r} Hz"
    )


def cmd_mw(cfg: RunConfig, args, out: Path) -> None:
    from . import spectra
    tau = cfg["mw.pulse_duration"]
    if args.action == "simulate":
        grid = _detunings(cfg, "mw")
        d, y = spectra.simulate_mw_spectrum(
            [cfg["mw.center_1"], cfg["mw.center_2"]],
            [cfg["mw.amplitude_1"], cfg["mw.amplitude_2"]],
            tau,
            grid,
            cfg["mw.noise_sigma"],
            seed=int(cfg["run.seed"]),
        )
        _write_csv(out / "mw.csv", cfg, MW_COLUMNS, np.column_stack([d, y]))
        print(f"wrote {out / 'mw.csv'}")
        return
    columns = _read_csv(args.data, MW_COLUMNS, "mw").T
    result = _fit(args.data, spectra.fit_mw_spectrum, columns, tau, components=args.components)
    payload = {
        "centers_hz": [float(v) for v in result.centers_hz],
        "center_sigmas_hz": [float(v) for v in result.center_sigmas_hz],
        "amplitudes": [float(v) for v in result.amplitudes],
        "splitting_hz": result.splitting_hz,
        "splitting_sigma_hz": result.splitting_sigma_hz,
        "pulse_duration_s": tau,
        "fourier_fwhm_hz": result.fourier_fwhm_hz,
    }
    _write_json(out / "mw_fit.json", cfg, payload)
    print(f"centers {payload['centers_hz']!r} Hz, splitting {result.splitting_hz!r} Hz")


def cmd_tuneout(cfg: RunConfig, args, out: Path) -> None:
    lam = atom_cs.tune_out(cfg.data)
    residual = atom_cs.scalar_polarizability(lam, cfg.data)
    reference = atom_cs.scalar_polarizability(852e-9, cfg.data)
    payload = {
        "tune_out_wavelength_m": lam,
        "tune_out_wavelength_nm": lam * 1e9,
        "scalar_polarizability_residual_relative": abs(residual / reference),
    }
    _write_json(out / "tuneout.json", cfg, payload)
    print(f"tune-out wavelength = {lam * 1e9!r} nm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanotrap",
        description="Nanofiber evanescent-field atom trap: modes, shifts, traps, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shorthand(p, flag, override, metavar):  # a flag that appends one --set override
        p.add_argument(flag, dest="set", action="append", type=override.format,
                       metavar=metavar, help=f"shorthand for --set '{override.format(metavar)}'")

    def common(p, run):  # run(cfg, args, out) carries out the subcommand
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key, e.g. --set 'fiber.radius=260 nm'",
        )
        shorthand(p, "--seed", "run.seed={}", "N")

    p = sub.add_parser("mode", help="solve guided modes and report beta, V")
    common(p, cmd_mode)
    p.add_argument("--field", choices=["all", *BEAMS], default="all")

    p = sub.add_parser("fieldmap", help="CSV field/intensity/ellipticity maps")
    common(p, cmd_fieldmap)
    p.add_argument("--field", choices=BEAMS, default="probe")
    p.add_argument("--kind", choices=["field", "intensity", "ellipticity"], default="field")

    p = sub.add_parser("trap", help="trap minimum, frequencies, per-site fields (JSON)")
    common(p, cmd_trap)

    p = sub.add_parser("bfict", help="per-site fictitious fields and splittings")
    common(p, cmd_bfict)
    p.add_argument("--scheme", choices=["tuneout", "tilt", "imbalance"], required=True)
    shorthand(p, "--phi-b", "scheme.phi_b={} deg", "DEG")
    shorthand(p, "--imbalance", "scheme.red_imbalance={}", "RATIO")

    p = sub.add_parser("pump", help="optical pumping steady state and evolution")
    common(p, cmd_pump)

    p = sub.add_parser("spectrum", help="simulate or fit probe transmission spectra")
    common(p, cmd_spectrum)
    p.add_argument("action", choices=["simulate", "fit"])
    p.add_argument("--data", default=None, help="CSV file to fit")

    p = sub.add_parser("mw", help="simulate or fit microwave spectra")
    common(p, cmd_mw)
    p.add_argument("action", choices=["simulate", "fit"])
    p.add_argument("--data", default=None, help="CSV file to fit")
    p.add_argument("--components", type=int, choices=[1, 2], default=2)

    p = sub.add_parser("tuneout", help="closed-form scalar-polarizability zero crossing")
    common(p, cmd_tuneout)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.set)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.run(cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NanotrapError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
