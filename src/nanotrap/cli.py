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
from pathlib import Path

import numpy as np

from . import atom_cs, dynamics, light_matter, spectra
from .atom_cs import AtomicData
from .errors import ConfigError, NanotrapError
from .fiber_mode import (
    GRID_COLUMNS,
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

# section.key -> (dimension, default in SI units or None for required)
SCHEMA = {
    "fiber.radius": ("length", None),
    "blue.wavelength": ("length", None),
    "blue.power": ("power", None),
    "red.wavelength": ("length", None),
    "red.power": ("power", None),
    "red.backward_power": ("power", "red.power"),
    "red.relative_phase": ("angle", 0.0),
    "probe.wavelength": ("length", 852.347e-9),
    "probe.power": ("power", 4e-12),
    "probe.polarization_angle": ("angle", 0.0),
    "manipulation.wavelength": ("length", 880.2524e-9),
    "manipulation.power": ("power", 100e-6),
    "manipulation.polarization_angle": ("angle", 0.0),
    "scheme.phi_b": ("angle", 0.0),
    "scheme.red_imbalance": ("dimensionless", 1.0),
    "magnetics.offset_field": ("field", 28.0),
    "surface.c3": ("c3", "data:c3_ground_jm3"),
    "pump.saturation": ("dimensionless", 0.01),
    "pump.duration": ("time", 1e-3),
    "mw.pulse_duration": ("time", 40e-6),
    "mw.center_1": ("frequency", -30.35e3),
    "mw.center_2": ("frequency", 30.35e3),
    "mw.amplitude_1": ("dimensionless", 0.45),
    "mw.amplitude_2": ("dimensionless", 0.5),
    "mw.noise_sigma": ("dimensionless", 0.02),
    "mw.min": ("frequency", -60e3),
    "mw.max": ("frequency", 60e3),
    "mw.points": ("count", 121),
    "spectrum.od_plus": ("dimensionless", 1.0),
    "spectrum.od_minus": ("dimensionless", 0.9),
    "spectrum.delta_plus": ("frequency", 39.82e6),
    "spectrum.delta_minus": ("frequency", -38.55e6),
    "spectrum.gamma": ("frequency", 8.3e6),
    "spectrum.min": ("frequency", -80e6),
    "spectrum.max": ("frequency", 80e6),
    "spectrum.points": ("count", 81),
    "spectrum.reference_counts": ("count", 1e4),
    "grid.r_max": ("length", 1.5e-6),
    "grid.n_r": ("count", 50),
    "grid.n_phi": ("count", 64),
    "grid.z": ("length", 0.0),
    "tuneout.min": ("length", 860e-9),
    "tuneout.max": ("length", 893e-9),
    "run.seed": ("count", 1),
}

STRING_KEYS = {"atoms.data_file"}
BEAMS = ["blue", "red", "probe", "manipulation"]  # the guided beams a config sets
# columns of the CSV each "simulate" action writes and its "fit" action reads
SPECTRUM_COLUMNS = ["detuning_Hz", "counts", "reference_counts"]
MW_COLUMNS = ["delta_Hz", "probability"]


# keys whose value must be > 0: every radius, wavelength and duration, and the map's extent
POSITIVE_KEYS = {
    key for key in SCHEMA if key.endswith((".radius", ".wavelength", "duration"))
} | {"grid.r_max", "tuneout.min", "tuneout.max"}


def _parse_value(key: str, raw: str) -> float:
    """One config value in SI units; ConfigError naming ``key`` when it is invalid.

    Numbers must be finite, powers non-negative, radii, wavelengths,
    durations and ``grid.r_max`` positive, and counts whole numbers >= 1
    (``run.seed`` >= 0).
    """
    dimension, _ = SCHEMA[key]
    parts = raw.split()
    if len(parts) == 1:
        number, unit = parts[0], ""
    elif len(parts) == 2:
        number, unit = parts
    else:
        raise ConfigError(f"{key}: expected 'number [unit]', got {raw!r}")
    table = UNIT_FACTORS[dimension]
    if unit not in table:
        raise ConfigError(
            f"{key}: unit {unit!r} invalid for {dimension} (allowed: {sorted(table)})"
        )
    try:
        value = float(number) * table[unit]
    except ValueError as exc:
        raise ConfigError(f"{key}: bad number {number!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite number")
    if dimension == "count":
        least = 0 if key == "run.seed" else 1
        if value != int(value) or value < least:
            raise ConfigError(f"{key}: {raw!r} is not a whole number >= {least}")
    elif key in POSITIVE_KEYS and value <= 0:
        raise ConfigError(f"{key}: {raw!r} must be positive")
    elif dimension == "power" and value < 0:
        raise ConfigError(f"{key}: {raw!r} must not be negative")
    return value


class RunConfig:
    """Resolved configuration: every schema key in SI units."""

    def __init__(self, values: dict, data_file: str | None, data: AtomicData):
        self.values = values
        self.data_file = data_file
        self.data = data
        self._modes: dict[tuple[float, float], object] = {}

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    @classmethod
    def load(cls, path: str | None, overrides: list[str]) -> "RunConfig":
        raw: dict[str, str] = {}
        if path is not None:
            section = ""
            try:
                text = Path(path).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip()
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                full = f"{section}.{key.strip()}" if section else key.strip()
                if full not in SCHEMA and full not in STRING_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {full!r}")
                raw[full] = value.strip()
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects section.key=value, got {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in SCHEMA and key not in STRING_KEYS:
                raise ConfigError(f"--set: unknown key {key!r}")
            raw[key] = value.strip()

        data_file = raw.pop("atoms.data_file", None)
        values: dict[str, float] = {}
        for key, (dimension, default) in SCHEMA.items():
            if key in raw:
                values[key] = _parse_value(key, raw[key])
            elif default is None:
                raise ConfigError(f"missing required key {key!r}")
        # defaults may reference other keys or the atomic data file
        data = AtomicData.from_file(data_file)
        for key, (dimension, default) in SCHEMA.items():
            if key in values:
                continue
            if isinstance(default, str):
                if default.startswith("data:"):
                    values[key] = getattr(data, default.split(":", 1)[1])
                else:
                    values[key] = values[default]
            else:
                values[key] = float(default)
        return cls(values, data_file, data)

    def echo_lines(self) -> list[str]:
        lines = [f"{key} = {repr(self.values[key])}" for key in sorted(self.values)]
        if self.data_file:
            lines.append(f"atoms.data_file = {self.data_file}")
        return lines

    # --- physics builders -------------------------------------------------

    def fiber(self) -> FiberSpec:
        return FiberSpec(radius=self["fiber.radius"], sellmeier=self.data.sellmeier)

    def mode(self, wavelength: float):
        key = (self["fiber.radius"], wavelength)
        if key not in self._modes:
            self._modes[key] = solve_he11(self.fiber(), wavelength)
        return self._modes[key]

    def field(self, name: str) -> LightField:
        """Beam ``name`` of ``BEAMS``; blue and red as ``trap_config()`` sets them."""
        if name in ("blue", "red"):
            return getattr(self.trap_config(), name)
        return self._beam(name, polarization_angle=self[f"{name}.polarization_angle"])

    def _beam(self, name: str, **options) -> LightField:
        mode = self.mode(self[f"{name}.wavelength"])
        return LightField(mode=mode, power=self[f"{name}.power"], **options)

    def trap_config(self, phi_b: float | None = None, imbalance: float | None = None):
        """The trap under ``light_matter.with_scheme``; the scheme defaults to ``scheme.*``."""
        nominal = light_matter.TrapConfig(
            fiber=self.fiber(),
            blue=self._beam("blue"),
            red=self._beam(
                "red",
                configuration="standing",
                backward_power=self["red.backward_power"],
                relative_phase=self["red.relative_phase"],
            ),
            c3=self["surface.c3"] if self["surface.c3"] != 0.0 else None,
        )
        return light_matter.with_scheme(
            nominal,
            self["scheme.phi_b"] if phi_b is None else phi_b,
            self["scheme.red_imbalance"] if imbalance is None else imbalance,
        )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, cfg: RunConfig, payload: dict):
    doc = {"config": {k: cfg.values[k] for k in sorted(cfg.values)}, **payload}
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_csv(path: Path, cfg: RunConfig, header: list[str], table):
    write_csv(path, cfg.echo_lines(), header, table)


def _read_csv(path: str | None, columns: list[str], command: str) -> np.ndarray:
    """The ``columns`` of the data CSV that ``command`` fits, one row per line."""
    if path is None:
        raise ConfigError(f"{command} fit requires --data <csv>")
    rows = []
    header = None
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        try:
            rows.append([float(c) for c in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed data row") from exc
    if header is None or not rows:
        raise ConfigError(f"{path}: no data rows")
    if header != columns:
        raise ConfigError(f"{path}: expected {command} CSV header {columns}, got {header}")
    return np.array(rows)


# --- subcommands ---------------------------------------------------------


def cmd_mode(cfg: RunConfig, args, out: Path) -> None:
    payload = {}
    for name in BEAMS if args.field == "all" else [args.field]:
        wavelength = cfg[f"{name}.wavelength"]
        m = cfg.mode(wavelength)
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


def _site_payload(env: light_matter.MagneticEnvironment, data: AtomicData) -> dict:
    """Per-site fictitious fields and clock splitting, as ``trap`` and ``bfict`` report them."""
    split = light_matter.clock_splitting(env, data)
    return {
        "Bfict_upper_G": list(env.fictitious_field_upper),
        "Bfict_lower_G": list(env.fictitious_field_lower),
        "clock_splitting_Hz": split.exact_hz,
        "clock_splitting_quadratic_Hz": split.approximate_hz,
    }


def cmd_trap(cfg: RunConfig, args, out: Path) -> None:
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
    boff = cfg["magnetics.offset_field"]
    phi_b = np.deg2rad(args.phi_b) if args.phi_b is not None else cfg["scheme.phi_b"]
    imbalance = args.imbalance if args.imbalance is not None else cfg["scheme.red_imbalance"]
    manipulation = None
    if args.scheme == "tuneout":
        manipulation = cfg.field("manipulation")
        phi_b, imbalance = 0.0, 1.0
    elif args.scheme == "tilt":
        imbalance = 1.0
    else:  # imbalance
        phi_b = 0.0
    trap = cfg.trap_config(0.0, 1.0)
    env = light_matter.site_fields(trap, boff, manipulation, phi_b, imbalance, cfg.data)
    mw = light_matter.mw_splitting(env, (3, -3), (4, -3), cfg.data)
    b_up, b_lo = env.total_magnitudes()
    payload = {
        "scheme": args.scheme,
        "phi_b_rad": phi_b,
        "red_imbalance": imbalance,
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
    site = light_matter.find_trap_minimum(cfg.trap_config(), data=cfg.data)
    e_site = field_at(cfg.field("probe"), *site)
    a_plus, a_zero, a_minus = light_matter.spherical_components(e_site, [0.0, 1.0, 0.0])
    norm = abs(a_plus) ** 2 + abs(a_zero) ** 2 + abs(a_minus) ** 2
    fractions = (abs(a_plus) ** 2 / norm, abs(a_zero) ** 2 / norm, abs(a_minus) ** 2 / norm)
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


def cmd_spectrum(cfg: RunConfig, args, out: Path) -> None:
    model = spectra.SpectrumModel(
        od_plus=cfg["spectrum.od_plus"],
        od_minus=cfg["spectrum.od_minus"],
        delta_plus=cfg["spectrum.delta_plus"],
        delta_minus=cfg["spectrum.delta_minus"],
        gamma=cfg["spectrum.gamma"],
    )
    if args.action == "simulate":
        grid = np.linspace(
            cfg["spectrum.min"], cfg["spectrum.max"], int(cfg["spectrum.points"])
        )
        data = spectra.simulate_spectrum(
            model, grid, cfg["spectrum.reference_counts"], seed=int(cfg["run.seed"])
        )
        table = np.column_stack([data.detunings_hz, data.transmitted, data.reference])
        _write_csv(out / "spectrum.csv", cfg, SPECTRUM_COLUMNS, table)
        print(f"wrote {out / 'spectrum.csv'}")
        return
    data = spectra.SpectrumData(*_read_csv(args.data, SPECTRUM_COLUMNS, "spectrum").T)
    result = spectra.fit_transmission(data, model)
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
    tau = cfg["mw.pulse_duration"]
    if args.action == "simulate":
        grid = np.linspace(cfg["mw.min"], cfg["mw.max"], int(cfg["mw.points"]))
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
    result = spectra.fit_mw_spectrum(columns, tau, components=args.components)
    payload = {
        "centers_hz": [float(v) for v in result.centers_hz],
        "center_sigmas_hz": [float(v) for v in result.center_sigmas_hz],
        "amplitudes": [float(v) for v in result.amplitudes],
        "splitting_hz": result.splitting_hz,
        "splitting_sigma_hz": result.splitting_sigma_hz,
        "pulse_duration_s": tau,
        "fourier_fwhm_hz": dynamics.pi_pulse_fwhm(tau),
    }
    _write_json(out / "mw_fit.json", cfg, payload)
    print(f"centers {payload['centers_hz']!r} Hz, splitting {result.splitting_hz!r} Hz")


def cmd_tuneout(cfg: RunConfig, args, out: Path) -> None:
    lam = atom_cs.tune_out(cfg["tuneout.min"], cfg["tuneout.max"], cfg.data)
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

    def common(p):
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key, e.g. --set 'fiber.radius=260 nm'",
        )

    p = sub.add_parser("mode", help="solve guided modes and report beta, V")
    common(p)
    p.add_argument("--field", choices=["all", *BEAMS], default="all")

    p = sub.add_parser("fieldmap", help="CSV field/intensity/ellipticity maps")
    common(p)
    p.add_argument("--field", choices=BEAMS, default="probe")
    p.add_argument("--kind", choices=["field", "intensity", "ellipticity"], default="field")

    p = sub.add_parser("trap", help="trap minimum, frequencies, per-site fields (JSON)")
    common(p)

    p = sub.add_parser("bfict", help="per-site fictitious fields and splittings")
    common(p)
    p.add_argument("--scheme", choices=["tuneout", "tilt", "imbalance"], required=True)
    p.add_argument("--phi-b", dest="phi_b", type=float, default=None, help="blue tilt in degrees")
    p.add_argument("--imbalance", type=float, default=None, help="red backward/forward power ratio")

    p = sub.add_parser("pump", help="optical pumping steady state and evolution")
    common(p)

    p = sub.add_parser("spectrum", help="simulate or fit probe transmission spectra")
    common(p)
    p.add_argument("action", choices=["simulate", "fit"])
    p.add_argument("--data", default=None, help="CSV file to fit")

    p = sub.add_parser("mw", help="simulate or fit microwave spectra")
    common(p)
    p.add_argument("action", choices=["simulate", "fit"])
    p.add_argument("--data", default=None, help="CSV file to fit")
    p.add_argument("--components", type=int, choices=[1, 2], default=2)

    p = sub.add_parser("tuneout", help="search the scalar-polarizability zero crossing")
    common(p)
    return parser


COMMANDS = {
    "mode": cmd_mode,
    "fieldmap": cmd_fieldmap,
    "trap": cmd_trap,
    "bfict": cmd_bfict,
    "pump": cmd_pump,
    "spectrum": cmd_spectrum,
    "mw": cmd_mw,
    "tuneout": cmd_tuneout,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"run.seed={args.seed}")
        cfg = RunConfig.load(args.config, overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NanotrapError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
