"""CODATA 2022 physical constants and the loader for the atomic/material data file.

All cesium and fused-silica constants used anywhere in the package live in
one plain-text ``key = value`` file (``data/cesium.dat``).  Nothing numeric
about the atom or the glass is hard-coded in logic; swapping the file swaps
the physics inputs.
"""
from __future__ import annotations

from importlib import resources
from math import isfinite
from pathlib import Path

from .errors import ConfigError

# CODATA 2022 values, in SI units (equal to scipy.constants 1.17)
c = 299792458.0  # speed of light, m/s
h = 6.62607015e-34  # Planck constant, J s
hbar = 1.0545718176461565e-34  # h / (2 pi), J s
epsilon_0 = 8.8541878188e-12  # vacuum permittivity, F/m
mu_B = 9.2740100657e-24  # Bohr magneton, J/T

KNOWN_KEYS = frozenset(
    {
        "nuclear_spin",
        "mass_kg",
        "ground_hyperfine_splitting_hz",
        "g_j_ground",
        "g_j_excited_d2",
        "g_i",
        "d1_frequency_hz",
        "d1_linewidth_hz",
        "d1_reduced_dipole_cm",
        "d2_frequency_hz",
        "d2_linewidth_hz",
        "d2_reduced_dipole_cm",
        "sellmeier_b1",
        "sellmeier_b2",
        "sellmeier_b3",
        "sellmeier_l1_um2",
        "sellmeier_l2_um2",
        "sellmeier_l3_um2",
        "c3_ground_jm3",
    }
)


def default_data_path() -> Path:
    return Path(resources.files("nanotrap").joinpath("data/cesium.dat"))


def load_constants(path: str | Path | None = None) -> dict[str, float]:
    """Parse the data file into a flat dict of floats.

    Comments start with ``#`` and may follow a value on the same line.
    Unknown keys, non-finite values and files missing any known key are rejected.
    """
    path = Path(path) if path is not None else default_data_path()
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc

    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from exc
        if not isfinite(values[key]):
            raise ConfigError(f"{path}:{lineno}: {key!r} is not a finite number")

    missing = KNOWN_KEYS - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    return values
