"""CODATA 2022 physical constants, the ``key = value`` file reader and the atomic data loader.

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


def stripped_lines(path: str | Path, what: str):
    """(line number, text) of each non-blank line of ``path``, ``#`` comments removed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_key_values(path: str | Path, what: str, known, parse) -> dict:
    """The ``key = value`` lines of ``path``, keys prefixed by their ``[section]``.

    Malformed lines, keys not in ``known``, repeated keys and values that
    ``parse(key, raw)`` rejects with a ValueError raise a ConfigError naming ``path:line``.
    """
    values: dict = {}
    section = ""
    for lineno, line in stripped_lines(path, what):
        where = f"{path}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip() + "."
            continue
        key, eq, raw = line.partition("=")
        key = section + key.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = parse(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    return values


def _finite(key: str, raw: str) -> float:
    value = float(raw)
    if not isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def load_constants(path: str | Path | None = None) -> dict[str, float]:
    """Parse the data file into a flat dict of floats.

    Comments start with ``#`` and may follow a value on the same line.  Unknown
    or repeated keys, non-finite values and files missing any known key are rejected.
    """
    path = Path(path) if path is not None else default_data_path()
    values = read_key_values(path, "data file", KNOWN_KEYS, _finite)
    missing = KNOWN_KEYS - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    return values
