"""Exact HE11 eigenmode of a vacuum-clad step-index nanofiber.

Solves the full hybrid-mode characteristic equation (azimuthal order 1) of a
two-layer cylindrical waveguide and evaluates the complex vector E field of
quasi-linearly polarized superpositions anywhere inside or outside the fiber,
including counter-propagating (standing-wave) configurations.

Geometry and conventions
------------------------
* Cylindrical coordinates (r, phi, z), fiber axis along z.  The plane P that
  contains the trapped atoms is the x-z plane (phi = 0 and phi = pi).
* ``polarization_angle`` is the azimuthal angle of the transverse principal
  axis of a quasi-linear mode, measured from plane P.
* The global phase of each beam is fixed by making the dominant transverse
  field component real and positive at (r = a+, phi = polarization_angle,
  z = 0).
* Fields are complex positive-frequency envelopes in V/m; intensities are
  |E|^2 in (V/m)^2.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import constants as cst
from .atom_cs import default_atomic_data
from .constants import load_constants  # noqa: F401  unused; perfbench/tracer.py patches this name
from .errors import DomainError, ModeStateError, NoModeError
from .numerics import bessel_j, bessel_k, find_root

__all__ = [
    "FiberSpec",
    "GuidedMode",
    "LightField",
    "PolarGrid",
    "refractive_index",
    "v_number",
    "solve_he11",
    "field_at",
    "ellipticity",
    "intensity_map",
    "ellipticity_map",
    "write_csv",
    "write_field_map_csv",
    "write_scalar_map_csv",
]

SECOND_MODE_CUTOFF_V = 2.405  # first zero of J0: single-mode condition V < 2.405
GRID_COLUMNS = ["r_m", "phi_rad", "z_m"]  # leading CSV columns of every grid map

def refractive_index(sellmeier, wavelength_m: float) -> float:
    """Sellmeier index of a core with coefficients (B1, B2, B3, L1, L2, L3), L in um^2."""
    if not 0.4e-6 <= wavelength_m <= 1.5e-6:
        raise DomainError(
            f"wavelength {wavelength_m * 1e9:.1f} nm outside the 400-1500 nm validity range"
        )
    b1, b2, b3, l1, l2, l3 = sellmeier
    lam2 = (wavelength_m * 1e6) ** 2
    n2 = 1.0 + b1 * lam2 / (lam2 - l1) + b2 * lam2 / (lam2 - l2) + b3 * lam2 / (lam2 - l3)
    return float(np.sqrt(n2))


@dataclass(frozen=True)
class FiberSpec:
    """Step-index nanofiber: core radius and Sellmeier coefficients, vacuum outside.

    ``sellmeier`` defaults to the bundled data file's fused-silica fit.
    """

    radius: float  # m
    sellmeier: tuple[float, ...] = field(default_factory=lambda: default_atomic_data().sellmeier)
    exterior_index: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("fiber radius must be positive")

    def core_index(self, wavelength_m: float) -> float:
        n = refractive_index(self.sellmeier, wavelength_m)
        if n <= self.exterior_index:
            raise DomainError("core index must exceed the exterior index")
        return n


def v_number(fiber: FiberSpec, wavelength_m: float) -> float:
    """V = (2 pi a / lambda) sqrt(n_core^2 - n_ext^2)."""
    n1 = fiber.core_index(wavelength_m)
    n2 = fiber.exterior_index
    return 2 * np.pi * fiber.radius / wavelength_m * np.sqrt(n1**2 - n2**2)


def _bessel_ratios(u, w):
    """J1'(u)/(u J1(u)) and K1'(w)/(w K1(w)), the terms of the l = 1 eigenvalue equation."""
    j0, j1, j2 = bessel_j((0, 1, 2), u)
    k0, k1, k2 = bessel_k((0, 1, 2), w)
    return 0.5 * (j0 - j2) / (u * j1), -0.5 * (k0 + k2) / (w * k1)


def _characteristic(neff: float, k: float, a: float, n1: float, n2: float) -> float:
    """Hybrid-mode (l = 1) eigenvalue function; zero at the HE11 solution."""
    u = a * k * np.sqrt(n1**2 - neff**2)
    w = a * k * np.sqrt(neff**2 - n2**2)
    jj, kk = _bessel_ratios(u, w)
    return (jj + kk) * (n1**2 * jj + n2**2 * kk) - neff**2 * (1.0 / u**2 + 1.0 / w**2) ** 2


@dataclass(frozen=True)
class GuidedMode:
    """Solved HE11 eigenmode of one fiber at one wavelength.

    ``normalization`` is the field amplitude scale per sqrt(W) of guided
    power; ``s_parameter`` is the hybrid-mode mixing constant that fixes the
    longitudinal field admixture.
    """

    fiber: FiberSpec
    wavelength: float  # m
    beta: float  # rad/m
    interior_parameter: float  # 1/m
    exterior_parameter: float  # 1/m
    normalization: float  # V/m per sqrt(W)
    n_core: float
    n_ext: float
    s_parameter: float
    multimode: bool = False
    _phase_fix: complex = field(default=1.0 + 0j, repr=False)

    @property
    def effective_index(self) -> float:
        return self.beta * self.wavelength / (2 * np.pi)

    @property
    def guided_wavelength(self) -> float:
        return 2 * np.pi / self.beta

    @cached_property
    def exterior_scale(self) -> float:
        """J1(ha)/K1(qa): scales the cladding (K) solution to meet the core one at r = a."""
        a = self.fiber.radius
        u, w = self.interior_parameter * a, self.exterior_parameter * a
        return bessel_j(1, u) / bessel_k(1, w)


def solve_he11(fiber: FiberSpec, wavelength_m: float) -> GuidedMode:
    """Solve the exact HE11 characteristic equation and normalize the mode.

    The root is isolated by evaluating the characteristic function on a 1e-4
    effective-index grid in one vectorised call and refined by bisection to
    1e-12; the amplitude scale is fixed by the closed-form axial Poynting flux
    for unit guided power (no adaptive quadrature).
    """
    n1 = fiber.core_index(wavelength_m)
    n2 = fiber.exterior_index
    a = fiber.radius
    k = 2 * np.pi / wavelength_m
    v = v_number(fiber, wavelength_m)
    multimode = v >= SECOND_MODE_CUTOFF_V

    eps = 2e-6
    grid = np.arange(n2 + eps, n1 - eps, 1e-4)
    vals = _characteristic(grid, k, a, n1, n2)
    sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_changes.size == 0:
        raise NoModeError(
            f"no HE11 root for a={a * 1e9:.1f} nm at {wavelength_m * 1e9:.2f} nm (V={v:.3f})"
        )
    idx = sign_changes[-1]  # fundamental mode has the largest effective index
    neff = find_root(
        lambda x: _characteristic(x, k, a, n1, n2), grid[idx], grid[idx + 1], 1e-12
    )

    beta = neff * k
    h = np.sqrt((n1 * k) ** 2 - beta**2)
    q = np.sqrt(beta**2 - (n2 * k) ** 2)
    u, w = h * a, q * a
    jj, kk = _bessel_ratios(u, w)
    s_param = (1.0 / u**2 + 1.0 / w**2) / (jj + kk)

    mode = GuidedMode(
        fiber=fiber,
        wavelength=wavelength_m,
        beta=beta,
        interior_parameter=h,
        exterior_parameter=q,
        normalization=1.0,
        n_core=n1,
        n_ext=n2,
        s_parameter=s_param,
        multimode=multimode,
    )
    power_unit = _guided_power_unit_amplitude(mode)
    norm = 1.0 / np.sqrt(power_unit)

    # fix the global phase: dominant transverse component real and positive
    # just outside the surface on the polarization axis
    e_r, _, _ = _radial_profiles_e(mode, np.array([a * (1 + 1e-9)]))
    ph = np.sqrt(2.0) * e_r[0] * norm
    return replace(mode, normalization=norm, _phase_fix=np.conj(ph) / abs(ph))


def _radial_profiles_e(mode: GuidedMode, r: np.ndarray):
    """Radial E-field profiles (e_r, e_phi, e_z) of the unit-amplitude p=+1 mode.

    Each branch (Bessel J inside the core, K outside) is evaluated only at
    the radii it applies to.
    """
    a = mode.fiber.radius
    beta, h, q, s = mode.beta, mode.interior_parameter, mode.exterior_parameter, mode.s_parameter
    r = np.asarray(r, dtype=float)
    inside = r < a

    def interior(rr):
        j0, j1, j2 = bessel_j((0, 1, 2), h * rr)
        er_in = 1j * beta / (2 * h) * ((1 - s) * j0 - (1 + s) * j2)
        ephi_in = -beta / (2 * h) * ((1 - s) * j0 + (1 + s) * j2)
        return er_in, ephi_in, j1

    def exterior(rr):
        c_out = mode.exterior_scale
        k0, k1, k2 = bessel_k((0, 1, 2), q * rr)
        er_out = 1j * c_out * beta / (2 * q) * ((1 - s) * k0 + (1 + s) * k2)
        ephi_out = -c_out * beta / (2 * q) * ((1 - s) * k0 - (1 + s) * k2)
        return er_out, ephi_out, c_out * k1

    e_r = np.empty(r.shape, dtype=complex)
    e_phi = np.empty(r.shape)
    e_z = np.empty(r.shape)
    for mask, branch in ((inside, interior), (~inside, exterior)):
        if mask.any():
            e_r[mask], e_phi[mask], e_z[mask] = branch(r[mask])
    return e_r, e_phi, e_z


def _guided_power_unit_amplitude(mode: GuidedMode) -> float:
    """Axial Poynting flux of the unit-amplitude circular mode, in W.

    Closed form of Le Kien, Liang, Hakuta & Balykin, Opt. Commun. 242, 445
    (2004): the azimuthal integral is 2 pi, the J0 J2 (K0 K2) cross terms of
    the flux cancel, and the radial integrals of J_n^2 r and K_n^2 r are
    Lommel integrals.
    """
    a = mode.fiber.radius
    beta, h, q, s = mode.beta, mode.interior_parameter, mode.exterior_parameter, mode.s_parameter
    k = 2 * np.pi / mode.wavelength
    n1, n2 = mode.n_core, mode.n_ext
    s1 = s * (beta / (k * n1)) ** 2
    s2 = s * (beta / (k * n2)) ** 2
    j0, j1, j2, j3 = bessel_j((0, 1, 2, 3), h * a)
    k0, k1, k2, k3 = bessel_k((0, 1, 2, 3), q * a)
    # a^2/2 times the Lommel brackets: int_0^a J_n(hr)^2 r dr, int_a^inf K_n(qr)^2 r dr
    inner = (n1 / h) ** 2 * (
        (1 - s) * (1 - s1) * (j0**2 + j1**2) + (1 + s) * (1 + s1) * (j2**2 - j1 * j3)
    )
    outer = (n2 * j1 / (q * k1)) ** 2 * (
        (1 - s) * (1 - s2) * (k1**2 - k0**2) + (1 + s) * (1 + s2) * (k1 * k3 - k2**2)
    )
    omega = 2 * np.pi * cst.c / mode.wavelength
    return 0.25 * np.pi * omega * cst.epsilon_0 * beta * a**2 * (inner + outer)


@dataclass(frozen=True)
class LightField:
    """A physical nanofiber-guided beam (or counter-propagating pair).

    ``power`` is the power of the forward (direction) beam in W; a standing
    wave carries a second beam of ``backward_power`` with ``relative_phase``
    applied to it at z = 0.
    """

    mode: GuidedMode
    power: float  # W per propagating beam
    polarization_angle: float = 0.0  # rad from plane P
    direction: int = +1  # +1 -> +z, -1 -> -z
    configuration: str = "running"  # "running" | "standing"
    backward_power: float = 0.0
    relative_phase: float = 0.0

    def __post_init__(self):
        if self.power < 0 or self.backward_power < 0:
            raise DomainError("beam powers must be non-negative")
        if self.direction not in (+1, -1):
            raise DomainError("direction must be +1 or -1")
        if self.configuration not in ("running", "standing"):
            raise DomainError(f"unknown configuration {self.configuration!r}")
        if not isinstance(self.mode, GuidedMode):
            raise ModeStateError("LightField requires a solved GuidedMode")

    def beams(self):
        """(power, propagation sign, extra phase) per physical beam."""
        out = [(self.power, self.direction, 0.0)]
        if self.configuration == "standing":
            out.append((self.backward_power, -self.direction, self.relative_phase))
        return out


def field_at(light: LightField, r, phi, z, profiles=None):
    """Complex E field (V/m) of the beam configuration, Cartesian components.

    Returns an array of shape broadcast(r, phi, z) + (3,) with components
    along (x, y, z); z is the fiber axis.  Quasi-linear polarization along
    ``polarization_angle``; standing waves sum the two counter-propagating
    fields with their relative phase.  Radial profiles are evaluated on the
    unbroadcast ``r``, or taken from ``profiles`` (``_radial_profiles_e`` at r).
    """
    mode = light.mode
    r, phi, z = (np.asarray(v, dtype=float) for v in (r, phi, z))
    if (r < 0).any():
        raise DomainError("radius must be non-negative")
    theta0 = light.polarization_angle
    e_r, e_phi, e_z = _radial_profiles_e(mode, r) if profiles is None else profiles

    total = np.zeros(np.broadcast_shapes(r.shape, phi.shape, z.shape) + (3,), dtype=complex)
    for power, direction, extra_phase in light.beams():
        if power == 0.0:
            continue
        amp = mode.normalization * np.sqrt(power) * mode._phase_fix * np.exp(1j * extra_phase)
        cosd = np.cos(phi - theta0)
        sind = np.sin(phi - theta0)
        prop = np.exp(1j * direction * mode.beta * z)
        er = np.sqrt(2.0) * e_r * cosd * amp * prop
        ep = np.sqrt(2.0) * 1j * e_phi * sind * amp * prop
        ez = np.sqrt(2.0) * e_z * cosd * amp * prop * direction
        total[..., 0] += er * np.cos(phi) - ep * np.sin(phi)
        total[..., 1] += er * np.sin(phi) + ep * np.cos(phi)
        total[..., 2] += ez
    return total


@dataclass(frozen=True)
class PolarGrid:
    """Sampling grid for field and intensity maps."""

    r_min: float
    r_max: float
    n_r: int
    n_phi: int
    z: float = 0.0

    def __post_init__(self):
        if self.r_min < 0:
            raise DomainError("grid must not start inside r = 0")
        if self.r_max <= self.r_min:
            raise DomainError("r_max must exceed r_min")
        if self.n_r < 1 or self.n_phi < 1:
            raise DomainError("grid needs at least one sample per axis")

    def axes(self):
        r = np.linspace(self.r_min, self.r_max, self.n_r)
        phi = np.linspace(0.0, 2 * np.pi, self.n_phi, endpoint=False)
        return r, phi

    def mesh(self):
        """Sparse (r, phi) axes, shapes (n_r, 1) and (1, n_phi): row-major, r outer."""
        r, phi = self.axes()
        return np.meshgrid(r, phi, indexing="ij", sparse=True)

    def table(self, values: np.ndarray) -> np.ndarray:
        """(r, phi, z, *values) per node, shape (n_r, n_phi, 3 + k), for ``GRID_COLUMNS``."""
        rr, pp = np.broadcast_arrays(*self.mesh())
        nodes = np.stack([rr, pp, np.full_like(rr, self.z)], axis=-1)
        return np.concatenate((nodes, values), axis=-1)


def intensity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """|E|^2 sampled on the polar grid, shape (n_r, n_phi), units (V/m)^2."""
    rr, pp = grid.mesh()
    e = field_at(light, rr, pp, grid.z)
    return np.sum(np.abs(e) ** 2, axis=-1)


def ellipticity(e_field) -> np.ndarray:
    """Ellipticity vector i(E x E*)/|E|^2 of a complex field amplitude.

    Zero for a purely linear local field, unit magnitude for a fully
    circular one; supports trailing-axis broadcasting over field arrays.
    Raises DomainError where the field vanishes.
    """
    e = np.asarray(e_field, dtype=complex)
    norm = np.sum(np.abs(e) ** 2, axis=-1)
    if np.any(norm == 0.0):
        raise DomainError("ellipticity undefined at a zero of the field")
    return _spin_density(e) / norm[..., None]


def _spin_density(e):
    """i(E x E*) = |E|^2 eps of a complex field array (trailing axis)."""
    return np.real(1j * np.cross(e, np.conj(e)))


def ellipticity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """Ellipticity vector on the grid, shape (n_r, n_phi, 3); DomainError at a zero of the field."""
    rr, pp = grid.mesh()
    return ellipticity(field_at(light, rr, pp, grid.z))


@contextmanager
def atomic_open(path):
    """Text file handle (LF line endings) whose content replaces ``path`` only on success.

    Writes go to a temporary file in the same directory, which is moved onto
    ``path`` when the block ends normally and deleted when it raises, so
    ``path`` is never left partly written.  The file is created with the
    permissions of a plain ``open`` (0o666 less the umask).
    """
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header_lines, columns, table):
    """Write a float table as CSV: ``# `` header lines, the column line, rows, LF endings.

    ``table`` has shape (..., len(columns)) and its rows are written in C
    order as repr(float), one block of its last two axes at a time, so no
    full table of text is held.  The file is replaced atomically
    (``atomic_open``).
    """
    table = np.asarray(table, dtype=float)
    with atomic_open(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for block in table.reshape(-1, *table.shape[-2:]):
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())


def write_field_map_csv(path, light: LightField, grid: PolarGrid, header_lines=()):
    """Write the complex field on the grid as CSV (row-major: r outer, phi inner)."""
    rr, pp = grid.mesh()
    e = field_at(light, rr, pp, grid.z)
    columns = ["Ex_re", "Ex_im", "Ey_re", "Ey_im", "Ez_re", "Ez_im"]  # (re, im) per component
    write_csv(path, header_lines, [*GRID_COLUMNS, *columns], grid.table(e.view(float)))


def write_scalar_map_csv(path, grid: PolarGrid, values: np.ndarray, column: str, header_lines=()):
    """Write one scalar per grid node (same row order as the field map)."""
    values = np.asarray(values, dtype=float)[..., None]
    write_csv(path, header_lines, [*GRID_COLUMNS, column], grid.table(values))
