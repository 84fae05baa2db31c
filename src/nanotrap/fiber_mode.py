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

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import constants as cst
from scipy import integrate, special

from .constants import load_constants
from .errors import DomainError, ModeStateError, NoModeError
from .numerics import find_root

__all__ = [
    "FiberSpec",
    "GuidedMode",
    "LightField",
    "PolarGrid",
    "refractive_index",
    "v_number",
    "solve_he11",
    "field_at",
    "intensity_map",
    "ellipticity_map",
    "write_field_map_csv",
    "write_scalar_map_csv",
]

SECOND_MODE_CUTOFF_V = 2.405  # first zero of J0: single-mode condition V < 2.405

_SELLMEIER_CACHE: dict[str, tuple[float, ...]] = {}


def _sellmeier_coefficients(model: str) -> tuple[float, ...]:
    if model not in _SELLMEIER_CACHE:
        if model != "fused_silica":
            raise DomainError(f"unknown index model {model!r}")
        c = load_constants()
        _SELLMEIER_CACHE[model] = (
            c["sellmeier_b1"],
            c["sellmeier_b2"],
            c["sellmeier_b3"],
            c["sellmeier_l1_um2"],
            c["sellmeier_l2_um2"],
            c["sellmeier_l3_um2"],
        )
    return _SELLMEIER_CACHE[model]


def refractive_index(model: str, wavelength_m: float) -> float:
    """Sellmeier refractive index of the core material at the given wavelength."""
    if not 0.4e-6 <= wavelength_m <= 1.5e-6:
        raise DomainError(
            f"wavelength {wavelength_m * 1e9:.1f} nm outside the 400-1500 nm validity range"
        )
    b1, b2, b3, l1, l2, l3 = _sellmeier_coefficients(model)
    lam2 = (wavelength_m * 1e6) ** 2
    n2 = 1.0 + b1 * lam2 / (lam2 - l1) + b2 * lam2 / (lam2 - l2) + b3 * lam2 / (lam2 - l3)
    return float(np.sqrt(n2))


@dataclass(frozen=True)
class FiberSpec:
    """Step-index nanofiber: core radius plus dispersion model, vacuum outside."""

    radius: float  # m
    index_model: str = "fused_silica"
    exterior_index: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("fiber radius must be positive")

    def core_index(self, wavelength_m: float) -> float:
        n = refractive_index(self.index_model, wavelength_m)
        if n <= self.exterior_index:
            raise DomainError("core index must exceed the exterior index")
        return n


def v_number(fiber: FiberSpec, wavelength_m: float) -> float:
    """V = (2 pi a / lambda) sqrt(n_core^2 - n_ext^2)."""
    n1 = fiber.core_index(wavelength_m)
    n2 = fiber.exterior_index
    return 2 * np.pi * fiber.radius / wavelength_m * np.sqrt(n1**2 - n2**2)


def _characteristic(neff: float, k: float, a: float, n1: float, n2: float) -> float:
    """Hybrid-mode (l = 1) eigenvalue function; zero at the HE11 solution."""
    u = a * k * np.sqrt(n1**2 - neff**2)
    w = a * k * np.sqrt(neff**2 - n2**2)
    j0, j1, j2 = special.jv(0, u), special.jv(1, u), special.jv(2, u)
    k0, k1, k2 = special.kv(0, w), special.kv(1, w), special.kv(2, w)
    jj = 0.5 * (j0 - j2) / (u * j1)
    kk = -0.5 * (k0 + k2) / (w * k1)
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
        return special.jv(1, u) / special.kv(1, w)


def solve_he11(fiber: FiberSpec, wavelength_m: float) -> GuidedMode:
    """Solve the exact HE11 characteristic equation and normalize the mode.

    The root is isolated by scanning the effective index on a 1e-4 grid and
    refined to 1e-12; the amplitude scale is fixed by integrating the axial
    Poynting flux over the cross-section for unit guided power.
    """
    n1 = fiber.core_index(wavelength_m)
    n2 = fiber.exterior_index
    a = fiber.radius
    k = 2 * np.pi / wavelength_m
    v = v_number(fiber, wavelength_m)
    multimode = v >= SECOND_MODE_CUTOFF_V

    eps = 2e-6
    grid = np.arange(n2 + eps, n1 - eps, 1e-4)
    vals = np.array([_characteristic(x, k, a, n1, n2) for x in grid])
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
    jj = 0.5 * (special.jv(0, u) - special.jv(2, u)) / (u * special.jv(1, u))
    kk = -0.5 * (special.kv(0, w) + special.kv(2, w)) / (w * special.kv(1, w))
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
    phase_fix = np.conj(ph) / abs(ph)

    return GuidedMode(
        fiber=fiber,
        wavelength=wavelength_m,
        beta=beta,
        interior_parameter=h,
        exterior_parameter=q,
        normalization=norm,
        n_core=n1,
        n_ext=n2,
        s_parameter=s_param,
        multimode=multimode,
        _phase_fix=phase_fix,
    )


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
        hr = h * rr
        j0, j2 = special.jv(0, hr), special.jv(2, hr)
        er_in = 1j * beta / (2 * h) * ((1 - s) * j0 - (1 + s) * j2)
        ephi_in = -beta / (2 * h) * ((1 - s) * j0 + (1 + s) * j2)
        return er_in, ephi_in, special.jv(1, hr)

    def exterior(rr):
        c_out = mode.exterior_scale
        qr = q * rr
        k0, k2 = special.kv(0, qr), special.kv(2, qr)
        er_out = 1j * c_out * beta / (2 * q) * ((1 - s) * k0 + (1 + s) * k2)
        ephi_out = -c_out * beta / (2 * q) * ((1 - s) * k0 - (1 + s) * k2)
        return er_out, ephi_out, c_out * special.kv(1, qr)

    e_r = np.empty(r.shape, dtype=complex)
    e_phi = np.empty(r.shape)
    e_z = np.empty(r.shape)
    for mask, branch in ((inside, interior), (~inside, exterior)):
        if mask.any():
            e_r[mask], e_phi[mask], e_z[mask] = branch(r[mask])
    return e_r, e_phi, e_z


def _radial_profiles_h(mode: GuidedMode, r: np.ndarray):
    """Radial H-field profiles (h_r, h_phi, h_z) of the unit-amplitude p=+1 mode."""
    a = mode.fiber.radius
    beta, h, q, s = mode.beta, mode.interior_parameter, mode.exterior_parameter, mode.s_parameter
    omega = 2 * np.pi * cst.c / mode.wavelength
    r = np.asarray(r, dtype=float)
    inside = r < a

    b_amp = 1j * beta * s / (omega * cst.mu_0)  # H_z amplitude for unit E_z amplitude

    hr = h * np.where(inside, r, a)
    j0, j1, j2 = special.jv(0, hr), special.jv(1, hr), special.jv(2, hr)
    d_hz = b_amp * h * 0.5 * (j0 - j2)
    hz_over_r = b_amp * h * 0.5 * (j0 + j2)
    d_ez = h * 0.5 * (j0 - j2)
    ez_over_r = h * 0.5 * (j0 + j2)
    n2_in = mode.n_core**2
    hr_in = (1j / h**2) * (beta * d_hz - 1j * omega * cst.epsilon_0 * n2_in * ez_over_r)
    hphi_in = (1j / h**2) * (1j * beta * hz_over_r + omega * cst.epsilon_0 * n2_in * d_ez)
    hz_in = b_amp * j1

    u, w = h * a, q * a
    c_out = special.jv(1, u) / special.kv(1, w)
    qr = q * np.where(inside, a, r)
    k0, k1v, k2 = special.kv(0, qr), special.kv(1, qr), special.kv(2, qr)
    d_hz_o = b_amp * c_out * q * (-0.5) * (k0 + k2)
    hz_over_r_o = b_amp * c_out * q * 0.5 * (k2 - k0)
    d_ez_o = c_out * q * (-0.5) * (k0 + k2)
    ez_over_r_o = c_out * q * 0.5 * (k2 - k0)
    n2_out = mode.n_ext**2
    hr_out = (-1j / q**2) * (beta * d_hz_o - 1j * omega * cst.epsilon_0 * n2_out * ez_over_r_o)
    hphi_out = (-1j / q**2) * (1j * beta * hz_over_r_o + omega * cst.epsilon_0 * n2_out * d_ez_o)
    hz_out = b_amp * c_out * k1v

    h_r = np.where(inside, hr_in, hr_out)
    h_phi = np.where(inside, hphi_in, hphi_out)
    h_z = np.where(inside, hz_in, hz_out)
    return h_r, h_phi, h_z


def _guided_power_unit_amplitude(mode: GuidedMode) -> float:
    """Axial Poynting flux of the unit-amplitude circular mode, in W.

    Azimuthal integrals are analytic (2 pi for the circular constituent);
    the radial integral uses adaptive quadrature inside and outside.
    """
    a = mode.fiber.radius

    def s_z(r):
        rr = np.atleast_1d(r)
        e_r, e_phi, _ = _radial_profiles_e(mode, rr)
        h_r, h_phi, _ = _radial_profiles_h(mode, rr)
        val = 0.5 * np.real(e_r * np.conj(h_phi) - e_phi * np.conj(h_r))
        return val[0] * r

    inner, _ = integrate.quad(s_z, 0.0, a, limit=200, epsabs=0.0, epsrel=1e-12)
    r_far = a + 60.0 / mode.exterior_parameter
    outer, _ = integrate.quad(s_z, a, r_far, limit=200, epsabs=0.0, epsrel=1e-12)
    return 2 * np.pi * (inner + outer)


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


def field_at(light: LightField, r, phi, z):
    """Complex E field (V/m) of the beam configuration, Cartesian components.

    Returns an array of shape broadcast(r, phi, z) + (3,) with components
    along (x, y, z); z is the fiber axis.  Quasi-linear polarization along
    ``polarization_angle``; standing waves sum the two counter-propagating
    fields with their relative phase.
    """
    mode = light.mode
    r, phi, z = np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(phi, dtype=float), np.asarray(z, dtype=float)
    )
    if (r < 0).any():
        raise DomainError("radius must be non-negative")
    theta0 = light.polarization_angle
    e_r, e_phi, e_z = _radial_profiles_e(mode, r)

    total = np.zeros(r.shape + (3,), dtype=complex)
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
        r, phi = self.axes()
        rr, pp = np.meshgrid(r, phi, indexing="ij")  # row-major: r outer, phi inner
        return rr, pp


def intensity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """|E|^2 sampled on the polar grid, shape (n_r, n_phi), units (V/m)^2."""
    rr, pp = grid.mesh()
    e = field_at(light, rr, pp, grid.z)
    return np.sum(np.abs(e) ** 2, axis=-1)


def ellipticity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """Ellipticity vector i(E x E*)/|E|^2 on the grid, shape (n_r, n_phi, 3)."""
    rr, pp = grid.mesh()
    e = field_at(light, rr, pp, grid.z)
    cross = np.cross(e, np.conj(e))
    norm = np.sum(np.abs(e) ** 2, axis=-1)
    return np.real(1j * cross) / norm[..., None]


_FIELD_HEADER = ["r_m", "phi_rad", "z_m", "Ex_re", "Ex_im", "Ey_re", "Ey_im", "Ez_re", "Ez_im"]


def write_field_map_csv(path, light: LightField, grid: PolarGrid, header_lines=()):
    """Write the complex field on the grid as CSV (row-major: r outer, phi inner)."""
    rr, pp = grid.mesh()
    e = field_at(light, rr, pp, grid.z)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(_FIELD_HEADER)
        for i in range(grid.n_r):
            for j in range(grid.n_phi):
                ex, ey, ez = e[i, j]
                writer.writerow(
                    [
                        repr(float(rr[i, j])),
                        repr(float(pp[i, j])),
                        repr(float(grid.z)),
                        repr(float(ex.real)),
                        repr(float(ex.imag)),
                        repr(float(ey.real)),
                        repr(float(ey.imag)),
                        repr(float(ez.real)),
                        repr(float(ez.imag)),
                    ]
                )


def write_scalar_map_csv(path, grid: PolarGrid, values: np.ndarray, column: str, header_lines=()):
    """Write one scalar per grid node (same row order as the field map)."""
    rr, pp = grid.mesh()
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["r_m", "phi_rad", "z_m", column])
        for i in range(grid.n_r):
            for j in range(grid.n_phi):
                writer.writerow(
                    [
                        repr(float(rr[i, j])),
                        repr(float(pp[i, j])),
                        repr(float(grid.z)),
                        repr(float(values[i, j])),
                    ]
                )
