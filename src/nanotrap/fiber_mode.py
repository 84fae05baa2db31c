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
* The global phase of each beam makes the dominant transverse field
  component real and positive at (r = a+, phi = polarization_angle, z = 0):
  it is -i for every HE11 mode (``solve_he11``).
* Fields are complex positive-frequency envelopes in V/m; intensities are
  |E|^2 in (V/m)^2.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import constants as cst
from .atom_cs import default_atomic_data
from .constants import load_constants  # noqa: F401  unused; perfbench/tracer.py patches this name
from .errors import DomainError, ModeStateError, NoModeError
from .numerics import K_MIN_ARG, bessel_j, bessel_k, bessel_k_scalar, find_root

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
J1_FIRST_ZERO = 3.8317  # just below j_{1,1} = 3.83171, the least u of an l = 1 root other than HE11
GRID_COLUMNS = ["r_m", "phi_rad", "z_m"]  # leading CSV columns of every grid map
SCAN_OFFSETS = np.linspace(20e-9, 1200e-9, 64)  # the trap search's radial scan, m above the surface
SELLMEIER_RANGE_M = (0.4e-6, 1.5e-6)  # the wavelengths, closed interval, where the Sellmeier fit holds

def refractive_index(sellmeier, wavelength_m: float) -> float:
    """Sellmeier index of a core with coefficients (B1, B2, B3, L1, L2, L3), L in um^2."""
    low, high = SELLMEIER_RANGE_M
    if not low <= wavelength_m <= high:
        raise DomainError(
            f"wavelength {wavelength_m * 1e9:.1f} nm outside the {low * 1e9:.0f}-{high * 1e9:.0f} nm"
            " validity range")
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

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("fiber radius must be positive")

    def core_index(self, wavelength_m: float) -> float:
        n = refractive_index(self.sellmeier, wavelength_m)
        if n <= 1.0:
            raise DomainError("core index must exceed the exterior (vacuum) index")
        return n


def v_number(fiber: FiberSpec, wavelength_m: float) -> float:
    """V = (2 pi a / lambda) sqrt(n_core^2 - 1), vacuum outside."""
    n1 = fiber.core_index(wavelength_m)
    return 2 * np.pi * fiber.radius / wavelength_m * np.sqrt(n1**2 - 1.0)


def _bessel_ratios(u, w, j, k):
    """J1'(u)/(u J1(u)) and K1'(w)/(w K1(w)) from J_0.. of u and K_0.. of w: the l = 1 eigenvalue terms."""
    return 0.5 * (j[0] - j[2]) / (u * j[1]), -0.5 * (k[0] + k[2]) / (w * k[1])


def _characteristic(neff: float, k: float, a: float, n1: float) -> float:
    """Hybrid-mode (l = 1) eigenvalue function of a vacuum-clad core; zero at the HE11 solution."""
    u = a * k * np.sqrt(n1**2 - neff**2)
    w = a * k * np.sqrt(neff**2 - 1.0)
    jj, kk = _bessel_ratios(u, w, bessel_j((0, 1, 2), u), bessel_k((0, 1, 2), w))
    return (jj + kk) * (n1**2 * jj + kk) - neff**2 * (1.0 / u**2 + 1.0 / w**2) ** 2


@dataclass(frozen=True)
class GuidedMode:
    """Solved HE11 eigenmode of one fiber at one wavelength.

    ``normalization`` is the field amplitude scale per sqrt(W) of guided
    power; ``s_parameter`` is the hybrid-mode mixing constant that fixes the
    longitudinal field admixture; ``exterior_scale`` and ``scan_bessel`` are cached per instance.
    """

    fiber: FiberSpec
    wavelength: float  # m
    beta: float  # rad/m
    interior_parameter: float  # 1/m
    exterior_parameter: float  # 1/m
    normalization: float  # V/m per sqrt(W)
    n_core: float
    s_parameter: float
    multimode: bool = False

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

    @cached_property
    def scan_bessel(self) -> np.ndarray:
        """K_0, K_1, K_2 of q r at the trap search's scan radii a + ``SCAN_OFFSETS``, shape (3, 64)."""
        table = bessel_k((0, 1, 2), (self.fiber.radius + SCAN_OFFSETS) * self.exterior_parameter)
        return np.lib.stride_tricks.as_strided(table, writeable=False)  # every scan reads this one array


def solve_he11(fiber: FiberSpec, wavelength_m: float) -> GuidedMode:
    """Solve the exact HE11 characteristic equation and normalize the mode.

    The HE11 root has u = a k sqrt(n1^2 - neff^2) < j_{0,1} = 2.405; every other
    l = 1 root, and every positive zero of J1, has u >= j_{1,1} = 3.832.  So above
    neff = sqrt(n1^2 - (``J1_FIRST_ZERO`` / (a k))^2) (all of (1, n1) when V < 3.83)
    the characteristic function changes sign once, at the HE11 root, and bisection
    on that bracket, less 2e-6 at each end, finds it to 1e-12 in about 40
    evaluations; J is never needed beyond u = 3.83, so a fiber with V > 30 solves
    too.  One evaluation of J_0..J_3(u) and of K_0..K_3(w) (``bessel_k_scalar``, no
    SIMD dependence) gives the s parameter and the closed-form flux for unit power.

    The global phase factor is -i.  At the root u J1'/J1 = (neff^2 s - 1/s) / (neff^2 - 1)
    and w K1'/K1 = (n1^2/s - neff^2 s) / (n1^2 - neff^2).  J_0, J_1, J_2 > 0 on u < j_{0,1},
    so u J1'/J1 = u J0/J1 - 1 = 1 - u J2/J1 is in (-1, 1): s in (-1, -1/neff^2) or (1/neff^2, 1).
    w K1'/K1 = -w K0/K1 - 1 < -1 excludes 0 < s < 1.  So -1 < s < 0 (-0.9999949 to -0.7931 for
    80-2000 nm radii at 410-1500 nm), and e_r = i (beta/2q) (J1/K1) ((1 - s) K0 + (1 + s) K2)
    at r = a+ is +i times a positive number.
    """
    n1 = fiber.core_index(wavelength_m)
    a = fiber.radius
    k = 2 * np.pi / wavelength_m
    v = v_number(fiber, wavelength_m)
    multimode = v >= SECOND_MODE_CUTOFF_V

    def f(x):
        return _characteristic(x, k, a, n1)

    # below V = j_{1,1} all of (1, n1), with 1/(a k) unsquared (a 1e-300 m fiber overflows it);
    # a fiber too thin for K(w) at lo has its root, if any, below n_eff = 1 + 2e-6
    lo = max(1.0 + 2e-6, np.sqrt(0.0 if v < J1_FIRST_ZERO else n1**2 - (J1_FIRST_ZERO / (a * k)) ** 2))
    hi = n1 - 2e-6
    if lo >= hi or a * k * np.sqrt(lo**2 - 1.0) < K_MIN_ARG or f(lo) * f(hi) >= 0:
        raise NoModeError(
            f"no HE11 root for a={a * 1e9:.4g} nm at {wavelength_m * 1e9:.2f} nm (V={v:.4g})"
        )
    neff = find_root(f, lo, hi, 1e-12)

    beta = neff * k
    h = np.sqrt((n1 * k) ** 2 - beta**2)
    q = np.sqrt(beta**2 - k**2)
    u, w = h * a, q * a
    j, kv = bessel_j((0, 1, 2, 3), u), bessel_k_scalar((0, 1, 2, 3), w)
    jj, kk = _bessel_ratios(u, w, j, kv)
    s_param = (1.0 / u**2 + 1.0 / w**2) / (jj + kk)
    power_unit = _guided_power_unit_amplitude(a, wavelength_m, n1, beta, h, q, s_param, j, kv)
    return GuidedMode(fiber=fiber, wavelength=wavelength_m, beta=beta, interior_parameter=h,
                      exterior_parameter=q, normalization=1.0 / np.sqrt(power_unit), n_core=n1,
                      s_parameter=s_param, multimode=multimode)


def _profiles(mode, r):
    """Radial E-field profiles (e_r, e_phi, e_z) of the unit-amplitude p=+1 mode.

    Each has shape r.shape + (1,), a trailing axis for the beams of ``field_at``.
    Each branch (Bessel J inside the core, K outside) is one Bessel call at the
    radii it applies to.
    """
    r = np.asarray(r, dtype=float)
    names = ("beta", "interior_parameter", "exterior_parameter", "s_parameter", "exterior_scale")
    beta, h, q, s, c_out = (np.array([getattr(mode, name)]) for name in names)

    # 1j times a real quotient equals the scalar 1j * beta / (2 h) bit for bit: numpy
    # divides a complex scalar by a real one per component (a complex array would not)
    def interior(rr):
        j0, j1, j2 = bessel_j((0, 1, 2), rr[..., None] * h)
        er_in = 1j * (beta / (2 * h)) * ((1 - s) * j0 - (1 + s) * j2)
        ephi_in = -beta / (2 * h) * ((1 - s) * j0 + (1 + s) * j2)
        return er_in, ephi_in, j1

    def exterior(rr):
        k0, k1, k2 = bessel_k((0, 1, 2), rr[..., None] * q)
        er_out = 1j * (c_out * beta / (2 * q)) * ((1 - s) * k0 + (1 + s) * k2)
        ephi_out = -c_out * beta / (2 * q) * ((1 - s) * k0 - (1 + s) * k2)
        return er_out, ephi_out, c_out * k1

    inside = r < mode.fiber.radius
    if (n_inside := np.count_nonzero(inside)) in (0, r.size):  # one side of the surface: no scatter
        return (interior if n_inside else exterior)(r)
    e_r = np.empty(r.shape + (1,), dtype=complex)
    e_phi, e_z = np.empty(e_r.shape), np.empty(e_r.shape)
    for mask, branch in ((inside, interior), (~inside, exterior)):
        e_r[mask], e_phi[mask], e_z[mask] = branch(r[mask])
    return e_r, e_phi, e_z


def _guided_power_unit_amplitude(a, wavelength, n1, beta, h, q, s, j, k_values) -> float:
    """Axial Poynting flux (W) of the unit-amplitude circular mode, from J_0..J_3(h a) and K_0..K_3(q a).

    Closed form of Le Kien, Liang, Hakuta & Balykin, Opt. Commun. 242, 445
    (2004): the azimuthal integral is 2 pi, the J0 J2 (K0 K2) cross terms of
    the flux cancel, and the radial integrals of J_n^2 r and K_n^2 r are
    Lommel integrals.
    """
    k = 2 * np.pi / wavelength
    s1 = s * (beta / (k * n1)) ** 2
    s2 = s * (beta / k) ** 2
    (j0, j1, j2, j3), (k0, k1, k2, k3) = j, k_values
    # a^2/2 times the Lommel brackets: int_0^a J_n(hr)^2 r dr, int_a^inf K_n(qr)^2 r dr
    inner = (n1 / h) ** 2 * (
        (1 - s) * (1 - s1) * (j0**2 + j1**2) + (1 + s) * (1 + s1) * (j2**2 - j1 * j3)
    )
    outer = (j1 / (q * k1)) ** 2 * (
        (1 - s) * (1 - s2) * (k1**2 - k0**2) + (1 + s) * (1 + s2) * (k1 * k3 - k2**2)
    )
    omega = 2 * np.pi * cst.c / wavelength
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


def field_at(light: LightField, r, phi, z):
    """Complex E field (V/m) of the beam configuration, Cartesian components.

    Returns an array of shape broadcast(r, phi, z) + (3,) with components
    along (x, y, z); z is the fiber axis.  Quasi-linear polarization along
    ``polarization_angle``; standing waves sum the two counter-propagating
    fields with their relative phase.  Radial profiles are evaluated on the
    unbroadcast ``r``.
    """
    r, phi, z = (np.asarray(v, dtype=float) for v in (r, phi, z))
    if (r < 0).any():
        raise DomainError("radius must be non-negative")
    m, sign = light.mode, light.direction
    beams = [(light.power, sign, 0.0), (light.backward_power, -sign, light.relative_phase)]
    # per beam, on a trailing axis: complex amplitude, 1j * direction * beta, direction
    amplitude, wavevector, direction = map(np.array, zip(*[
        (m.normalization * np.sqrt(p) * -1j * np.exp(1j * ph), 1j * d * m.beta, d)
        for p, d, ph in beams[: 1 + (light.configuration == "standing")]]))
    e_r, e_phi, e_z = _profiles(m, r)
    phi = phi[..., None]
    cosd, sind = np.cos(phi - light.polarization_angle), np.sin(phi - light.polarization_angle)
    prop = np.exp(wavevector * z[..., None])
    er = np.sqrt(2.0) * e_r * cosd * amplitude * prop
    ep = np.sqrt(2.0) * 1j * e_phi * sind * amplitude * prop
    ez = np.sqrt(2.0) * e_z * cosd * amplitude * prop * direction
    cos, sin = np.cos(phi), np.sin(phi)
    # the beams summed in order; adding 0.0 makes an all-zero sum +0.0, as a sum from zero does
    return np.stack((er * cos - ep * sin, er * sin + ep * cos, ez), axis=-2).sum(axis=-1) + 0.0


def _kernel_constants(f):
    """One field's constants for ``_intensity_and_spin``, as Python floats."""
    m, d = f.mode, f.direction
    beta, q, s = float(m.beta), float(m.exterior_parameter), float(m.s_parameter)
    fwd, bwd = f.power, f.backward_power * (f.configuration == "standing")
    scale = math.sqrt(2.0) * float(m.normalization) * float(m.exterior_scale)  # sqrt2 n J1(ha)/K1(qa)
    return (m.fiber.radius, q, scale, scale * beta * (1 - s) / (2 * q), scale * beta * (1 + s) / (2 * q),
            f.polarization_angle, f.relative_phase, fwd + bwd, 2 * math.sqrt(fwd * bwd),
            2 * d * (fwd - bwd), 2 * d * beta)


def _intensity_and_spin(lights, with_spin=True):
    """|E|^2 and i(E x E*) of each of ``lights`` outside the fiber, as ``kernel(r, phi, z, k=None)``.

    There E = (i sqrt2 g_x W, i sqrt2 g_y W, sqrt2 g_z V): g is the real exterior profile
    rotated by the polarization angle, W and V sum the beams' n sqrt(P) e^(i d beta z), V
    times each beam's direction d.  So (Le Kien, Balykin & Hakuta, Phys. Rev. A 70, 063403
    (2004)) |E|^2 = 2 [(g_x^2 + g_y^2) |W|^2 + g_z^2 |V|^2] with |W|^2, |V|^2 = n^2 (P_fwd
    + P_bwd +- 2 sqrt(P_fwd P_bwd) cos(2 d beta z - phase)), and i(E x E*) = 4 n^2 d (P_fwd
    - P_bwd) g_z (-g_y, g_x, 0), 0 along z.  So the kernel returns |E|^2, shape broadcast(r, phi,
    z) + (n,), and the spin as its transverse components (s_x, s_y), each of that shape.  With
    ``with_spin`` false (an mF-averaged potential) it computes |E|^2 only and returns None for the spin.

    Only the radial part, K_0, K_1, K_2 of q r, is costly.  The kernel computes it at ``r`` as
    given, so a separable grid (r varying along its own axis) pays once per radius; or ``k`` passes
    it in, shape (3,) + broadcast(r, phi, z) + (n,), as the trap search's scan does from each mode's
    ``scan_bessel``.  ``bessel_k`` evaluates each value alone (batch invariant): the same bits.
    """
    a, q, scale, c0, c2, angle, phase, total, cross, spin, wave = np.array(
        [_kernel_constants(f) for f in lights]).T

    def kernel(r, phi, z, k=None):
        if k is None:
            r = np.asarray(r, dtype=float)[..., None]
            if (r <= a).any():
                raise DomainError("the closed-form fields are defined outside the fiber surface")
            k = bessel_k((0, 1, 2), r * q)
        k0, k1, k2 = k
        phi, z = (np.asarray(v, dtype=float)[..., None] for v in (phi, z))
        t0, t2, rel = c0 * k0, c2 * k2, phi - angle  # rel: azimuth from the polarization axis
        cosd, sind = np.cos(rel), np.sin(rel)
        g_r, g_phi, g_z = (t0 + t2) * cosd, (t2 - t0) * sind, scale * k1 * cosd  # sqrt2 n g, local
        osc = cross * np.cos(wave * z - phase)
        intensity = (g_r * g_r + g_phi * g_phi) * (total + osc) + g_z * g_z * (total - osc)
        if not with_spin:
            return intensity, None
        w, cos, sin = spin * g_z, np.cos(phi), np.sin(phi)
        return intensity, (w * -(g_r * sin + g_phi * cos), w * (g_r * cos - g_phi * sin))  # -g_y, g_x

    return kernel


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

    def mesh(self):
        """Sparse (r, phi) axes, shapes (n_r, 1) and (1, n_phi): row-major, r outer."""
        r = np.linspace(self.r_min, self.r_max, self.n_r)
        phi = np.linspace(0.0, 2 * np.pi, self.n_phi, endpoint=False)
        return np.meshgrid(r, phi, indexing="ij", sparse=True)

    def table(self, values: np.ndarray) -> np.ndarray:
        """(r, phi, z, *values) per node, shape (n_r, n_phi, 3 + k), for ``GRID_COLUMNS``."""
        rr, pp = np.broadcast_arrays(*self.mesh())
        nodes = np.stack([rr, pp, np.full_like(rr, self.z)], axis=-1)
        return np.concatenate((nodes, values), axis=-1)


def intensity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """|E|^2 sampled on the polar grid, shape (n_r, n_phi), units (V/m)^2."""
    return np.sum(np.abs(field_at(light, *grid.mesh(), grid.z)) ** 2, axis=-1)


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
    return np.real(1j * np.cross(e, e.conj()))


def ellipticity_map(light: LightField, grid: PolarGrid) -> np.ndarray:
    """Ellipticity vector on the grid, shape (n_r, n_phi, 3); DomainError at a zero of the field."""
    return ellipticity(field_at(light, *grid.mesh(), grid.z))


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
    full table of text is held.  Each distinct bit pattern of a block is
    formatted once (0.0 and -0.0, and NaN payloads, stay apart), and the text
    of patterns the previous block also had is reused, so the bytes equal
    those of a row-by-row repr.  The file is replaced atomically (``atomic_open``).
    """
    table = np.atleast_2d(np.asarray(table, dtype=float))
    blocks = table.reshape(math.prod(table.shape[:-2]), *table.shape[-2:])  # (0, k): one empty block
    keys, text = np.zeros(1, np.int64), np.array(["0.0"], object)  # sorted bits, their text; +0.0 at first
    with atomic_open(path) as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            new, inverse = np.unique(np.ascontiguousarray(block).view(np.int64), return_inverse=True)
            at = np.searchsorted(keys, new).clip(max=keys.size - 1)
            strings, miss = text[at], keys[at] != new
            strings[miss] = list(map(repr, new[miss].view(float).tolist()))
            rows = strings[inverse.reshape(block.shape)].tolist()  # 1-D before numpy 2
            if rows:  # an empty table writes no row
                fh.write("\n".join(map(",".join, rows)) + "\n")
            keys, text = new, strings


def write_field_map_csv(path, light: LightField, grid: PolarGrid, header_lines=()):
    """Write the complex field on the grid as CSV (row-major: r outer, phi inner)."""
    e = field_at(light, *grid.mesh(), grid.z)
    columns = ["Ex_re", "Ex_im", "Ey_re", "Ey_im", "Ez_re", "Ez_im"]  # (re, im) per component
    write_csv(path, header_lines, [*GRID_COLUMNS, *columns], grid.table(e.view(float)))


def write_scalar_map_csv(path, grid: PolarGrid, values: np.ndarray, column: str, header_lines=()):
    """Write one scalar per grid node (same row order as the field map)."""
    values = np.asarray(values, dtype=float)[..., None]
    write_csv(path, header_lines, [*GRID_COLUMNS, column], grid.table(values))
