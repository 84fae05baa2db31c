"""Local polarization analysis, AC Stark shifts, fictitious magnetic fields,
and the assembled two-color trap with per-site magnetic environments.

Geometry: atoms sit in the plane P (phi = 0 "upper" site, phi = pi "lower"
site); the static offset field points along +y, perpendicular to P.  All
energies are returned in Hz (energy / h).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import atom_cs
from . import constants as cst
from .atom_cs import (
    AtomicData,
    HyperfineState,
    breit_rabi_energy,
    default_atomic_data,
    mw_transition_frequency,
)
from .errors import DomainError, NoTrapError, SaddlePointError
from .fiber_mode import FiberSpec, LightField, _radial_profiles_e, _spin_density, field_at
from .fiber_mode import ellipticity  # noqa: F401  re-exported: part of this module's API

__all__ = [
    "EllipticityVector",
    "MagneticEnvironment",
    "TrapConfig",
    "ClockSplitting",
    "with_scheme",
    "ellipticity",
    "spherical_components",
    "fictitious_field",
    "scalar_shift",
    "vector_shift",
    "trap_potential",
    "find_trap_minimum",
    "trap_frequencies",
    "site_fields",
    "site_environment",
    "clock_splitting",
    "mw_splitting",
]

H_PLANCK = cst.h
MU_B_J_PER_G = atom_cs.MU_B_J_PER_G
Y_AXIS = np.array([0.0, 1.0, 0.0])

EllipticityVector = np.ndarray  # real 3-vector, |eps| <= 1


def _orthonormal_triad(axis: np.ndarray):
    e3 = np.asarray(axis, dtype=float)
    n = np.linalg.norm(e3)
    if n == 0:
        raise DomainError("quantization axis must be a non-zero vector")
    e3 = e3 / n
    helper = np.array([1.0, 0.0, 0.0])
    if abs(e3 @ helper) > 0.9:
        helper = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(helper, e3)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def spherical_components(e_field, axis):
    """Spherical amplitudes (A_plus, A_zero, A_minus) about a quantization axis.

    |A_q|^2 is the intensity available to drive dm = q transitions;
    the three squared moduli sum to |E|^2.
    """
    e = np.asarray(e_field, dtype=complex)
    if np.sum(np.abs(e) ** 2) == 0.0:
        raise DomainError("spherical decomposition undefined for a zero field")
    e1, e2, e3 = _orthonormal_triad(axis)
    # components in the frame whose z axis is the quantization axis
    ex, ey, ez = e @ e1, e @ e2, e @ e3
    a_minus, a_zero, a_plus = atom_cs.spherical_amplitudes(np.array([ex, ey, ez]))
    return a_plus, a_zero, a_minus


def fictitious_field(e_field, wavelength_m: float, f: int = 4, data: AtomicData | None = None):
    """Fictitious magnetic field beta_v * i(E x E*) of a ground manifold, in G."""
    data = data or default_atomic_data()
    e = np.asarray(e_field, dtype=complex)
    beta_v = atom_cs.vector_shift_coefficient_g_per_v2m2(wavelength_m, f, data)
    return beta_v * _spin_density(e)


def scalar_shift(e_field, wavelength_m: float, data: AtomicData | None = None):
    """Scalar AC Stark shift -(1/4) alpha_s |E|^2 in Hz."""
    data = data or default_atomic_data()
    alpha_s = atom_cs.scalar_polarizability(wavelength_m, data)
    return _scalar_shift(np.asarray(e_field, dtype=complex), alpha_s)


def _scalar_shift(e, alpha_s: float):
    intensity = np.sum(np.abs(e) ** 2, axis=-1)
    return -0.25 * alpha_s * intensity / H_PLANCK


def vector_shift(
    e_field,
    wavelength_m: float,
    state: HyperfineState,
    axis,
    data: AtomicData | None = None,
):
    """Vector AC Stark shift of one ground sublevel against a quantization axis, Hz.

    Computed from the vector polarizability as
    -(1/4) alpha_v |E|^2 (eps . axis) mF/(2F); identical (to rounding) to the
    linear Zeeman energy of the fictitious field.
    """
    data = data or default_atomic_data()
    if state.manifold != "ground":
        raise DomainError("vector_shift is defined for ground states")
    e = np.asarray(e_field, dtype=complex)
    alpha_v = atom_cs.vector_polarizability(wavelength_m, state.f, data)
    _, _, e3 = _orthonormal_triad(axis)
    projection = _spin_density(e) @ e3
    return -0.25 * alpha_v * projection * state.mf / (2.0 * state.f) / H_PLANCK


@dataclass(frozen=True)
class TrapConfig:
    """Two-color trap configuration plus optional extras.

    At phi_B = 0 the blue (running) polarization axis is orthogonal to the
    red (standing) one, which lies in plane P.  ``c3`` is the surface-
    potential coefficient in J m^3 (None disables the surface term);
    ``manipulation`` is an optional extra guided field.
    """

    fiber: FiberSpec
    blue: LightField
    red: LightField
    c3: float | None = None
    manipulation: LightField | None = None

    def fields(self):
        out = [self.blue, self.red]
        if self.manipulation is not None:
            out.append(self.manipulation)
        return out


def with_scheme(config: TrapConfig, phi_b: float, red_imbalance: float) -> TrapConfig:
    """``config`` with the site-selective schemes applied to its nominal beams.

    The blue polarization is set to pi/2 + ``phi_b``, i.e. tilted by ``phi_b``
    from the axis orthogonal to plane P, and the red backward power is
    multiplied by ``red_imbalance``.
    """
    return replace(
        config,
        blue=replace(config.blue, polarization_angle=np.pi / 2 + phi_b),
        red=replace(config.red, backward_power=config.red.backward_power * red_imbalance),
    )


@dataclass(frozen=True)
class MagneticEnvironment:
    """Static offset field plus the per-site fictitious fields, all in G."""

    offset_field: np.ndarray  # 3-vector, by convention along +y
    fictitious_field_upper: np.ndarray
    fictitious_field_lower: np.ndarray
    site_upper: tuple = ()
    site_lower: tuple = ()

    def total_magnitudes(self):
        b_up = float(np.linalg.norm(self.offset_field + self.fictitious_field_upper))
        b_lo = float(np.linalg.norm(self.offset_field + self.fictitious_field_lower))
        return b_up, b_lo


def _offset_vector(boff) -> np.ndarray:
    boff = np.asarray(boff, dtype=float)
    if boff.ndim == 0:
        return float(boff) * Y_AXIS
    if boff.shape != (3,):
        raise DomainError("offset field must be a scalar (along +y) or a 3-vector")
    return boff


def trap_potential(
    config: TrapConfig,
    position,
    state: HyperfineState | None = None,
    boff=0.0,
    data: AtomicData | None = None,
):
    """Total trap potential at (r, phi, z) for one ground sublevel, in Hz.

    Sum of the scalar shifts of every configured field, the exact
    hyperfine/Zeeman energy at the local total magnetic field (offset plus
    all fictitious contributions), and the optional surface term
    -C3/(r-a)^3.  ``state=None`` gives the mF-averaged potential (scalar
    shifts plus surface term only).  Positions inside the fiber are
    rejected.
    """
    r, phi, z = position
    return _potential(config, state, boff, data or default_atomic_data())(r, phi, z)


def _potential(config: TrapConfig, state: HyperfineState | None, boff, data: AtomicData):
    """The trap potential of one configuration and sublevel as ``u(r, phi, z)``.

    Everything that does not depend on the position is computed here once:
    each field's scalar polarizability and, for a resolved sublevel, its
    vector coefficient beta_v, the offset vector and the zero-field
    Breit-Rabi reference.  ``u`` is the potential ``trap_potential``
    documents, in Hz; ``profiles`` may give each field's profiles at ``r``.
    """
    a = config.fiber.radius
    fields = config.fields()
    alphas = [atom_cs.scalar_polarizability(fld.mode.wavelength, data) for fld in fields]
    betas = [None] * len(fields)
    if state is not None:
        betas = _vector_coefficients(fields, state.f, data)
        boff_vec = _offset_vector(boff)
        zero_field = breit_rabi_energy(state, 0.0, data)

    def u(r, phi, z, profiles=(None,) * len(fields)):
        r_arr = np.asarray(r, dtype=float)
        if (r_arr <= a).any():
            raise DomainError("trap potential is defined outside the fiber surface")
        total = np.zeros(np.broadcast(r_arr, np.asarray(phi), np.asarray(z)).shape)
        bfict = np.zeros(total.shape + (3,))
        for field, alpha_s, beta_v, at_r in zip(fields, alphas, betas, profiles):
            e = field_at(field, r, phi, z, profiles=at_r)
            total = total + _scalar_shift(e, alpha_s)
            if state is not None:
                bfict = bfict + beta_v * _spin_density(e)
        if state is not None:
            b_total = np.linalg.norm(boff_vec + bfict, axis=-1)
            total = total + (breit_rabi_energy(state, b_total, data) - zero_field)
        if config.c3 is not None:
            total = total - config.c3 / ((r_arr - a) ** 3 * H_PLANCK)
        if total.ndim == 0:
            return float(total)
        return total

    return u


def _vector_coefficients(fields, f: int, data: AtomicData) -> list:
    """beta_v of ground manifold ``f`` for each field (G per (V/m)^2)."""
    return [atom_cs.vector_shift_coefficient_g_per_v2m2(fld.mode.wavelength, f, data) for fld in fields]


_ZOOM_POINTS = 33  # abscissae per call: 32 cells, so each call shrinks the bracket 16x


def _zoom_minimize(f, lo, hi, tol):
    """Bracket-zoom minimiser; deterministic, no derivatives.

    ``f`` takes an array of abscissae.  Each step evaluates it once on
    ``_ZOOM_POINTS`` equispaced points across [lo, hi] and keeps the two grid
    cells either side of the smallest value (one cell at an end of the
    bracket), until the bracket is no wider than ``tol``; returns its
    midpoint.
    """
    last = _ZOOM_POINTS - 1
    while hi - lo > tol:
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        k = int(np.argmin(f(x)))
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, last)]
    return float(0.5 * (lo + hi))


def find_trap_minimum(
    config: TrapConfig,
    state: HyperfineState | None = None,
    boff=0.0,
    data: AtomicData | None = None,
    phi_start: float = 0.0,
):
    """Locate the trap minimum near the upper site, to 0.1 nm.

    Starts from the analytic guess (red standing-wave antinode at z = 0,
    azimuth in plane P) and refines coordinate-wise (r, phi, z) by bracket
    zoom: each step evaluates the potential on 33 points of the bracket in
    one call and keeps the cells either side of the lowest, to 0.1 nm; the
    azimuth and height steps at one radius share its radial profiles.
    Raises NoTrapError when no bound radial minimum brackets, or when the
    radial search ends pinned at its clamp 1 nm above the surface (the
    potential falls all the way to the fiber).
    """
    data = data or default_atomic_data()
    a = config.fiber.radius
    u_of = _potential(config, state, boff, data)

    r_scan = a + np.linspace(20e-9, 1200e-9, 250)
    u_scan = u_of(r_scan, phi_start, 0.0)
    interior = (u_scan[1:-1] < u_scan[:-2]) & (u_scan[1:-1] < u_scan[2:])
    candidates = np.nonzero(interior)[0] + 1
    if candidates.size == 0:
        raise NoTrapError("no bound radial minimum for this configuration")
    idx = int(candidates[np.argmin(u_scan[candidates])])

    tol_r = 0.1e-9
    z_half = 0.25 * config.red.mode.guided_wavelength
    r_clamp = a + 1e-9
    r0, phi0, z0 = r_scan[idx], phi_start, 0.0
    for _ in range(40):
        r_prev, phi_prev, z_prev = r0, phi0, z0
        r0 = _zoom_minimize(
            lambda r: u_of(r, phi0, z0), max(r0 - 50e-9, r_clamp), r0 + 50e-9, tol_r
        )
        at_r0 = [_radial_profiles_e(fld.mode, r0) for fld in config.fields()]
        phi0 = _zoom_minimize(lambda p: u_of(r0, p, z0, at_r0), phi0 - 0.5, phi0 + 0.5, tol_r / r0)
        z0 = _zoom_minimize(lambda zz: u_of(r0, phi0, zz, at_r0), z0 - z_half, z0 + z_half, tol_r)
        moved = max(abs(r0 - r_prev), r0 * abs(phi0 - phi_prev), abs(z0 - z_prev))
        if moved < tol_r:
            break
    if r0 < r_clamp + tol_r:
        raise NoTrapError(
            f"radial search ended at the surface clamp ({(r0 - a) * 1e9:.3f} nm above the fiber)"
        )
    return float(r0), float(phi0), float(z0)


def trap_frequencies(
    config: TrapConfig,
    state: HyperfineState | None = None,
    boff=0.0,
    minimum=None,
    data: AtomicData | None = None,
):
    """(nu_r, nu_phi, nu_z) harmonic frequencies at the trap minimum, in Hz.

    Central-difference Hessian (1 nm step) in local Cartesian displacements,
    eigenvalues divided by the Cs mass.  Raises SaddlePointError when the
    curvature matrix is not positive definite.
    """
    data = data or default_atomic_data()
    if minimum is None:
        minimum = find_trap_minimum(config, state, boff, data)
    r0, phi0, z0 = minimum
    step = 1e-9
    u = _potential(config, state, boff, data)

    # the 19-point stencil: the centre, then +-d_i per axis, then +-d_i +-d_j per pair
    axes = step * np.eye(3)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    stencil = [np.zeros(3)]
    for d in axes:
        stencil += [d, -d]
    for i, j in pairs:
        di, dj = axes[i], axes[j]
        stencil += [di + dj, di - dj, -di + dj, -di - dj]
    d = np.array(stencil)
    vals = u(r0 + d[:, 0], phi0 + d[:, 1] / r0, z0 + d[:, 2])

    hess = np.zeros((3, 3))
    u0 = vals[0]
    for i in range(3):
        hess[i, i] = (vals[1 + 2 * i] - 2.0 * u0 + vals[2 + 2 * i]) / step**2
    for k, (i, j) in enumerate(pairs):
        pp, pm, mp, mm = vals[7 + 4 * k : 11 + 4 * k]
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * step**2)

    evals, evecs = np.linalg.eigh(hess * H_PLANCK / data.mass_kg)
    if np.any(evals <= 0):
        raise SaddlePointError("curvature matrix is not positive definite at the minimum")
    # map eigenvalues onto the (r, phi, z) axes by dominant eigenvector component
    order = np.argmax(np.abs(evecs), axis=0)
    freqs = np.zeros(3)
    for k in range(3):
        freqs[order[k]] = np.sqrt(evals[k]) / (2 * np.pi)
    return tuple(float(f) for f in freqs)


def site_fields(
    config: TrapConfig,
    boff,
    manipulation: LightField | None = None,
    phi_b: float = 0.0,
    red_imbalance: float = 1.0,
    data: AtomicData | None = None,
    f: int = 4,
) -> MagneticEnvironment:
    """Per-site fictitious fields for the active manipulation mechanism(s).

    ``phi_b`` and ``red_imbalance`` apply the schemes of ``with_scheme`` to
    the nominal beams of ``config``, and ``manipulation`` adds an extra
    dedicated field (e.g. at the tune-out wavelength).  Trap sites are the
    minima of the mF-averaged potential; the lower site is the diametric
    image of the upper one.  The fictitious field is evaluated for the
    ground manifold ``f`` (manifold dependence is at the 0.3% level).
    """
    data = data or default_atomic_data()
    effective = replace(with_scheme(config, phi_b, red_imbalance), manipulation=manipulation)

    upper = find_trap_minimum(effective, None, 0.0, data)
    return site_environment(effective, boff, upper, data, f)


def site_environment(
    config: TrapConfig,
    boff,
    upper,
    data: AtomicData | None = None,
    f: int = 4,
) -> MagneticEnvironment:
    """Fictitious fields of ``config`` at a given upper site and its image.

    The lower site is the diametric image (phi + pi) of ``upper``; the field
    is summed over every configured field for the ground manifold ``f``.
    """
    data = data or default_atomic_data()
    r0, phi0, z0 = upper
    lower = (r0, phi0 + np.pi, z0)
    fields = config.fields()
    betas = _vector_coefficients(fields, f, data)

    sites = np.array([upper, lower])  # one field_at call per field covers both sites
    total = np.zeros((2, 3))
    for fld, beta_v in zip(fields, betas):
        total = total + beta_v * _spin_density(field_at(fld, sites[:, 0], sites[:, 1], sites[:, 2]))

    return MagneticEnvironment(
        offset_field=_offset_vector(boff),
        fictitious_field_upper=total[0],
        fictitious_field_lower=total[1],
        site_upper=upper,
        site_lower=lower,
    )


@dataclass(frozen=True)
class ClockSplitting:
    """Clock-transition splitting between the two sites (exact and quadratic)."""

    exact_hz: float
    approximate_hz: float


def clock_splitting(env: MagneticEnvironment, data: AtomicData | None = None) -> ClockSplitting:
    """Difference of the per-site clock frequencies |4,0> - |3,0>, in Hz.

    Exact path: Breit-Rabi at each site's total field magnitude.  Also
    reports the quadratic approximation 4 alpha0 Boff Bfict.
    """
    data = data or default_atomic_data()
    exact = mw_splitting(env, (3, 0), (4, 0), data)
    boff = float(np.linalg.norm(env.offset_field))
    bfict = 0.5 * float(
        (env.fictitious_field_upper - env.fictitious_field_lower) @ Y_AXIS
    )
    approx = float(4.0 * data.alpha0_khz_per_g2 * 1e3 * boff * bfict)
    return ClockSplitting(exact_hz=exact, approximate_hz=approx)


def mw_splitting(env: MagneticEnvironment, lower, upper, data: AtomicData | None = None) -> float:
    """Upper-site minus lower-site frequency of one MW transition, in Hz."""
    data = data or default_atomic_data()
    b_up, b_lo = env.total_magnitudes()
    return float(
        mw_transition_frequency(lower, upper, b_up, data)
        - mw_transition_frequency(lower, upper, b_lo, data)
    )
