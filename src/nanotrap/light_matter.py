"""AC Stark shifts, fictitious magnetic fields, and the assembled two-color
trap with per-site magnetic environments.

Every light shift and fictitious field takes one path: the closed-form |E|^2
and i(E x E*) of ``fiber_mode._intensity_and_spin``, times each field's scalar
polarizability and vector coefficient beta_v.  ``trap_potential`` gives the
shifts, ``site_environment`` the per-site fictitious fields.

Geometry: atoms sit in the plane P (phi = 0 "upper" site, phi = pi "lower"
site); the static offset field points along +y, perpendicular to P.  All
energies are returned in Hz (energy / h).
"""
from __future__ import annotations

import math
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
from .fiber_mode import SCAN_OFFSETS, FiberSpec, LightField, _intensity_and_spin
from .fiber_mode import field_at  # noqa: F401  unused; perfbench/tracer.py patches this name

__all__ = [
    "MagneticEnvironment",
    "TrapConfig",
    "ClockSplitting",
    "with_scheme",
    "beam_with_scheme",
    "trap_potential",
    "find_trap_minimum",
    "trap_frequencies",
    "site_fields",
    "site_environment",
    "clock_splitting",
    "mw_splitting",
]

H_PLANCK = cst.h
Y_AXIS = np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class TrapConfig:
    """Two-color trap configuration plus optional extras.

    At phi_B = 0 the blue (running) polarization axis is orthogonal to the
    red (standing) one, which lies in plane P.  ``c3`` is the surface-
    potential coefficient in J m^3 (None disables the surface term);
    ``manipulation`` is an optional extra guided field.  Every mode is solved for ``fiber``'s radius.
    """

    fiber: FiberSpec
    blue: LightField
    red: LightField
    c3: float | None = None
    manipulation: LightField | None = None

    def __post_init__(self):
        if any(f.mode.fiber.radius != self.fiber.radius for f in self.fields()):
            raise DomainError("every field's mode must be solved for the trap's fiber radius")

    def fields(self):
        return [self.blue, self.red] + ([] if self.manipulation is None else [self.manipulation])


def with_scheme(config: TrapConfig, phi_b: float, red_imbalance: float) -> TrapConfig:
    """``config`` with ``beam_with_scheme`` applied to its nominal blue and red beams."""
    return replace(config, blue=beam_with_scheme("blue", config.blue, phi_b, red_imbalance),
                   red=beam_with_scheme("red", config.red, phi_b, red_imbalance))


def beam_with_scheme(name: str, beam: LightField, phi_b: float, red_imbalance: float) -> LightField:
    """Nominal beam ``name`` ("blue" or "red") with its site-selective scheme applied: the blue
    polarization set to pi/2 + ``phi_b``, i.e. tilted by ``phi_b`` from the axis orthogonal to
    plane P, or the red backward power multiplied by ``red_imbalance``."""
    if name == "blue":
        return replace(beam, polarization_angle=np.pi / 2 + phi_b)
    return replace(beam, backward_power=beam.backward_power * red_imbalance)


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
    the closed-form kernel of every field (|E|^2 only when mF-averaged), each
    field's scalar shift per unit |E|^2 and, for a resolved sublevel, its vector
    coefficient beta_v, the offset vector and the zero-field Breit-Rabi
    reference.  ``u`` is the potential ``trap_potential`` documents, in Hz,
    from one kernel call over every field (``k``: the fields' K values, see the kernel).
    """
    a = config.fiber.radius
    fields = config.fields()
    kernel = _intensity_and_spin(fields, state is not None)
    alphas = [atom_cs.scalar_polarizability(fld.mode.wavelength, data) for fld in fields]
    shifts = -0.25 * np.array(alphas) / H_PLANCK
    if state is not None:
        betas = np.array([atom_cs.vector_shift_coefficient_g_per_v2m2(f.mode.wavelength, state.f, data)
                          for f in fields])
        off_x, off_y, off_z = _offset_vector(boff).tolist()  # the spin has no z component
        zero_field = breit_rabi_energy(state, 0.0, data)

    def u(r, phi, z, k=None):
        intensity, spin = kernel(r, phi, z, k)
        total = _field_sum(shifts * intensity)
        if state is not None:
            b_x, b_y = off_x + _field_sum(betas * spin[0]), off_y + _field_sum(betas * spin[1])
            b_total = np.sqrt(b_x * b_x + b_y * b_y + off_z * off_z)
            total = total + (breit_rabi_energy(state, b_total, data) - zero_field)
        if config.c3 is not None:  # the cube as products: a 0-d ** rounds unlike an array's
            gap = np.asarray(r, dtype=float) - a
            total = total - config.c3 / (gap * gap * gap * H_PLANCK)
        return float(total) if total.ndim == 0 else total

    return u


def _field_sum(x):
    """``x`` summed over its trailing field axis left to right, the order of ``np.add.reduce``."""
    total = x[..., 0]
    for i in range(1, x.shape[-1]):
        total = total + x[..., i]
    return total


# the stencil's offsets along each of r, r phi and z: the centre, then +-1 nm
_STEP = 1e-9
_OFFSETS = _STEP * np.array([0.0, 1.0, -1.0])


def _stencil_derivatives(u, point):
    """``u(*point)`` (the centre node is ``point`` + 0.0) and the central-difference gradient and
    Hessian in local (dr, r dphi, dz) at ``point``, from one call of ``u`` on the separable 3x3x3
    grid of ``_OFFSETS`` (K once per radius) and 19 of its nodes; differences on Python floats."""
    r0, phi0, z0 = point
    v = u((r0 + _OFFSETS)[:, None, None], (phi0 + _OFFSETS / r0)[:, None], z0 + _OFFSETS).tolist()
    c = v[0][0][0]
    plus, minus = ([v[s][0][0], v[0][s][0], v[0][0][s]] for s in (1, 2))
    diag = [(p - 2.0 * c + m) / _STEP**2 for p, m in zip(plus, minus)]
    planes = ([v[i][j][0] for i in (1, 2) for j in (1, 2)], [v[i][0][k] for i in (1, 2) for k in (1, 2)],
              [v[0][j][k] for j in (1, 2) for k in (1, 2)])  # (pp, pm, mp, mm) per pair of axes
    xy, xz, yz = [(pp - pm - mp + mm) / (4.0 * _STEP**2) for pp, pm, mp, mm in planes]
    hess = np.array([[diag[0], xy, xz], [xy, diag[1], yz], [xz, yz, diag[2]]])
    return c, np.array([(p - m) / (2.0 * _STEP) for p, m in zip(plus, minus)]), hess


def find_trap_minimum(
    config: TrapConfig,
    state: HyperfineState | None = None,
    boff=0.0,
    data: AtomicData | None = None,
    phi_start: float = 0.0,
):
    """Locate the trap minimum near the upper site, to 0.1 nm.

    One scan call at z = 0 on 5 rows of 64 radii h = 18.7 nm apart (K from each mode's
    ``scan_bessel``), at phi_start + k h/(a + 230 nm) for k = -2..2, picks the middle row's lowest
    interior minimum.  Newton starts at the phi vertex of the quartic through each row's radial
    quartic vertex (5 nodes), at the radius their quartic gives there: on phi_start if that is
    under 0.1 nm of arc or a fit fails (``_quartic_vertex``), at the node if a radial one does.
    In local (dr, r dphi, dz) on ``_stencil_derivatives``, along each eigenvector of H the step
    is -g/lambda, or downhill to the edge of the box |dr| <= 50 nm, |dphi| <= 0.5 rad, |dz| <= a
    quarter guided red wavelength where lambda <= 0.  The step is scaled into that box, keeps r
    at least 0.1 nm above the radial clamp 1 nm above the surface, and is halved until the
    potential does not rise; the search stops once a Newton step is below 0.1 nm.  Each trial is
    one stencil call, whose g and H start the next step once accepted.  Raises NoTrapError when no
    field is a standing wave with both beams on (nothing confines along z), no bound radial minimum
    brackets, the search stalls (halving takes a step below 0.1 nm, or 40 steps pass without it),
    or it ends at the clamp."""
    fields = config.fields()
    standing = [f for f in fields if f.configuration == "standing"]
    if not any(min(f.power, f.backward_power) > 0 for f in standing):
        raise NoTrapError("no axial confinement: no field is a standing wave with both beams on")
    data = data or default_atomic_data()
    a = config.fiber.radius
    u_of = _potential(config, state, boff, data)

    r_scan, h = a + SCAN_OFFSETS, float(SCAN_OFFSETS[1] - SCAN_OFFSETS[0])  # h: 18.7 nm
    d_phi = h / (a + 230e-9)  # the rows' spacing: about h of arc near a site
    u_rows = u_of(r_scan, phi_start + d_phi * np.arange(-2.0, 3.0)[:, None], 0.0,
                  np.array([f.mode.scan_bessel for f in fields]).transpose(1, 2, 0))
    u_scan = u_rows[2]
    candidates = np.nonzero((u_scan[1:-1] < u_scan[:-2]) & (u_scan[1:-1] < u_scan[2:]))[0] + 1
    if candidates.size == 0:
        raise NoTrapError("no bound radial minimum for this configuration")
    idx = int(candidates[np.argmin(u_scan[candidates])])

    tol_r = 0.1e-9
    r_low = a + 1e-9 + tol_r  # 0.1 nm above the clamp: the 1 nm stencil stays outside the fiber
    z_half = 0.25 * float(config.red.mode.guided_wavelength)
    r_start, t = float(r_scan[idx]), 0.0  # the scan node, unless every radial fit is convex
    fits = list(map(_quartic_vertex, u_rows[:, idx - 2:idx + 3].tolist())) if 1 < idx < 62 else [None]
    if None not in fits:
        xs, us = zip(*fits)
        vertex, x_r = _quartic_vertex(us, xs), xs[2]
        if vertex and abs(vertex[0]) * d_phi * r_start >= tol_r:  # smaller: SIMD-dependent rounding
            t, _, x_r = vertex
        r_start += h * x_r
    point = (r_start, float(phi_start) + t * d_phi, 0.0)
    u_point, grad, hess = _stencil_derivatives(u_of, point)
    for _ in range(40):
        r0, phi0, z0 = point
        s_r, s_phi, s_z = _newton_step(grad, hess, r0, z_half, r_low)
        newton = step = max(abs(s_r), abs(s_phi), abs(s_z))  # halving keeps step the max exactly
        while step >= tol_r:
            trial = (r0 + s_r, phi0 + s_phi / r0, z0 + s_z)
            u_trial, g_trial, h_trial = _stencil_derivatives(u_of, trial)
            if u_trial <= u_point:
                break
            s_r, s_phi, s_z, step = 0.5 * s_r, 0.5 * s_phi, 0.5 * s_z, 0.5 * step
        else:  # a step below 0.1 nm is the last one
            point = (r0 + s_r, phi0 + s_phi / r0, z0 + s_z)
            break
        point, u_point, grad, hess = trial, u_trial, g_trial, h_trial
    if newton >= tol_r:  # halved into the stop, or still above it after 40 steps: a stall, not a site
        raise NoTrapError(f"trap search stalled: last Newton step {newton * 1e9:.3g} nm, not below 0.1 nm")
    if point[0] <= r_low:
        raise NoTrapError(f"radial search ended at the surface clamp ({(point[0] - a) * 1e9:.3f} nm "
                          "above the fiber)")
    return point


def _quartic_vertex(f, *others):
    """(x, p(x), q(x) per q): the vertex x, in node steps from the middle one, of the quartic p through
    5 equally spaced values ``f``, and there the quartics q through ``others``; None if p is not convex
    on Newton's way from 0 or x is over 3 steps out.  Exact weights: neither LAPACK nor SIMD."""
    def quartic(v):  # its coefficients of x**0 .. x**4
        m2, m1, c, p1, p2 = v
        return (c, (m2 - p2 + 8.0 * (p1 - m1)) / 12.0, (16.0 * (m1 + p1) - 30.0 * c - m2 - p2) / 24.0,
                (p2 - m2 + 2.0 * (m1 - p1)) / 12.0, (m2 + p2 - 4.0 * (m1 + p1) + 6.0 * c) / 24.0)

    (_, c1, c2, c3, c4), x = quartic(f), 0.0
    for _ in range(20):
        curvature = 2.0 * c2 + x * (6.0 * c3 + 12.0 * x * c4)
        if curvature <= 0.0:
            return None
        dx = (c1 + x * (2.0 * c2 + x * (3.0 * c3 + 4.0 * x * c4))) / curvature
        x -= dx
        if abs(dx) < 1e-13:
            break
    if abs(dx) >= 1e-13 or abs(x) > 3.0:
        return None
    return (x, *(a + x * (b + x * (c + x * (d + x * e))) for a, b, c, d, e in map(quartic, (f, *others))))


def _newton_step(grad, hess, r0, z_half, r_low):
    """``find_trap_minimum``'s step (dr, r dphi, dz) at radius ``r0``: ``eigh`` and the products
    with its eigenvectors in numpy, the box scaling and radial clamp on Python floats (same bits)."""
    box = (50e-9, 0.5 * r0, z_half)
    lam, vec = np.linalg.eigh(hess)
    along = [-s / lm if lm > 0 else -math.copysign(1.0 / max(abs(v) / b for v, b in zip(col, box)), s)
             for s, lm, col in zip((grad @ vec).tolist(), lam.tolist(), vec.T.tolist())]
    step = (vec @ along).tolist()
    shrink = max(1.0, *(abs(s) / b for s, b in zip(step, box)))  # into the box
    s_r, s_phi, s_z = (s / shrink for s in step)
    return max(s_r, r_low - r0), s_phi, s_z  # exact: a search pinned here ends on r_low


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
    _, _, hess = _stencil_derivatives(_potential(config, state, boff, data), minimum)
    evals, evecs = np.linalg.eigh(hess * H_PLANCK / data.mass_kg)
    if np.any(evals <= 0):
        raise SaddlePointError("curvature matrix is not positive definite at the minimum")
    # map eigenvalues onto the (r, phi, z) axes by dominant eigenvector component
    order = np.argmax(np.abs(evecs), axis=0)
    freqs = np.zeros(3)
    freqs[order] = np.sqrt(evals) / (2 * np.pi)
    return tuple(float(f) for f in freqs)


def site_fields(
    config: TrapConfig,
    boff,
    manipulation: LightField | None = None,
    phi_b: float = 0.0,
    red_imbalance: float = 1.0,
    data: AtomicData | None = None,
) -> MagneticEnvironment:
    """Per-site fictitious fields for the active manipulation mechanism(s).

    ``phi_b`` and ``red_imbalance`` apply the schemes of ``with_scheme`` to
    the nominal beams of ``config``, and ``manipulation`` adds an extra
    dedicated field (e.g. at the tune-out wavelength).  Trap sites are the
    minima of the mF-averaged potential; the lower site is the diametric
    image of the upper one.  The fictitious field is evaluated for the
    F = 4 ground manifold (manifold dependence is at the 0.3% level).
    """
    data = data or default_atomic_data()
    effective = replace(with_scheme(config, phi_b, red_imbalance), manipulation=manipulation)

    upper = find_trap_minimum(effective, None, 0.0, data)
    return site_environment(effective, boff, upper, data)


def site_environment(
    config: TrapConfig,
    boff,
    upper,
    data: AtomicData | None = None,
) -> MagneticEnvironment:
    """Fictitious fields of ``config`` at a given upper site and its image.

    The lower site is the diametric image (phi + pi) of ``upper``; the field
    is summed over every configured field for the F = 4 ground manifold.
    """
    data = data or default_atomic_data()
    r0, phi0, z0 = upper
    lower = (r0, phi0 + np.pi, z0)
    fields = config.fields()
    betas = np.array([atom_cs.vector_shift_coefficient_g_per_v2m2(f.mode.wavelength, 4, data)
                      for f in fields])
    # both sites in one kernel call at their one radius; + 0.0 makes an all-zero sum +0.0
    spin = _intensity_and_spin(fields)(r0, np.array([phi0, lower[1]]), z0)[1]
    total = np.stack([_field_sum(betas * s) + 0.0 for s in spin] + [np.zeros(2)], axis=-1)

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
