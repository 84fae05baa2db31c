"""Field oracles: the H field of the HE11 mode, the E field beam by beam, and
the light shifts of a Cartesian E field.

The package needs only the E field; the tests integrate the axial Poynting
flux Re(E x H*) by quadrature to check the closed-form power normalisation
and the tangential continuity of H at the fiber surface.  The per-mode
profiles and per-beam field are the references ``field_at``'s evaluation
of its beams on a trailing axis is held to, bit for bit.  The package takes
every light shift from the closed-form |E|^2 and i(E x E*) kernel; the tests
hold it to the shifts of the complex Cartesian field ``field_at`` returns.
The kernel returns the spin's two transverse components and the package sums
them over the fields left to right; the tests hold those sums to
``np.add.reduce`` over the Cartesian (..., n, 3) spin with a zero z column.
``pump`` writes the (sigma+, pi, sigma-) intensities about +y in closed form;
the tests hold them to the spherical decomposition about any axis.
"""
import numpy as np
from scipy import constants as cst
from scipy import special

from nanotrap import atom_cs
from nanotrap.atom_cs import AtomicData, HyperfineState, default_atomic_data
from nanotrap.errors import DomainError
from nanotrap.fiber_mode import GuidedMode, _kernel_constants, _spin_density
from nanotrap.light_matter import H_PLANCK, _offset_vector
from nanotrap.numerics import bessel_j, bessel_k


def radial_profiles_h(mode: GuidedMode, r: np.ndarray):
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
    n2_out = 1.0  # vacuum outside
    hr_out = (-1j / q**2) * (beta * d_hz_o - 1j * omega * cst.epsilon_0 * n2_out * ez_over_r_o)
    hphi_out = (-1j / q**2) * (1j * beta * hz_over_r_o + omega * cst.epsilon_0 * n2_out * d_ez_o)
    hz_out = b_amp * c_out * k1v

    h_r = np.where(inside, hr_in, hr_out)
    h_phi = np.where(inside, hphi_in, hphi_out)
    h_z = np.where(inside, hz_in, hz_out)
    return h_r, h_phi, h_z


def per_mode_profiles(mode: GuidedMode, r):
    """Radial E-field profiles (e_r, e_phi, e_z) of one mode, each branch on its own radii.

    One mode at a time, with scalar coefficients and the package's Bessel kernels.
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


def per_beam_field(light, r, phi, z):
    """E field of one LightField, each beam on its own arrays, summed from zero.

    The same per-element arithmetic as ``field_at``, one beam at a time.
    Every factor carries a trailing axis of length one, as ``field_at``'s
    axis of beams: numpy may round the complex product of two arrays
    differently from that of an array and a scalar.
    """
    mode = light.mode
    r, phi, z = (np.asarray(v, dtype=float)[..., None] for v in (r, phi, z))
    e_r, e_phi, e_z = (p[..., None] for p in per_mode_profiles(mode, r[..., 0]))
    total = np.zeros(np.broadcast_shapes(r.shape, phi.shape, z.shape)[:-1] + (3,), dtype=complex)
    beams = [(light.power, light.direction, 0.0)]
    if light.configuration == "standing":
        beams.append((light.backward_power, -light.direction, light.relative_phase))
    for power, direction, extra_phase in beams:
        if power == 0.0:
            continue
        amp = np.array([mode.normalization * np.sqrt(power) * -1j * np.exp(1j * extra_phase)])
        cosd = np.cos(phi - light.polarization_angle)
        sind = np.sin(phi - light.polarization_angle)
        prop = np.exp(np.array([1j * direction * mode.beta]) * z)
        er = np.sqrt(2.0) * e_r * cosd * amp * prop
        ep = np.sqrt(2.0) * 1j * e_phi * sind * amp * prop
        ez = np.sqrt(2.0) * e_z * cosd * amp * prop * np.array([direction])
        total[..., 0] += (er * np.cos(phi) - ep * np.sin(phi))[..., 0]
        total[..., 1] += (er * np.sin(phi) + ep * np.cos(phi))[..., 0]
        total[..., 2] += ez[..., 0]
    return total


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
    # components in the frame whose z axis is the quantization axis; A_q = u_q* . E
    ex, ey, ez = e @ e1, e @ e2, e @ e3
    return -(ex - 1j * ey) / np.sqrt(2.0), ez, (ex + 1j * ey) / np.sqrt(2.0)


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
    intensity = np.sum(np.abs(np.asarray(e_field, dtype=complex)) ** 2, axis=-1)
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


def cartesian_spin_kernel(lights):
    """``fiber_mode._intensity_and_spin``'s kernel with the spin as one zero-filled Cartesian
    array, shape broadcast(r, phi, z) + (n, 3), its z column 0."""
    a, q, scale, c0, c2, angle, phase, total, cross, spin, wave = np.array(
        [_kernel_constants(f) for f in lights]).T

    def kernel(r, phi, z, k=None):
        if k is None:
            k = bessel_k((0, 1, 2), np.asarray(r, dtype=float)[..., None] * q)
        k0, k1, k2 = k
        phi, z = (np.asarray(v, dtype=float)[..., None] for v in (phi, z))
        t0, t2, cosd, sind = c0 * k0, c2 * k2, np.cos(phi - angle), np.sin(phi - angle)
        g_r, g_phi, g_z = (t0 + t2) * cosd, (t2 - t0) * sind, scale * k1 * cosd
        osc = cross * np.cos(wave * z - phase)
        intensity = (g_r * g_r + g_phi * g_phi) * (total + osc) + g_z * g_z * (total - osc)
        w, cos, sin = spin * g_z, np.cos(phi), np.sin(phi)
        out = np.zeros(w.shape + (3,))
        np.multiply(w, -(g_r * sin + g_phi * cos), out=out[..., 0])
        np.multiply(w, g_r * cos - g_phi * sin, out=out[..., 1])
        return intensity, out

    return kernel


def reduced_potential(config, state, boff, data: AtomicData):
    """``light_matter._potential``'s ``u`` with each sum over the fields an ``np.add.reduce``:
    of the scalar shifts, of beta_v times ``cartesian_spin_kernel``'s spin, and of b * b."""
    fields = config.fields()
    kernel = cartesian_spin_kernel(fields)
    alphas = np.array([atom_cs.scalar_polarizability(f.mode.wavelength, data) for f in fields])
    shifts = -0.25 * alphas / H_PLANCK
    if state is not None:
        betas = np.array([atom_cs.vector_shift_coefficient_g_per_v2m2(f.mode.wavelength, state.f, data)
                          for f in fields])
        boff_vec = _offset_vector(boff)
        zero_field = atom_cs.breit_rabi_energy(state, 0.0, data)

    def u(r, phi, z, k=None):
        intensity, spin = kernel(r, phi, z, k)
        total = np.add.reduce(shifts * intensity, axis=-1)
        if state is not None:
            b = boff_vec + np.add.reduce(betas[:, None] * spin, axis=-2)
            b_total = np.sqrt(np.add.reduce(b * b, axis=-1))
            total = total + (atom_cs.breit_rabi_energy(state, b_total, data) - zero_field)
        if config.c3 is not None:
            gap = np.asarray(r, dtype=float) - config.fiber.radius
            total = total - config.c3 / (gap * gap * gap * H_PLANCK)
        return float(total) if total.ndim == 0 else total

    return u


def reduced_site_fields(config, upper, data: AtomicData):
    """``light_matter.site_environment``'s (upper, lower) fictitious fields, by ``np.sum`` of beta_v
    (F = 4) times ``cartesian_spin_kernel``'s spin over the fields at ``upper`` and its image."""
    fields = config.fields()
    betas = np.array([atom_cs.vector_shift_coefficient_g_per_v2m2(f.mode.wavelength, 4, data)
                      for f in fields])
    r0, phi0, z0 = upper
    spin = cartesian_spin_kernel(fields)(r0, np.array([phi0, phi0 + np.pi]), z0)[1]
    total = np.sum(betas[:, None] * spin, axis=-2) + 0.0
    return total[0], total[1]


def assert_bitwise_equal(actual, expected):
    """Same shape and the same bytes: equal values with the same signs of zero."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
