"""H field of the HE11 mode: the magnetic half of the Poynting-flux oracle.

The package needs only the E field; the tests integrate the axial Poynting
flux Re(E x H*) by quadrature to check the closed-form power normalisation
and the tangential continuity of H at the fiber surface.
"""
import numpy as np
from scipy import constants as cst
from scipy import special

from nanotrap.fiber_mode import GuidedMode


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
    n2_out = mode.n_ext**2
    hr_out = (-1j / q**2) * (beta * d_hz_o - 1j * omega * cst.epsilon_0 * n2_out * ez_over_r_o)
    hphi_out = (-1j / q**2) * (1j * beta * hz_over_r_o + omega * cst.epsilon_0 * n2_out * d_ez_o)
    hz_out = b_amp * c_out * k1v

    h_r = np.where(inside, hr_in, hr_out)
    h_phi = np.where(inside, hphi_in, hphi_out)
    h_z = np.where(inside, hz_in, hz_out)
    return h_r, h_phi, h_z
