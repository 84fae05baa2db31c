"""Second-order AC Stark operator on the 6S1/2 doublet: the vector-polarizability oracle.

The package computes the vector polarizability from its closed form; the
tests build the full 2x2 operator for a given field from the 3j dipole
matrices and check the closed form (and the scalar polarizability) against it.
"""
from functools import lru_cache
from math import sqrt

import numpy as np

from nanotrap.atom_cs import (
    HBAR,
    AtomicData,
    _check_wavelength,
    _f_projection,
    default_atomic_data,
    wigner_3j,
)


@lru_cache(maxsize=None)
def _dq_matrices(two_j_e: int):
    """<J' m'|d_q|J m> matrices for unit reduced element, J = 1/2."""
    j_g = 0.5
    j_e = two_j_e / 2.0
    mats = []
    m_g = [-0.5, 0.5]
    m_e = [-j_e + k for k in range(int(2 * j_e) + 1)]
    for q in (-1, 0, 1):
        mat = np.zeros((len(m_e), len(m_g)))
        for a, me in enumerate(m_e):
            for b, mg in enumerate(m_g):
                mat[a, b] = (-1) ** int(round(j_e - me)) * wigner_3j(
                    j_e, 1, j_g, -me, q, mg
                )
        mats.append(mat)
    return mats


def spherical_amplitudes(e_cart: np.ndarray) -> np.ndarray:
    """Spherical-basis amplitudes (u_q* . E) for q = -1, 0, +1 about the z axis.

    |A_q|^2 is the intensity driving dm = q transitions, and the scalar
    contraction obeys d.E = sum_q d_q A_q.
    """
    ex, ey, ez = e_cart
    return np.array(
        [(ex + 1j * ey) / sqrt(2.0), ez, -(ex - 1j * ey) / sqrt(2.0)], dtype=complex
    )


def ground_stark_operator(
    e_cart, wavelength_m: float, data: AtomicData | None = None
) -> np.ndarray:
    """Second-order AC Stark operator on the 6S1/2 electronic doublet, in J.

    ``e_cart`` is the complex positive-frequency field amplitude (V/m) in the
    frame whose z axis is the quantization axis.  The operator is returned in
    the (mJ=-1/2, mJ=+1/2) basis and includes counter-rotating terms; excited
    hyperfine structure is not resolved (two-line model).
    """
    data = data or default_atomic_data()
    omega = _check_wavelength(wavelength_m, data)
    e_cart = np.asarray(e_cart, dtype=complex)
    et = spherical_amplitudes(e_cart)
    et_conj = spherical_amplitudes(np.conj(e_cart))
    v = np.zeros((2, 2), dtype=complex)
    for (w0, _), red, two_j_e in (
        (data.lines()[0], data.d1_reduced_dipole_cm, 1),
        (data.lines()[1], data.d2_reduced_dipole_cm, 3),
    ):
        mats = _dq_matrices(two_j_e)
        b = red * sum(et[k] * mats[k] for k in range(3))
        bt = red * sum(et_conj[k] * mats[k] for k in range(3))
        v += -(1.0 / (4.0 * HBAR)) * (
            (b.conj().T @ b) / (w0 - omega) + (bt.conj().T @ bt) / (w0 + omega)
        )
    return v


def operator_vector_polarizability(wavelength_m: float, f: int, data: AtomicData) -> float:
    """alpha_v of ground manifold F from the mJ = +-1/2 splitting in a unit sigma+ field."""
    u_plus = np.array([-1.0 / sqrt(2.0), -1j / sqrt(2.0), 0.0])  # unit sigma+ about z
    v = ground_stark_operator(u_plus, wavelength_m, data)
    c_z = float(np.real(v[1, 1] - v[0, 0]))  # splitting of mJ = +-1/2, in J
    return -8.0 * f * _f_projection(f, data.nuclear_spin) * c_z
