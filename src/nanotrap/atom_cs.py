"""Cesium atomic structure: hyperfine/Zeeman energies, transition strengths,
and two-line (D1 + D2) dynamic polarizabilities with the closed-form tune-out.

Conventions
-----------
* Reduced dipole matrix elements follow the 3j (Wigner-Eckart) convention
  ``<J' m'|d_q|J m> = <J'||d||J> (-1)^(J'-m') threej(J',1,J; -m',q,m)``.
* The scalar polarizability of the 6S1/2 ground state is
  ``alpha_s(w) = sum_lines (2/3) S_i w_i / (hbar (w_i^2 - w^2))`` with
  ``S_i = |<J||d||J'>|^2 / (2J+1)``; counter-rotating terms are included
  through the ``w_i/(w_i^2-w^2)`` structure.
* The vector polarizability of a ground hyperfine manifold F is defined by
  the energy ``dE = -(1/4) alpha_v |E|^2 (eps . z) mF/(2F)`` where ``eps`` is
  the local ellipticity vector and z the quantization axis.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import factorial, sqrt
from pathlib import Path

import numpy as np

from . import constants as cst
from .constants import load_constants
from .errors import (
    DomainError,
    NearResonanceError,
    SelectionRuleError,
    ValidityError,
)
from .numerics import find_root  # noqa: F401  unused; perfbench/tracer.py patches this name

MU_B_J_PER_G = cst.mu_B * 1e-4  # J/G
H_PLANCK = cst.h
HBAR = cst.hbar


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol by the Racah sum; arguments may be half-integral."""
    if (m1 + m2 + m3) != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if j3 > j1 + j2 or j3 < abs(j1 - j2):
        return 0.0

    def fac(x):
        ix = int(round(x))
        if abs(x - ix) > 1e-9 or ix < 0:
            raise DomainError(f"non-integral factorial argument {x}")
        return factorial(ix)

    prefactor = sqrt(
        fac(j1 + j2 - j3)
        * fac(j1 - j2 + j3)
        * fac(-j1 + j2 + j3)
        / fac(j1 + j2 + j3 + 1)
        * fac(j1 + m1)
        * fac(j1 - m1)
        * fac(j2 + m2)
        * fac(j2 - m2)
        * fac(j3 + m3)
        * fac(j3 - m3)
    )
    t_min = int(round(max(0.0, j2 - j3 - m1, j1 - j3 + m2)))
    t_max = int(round(min(j1 + j2 - j3, j1 - m1, j2 + m2)))
    total = 0.0
    for t in range(t_min, t_max + 1):
        denom = (
            fac(t)
            * fac(j3 - j2 + m1 + t)
            * fac(j3 - j1 - m2 + t)
            * fac(j1 + j2 - j3 - t)
            * fac(j1 - m1 - t)
            * fac(j2 + m2 - t)
        )
        total += (-1) ** t / denom
    phase = (-1) ** int(round(j1 - j2 - m3))
    return phase * prefactor * total


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> float:
    """<j1 m1; j2 m2 | j3 m3>."""
    phase = (-1) ** int(round(j1 - j2 + m3))
    return phase * sqrt(2 * j3 + 1) * wigner_3j(j1, j2, j3, m1, m2, -m3)


@dataclass(frozen=True)
class HyperfineState:
    """One hyperfine Zeeman sublevel of the 6S1/2 or 6P3/2 manifold."""

    manifold: str  # "ground" (6S1/2) or "excited" (6P3/2)
    f: int
    mf: int

    def __post_init__(self):
        if self.manifold == "ground":
            allowed = (3, 4)
        elif self.manifold == "excited":
            allowed = (2, 3, 4, 5)
        else:
            raise DomainError(f"unknown manifold {self.manifold!r}")
        if self.f not in allowed:
            raise DomainError(f"F={self.f} not in {allowed} for {self.manifold} manifold")
        if abs(self.mf) > self.f:
            raise DomainError(f"|mF|={abs(self.mf)} exceeds F={self.f}")


def ground_state(f: int, mf: int) -> HyperfineState:
    return HyperfineState("ground", f, mf)


def excited_state(f: int, mf: int) -> HyperfineState:
    return HyperfineState("excited", f, mf)


@dataclass(frozen=True)
class AtomicData:
    """Cesium constants, the derived quadratic clock coefficient, and the fiber core's Sellmeier fit."""

    nuclear_spin: float
    mass_kg: float
    hyperfine_splitting_hz: float
    g_j_ground: float
    g_j_excited_d2: float
    g_i: float
    d1_frequency_hz: float
    d1_linewidth_hz: float
    d1_reduced_dipole_cm: float
    d2_frequency_hz: float
    d2_linewidth_hz: float
    d2_reduced_dipole_cm: float
    c3_ground_jm3: float
    sellmeier: tuple[float, ...]  # (B1, B2, B3, L1, L2, L3), L in um^2
    alpha0_khz_per_g2: float  # derived at load time

    @classmethod
    def from_file(cls, path: str | Path | None = None) -> "AtomicData":
        """Read a data file (default: the bundled one) into the fields of the same names.

        ``ground_hyperfine_splitting_hz`` fills ``hyperfine_splitting_hz``, the six
        ``sellmeier_*`` keys fill ``sellmeier``, and ``alpha0_khz_per_g2`` is derived.
        """
        c = load_constants(path)
        c["hyperfine_splitting_hz"] = c.pop("ground_hyperfine_splitting_hz")
        c["sellmeier"] = tuple(
            c.pop(f"sellmeier_{k}") for k in ("b1", "b2", "b3", "l1_um2", "l2_um2", "l3_um2")
        )
        x_per_g = (
            (c["g_j_ground"] - c["g_i"])
            * MU_B_J_PER_G
            / (H_PLANCK * c["hyperfine_splitting_hz"])
        )
        c["alpha0_khz_per_g2"] = 0.5 * c["hyperfine_splitting_hz"] * x_per_g**2 * 1e-3  # kHz/G^2
        return cls(**{f.name: c[f.name] for f in fields(cls)})

    def g_f(self, manifold: str, f: int) -> float:
        """Lande g-factor of a hyperfine level, including the nuclear term."""
        i = self.nuclear_spin
        j = 0.5 if manifold == "ground" else 1.5
        gj = self.g_j_ground if manifold == "ground" else self.g_j_excited_d2
        ff = f * (f + 1)
        cj = (ff - i * (i + 1) + j * (j + 1)) / (2 * ff)
        ci = (ff + i * (i + 1) - j * (j + 1)) / (2 * ff)
        return gj * cj + self.g_i * ci

    def lines(self):
        """(angular frequency, S = red^2/(2J+1)) for D1 and D2."""
        s1 = self.d1_reduced_dipole_cm**2 / 2.0
        s2 = self.d2_reduced_dipole_cm**2 / 2.0
        return (
            (2 * np.pi * self.d1_frequency_hz, s1),
            (2 * np.pi * self.d2_frequency_hz, s2),
        )


@lru_cache(maxsize=None)
def default_atomic_data() -> AtomicData:
    """The bundled data file's ``AtomicData``, read on first use."""
    return AtomicData.from_file()


def _as_state(state, manifold: str) -> HyperfineState:
    """A HyperfineState of ``manifold``, or an (F, mF) pair taken as one; DomainError otherwise."""
    if isinstance(state, HyperfineState):
        if state.manifold != manifold:
            raise DomainError(f"operation defined for {manifold} states only")
        return state
    f, mf = state
    return HyperfineState(manifold, int(f), int(mf))


def breit_rabi_energy(state, b_gauss, data: AtomicData | None = None):
    """Exact ground-manifold hyperfine/Zeeman eigenvalue in Hz.

    Energies are referenced so that the zero-field F=4/F=3 difference equals
    the hyperfine splitting; stretched states follow the closed linear branch.
    ``b_gauss`` may be an array (element-wise energies); a scalar field gives
    a float.
    """
    data = data or default_atomic_data()
    state = _as_state(state, "ground")
    b_gauss = np.asarray(b_gauss, dtype=float)
    # negative values mean a reversed field; the spectrum is even in B
    i = data.nuclear_spin
    dehf = data.hyperfine_splitting_hz
    x = (data.g_j_ground - data.g_i) * MU_B_J_PER_G * b_gauss / (H_PLANCK * dehf)
    base = -dehf / (2 * (2 * i + 1)) + data.g_i * MU_B_J_PER_G * state.mf * b_gauss / H_PLANCK
    sign = 1.0 if state.f == 4 else -1.0
    if state.f == 4 and abs(state.mf) == int(i + 0.5):
        # stretched states: the square root collapses to |1 +- x|
        root = abs(1.0 + np.sign(state.mf) * x)
    else:
        root = np.sqrt(1.0 + 4.0 * state.mf * x / (2 * i + 1) + x * x)
    energy = base + sign * 0.5 * dehf * root
    return float(energy) if energy.ndim == 0 else energy


def zeeman_shift_excited(state, b_gauss: float, data: AtomicData | None = None) -> float:
    """Linear Zeeman shift gF' mF' muB B of a 6P3/2 sublevel, in Hz."""
    data = data or default_atomic_data()
    state = _as_state(state, "excited")
    if b_gauss > 50.0:
        raise ValidityError("linear excited-state Zeeman model capped at 50 G")
    gf = data.g_f("excited", state.f)
    return gf * state.mf * MU_B_J_PER_G * b_gauss / H_PLANCK


def mw_transition_frequency(lower, upper, b_gauss: float, data: AtomicData | None = None) -> float:
    """Frequency of a ground-state microwave transition (3,mF) -> (4,mF'), Hz."""
    data = data or default_atomic_data()
    lower = _as_state(lower, "ground")
    upper = _as_state(upper, "ground")
    if lower.f != 3 or upper.f != 4:
        raise DomainError("expected lower state in F=3 and upper state in F=4")
    if abs(upper.mf - lower.mf) > 1:
        raise SelectionRuleError(f"|dmF| = {abs(upper.mf - lower.mf)} > 1")
    return breit_rabi_energy(upper, b_gauss, data) - breit_rabi_energy(lower, b_gauss, data)


def transition_strength(ground, q: int, excited) -> float:
    """Squared Clebsch-Gordan weight of a D2 optical transition.

    Normalised so the stretched cycling transition (4,4) -sigma+-> (5,5) has
    strength exactly 1.
    """
    g = _as_state(ground, "ground")
    e = _as_state(excited, "excited")
    if q not in (-1, 0, 1):
        raise SelectionRuleError(f"q must be -1, 0, or +1, got {q}")
    if e.mf != g.mf + q:
        raise SelectionRuleError(f"mF'={e.mf} != mF+q={g.mf + q}")
    return clebsch_gordan(g.f, g.mf, 1, q, e.f, e.mf) ** 2


# --- dynamic polarizabilities ------------------------------------------------


def _check_wavelength(wavelength_m: float, data: AtomicData) -> float:
    """Reject wavelengths within 10 natural linewidths of either D line."""
    if wavelength_m <= 0:
        raise DomainError("wavelength must be positive")
    nu = cst.c / wavelength_m
    for line_nu, line_gamma in (
        (data.d1_frequency_hz, data.d1_linewidth_hz),
        (data.d2_frequency_hz, data.d2_linewidth_hz),
    ):
        if abs(nu - line_nu) < 10.0 * line_gamma:
            raise NearResonanceError(
                f"wavelength {wavelength_m * 1e9:.6f} nm is within 10 linewidths of a D line"
            )
    return 2 * np.pi * nu


def scalar_polarizability(wavelength_m: float, data: AtomicData | None = None) -> float:
    """Dynamic scalar polarizability of the 6S1/2 manifold, SI units (C m^2/V)."""
    data = data or default_atomic_data()
    omega = _check_wavelength(wavelength_m, data)
    total = 0.0
    for w0, s in data.lines():
        total += (2.0 / 3.0) * s * w0 / (HBAR * (w0 * w0 - omega * omega))
    return total


def _f_projection(f: int, i: float) -> float:
    """Projection factor of the electron spin J onto an F manifold."""
    j = 0.5
    return (f * (f + 1) + j * (j + 1) - i * (i + 1)) / (2 * f * (f + 1))


def vector_polarizability(
    wavelength_m: float, f: int, data: AtomicData | None = None
) -> float:
    """Dynamic vector polarizability of the ground manifold F, SI units.

    Defined by dE = -(1/4) alpha_v |E|^2 (eps . z) mF/(2F).  A unit sigma+
    field shifts mJ = +-1/2 through D2 with squared 3j weights 1/4 (to
    mJ' = +-3/2) and 1/12 (to mJ' = +-1/2) and through D1 with 1/3,
    counter-rotating terms included (Le Kien, Schneeweiss and Rauschenbeutel,
    Eur. Phys. J. D 67, 92 (2013)); J is then projected onto F.
    """
    data = data or default_atomic_data()
    if f not in (3, 4):
        raise DomainError(f"ground F must be 3 or 4, got {f}")
    omega = _check_wavelength(wavelength_m, data)
    (w1, _), (w2, _) = data.lines()
    s1, s2 = data.d1_reduced_dipole_cm**2, data.d2_reduced_dipole_cm**2
    shift_up = s2 * (1 / 4 / (w2 - omega) + 1 / 12 / (w2 + omega)) + s1 / 3 / (w1 + omega)
    shift_down = s2 * (1 / 12 / (w2 - omega) + 1 / 4 / (w2 + omega)) + s1 / 3 / (w1 - omega)
    c_z = -(shift_up - shift_down) / (4.0 * HBAR)  # splitting of mJ = +-1/2, in J
    return -8.0 * f * _f_projection(f, data.nuclear_spin) * c_z


def vector_shift_coefficient_g_per_v2m2(
    wavelength_m: float, f: int, data: AtomicData | None = None
) -> float:
    """beta_v such that B_fict = beta_v * i(E x E*), in G per (V/m)^2."""
    data = data or default_atomic_data()
    alpha_v = vector_polarizability(wavelength_m, f, data)
    gf = data.g_f("ground", f)
    return -alpha_v / (8.0 * f * gf * MU_B_J_PER_G)


def tune_out(data: AtomicData | None = None) -> float:
    """Wavelength where the scalar polarizability crosses zero, in metres.

    alpha_s is proportional to S1 w1/(w1^2 - w^2) + S2 w2/(w2^2 - w^2) with S1, S2 >= 0,
    whose one zero lies between the D lines, at w^2 = (S1 w1 w2^2 + S2 w2 w1^2)/(S1 w1 + S2 w2).
    A zero reduced dipole puts it on a D line, which ``_check_wavelength`` rejects.
    """
    data = data or default_atomic_data()
    (w1, s1), (w2, s2) = data.lines()
    if not s1 * w1 + s2 * w2 > 0:
        raise DomainError("no tune-out wavelength: both D-line strengths vanish")
    wavelength = 2 * np.pi * cst.c / np.sqrt((s1 * w1 * w2**2 + s2 * w2 * w1**2) / (s1 * w1 + s2 * w2))
    _check_wavelength(wavelength, data)
    return float(wavelength)
