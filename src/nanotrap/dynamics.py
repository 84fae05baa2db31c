"""Zeeman-sublevel rate-equation optical pumping on the closed F=4 -> F'=5
transition, push-out selectivity, and Fourier-limited microwave lineshapes.

Level ordering: ground sublevels are indexed mF = -4..+4 (9 states), excited
sublevels mF' = -5..+5 (11 states); the full generator acts on the stacked
20-vector [ground, excited].  Rate equations carry no optical coherences,
which is exact to the accuracies needed here at pW drive powers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import atom_cs
from .atom_cs import AtomicData, default_atomic_data
from .errors import DomainError, NonUniqueSteadyStateError, SelectionRuleError
from .numerics import find_root

__all__ = [
    "PopulationVector",
    "PulseSpec",
    "pump_rates",
    "pump_steady_state",
    "pump_evolution",
    "evolve_rates",
    "scattering_rate",
    "rabi_transfer",
    "pi_pulse_fwhm",
    "pumping_time_constant",
]

N_GROUND = 9  # F = 4
N_EXCITED = 11  # F' = 5

# [13/13] Pade approximant of exp: coefficients b_k of its numerator, and the
# largest 1-norm theta_13 at which it is exact to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE_13 = [
    factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k) * factorial(13 - k))
    for k in range(14)
]
_THETA_13 = 5.371920351148152


@dataclass(frozen=True)
class PopulationVector:
    """Occupation of the Zeeman sublevels of one ground hyperfine manifold."""

    f: int
    populations: np.ndarray  # index 0 -> mF = -F

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        object.__setattr__(self, "populations", p)
        if self.f not in (3, 4):
            raise DomainError("population vector is defined for F = 3 or 4")
        if p.size != 2 * self.f + 1:
            raise DomainError(f"expected {2 * self.f + 1} entries for F={self.f}")
        if not np.all(np.isfinite(p)):
            raise DomainError("populations must be finite")
        if np.any(p < -1e-12):
            raise DomainError("populations must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise DomainError("populations must sum to 1 within 1e-9")

    def population(self, mf: int) -> float:
        return float(self.populations[mf + self.f])


@dataclass(frozen=True)
class PulseSpec:
    """Square microwave pulse: Rabi frequency (rad/s), duration, detuning."""

    rabi_rad_s: float
    duration_s: float
    detuning_hz: float = 0.0

    @classmethod
    def pi_pulse(cls, duration_s: float, detuning_hz: float = 0.0) -> "PulseSpec":
        """Resonant pulse area pi: Omega = pi / tau."""
        if duration_s <= 0:
            raise DomainError("pulse duration must be positive")
        return cls(rabi_rad_s=np.pi / duration_s, duration_s=duration_s, detuning_hz=detuning_hz)

    def __post_init__(self):
        if self.rabi_rad_s <= 0 or self.duration_s <= 0:
            raise DomainError("Rabi frequency and duration must be positive")


def _strength(mf: int, q: int) -> float:
    """Clebsch-Gordan weight of (4,mF) -> (5,mF+q); 0 outside the ladder."""
    if abs(mf + q) > 5:
        return 0.0
    return atom_cs.transition_strength((4, mf), q, (5, mf + q))


def pump_rates(fractions, saturation: float, data: AtomicData | None = None) -> np.ndarray:
    """Rate-equation generator (20 x 20, units 1/s) for given drive fractions.

    ``fractions`` are the (sigma+, pi, sigma-) intensity fractions of the
    local field; excitation rates are (Gamma/2) * s * fraction * strength and
    spontaneous decay follows the Clebsch-Gordan branching of the closed
    F=4 -> F'=5 transition.  Columns sum to zero (probability conservation).
    """
    data = data or default_atomic_data()
    f_plus, f_zero, f_minus = fractions
    fr = np.array([f_plus, f_zero, f_minus], dtype=float)
    if np.any(fr < 0) or saturation < 0:
        raise DomainError("fractions and saturation must be non-negative")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise DomainError("intensity fractions must sum to 1")

    gamma = 2 * np.pi * data.d2_linewidth_hz  # radiative decay rate, 1/s
    gen = np.zeros((N_GROUND + N_EXCITED, N_GROUND + N_EXCITED))

    for i_g, mf in enumerate(range(-4, 5)):
        for frac, q in zip(fr, (+1, 0, -1)):
            st = _strength(mf, q)
            if st == 0.0 or frac == 0.0:
                continue
            rate = 0.5 * gamma * saturation * frac * st
            i_e = N_GROUND + (mf + q) + 5
            gen[i_e, i_g] += rate
            gen[i_g, i_g] -= rate

    for i_e_local, mfe in enumerate(range(-5, 6)):
        i_e = N_GROUND + i_e_local
        for q in (+1, 0, -1):
            mf = mfe - q
            if abs(mf) > 4:
                continue
            branch = _strength(mf, q)  # decay weights sum to 1 per excited state
            rate = gamma * branch
            i_g = mf + 4
            gen[i_g, i_e] += rate
            gen[i_e, i_e] -= rate
    return gen


def _effective_ground_generator(rates: np.ndarray) -> np.ndarray:
    """Adiabatic elimination of the excited manifold (Schur complement)."""
    g_gg = rates[:N_GROUND, :N_GROUND]
    g_ge = rates[:N_GROUND, N_GROUND:]
    g_eg = rates[N_GROUND:, :N_GROUND]
    g_ee = rates[N_GROUND:, N_GROUND:]
    try:
        return g_gg + g_ge @ np.linalg.solve(-g_ee, g_eg)
    except np.linalg.LinAlgError as exc:
        raise NonUniqueSteadyStateError(
            "excited manifold contains non-decaying states; dynamics disconnected"
        ) from exc


def pump_steady_state(rates: np.ndarray, data: AtomicData | None = None) -> PopulationVector:
    """Stationary ground-manifold distribution of the pump generator.

    Excited states are adiabatically eliminated, which is exact for the
    stationary state.  The null vector of the effective ground generator
    G_eff then solves the consistent bordered system [G_eff; 1^T] p = [0; 1]
    (G_eff rows scaled to unit diagonal magnitude) in one least-squares
    solve, to rounding: it equals the normalised eigenvector of G_eff's
    least-modulus eigenvalue to 1e-13.  A degenerate null space
    (disconnected dynamics) is rejected.
    """
    g_eff = _effective_ground_generator(np.asarray(rates, dtype=float))
    scale = np.max(np.abs(np.diag(g_eff)))
    if scale == 0.0:
        raise NonUniqueSteadyStateError("generator is identically zero")
    evals = np.linalg.eigvals(g_eff)
    if np.sum(np.abs(evals) < 1e-9 * scale) > 1:
        raise NonUniqueSteadyStateError("disconnected dynamics: steady state not unique")

    bordered = np.vstack([g_eff / scale, np.ones(N_GROUND)])
    target = np.zeros(N_GROUND + 1)
    target[-1] = 1.0
    p = np.clip(np.linalg.lstsq(bordered, target)[0], 0.0, None)
    return PopulationVector(f=4, populations=p / p.sum())


def evolve_rates(generator: np.ndarray, p0: np.ndarray, duration: float):
    """Propagate dp/dt = G p exactly: p(t) = exp(G t) p0.

    exp(G t) is the [13/13] Pade approximant with scaling and squaring: G t
    is halved s times until its 1-norm is at most theta_13, where the
    approximant is exact to double precision, and the result is squared s
    times.  Nothing is diagonalised, so defective generators are exact too.
    On the pump generators it agrees with scipy.linalg.expm to 1e-10.
    """
    if duration < 0:
        raise DomainError("duration must be non-negative")
    a = np.asarray(generator, dtype=float) * duration
    norm = np.max(np.sum(np.abs(a), axis=0))
    if not np.isfinite(norm):
        raise DomainError(f"|G t|_1 overflows at duration {duration!r} s")
    squarings = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    a = a / 2.0**squarings
    b = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(len(a))
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    u = a @ (odd + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    propagator = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        propagator = propagator @ propagator
    return propagator @ np.asarray(p0, dtype=float)


def pump_evolution(
    rates: np.ndarray,
    initial: PopulationVector,
    duration: float,
    data: AtomicData | None = None,
) -> PopulationVector:
    """Ground-manifold distribution after pumping for ``duration`` seconds.

    The full 20-level system is propagated; the returned vector is the
    ground-manifold occupation renormalised over the ground manifold (the
    transiently excited fraction is a fraction of the saturation parameter).
    """
    if initial.f != 4:
        raise DomainError("pump_evolution drives the F=4 manifold")
    p_full = np.zeros(N_GROUND + N_EXCITED)
    p_full[:N_GROUND] = initial.populations
    p_full = evolve_rates(np.asarray(rates, dtype=float), p_full, duration)
    ground = np.clip(p_full[:N_GROUND], 0.0, None)
    return PopulationVector(f=4, populations=ground / ground.sum())


def pumping_time_constant(rates: np.ndarray) -> float:
    """1/e relaxation time of the slowest pumping mode, in seconds."""
    g_eff = _effective_ground_generator(np.asarray(rates, dtype=float))
    evals = np.linalg.eigvals(g_eff)
    real = np.real(evals)
    nonzero = real[real < -1e-9 * np.max(np.abs(real))]
    if nonzero.size == 0:
        raise NonUniqueSteadyStateError("no relaxing mode in the pump generator")
    return float(-1.0 / np.max(nonzero))


def scattering_rate(
    state,
    q: int,
    detuning_hz: float,
    saturation: float,
    data: AtomicData | None = None,
) -> float:
    """Photon scattering rate (1/s) of one D2 transition of an F=4 atom.

    Lorentzian rate (Gamma/2) s strength / (1 + s + 4 delta^2/Gamma_nat^2)
    where delta is the detuning from the AC-Stark/Zeeman-shifted resonance
    of the (4,mF) -> (5,mF+q) transition.
    """
    data = data or default_atomic_data()
    if isinstance(state, tuple):
        f, mf = state
    else:
        f, mf = state.f, state.mf
    if f != 4:
        raise SelectionRuleError("push-out scattering is evaluated on the F=4 manifold")
    if abs(mf + q) > 5:
        raise SelectionRuleError(f"(4,{mf}) + q={q} has no F'=5 partner")
    if saturation < 0:
        raise DomainError("saturation must be non-negative")
    strength = atom_cs.transition_strength((4, mf), q, (5, mf + q))
    gamma_rad = 2 * np.pi * data.d2_linewidth_hz
    lorentz = 1.0 + saturation + 4.0 * (detuning_hz / data.d2_linewidth_hz) ** 2
    return 0.5 * gamma_rad * saturation * strength / lorentz


def rabi_transfer(pulse: PulseSpec) -> float:
    """Transfer probability of a square pulse at fixed detuning.

    P = Omega^2/(Omega^2 + delta^2) sin^2(sqrt(Omega^2 + delta^2) tau / 2)
    with delta = 2 pi * detuning.
    """
    delta = 2 * np.pi * pulse.detuning_hz
    omega_eff = np.hypot(pulse.rabi_rad_s, delta)
    amp = (pulse.rabi_rad_s / omega_eff) ** 2
    return float(amp * np.sin(0.5 * omega_eff * pulse.duration_s) ** 2)


def pi_pulse_fwhm(tau_s: float) -> float:
    """Full width at half maximum (Hz) of the pi-pulse line P(detuning)."""
    if tau_s <= 0:
        raise DomainError("pulse duration must be positive")

    def half_crossing(detuning_hz):
        return rabi_transfer(PulseSpec.pi_pulse(tau_s, detuning_hz)) - 0.5

    upper = find_root(half_crossing, 0.0, 1.0 / tau_s, 1e-9 / tau_s)
    lower = find_root(half_crossing, -1.0 / tau_s, 0.0, 1e-9 / tau_s)
    return upper - lower
