"""Zeeman-sublevel rate-equation optical pumping on the closed F=4 -> F'=5
transition, and push-out selectivity.

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
from .numerics import find_root  # noqa: F401  unused; perfbench/tracer.py patches this name

__all__ = [
    "PopulationVector",
    "pump_rates",
    "pump_steady_state",
    "pump_evolution",
    "evolve_rates",
    "scattering_rate",
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

# Clebsch-Gordan weights of (4,mF) -> (5,mF+q): rows mF = -4..4, columns
# q = +1, 0, -1 (the order of the drive fractions), with the generator indices
# of each transition's ground and excited sublevel
_STRENGTHS = np.array([
    [atom_cs.transition_strength((4, m), q, (5, m + q)) for q in (1, 0, -1)] for m in range(-4, 5)
])
_MF = np.arange(-4, 5)[:, None]
_GROUND = _MF + 4
_EXCITED = N_GROUND + 5 + _MF + np.array([1, 0, -1])


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
    if not (np.all(fr >= 0) and 0 <= saturation < np.inf):  # NaN fails both
        raise DomainError("fractions and saturation must be non-negative and finite")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise DomainError("intensity fractions must sum to 1")

    gamma = 2 * np.pi * data.d2_linewidth_hz  # radiative decay rate, 1/s
    excitation = 0.5 * gamma * saturation * fr * _STRENGTHS
    branching = gamma * _STRENGTHS  # decay weights sum to 1 per excited state
    gen = np.zeros((N_GROUND + N_EXCITED, N_GROUND + N_EXCITED))
    gen[_EXCITED, _GROUND] = excitation
    gen[_GROUND, _EXCITED] = branching
    # every sublevel's loss per q, summed in the order +1, 0, -1 of a running sum
    loss = np.concatenate([excitation, np.zeros((N_EXCITED, 3))])
    loss[_EXCITED, [0, 1, 2]] = branching
    gen[np.diag_indices_from(gen)] -= loss[:, 0] + loss[:, 1] + loss[:, 2]
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

    Excited states are adiabatically eliminated, exact for the stationary state.
    GTH state reduction (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107 (1985)) then
    eliminates G_eff's states from the last, from its off-diagonal rates alone: no step
    subtracts, so every population is accurate to a few ulps relative.  A closed (dark)
    state ends it.  A degenerate null space is rejected.
    """
    g_eff = _effective_ground_generator(np.asarray(rates, dtype=float))
    scale = np.max(np.abs(np.diag(g_eff)))
    if scale == 0.0:
        raise NonUniqueSteadyStateError("generator is identically zero")
    evals = np.linalg.eigvals(g_eff)
    if np.sum(np.abs(evals) < 1e-9 * scale) > 1:
        raise NonUniqueSteadyStateError("disconnected dynamics: steady state not unique")

    flow = g_eff.T.copy()  # flow[i, j]: the rate from state i to state j (diagonal unused)
    for first in range(N_GROUND - 1, -1, -1):
        out = flow[first, :first].sum()
        if out == 0.0:  # a closed state, at the latest state 0: those left are transient
            break
        flow[:first, first] /= out
        flow[:first, :first] += flow[:first, first, None] * flow[first, :first]
    p = np.eye(N_GROUND)[first]
    for j in range(first + 1, N_GROUND):
        p[j] = p[:j] @ flow[:j, j]
    return PopulationVector(f=4, populations=p / p.sum())


def evolve_rates(generator: np.ndarray, p0: np.ndarray, duration: float):
    """Propagate dp/dt = G p exactly: p(t) = exp(G t) p0, for a rate generator G.

    exp(G t) is the [13/13] Pade approximant with scaling and squaring: G t
    is halved s times until its 1-norm is at most theta_13, where the
    approximant is exact to double precision, and the result is squared s
    times.  Nothing is diagonalised, so defective generators are exact too.
    G's columns sum to zero, so each square is divided by its column sums:
    the rounding stays bounded at any duration, up to the steady state.
    On the pump generators it agrees with scipy.linalg.expm to 1e-10.
    """
    if duration < 0:
        raise DomainError("duration must be non-negative")
    g = np.asarray(generator, dtype=float)
    # a Python float product: an overflow gives inf without a numpy warning
    norm = float(np.max(np.sum(np.abs(g), axis=0))) * duration
    if not np.isfinite(norm):
        raise DomainError(f"|G t|_1 overflows at duration {duration!r} s")
    a = g * duration
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
        propagator /= propagator.sum(axis=0)
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
