"""Forward models and fitters for probe-transmission and microwave spectra,
plus reproducible synthetic-data generation with shot noise.

The transmission model is a product of two saturated-absorption Lorentzians
with a common linewidth,

    T(d) = exp(-sum_k OD_k / (1 + 4 (d - d_k)^2 / Gamma^2)),

fitted in -ln(T) space with Poisson-propagated weights.  All random numbers
come from the Philox 4x64 counter-based generator keyed by the caller's
seed, so every dataset is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import pi_pulse_fwhm
from .errors import DegenerateFitError, DomainError
from .numerics import FitResult, least_squares

__all__ = [
    "SpectrumModel",
    "SpectrumData",
    "MwFitResult",
    "transmission",
    "simulate_spectrum",
    "fit_transmission",
    "simulate_mw_spectrum",
    "fit_mw_spectrum",
]


@dataclass(frozen=True)
class SpectrumModel:
    """Two-dip transmission model: optical densities, centers, common width."""

    od_plus: float
    od_minus: float
    delta_plus: float  # Hz
    delta_minus: float  # Hz
    gamma: float  # Hz

    def __post_init__(self):
        if self.od_plus < 0 or self.od_minus < 0:
            raise DomainError("optical densities must be non-negative")
        if self.gamma <= 0:
            raise DomainError("linewidth must be positive")

    def as_parameters(self) -> np.ndarray:
        return np.array(
            [self.od_plus, self.od_minus, self.delta_plus, self.delta_minus, self.gamma]
        )


@dataclass(frozen=True)
class SpectrumData:
    """Recorded (or synthetic) transmission spectrum in raw counts."""

    detunings_hz: np.ndarray
    transmitted: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.detunings_hz, dtype=float)
        t = np.asarray(self.transmitted, dtype=float)
        r = np.asarray(self.reference, dtype=float)
        object.__setattr__(self, "detunings_hz", d)
        object.__setattr__(self, "transmitted", t)
        object.__setattr__(self, "reference", r)
        if not (d.size == t.size == r.size):
            raise DomainError("spectrum columns must have equal length")
        if np.any(np.diff(d) <= 0):
            raise DomainError("detunings must be strictly increasing")
        if np.any(t < 0) or np.any(r < 0):
            raise DomainError("counts must be non-negative")


def _log_absorbance(params: np.ndarray, detuning) -> np.ndarray:
    od_p, od_m, d_p, d_m, gamma = params
    x = np.asarray(detuning, dtype=float)
    return od_p / (1.0 + 4.0 * (x - d_p) ** 2 / gamma**2) + od_m / (
        1.0 + 4.0 * (x - d_m) ** 2 / gamma**2
    )


def transmission(model: SpectrumModel, detuning_hz):
    """Transmission in (0, 1] at the given probe detuning(s)."""
    return np.exp(-_log_absorbance(model.as_parameters(), detuning_hz))


def simulate_spectrum(
    model: SpectrumModel,
    detunings_hz,
    mean_reference_counts: float,
    seed: int,
) -> SpectrumData:
    """Draw a Poisson photon-counting record of the transmission spectrum.

    Per bin, the transmitted counts are Poisson with mean
    ``mean_reference_counts * T(detuning)`` and the reference counts are
    Poisson with mean ``mean_reference_counts``; the two vectors are drawn
    in that order from a Philox generator keyed by ``seed``.
    """
    if mean_reference_counts <= 0:
        raise DomainError("mean reference counts must be positive")
    d = np.asarray(detunings_hz, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=seed))
    t = transmission(model, d)
    transmitted = rng.poisson(mean_reference_counts * t)
    reference = rng.poisson(mean_reference_counts, size=d.size)
    return SpectrumData(detunings_hz=d, transmitted=transmitted, reference=reference)


def fit_transmission(data: SpectrumData, initial: SpectrumModel) -> FitResult:
    """Fit (OD+, OD-, delta+, delta-, Gamma) to a counting spectrum.

    Performed on y = -ln(n_t / n_r) with weights from Poisson error
    propagation (var y = 1/n_t + 1/n_r); zero counts are regularised by
    substituting 0.5.  After convergence the two dips are ordered so that
    delta+ > delta-, with the covariance permuted accordingly.
    """
    if data.detunings_hz.size < 25:
        raise DomainError("need at least 25 spectral points spanning both dips")
    n_t = np.where(data.transmitted > 0, data.transmitted, 0.5)
    n_r = np.where(data.reference > 0, data.reference, 0.5)
    y = -np.log(n_t / n_r)
    weights = 1.0 / (1.0 / n_t + 1.0 / n_r)
    triples = list(zip(data.detunings_hz, y, weights))
    result = least_squares(_log_absorbance, initial.as_parameters(), triples)

    p = result.parameters
    if p[2] < p[3]:  # order the centers: delta_plus is the larger one
        perm = np.array([1, 0, 3, 2, 4])
        result = replace(
            result,
            parameters=p[perm],
            covariance=result.covariance[np.ix_(perm, perm)],
        )
    return result


@dataclass(frozen=True)
class MwFitResult:
    """Centers and amplitudes of Fourier-limited microwave lines."""

    centers_hz: np.ndarray
    center_sigmas_hz: np.ndarray
    amplitudes: np.ndarray
    splitting_hz: float
    splitting_sigma_hz: float
    fit: FitResult


def _mw_lineshape(tau_s: float):
    def shape(params, detuning):
        x = np.asarray(detuning, dtype=float)
        n = params.size // 2
        total = np.zeros_like(x)
        for k in range(n):
            center, amp = params[2 * k], params[2 * k + 1]
            omega_eff = np.hypot(np.pi / tau_s, 2 * np.pi * (x - center))
            total = total + amp * (np.pi / tau_s / omega_eff) ** 2 * np.sin(
                0.5 * omega_eff * tau_s
            ) ** 2
        return total

    return shape


def simulate_mw_spectrum(
    centers_hz,
    amplitudes,
    tau_s: float,
    detunings_hz,
    noise_sigma: float,
    seed: int,
):
    """Synthetic microwave transfer data: Fourier-limited lines plus Gaussian noise.

    Returns (detunings, transfer fractions); reproducible via Philox(seed).
    """
    centers = np.asarray(centers_hz, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if centers.size != amps.size:
        raise DomainError("need one amplitude per line center")
    d = np.asarray(detunings_hz, dtype=float)
    params = np.ravel(np.column_stack([centers, amps]))
    clean = _mw_lineshape(tau_s)(params, d)
    rng = np.random.Generator(np.random.Philox(key=seed))
    noisy = clean + rng.normal(0.0, noise_sigma, size=d.size)
    return d, np.clip(noisy, 0.0, None)


def fit_mw_spectrum(data, tau_s: float, components: int = 1) -> MwFitResult:
    """Fit one or two Fourier-limited lines (Omega fixed at pi/tau) to MW data.

    ``data`` is the pair of columns (detunings_hz, transfer_fractions).  For a
    two-component fit whose centers collapse to within FWHM/10, a
    degeneracy error is raised.
    """
    if components not in (1, 2):
        raise DomainError("components must be 1 or 2")
    x, y = (np.asarray(column, dtype=float) for column in data)
    if x.shape != y.shape:
        raise DomainError("need one transfer fraction per detuning")
    if x.size < 2 * components + 2:
        raise DomainError("not enough points to constrain the line fit")

    fwhm = pi_pulse_fwhm(tau_s)
    peak = x[int(np.argmax(y))]
    if components == 1:
        initial = np.array([peak, max(y.max(), 1e-3)])
    else:
        # second starting center: highest point at least one FWHM away from
        # the first, but only when it carries real evidence of a second line;
        # otherwise both components start on the main peak and a true single
        # line makes them collapse (reported as a degeneracy below)
        away = np.abs(x - peak) > fwhm
        if np.any(away) and y[away].max() > 0.3 * y.max():
            second = x[away][int(np.argmax(y[away]))]
        else:
            second = peak + 0.5 * fwhm
        c_lo, c_hi = min(peak, second), max(peak, second)
        initial = np.array([c_lo, max(y.max(), 1e-3), c_hi, max(y.max(), 1e-3)])
    triples = [(xi, yi, 1.0) for xi, yi in zip(x, y)]
    result = least_squares(_mw_lineshape(tau_s), initial, triples)

    p = result.parameters
    centers = p[0::2].copy()
    amps = p[1::2].copy()
    sigmas = result.sigmas[0::2]
    if components == 2:
        splitting = abs(centers[1] - centers[0])
        if splitting < fwhm / 10.0:
            raise DegenerateFitError(
                f"two-component centers collapsed: |c1-c2| = {splitting:.3g} Hz < FWHM/10"
            )
        var = (
            result.covariance[0, 0]
            + result.covariance[2, 2]
            - 2.0 * result.covariance[0, 2]
        )
        split_sigma = float(np.sqrt(max(var, 0.0)))
    else:
        splitting = 0.0
        split_sigma = 0.0
    order = np.argsort(centers)
    return MwFitResult(
        centers_hz=centers[order],
        center_sigmas_hz=sigmas[order],
        amplitudes=amps[order],
        splitting_hz=float(splitting),
        splitting_sigma_hz=split_sigma,
        fit=result,
    )
