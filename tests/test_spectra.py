"""Transmission and microwave spectrum models, generators, and fitters."""
import numpy as np
import pytest

from nanotrap import spectra as sp
from nanotrap.errors import DegenerateFitError, DomainError
from nanotrap.spectra import (
    SpectrumData,
    SpectrumModel,
    fit_mw_spectrum,
    fit_transmission,
    simulate_mw_spectrum,
    simulate_spectrum,
    transmission,
)

PAPER_MODEL = SpectrumModel(
    od_plus=1.0, od_minus=0.9, delta_plus=39.82e6, delta_minus=-38.55e6, gamma=8.3e6
)
GRID = np.linspace(-80e6, 80e6, 81)


class TestTransmission:
    def test_empty_medium(self):
        model = SpectrumModel(0.0, 0.0, 1e6, -1e6, 5e6)
        assert np.all(transmission(model, GRID) == 1.0)

    def test_paper_value_at_plus_resonance(self):
        # exact arithmetic of the two-Lorentzian exponent at the + dip
        model = SpectrumModel(1.0, 1.0, 39.82e6, -38.55e6, 8.3e6)
        splitting = 39.82e6 - (-38.55e6)
        expected = np.exp(-(1.0 + 1.0 / (1.0 + 4.0 * splitting**2 / 8.3e6**2)))
        assert transmission(model, 39.82e6) == pytest.approx(expected, rel=1e-15)

    def test_midpoint_symmetry_for_equal_ods(self):
        model = SpectrumModel(0.7, 0.7, 30e6, -35e6, 6e6)
        mid = 0.5 * (30e6 - 35e6)
        for d in (1e6, 7e6, 22e6):
            assert transmission(model, mid + d) == pytest.approx(
                transmission(model, mid - d), rel=1e-12
            )

    def test_always_in_unit_interval(self):
        t = transmission(PAPER_MODEL, np.linspace(-1e9, 1e9, 1001))
        assert np.all(t > 0) and np.all(t <= 1)

    def test_log_additivity(self):
        one = SpectrumModel(0.8, 0.0, 10e6, -10e6, 5e6)
        other = SpectrumModel(0.0, 0.5, 10e6, -10e6, 5e6)
        both = SpectrumModel(0.8, 0.5, 10e6, -10e6, 5e6)
        d = 3.7e6
        assert np.log(transmission(both, d)) == pytest.approx(
            np.log(transmission(one, d)) + np.log(transmission(other, d)), rel=1e-12
        )

    def test_model_validation(self):
        with pytest.raises(DomainError):
            SpectrumModel(-0.1, 0.0, 0.0, 0.0, 1e6)
        with pytest.raises(DomainError):
            SpectrumModel(1.0, 1.0, 0.0, 0.0, 0.0)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        a = simulate_spectrum(PAPER_MODEL, GRID, 1e4, seed=42)
        b = simulate_spectrum(PAPER_MODEL, GRID, 1e4, seed=42)
        assert np.array_equal(a.transmitted, b.transmitted)
        assert np.array_equal(a.reference, b.reference)
        c = simulate_spectrum(PAPER_MODEL, GRID, 1e4, seed=43)
        assert not np.array_equal(a.transmitted, c.transmitted)

    def test_null_medium_count_means_agree(self):
        model = SpectrumModel(0.0, 0.0, 1e6, -1e6, 5e6)
        grid = np.linspace(-50e6, 50e6, 400)
        data = simulate_spectrum(model, grid, 1e4, seed=3)
        diff = data.transmitted.mean() - data.reference.mean()
        sigma = np.sqrt(2e4 / grid.size)
        assert abs(diff) < 5 * sigma

    def test_zero_mean_counts_rejected(self):
        with pytest.raises(DomainError):
            simulate_spectrum(PAPER_MODEL, GRID, 0.0, seed=1)

    def test_data_validation(self):
        with pytest.raises(DomainError):
            SpectrumData(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            SpectrumData(np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.array([1.0, 1.0]))


class TestFitTransmission:
    INITIAL = SpectrumModel(0.8, 1.1, 35e6, -42e6, 10e6)

    def test_noise_free_exact_recovery(self):
        counts = 1e8 * transmission(PAPER_MODEL, GRID)
        data = SpectrumData(GRID, counts, np.full(GRID.size, 1e8))
        res = fit_transmission(data, self.INITIAL)
        truth = PAPER_MODEL.as_parameters()
        assert np.max(np.abs(res.parameters - truth) / np.abs(truth)) < 1e-6

    def test_ordering_enforced(self):
        counts = 1e8 * transmission(PAPER_MODEL, GRID)
        data = SpectrumData(GRID, counts, np.full(GRID.size, 1e8))
        swapped = SpectrumModel(0.9, 1.0, -38e6, 39e6, 9e6)
        res = fit_transmission(data, swapped)
        assert res.parameters[2] > res.parameters[3]
        assert res.parameters[2] == pytest.approx(39.82e6, rel=1e-6)

    def test_round_trip_covers_truth(self):
        data = simulate_spectrum(PAPER_MODEL, GRID, 1e4, seed=2024)
        res = fit_transmission(data, self.INITIAL)
        truth = PAPER_MODEL.as_parameters()
        assert np.all(np.abs(res.parameters - truth) <= 4 * res.sigmas)
        splitting = res.parameters[2] - res.parameters[3]
        assert splitting == pytest.approx(78.37e6, abs=0.3e6)

    def test_statistical_coverage_and_pulls(self):
        """Generator -> fitter round trips: 3-sigma coverage in >= 95% of
        seeded trials, pull distribution centred and unit-variance."""
        truth = PAPER_MODEL.as_parameters()
        hits = 0
        split_hits = 0
        pulls = []
        n_trials = 200
        for seed in range(n_trials):
            data = simulate_spectrum(PAPER_MODEL, GRID, 1e4, seed=seed)
            res = fit_transmission(data, self.INITIAL)
            hits += bool(np.all(np.abs(res.parameters - truth) <= 3 * res.sigmas))
            split = res.parameters[2] - res.parameters[3]
            split_hits += bool(abs(split - 78.37e6) <= 0.3e6)
            n_t = np.where(data.transmitted > 0, data.transmitted, 0.5)
            n_r = np.where(data.reference > 0, data.reference, 0.5)
            y = -np.log(n_t / n_r)
            w = 1.0 / (1.0 / n_t + 1.0 / n_r)
            pulls.append(np.sqrt(w) * (y - sp._log_absorbance(res.parameters, GRID)))
        pulls = np.concatenate(pulls)
        assert hits / n_trials >= 0.95
        assert split_hits / n_trials >= 0.95
        assert abs(pulls.mean()) < 0.1
        assert abs(pulls.var() - 1.0) < 0.2

    def test_push_out_scenario(self):
        model = SpectrumModel(1.0, 0.05, 39.82e6, -38.55e6, 8.3e6)
        initial = SpectrumModel(0.9, 0.1, 38e6, -39e6, 9e6)
        below = 0
        n = 40
        for seed in range(n):
            data = simulate_spectrum(model, GRID, 1e4, seed=seed)
            res = fit_transmission(data, initial)
            below += bool(res.parameters[1] / res.parameters[0] < 0.1)
        assert below / n >= 0.95

    def test_zero_count_bins_regularised(self):
        # deep dips with few counts produce zero-count bins; the fit must
        # substitute 0.5 rather than fail on log(0)
        deep = SpectrumModel(6.0, 5.0, 39.82e6, -38.55e6, 8.3e6)
        data = simulate_spectrum(deep, GRID, 30.0, seed=11)
        assert np.any(data.transmitted == 0)
        res = fit_transmission(data, SpectrumModel(5.0, 4.0, 38e6, -39e6, 9e6))
        assert res.converged

    def test_too_few_points_rejected(self):
        grid = np.linspace(-80e6, 80e6, 10)
        counts = 1e4 * transmission(PAPER_MODEL, grid)
        data = SpectrumData(grid, counts, np.full(grid.size, 1e4))
        with pytest.raises(DomainError):
            fit_transmission(data, self.INITIAL)


class TestMwSpectra:
    def test_two_line_recovery_60_7_khz(self):
        grid = np.linspace(-60e3, 60e3, 121)
        hits = 0
        n = 25
        for seed in range(n):
            d, y = simulate_mw_spectrum(
                [-30.35e3, 30.35e3], [0.45, 0.5], 40e-6, grid, 0.02, seed=seed
            )
            res = fit_mw_spectrum((d, y), 40e-6, components=2)
            hits += bool(abs(res.splitting_hz - 60.7e3) <= 0.9e3)
        assert hits == n

    def test_single_line_fitted_width_matches_fourier_limit(self):
        from nanotrap.dynamics import pi_pulse_fwhm
        from nanotrap.numerics import find_root

        grid = np.linspace(-25e3, 25e3, 101)
        d, y = simulate_mw_spectrum([0.0], [1.0], 103e-6, grid, 0.01, seed=5)
        res = fit_mw_spectrum((d, y), 103e-6, components=1)
        shape = sp._mw_lineshape(103e-6)
        half = res.amplitudes[0] / 2.0
        center = res.centers_hz[0]
        hi = find_root(lambda x: shape(res.fit.parameters, x) - half, center, center + 1e4, 1e-3)
        lo = find_root(lambda x: shape(res.fit.parameters, x) - half, center - 1e4, center, 1e-3)
        assert hi - lo == pytest.approx(pi_pulse_fwhm(103e-6), rel=0.05)

    def test_degeneracy_error_on_single_line(self):
        grid = np.linspace(-25e3, 25e3, 101)
        d, y = simulate_mw_spectrum([0.0], [1.0], 103e-6, grid, 0.005, seed=9)
        with pytest.raises(DegenerateFitError):
            fit_mw_spectrum((d, y), 103e-6, components=2)

    def test_unequal_columns_rejected(self):
        d, y = simulate_mw_spectrum([0.0], [1.0], 103e-6, np.linspace(-25e3, 25e3, 101), 0.005, seed=9)
        with pytest.raises(DomainError):
            fit_mw_spectrum((d, y[:-1]), 103e-6, components=1)

    def test_noise_free_recovery_from_nearby_start(self):
        # the MW line family obeys the same exact-recovery contract as the
        # other fitted models: noise-free data, start within 20% of truth
        from nanotrap.numerics import least_squares

        truth = np.array([-30.35e3, 0.45, 30.35e3, 0.5])
        grid = np.linspace(-60e3, 60e3, 121)
        model = sp._mw_lineshape(40e-6)
        y = model(truth, grid)
        data = list(zip(grid, y, np.ones_like(grid)))
        res = least_squares(model, truth * 1.15, data)
        assert np.max(np.abs(res.parameters - truth) / np.abs(truth)) < 1e-6

    def test_simulation_deterministic(self):
        grid = np.linspace(-60e3, 60e3, 61)
        _, y1 = simulate_mw_spectrum([-30e3, 30e3], [0.5, 0.5], 40e-6, grid, 0.02, seed=8)
        _, y2 = simulate_mw_spectrum([-30e3, 30e3], [0.5, 0.5], 40e-6, grid, 0.02, seed=8)
        assert np.array_equal(y1, y2)
