"""Rate-equation pumping, push-out selectivity, and microwave lineshapes."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nanotrap import dynamics as dy
from nanotrap.dynamics import (
    PopulationVector,
    PulseSpec,
    evolve_rates,
    pi_pulse_fwhm,
    pump_evolution,
    pump_rates,
    pump_steady_state,
    rabi_transfer,
    scattering_rate,
)
from nanotrap.errors import DomainError, SelectionRuleError

# (sigma+, pi, sigma-) drive fractions: mixed, pure, and the probe's
DRIVES = [(0.7, 0.1, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.92, 0.0, 0.08)]
# (drive, saturation) of the expm oracle; the last generator is nearly
# defective: its eigenvector matrix has condition number about 4e6
EXPM_CASES = [(drive, s) for drive in DRIVES for s in (1e-4, 1e-2, 1.0)]
EXPM_CASES.append(((0.0, 0.0, 1.0), 21.54434690031882))


class TestPopulationVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            PopulationVector(4, np.full(9, 0.2))  # sums to 1.8
        with pytest.raises(DomainError):
            PopulationVector(4, np.full(7, 1 / 7))  # wrong length for F=4
        v = PopulationVector(3, np.full(7, 1 / 7))
        assert v.population(0) == pytest.approx(1 / 7)

    def test_non_finite_rejected(self):
        # NaN compares false against both the sign and the sum checks
        with pytest.raises(DomainError, match="finite"):
            PopulationVector(4, np.full(9, np.nan))

    def test_pi_pulse_constructor(self):
        p = PulseSpec.pi_pulse(103e-6)
        assert p.rabi_rad_s * p.duration_s == pytest.approx(np.pi, rel=1e-12)


class TestPumpRates:
    def test_columns_conserve_probability(self, data):
        gen = pump_rates((0.5, 0.2, 0.3), 0.05, data)
        scale = np.max(np.abs(gen))
        assert np.max(np.abs(gen.sum(axis=0))) < 1e-12 * scale

    def test_pure_sigma_plus_only_stretched_state_lossless(self, data):
        gen = pump_rates((1.0, 0.0, 0.0), 0.05, data)
        # ground-state depletion rates: only mF = +4 keeps zero loss (its
        # excitation cycles back through the stretched decay)
        depletion = -np.diag(gen)[:9]
        assert depletion[8] > 0  # still excited
        eff = gen[:9, :9] + gen[:9, 9:] @ np.linalg.solve(-gen[9:, 9:], gen[9:, :9])
        net_loss = -np.diag(eff)
        assert net_loss[8] == pytest.approx(0.0, abs=1e-12 * np.max(net_loss))
        assert np.all(net_loss[:8] > 0)

    def test_pi_rate_matrix_mirror_symmetric(self, data):
        gen = pump_rates((0.0, 1.0, 0.0), 0.05, data)
        g = gen[:9, :9]
        flip = np.eye(9)[::-1]
        assert np.allclose(flip @ g @ flip, g, rtol=1e-12)

    def test_negative_inputs_rejected(self, data):
        with pytest.raises(DomainError):
            pump_rates((-0.1, 0.6, 0.5), 0.05, data)
        with pytest.raises(DomainError):
            pump_rates((0.5, 0.25, 0.25), -1.0, data)


class TestSteadyState:
    def test_pure_sigma_plus(self, data):
        ss = pump_steady_state(pump_rates((1.0, 0.0, 0.0), 0.01, data), data)
        assert ss.population(4) == pytest.approx(1.0, abs=1e-9)

    def test_pure_pi_mirror_symmetric(self, data):
        ss = pump_steady_state(pump_rates((0.0, 1.0, 0.0), 0.01, data), data)
        assert np.allclose(ss.populations, ss.populations[::-1], atol=1e-12)

    def test_probe_fractions_golden_value(self, data):
        """Stretched population for the (0.92, 0, 0.08) drive of the probe
        field above the fiber; golden number fixed by the long-time
        integration oracle below."""
        gen = pump_rates((0.92, 0.0, 0.08), 0.01, data)
        ss = pump_steady_state(gen, data)
        assert ss.population(4) == pytest.approx(0.9831480738, abs=1e-9)

        # independent oracle: integrate the full system to ~45 time constants
        # (the stationary distribution is invariant under a uniform rate
        # rescaling, so the faster s = 0.05 generator is used)
        gen = pump_rates((0.92, 0.0, 0.08), 0.05, data)
        assert np.allclose(
            pump_steady_state(gen, data).populations, ss.populations, atol=1e-11
        )
        tau = dy.pumping_time_constant(gen)
        p_full = np.zeros(20)
        p_full[:9] = 1.0 / 9.0
        p_long = evolve_rates(gen, p_full, 45.0 * tau)
        ground = p_long[:9] / p_long[:9].sum()
        assert ground[8] == pytest.approx(ss.population(4), abs=1e-8)

    def test_mirror_covariance_sigma_swap(self, data):
        ss1 = pump_steady_state(pump_rates((0.92, 0.0, 0.08), 0.01, data), data)
        ss2 = pump_steady_state(pump_rates((0.08, 0.0, 0.92), 0.01, data), data)
        assert np.allclose(ss1.populations, ss2.populations[::-1], atol=1e-12)

    @pytest.mark.parametrize("drive", DRIVES)
    def test_equals_least_modulus_eigenvector(self, data, drive):
        for saturation in (1e-4, 1e-2, 1.0):
            gen = pump_rates(drive, saturation, data)
            eff = gen[:9, :9] + gen[:9, 9:] @ np.linalg.solve(-gen[9:, 9:], gen[9:, :9])
            evals, evecs = np.linalg.eig(eff)
            null = np.real(evecs[:, np.argmin(np.abs(evals))])
            ss = pump_steady_state(gen, data)
            assert np.max(np.abs(ss.populations - null / null.sum())) < 1e-13

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    @example(seed=36159314)
    @example(seed=183)
    def test_independent_of_initial_distribution(self, data, seed):
        gen = pump_rates((0.6, 0.1, 0.3), 0.05, data)
        ss = pump_steady_state(gen, data)
        rng = np.random.Generator(np.random.Philox(key=seed))
        p0 = rng.random(9)
        p0 /= p0.sum()
        tau = dy.pumping_time_constant(gen)
        evolved = pump_evolution(gen, PopulationVector(4, p0), 30.0 * tau, data)
        assert np.max(np.abs(evolved.populations - ss.populations)) < 1e-9


class TestEvolution:
    @pytest.mark.parametrize("drive, saturation", EXPM_CASES)
    def test_matches_expm_oracle(self, data, drive, saturation):
        from scipy.linalg import expm

        gen = pump_rates(drive, saturation, data)
        p = np.zeros(20)
        p[:9] = 1.0 / 9.0
        for t in (1e-6, 1e-4, 1e-3):
            assert np.max(np.abs(evolve_rates(gen, p, t) - expm(gen * t) @ p)) < 1e-10

    def test_jordan_chain_closed_form(self):
        # defective generator: no eigenbasis exists
        gen = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        t = 2.0
        closed = [np.exp(-t), t * np.exp(-t), 1.0 - np.exp(-t) - t * np.exp(-t)]
        out = evolve_rates(gen, np.array([1.0, 0.0, 0.0]), t)
        assert np.max(np.abs(out - closed)) < 1e-14

    def test_zero_duration_identity(self, data):
        gen = pump_rates((0.92, 0.0, 0.08), 0.01, data)
        p0 = PopulationVector(4, np.full(9, 1 / 9))
        out = pump_evolution(gen, p0, 0.0, data)
        assert np.array_equal(out.populations, p0.populations)

    def test_long_time_matches_steady_state(self, data):
        gen = pump_rates((0.92, 0.0, 0.08), 0.05, data)
        tau = dy.pumping_time_constant(gen)
        out = pump_evolution(gen, PopulationVector(4, np.full(9, 1 / 9)), 20 * tau, data)
        ss = pump_steady_state(gen, data)
        assert np.max(np.abs(out.populations - ss.populations)) < 1e-6

    def test_stretched_population_monotone_under_sigma_plus(self, data):
        gen = pump_rates((1.0, 0.0, 0.0), 0.02, data)
        p = np.zeros(20)
        p[:9] = 1.0 / 9.0
        tau = dy.pumping_time_constant(gen)
        previous = p[8]
        for t in np.linspace(0.5, 10, 6) * tau:
            evolved = evolve_rates(gen, p, t)
            assert evolved[8] >= previous - 1e-12
            previous = evolved[8]

    def test_population_conserved_along_trajectory(self, data):
        gen = pump_rates((0.7, 0.1, 0.2), 0.05, data)
        p = np.zeros(20)
        p[:9] = 1.0 / 9.0
        tau = dy.pumping_time_constant(gen)
        for t in (0.1 * tau, tau, 10 * tau):
            out = evolve_rates(gen, p, t)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out > -1e-12)


class TestErrorPaths:
    def test_stiff_generator_reaches_exact_limit(self):
        gen = np.array([[-1e30, 0.0], [1e30, 0.0]])
        out = evolve_rates(gen, np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(out, [0.0, 1.0])

    def test_overflowing_duration_rejected(self, data):
        gen = pump_rates((0.92, 0.0, 0.08), 0.01, data)
        with pytest.raises(DomainError, match="overflows"), np.errstate(over="ignore"):
            evolve_rates(gen, np.full(20, 0.05), 1e305)

    def test_non_unique_steady_state(self, data):
        from nanotrap.errors import NonUniqueSteadyStateError

        with pytest.raises(NonUniqueSteadyStateError):
            pump_steady_state(np.zeros((20, 20)), data)


class TestScatteringRate:
    def test_weak_saturation_limit(self, data):
        gamma_rad = 2 * np.pi * data.d2_linewidth_hz
        s = 1e-4
        rate = scattering_rate((4, -4), -1, 0.0, s, data)
        assert rate == pytest.approx(0.5 * gamma_rad * s, rel=1e-4)

    def test_half_width_half_rate(self, data):
        s = 1e-4
        on = scattering_rate((4, -4), -1, 0.0, s, data)
        off = scattering_rate((4, -4), -1, data.d2_linewidth_hz / 2.0, s, data)
        assert off == pytest.approx(on / 2.0, rel=1e-3)

    def test_push_out_selectivity_golden(self, data):
        """sigma- beam resonant with the shifted (4,-4)->(5,-5) line; the
        (4,+4) atoms see it detuned by the full differential Zeeman shift."""
        from nanotrap.atom_cs import breit_rabi_energy, zeeman_shift_excited

        def line_shift(mf_g, q):
            return zeeman_shift_excited((5, mf_g + q), 28.0, data) - (
                breit_rabi_energy((4, mf_g), 28.0, data)
                - breit_rabi_energy((4, mf_g), 0.0, data)
            )

        detuning = line_shift(-4, -1) - line_shift(4, -1)
        target = scattering_rate((4, -4), -1, 0.0, 1e-3, data)
        spectator = scattering_rate((4, 4), -1, detuning, 1e-3, data)
        ratio = target / spectator
        assert ratio > 1e3
        assert ratio == pytest.approx(14615.5, rel=1e-3)

    def test_selection_rule(self, data):
        with pytest.raises(SelectionRuleError):
            scattering_rate((4, -4), 0, 0.0, 1.0, data)  # hits (5,-4): fine
            scattering_rate((3, 0), 0, 0.0, 1.0, data)


class TestRabi:
    def test_resonant_pi_pulse_full_transfer(self):
        assert rabi_transfer(PulseSpec.pi_pulse(103e-6)) == pytest.approx(1.0, abs=1e-12)

    def test_far_detuned_no_transfer(self):
        p = PulseSpec.pi_pulse(103e-6, detuning_hz=1e9)
        assert rabi_transfer(p) < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5e4, 5e4))
    def test_even_in_detuning_and_bounded(self, detuning):
        plus = rabi_transfer(PulseSpec.pi_pulse(40e-6, detuning))
        minus = rabi_transfer(PulseSpec.pi_pulse(40e-6, -detuning))
        assert plus == pytest.approx(minus, rel=1e-12, abs=1e-15)
        assert 0.0 <= plus <= 1.0

    def test_global_maximum_on_resonance(self):
        on = rabi_transfer(PulseSpec.pi_pulse(40e-6, 0.0))
        for d in np.linspace(1e2, 1e5, 57):
            assert rabi_transfer(PulseSpec.pi_pulse(40e-6, d)) < on


class TestPiPulseFwhm:
    def test_103_us(self):
        assert pi_pulse_fwhm(103e-6) == pytest.approx(7.76e3, abs=0.05e3)

    def test_40_us(self):
        assert pi_pulse_fwhm(40e-6) == pytest.approx(19.98e3, abs=0.1e3)

    def test_time_frequency_scaling(self):
        assert pi_pulse_fwhm(80e-6) == pytest.approx(pi_pulse_fwhm(40e-6) / 2.0, rel=1e-9)
