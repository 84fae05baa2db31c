"""Rate-equation pumping, push-out selectivity, and the pi-pulse line of ``spectra``."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nanotrap import atom_cs, dynamics as dy, spectra
from nanotrap.dynamics import (
    PopulationVector,
    evolve_rates,
    pump_evolution,
    pump_rates,
    pump_steady_state,
    scattering_rate,
)
from nanotrap.errors import DomainError, SelectionRuleError
from nanotrap.numerics import find_root
from nanotrap.spectra import pi_pulse_fwhm

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


def reference_generator(fractions, saturation, data):
    """The pump generator entry by entry, as two loops over the sublevels.

    Each Clebsch-Gordan weight comes from ``atom_cs.transition_strength``;
    an undriven transition is skipped, and every diagonal entry accumulates
    its losses in the order q = +1, 0, -1.
    """
    gamma = 2 * np.pi * data.d2_linewidth_hz
    gen = np.zeros((20, 20))
    for i_g, mf in enumerate(range(-4, 5)):
        for frac, q in zip(np.array(fractions, dtype=float), (+1, 0, -1)):
            if frac == 0.0:
                continue
            strength = atom_cs.transition_strength((4, mf), q, (5, mf + q))
            rate = 0.5 * gamma * saturation * frac * strength
            i_e = 9 + (mf + q) + 5
            gen[i_e, i_g] += rate
            gen[i_g, i_g] -= rate
    for i_e, mfe in enumerate(range(-5, 6), start=9):
        for q in (+1, 0, -1):
            mf = mfe - q
            if abs(mf) > 4:
                continue
            rate = gamma * atom_cs.transition_strength((4, mf), q, (5, mfe))
            gen[mf + 4, i_e] += rate
            gen[i_e, i_e] -= rate
    return gen


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def simplex_fractions(draw):
    low, high = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return (low, high - low, 1.0 - high)


class TestPumpRates:
    @pytest.mark.parametrize("drive", DRIVES + [(0.08, 0.0, 0.92), (0.5, 0.5, 0.0)])
    @pytest.mark.parametrize("saturation", [0.0, 1e-6, 0.01, 1.0, 100.0])
    def test_equals_reference_generator_bit_for_bit(self, data, drive, saturation):
        gen = pump_rates(drive, saturation, data)
        assert_same_bits(gen, reference_generator(drive, saturation, data))

    @settings(max_examples=200, deadline=None)
    @given(drive=simplex_fractions(), saturation=st.floats(1e-6, 100.0))
    def test_simplex_drives_equal_reference_bit_for_bit(self, data, drive, saturation):
        gen = pump_rates(drive, saturation, data)
        assert_same_bits(gen, reference_generator(drive, saturation, data))

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

    @pytest.mark.parametrize(
        "fractions, saturation",
        [((np.nan, 0.0, 1.0), 0.01), ((0.92, np.nan, 0.08), 0.01), ((np.inf, 0.0, 0.0), 0.01),
         ((0.92, 0.0, 0.08), np.nan), ((0.92, 0.0, 0.08), np.inf)],
        ids=["nan-sigma-plus", "nan-pi", "inf-fraction", "nan-saturation", "inf-saturation"],
    )
    def test_non_finite_inputs_rejected(self, data, fractions, saturation):
        # NaN passes every comparison, so each check must ask for a true one
        with pytest.raises(DomainError):
            pump_rates(fractions, saturation, data)


def exact_steady_state(g_eff):
    """Stationary distribution of the chain with ``g_eff``'s off-diagonal rates, exactly.

    The floats become rationals, each diagonal entry is minus its column's other
    entries, and Gauss-Jordan elimination solves G p = 0 with the last row replaced
    by sum(p) = 1: every step is exact, so only the final conversion rounds.
    """
    n = len(g_eff)
    m = [[Fraction(float(g_eff[i, j])) if i != j else Fraction(0) for j in range(n)] for i in range(n)]
    for j in range(n):
        m[j][j] = -sum(m[i][j] for i in range(n))
    m[-1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[pivot], rhs[col], rhs[pivot] = m[pivot], m[col], rhs[pivot], rhs[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
                rhs[i] -= f * rhs[col]
    return np.array([float(rhs[i] / m[i][i]) for i in range(n)])


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

    def test_every_population_matches_exact_elimination(self, data):
        # GTH reduction subtracts nothing, so even the 1.9e-6 population of the probe's
        # drive is accurate to rounding (6.2e-16 measured); a bordered least-squares solve was not
        rng = np.random.default_rng(11)
        drives = [*DRIVES, (0.9204957, 0.0, 0.0795043)] + [tuple(rng.dirichlet([0.5] * 3)) for _ in range(12)]
        for drive in drives:
            for saturation in (1e-2, 10.0 ** rng.uniform(-4, 0.5)):
                gen = pump_rates(drive, saturation, data)
                want = exact_steady_state(dy._effective_ground_generator(gen))
                got = pump_steady_state(gen, data).populations
                assert np.all(np.abs(got - want) <= 1e-13 * want), (drive, saturation)

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


def test_the_mw_line_lives_in_spectra_alone():
    # spectra owns the pi-pulse transfer and its width, and does not import dynamics
    assert not {"PulseSpec", "rabi_transfer", "pi_pulse_fwhm"} & set(vars(dy))


def pi_pulse_transfer(tau, detuning):
    """Transfer of a square pi pulse of duration tau: the spectra model's line of amplitude 1 at 0 Hz."""
    return spectra._mw_lineshape(tau)(np.array([0.0, 1.0]), detuning)[0]


class TestRabi:
    def test_resonant_pi_pulse_full_transfer(self):
        assert pi_pulse_transfer(103e-6, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_detuned_no_transfer(self):
        assert pi_pulse_transfer(103e-6, 1e9) < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5e4, 5e4))
    def test_even_in_detuning_and_bounded(self, detuning):
        plus = pi_pulse_transfer(40e-6, detuning)
        minus = pi_pulse_transfer(40e-6, -detuning)
        assert plus == pytest.approx(minus, rel=1e-12, abs=1e-15)
        assert 0.0 <= plus <= 1.0

    def test_global_maximum_on_resonance(self):
        on = pi_pulse_transfer(40e-6, 0.0)
        for d in np.linspace(1e2, 1e5, 57):
            assert pi_pulse_transfer(40e-6, d) < on

    def test_array_detuning_matches_scalar_calls_exactly(self):
        detunings = np.linspace(-6e4, 6e4, 121)
        swept = pi_pulse_transfer(40e-6, detunings)
        assert swept.shape == detunings.shape
        for d, p in zip(detunings, swept):
            assert p == pi_pulse_transfer(40e-6, float(d))


class TestPiPulseFwhm:
    def test_103_us(self):
        assert pi_pulse_fwhm(103e-6) == pytest.approx(7.76e3, abs=0.05e3)

    def test_40_us(self):
        assert pi_pulse_fwhm(40e-6) == pytest.approx(19.98e3, abs=0.1e3)

    def test_time_frequency_scaling(self):
        assert pi_pulse_fwhm(80e-6) == pytest.approx(pi_pulse_fwhm(40e-6) / 2.0, rel=1e-9)

    def test_equals_the_distance_between_both_half_crossings(self):
        # the line is 1/2 at both ends of the width (a 1e-9 / tau bisection of the detuning
        # was up to 7.2e-10 off), and the constant is the root of the tau-free equation
        for tau in np.geomspace(1e-8, 0.1, 61):
            width = pi_pulse_fwhm(tau)
            for detuning in (-width / 2, width / 2):
                assert abs(pi_pulse_transfer(tau, detuning) - 0.5) <= 1e-15

        def half_crossing(y):
            return np.sin(0.5 * np.pi * np.sqrt(1 + y * y)) ** 2 / (1 + y * y) - 0.5

        root = find_root(half_crossing, 0.0, 2.0, 5e-324)  # stops at one ulp
        assert abs(pi_pulse_fwhm(1.0) - root) <= 2 * np.spacing(root)
