"""Cesium structure: Breit-Rabi, excited Zeeman, transition strengths, and
two-line polarizabilities with the tune-out search."""
import numpy as np
import pytest
from scipy import constants as cst

from nanotrap.atom_cs import (
    breit_rabi_energy,
    excited_state,
    ground_state,
    ground_stark_operator,
    mw_transition_frequency,
    scalar_polarizability,
    transition_strength,
    tune_out,
    vector_polarizability,
    vector_shift_coefficient_g_per_v2m2,
    zeeman_shift_excited,
)
from nanotrap.errors import (
    DomainError,
    NearResonanceError,
    SelectionRuleError,
    ValidityError,
)

MU_B_HZ_PER_G = cst.physical_constants["Bohr magneton"][0] * 1e-4 / cst.h


class TestBreitRabi:
    def test_zero_field_clock_equals_hyperfine_splitting(self, data):
        diff = breit_rabi_energy((4, 0), 0.0, data) - breit_rabi_energy((3, 0), 0.0, data)
        assert diff == pytest.approx(data.hyperfine_splitting_hz, abs=1e-3)

    def test_clock_shift_at_28_gauss(self, data):
        shift = (
            mw_transition_frequency((3, 0), (4, 0), 28.0, data)
            - data.hyperfine_splitting_hz
        )
        assert shift == pytest.approx(334.7e3, abs=0.5e3)

    def test_clock_shift_even_in_field(self, data):
        plus = mw_transition_frequency((3, 0), (4, 0), 17.0, data)
        minus = mw_transition_frequency((3, 0), (4, 0), -17.0, data)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_alpha0_derived_value(self, data):
        assert data.alpha0_khz_per_g2 == pytest.approx(0.427, rel=5e-3)

    def test_quadratic_fit_on_low_field(self, data):
        b = np.linspace(0.0, 5.0, 11)
        shifts = np.array(
            [
                mw_transition_frequency((3, 0), (4, 0), bi, data)
                - data.hyperfine_splitting_hz
                for bi in b
            ]
        )
        alpha = np.polyfit(b, shifts, 2)[0]
        assert alpha == pytest.approx(427.0, rel=5e-3)

    def test_linear_zeeman_limit_small_field(self, data):
        # slope at B <= 1 G matches gF mF muB within 0.1%
        for f, mf in ((4, 2), (4, -3), (3, 1), (3, -3)):
            slope = (
                breit_rabi_energy((f, mf), 1.0, data)
                - breit_rabi_energy((f, mf), 0.0, data)
            )
            expected = data.g_f("ground", f) * mf * MU_B_HZ_PER_G
            assert slope == pytest.approx(expected, rel=1e-3)

    def test_stretched_states_linear_branch(self, data):
        # exactly linear in B at any field
        e1 = breit_rabi_energy((4, 4), 10.0, data)
        e2 = breit_rabi_energy((4, 4), 20.0, data)
        e3 = breit_rabi_energy((4, 4), 30.0, data)
        assert e3 - e2 == pytest.approx(e2 - e1, rel=1e-12)

    def test_excited_input_rejected(self, data):
        with pytest.raises(DomainError):
            breit_rabi_energy(excited_state(5, 0), 1.0, data)

    def test_array_field_matches_scalar_calls_exactly(self, data):
        # stretched (closed branch) and general sublevels, reversed and zero field
        b = np.array([[-28.0, 0.0, 1e-6], [3.0, 20.88949098894614, 3000.0]])
        for f, mf in [(4, m) for m in range(-4, 5)] + [(3, m) for m in range(-3, 4)]:
            energies = breit_rabi_energy((f, mf), b, data)
            assert isinstance(energies, np.ndarray) and energies.shape == b.shape
            for idx in np.ndindex(b.shape):
                scalar = breit_rabi_energy((f, mf), float(b[idx]), data)
                assert isinstance(scalar, float)
                assert energies[idx] == scalar, (f, mf, b[idx])


class TestExcitedZeeman:
    def test_outer_sigma_plus_shift(self, data):
        up = zeeman_shift_excited((5, 5), 28.0, data) - (
            breit_rabi_energy((4, 4), 28.0, data) - breit_rabi_energy((4, 4), 0.0, data)
        )
        assert up == pytest.approx(39.2e6, abs=0.1e6)

    def test_outermost_splitting_78_4_mhz(self, data):
        up = zeeman_shift_excited((5, 5), 28.0, data) - (
            breit_rabi_energy((4, 4), 28.0, data) - breit_rabi_energy((4, 4), 0.0, data)
        )
        dn = zeeman_shift_excited((5, -5), 28.0, data) - (
            breit_rabi_energy((4, -4), 28.0, data)
            - breit_rabi_energy((4, -4), 0.0, data)
        )
        assert up - dn == pytest.approx(78.4e6, abs=0.1e6)

    def test_mf_zero_unshifted(self, data):
        assert zeeman_shift_excited((5, 0), 12.0, data) == 0.0

    def test_validity_cap(self, data):
        with pytest.raises(ValidityError):
            zeeman_shift_excited((5, 5), 51.0, data)


class TestMwTransitions:
    def test_clock_at_28_gauss(self, data):
        f = mw_transition_frequency((3, 0), (4, 0), 28.0, data)
        assert f - data.hyperfine_splitting_hz == pytest.approx(334.7e3, abs=0.5e3)

    def test_pi_ladder_spacing_at_3_gauss(self, data):
        # adjacent pi transitions differ by ~2.1 MHz; the sigma ladder halves it
        f0 = mw_transition_frequency((3, 0), (4, 0), 3.0, data)
        f1 = mw_transition_frequency((3, 1), (4, 1), 3.0, data)
        assert f1 - f0 == pytest.approx(2.1e6, rel=0.01)
        expected = 2 * (MU_B_HZ_PER_G / 4.0) * 3.0
        assert f1 - f0 == pytest.approx(expected, rel=0.01)
        f_sigma = mw_transition_frequency((3, 0), (4, 1), 3.0, data)
        assert f_sigma - f0 == pytest.approx(1.05e6, rel=0.02)

    def test_degenerate_at_zero_field(self, data):
        assert mw_transition_frequency((3, -3), (4, -3), 0.0, data) == pytest.approx(
            data.hyperfine_splitting_hz, abs=1e-3
        )

    def test_selection_rule(self, data):
        with pytest.raises(SelectionRuleError):
            mw_transition_frequency((3, 0), (4, 2), 1.0, data)


class TestTransitionStrength:
    def test_stretched_cycling_is_unity(self):
        assert transition_strength((4, 4), 1, (5, 5)) == pytest.approx(1.0, abs=1e-12)
        assert transition_strength((4, -4), -1, (5, -5)) == pytest.approx(1.0, abs=1e-12)

    def test_sum_rule_identical_for_all_mf(self):
        totals = [
            sum(transition_strength((4, mf), q, (5, mf + q)) for q in (-1, 0, 1))
            for mf in range(-4, 5)
        ]
        assert np.allclose(totals, totals[0], atol=1e-12)

    def test_closed_decay_sum_rule(self):
        # decay weights out of any (5', mF') into F=4 sum to 1
        for mfe in range(-5, 6):
            total = sum(
                transition_strength((4, mfe - q), q, (5, mfe))
                for q in (-1, 0, 1)
                if abs(mfe - q) <= 4
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_selection_rule(self):
        with pytest.raises(SelectionRuleError):
            transition_strength((4, 0), 1, (5, 2))


class TestPolarizabilities:
    def one_line_sum(self, wavelength, data):
        """Independent sum-over-lines oracle, written from scratch."""
        omega = 2 * np.pi * cst.c / wavelength
        total = 0.0
        for nu0, red in (
            (data.d1_frequency_hz, data.d1_reduced_dipole_cm),
            (data.d2_frequency_hz, data.d2_reduced_dipole_cm),
        ):
            w0 = 2 * np.pi * nu0
            s = red**2 / 2.0
            total += s / (3.0 * cst.hbar) * (1.0 / (w0 - omega) + 1.0 / (w0 + omega))
        return total

    def test_scalar_sign_structure(self, data):
        assert scalar_polarizability(783e-9, data) < 0  # blue of both lines
        assert scalar_polarizability(1064e-9, data) > 0  # red of both lines

    def test_scalar_golden_value_at_1064(self, data):
        value = scalar_polarizability(1064e-9, data)
        assert value == pytest.approx(1.896871896556211e-38, rel=1e-9)
        assert value == pytest.approx(self.one_line_sum(1064e-9, data), rel=1e-12)

    def test_scalar_matches_oracle_across_band(self, data):
        for nm in (700, 800, 870, 900, 1200):
            assert scalar_polarizability(nm * 1e-9, data) == pytest.approx(
                self.one_line_sum(nm * 1e-9, data), rel=1e-12
            )

    def test_static_limit_positive(self, data):
        assert scalar_polarizability(1.5e-6, data) > 0

    def test_near_resonance_guard(self, data):
        with pytest.raises(NearResonanceError):
            scalar_polarizability(852.34727e-9, data)

    def test_vector_opposite_sign_between_manifolds(self, data):
        for nm in (783, 880.2524, 1064):
            a3 = vector_polarizability(nm * 1e-9, 3, data)
            a4 = vector_polarizability(nm * 1e-9, 4, data)
            assert np.sign(a3) == -np.sign(a4)

    def test_beta_v_positive_at_783(self, data):
        # anchors every downstream sign: fictitious field parallel to the
        # ellipticity vector for the blue trap light
        for f in (3, 4):
            assert vector_shift_coefficient_g_per_v2m2(783e-9, f, data) > 0

    def test_vector_golden_value_at_tune_out(self, data):
        value = vector_polarizability(880.2524e-9, 4, data)
        assert value == pytest.approx(1.99236978e-37, rel=1e-6)

    def test_vector_golden_value_at_783(self, data):
        value = vector_polarizability(783e-9, 4, data)
        assert value == pytest.approx(-7.91689037e-39, rel=1e-6)

    def test_scalar_consistent_with_stark_operator(self, data):
        # the 2x2 operator for a linear field must reproduce the closed form
        v = ground_stark_operator(np.array([0.0, 0.0, 1.0]), 1064e-9, data)
        assert -4.0 * np.real(v[0, 0]) == pytest.approx(
            scalar_polarizability(1064e-9, data), rel=1e-12
        )
        assert abs(v[0, 1]) < 1e-60  # no coherence for a pi field

    def test_polarizability_real(self, data):
        u_plus = np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0)
        v = ground_stark_operator(u_plus, 900e-9, data)
        assert np.allclose(v, v.conj().T)


class TestTuneOut:
    def test_tune_out_wavelength(self, data):
        lam = tune_out(860e-9, 893e-9, data)
        assert lam * 1e9 == pytest.approx(880.25, abs=1.5)

    def test_invariant_under_interval_refinement(self, data):
        lam1 = tune_out(860e-9, 893e-9, data)
        lam2 = tune_out(875e-9, 885e-9, data)
        assert lam1 == pytest.approx(lam2, abs=1e-12)

    def test_residual_small(self, data):
        lam = tune_out(860e-9, 893e-9, data)
        residual = abs(scalar_polarizability(lam, data))
        reference = abs(scalar_polarizability(852e-9, data))
        assert residual < 1e-6 * reference

    def test_bad_bracket(self, data):
        from nanotrap.errors import BracketError

        with pytest.raises(BracketError):
            tune_out(980e-9, 1100e-9, data)


class TestHyperfineState:
    def test_valid_ranges(self):
        ground_state(4, -4)
        excited_state(5, 5)
        with pytest.raises(DomainError):
            ground_state(5, 0)
        with pytest.raises(DomainError):
            excited_state(6, 0)
        with pytest.raises(DomainError):
            ground_state(4, 5)


class TestDataFile:
    def test_loader_rejects_unknown_keys(self, tmp_path):
        from nanotrap.constants import load_constants
        from nanotrap.errors import ConfigError

        bad = tmp_path / "bad.dat"
        bad.write_text("nuclear_spin = 3.5\nbogus_key = 1.0\n")
        with pytest.raises(ConfigError):
            load_constants(bad)

    def test_loader_requires_all_keys(self, tmp_path):
        from nanotrap.constants import load_constants
        from nanotrap.errors import ConfigError

        partial = tmp_path / "partial.dat"
        partial.write_text("nuclear_spin = 3.5\n")
        with pytest.raises(ConfigError):
            load_constants(partial)

    def test_reduced_dipoles_consistent_with_linewidths(self, data):
        # Gamma = w^3 S (2J+1) / ((2J'+1) 3 pi eps0 hbar c^3)
        for nu, lw, red, j_e in (
            (data.d1_frequency_hz, data.d1_linewidth_hz, data.d1_reduced_dipole_cm, 0.5),
            (data.d2_frequency_hz, data.d2_linewidth_hz, data.d2_reduced_dipole_cm, 1.5),
        ):
            w = 2 * np.pi * nu
            s = red**2 / 2.0
            gamma = w**3 * s * 2.0 / ((2 * j_e + 1) * 3 * np.pi * cst.epsilon_0 * cst.hbar * cst.c**3)
            assert gamma / (2 * np.pi) == pytest.approx(lw, rel=1e-6)
