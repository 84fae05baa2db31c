"""HE11 solver and field evaluation: dispersion, eigenvalue, continuity,
power normalization, polarization structure, and map exports."""
import csv as csv_mod

import numpy as np
import pytest
from scipy import integrate

from field_oracle import radial_profiles_h
from nanotrap.atom_cs import default_atomic_data
from nanotrap.errors import DomainError, NoModeError
from nanotrap.fiber_mode import (
    FiberSpec,
    LightField,
    PolarGrid,
    field_at,
    intensity_map,
    refractive_index,
    solve_he11,
    v_number,
    write_field_map_csv,
)

SILICA = default_atomic_data().sellmeier  # the bundled data file's fused-silica fit


def sellmeier_oracle(lam_um, c):
    """One-line independent evaluation of the stored Sellmeier fit."""
    l2 = lam_um**2
    return np.sqrt(
        1.0
        + c["sellmeier_b1"] * l2 / (l2 - c["sellmeier_l1_um2"])
        + c["sellmeier_b2"] * l2 / (l2 - c["sellmeier_l2_um2"])
        + c["sellmeier_b3"] * l2 / (l2 - c["sellmeier_l3_um2"])
    )


class TestRefractiveIndex:
    @pytest.mark.parametrize(
        "nm,expected",
        [(852, 1.4525), (1064, 1.4496), (783, 1.4537)],
    )
    def test_known_values(self, nm, expected):
        assert refractive_index(SILICA, nm * 1e-9) == pytest.approx(expected, abs=5e-4)

    def test_matches_sellmeier_oracle(self):
        from nanotrap.constants import load_constants

        c = load_constants()
        for nm in (450, 700, 852, 1064, 1400):
            assert refractive_index(SILICA, nm * 1e-9) == pytest.approx(
                sellmeier_oracle(nm * 1e-3, c), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            refractive_index(SILICA, 0.3e-6)
        with pytest.raises(DomainError):
            refractive_index(SILICA, 1.6e-6)


class TestVNumber:
    def test_852(self, fiber):
        assert v_number(fiber, 852e-9) == pytest.approx(1.94, abs=0.01)

    def test_1064(self, fiber):
        assert v_number(fiber, 1064e-9) == pytest.approx(1.55, abs=0.01)

    def test_single_mode_at_all_four_wavelengths(self, fiber):
        for nm in (783, 852, 880.25, 1064):
            assert v_number(fiber, nm * 1e-9) < 2.405


def characteristic_oracle(neff, k, a, n1):
    """Same hybrid-mode dispersion relation, written independently from
    the J/K recurrences used by the implementation."""
    from scipy.special import jv, jvp, kv, kvp

    u = a * k * np.sqrt(n1**2 - neff**2)
    w = a * k * np.sqrt(neff**2 - 1.0)
    jj = jvp(1, u) / (u * jv(1, u))
    kk = kvp(1, w) / (w * kv(1, w))
    return (jj + kk) * (n1**2 * jj + kk) - neff**2 * (1 / u**2 + 1 / w**2) ** 2


class TestSolveHe11:
    def test_guidance_bounds(self, fiber, modes):
        m = modes[852.347]
        k = 2 * np.pi / m.wavelength
        assert 1.0 * k < m.beta < m.n_core * k

    def test_golden_effective_index_852(self, fiber):
        # golden number fixed by an independent fine-grid sign scan of the
        # characteristic equation (oracle re-run below)
        m = solve_he11(fiber, 852e-9)
        assert m.effective_index == pytest.approx(1.1439908409524, abs=1e-10)

        k = 2 * np.pi / 852e-9
        grid = np.linspace(1.0 + 1e-6, m.n_core - 1e-6, 200001)
        vals = characteristic_oracle(grid, k, fiber.radius, m.n_core)
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert idx.size == 1
        bracket = (grid[idx[0]], grid[idx[0] + 1])
        assert bracket[0] < m.effective_index < bracket[1]

    def test_characteristic_residual_small(self, fiber, modes):
        from nanotrap.fiber_mode import _characteristic

        for m in modes.values():
            k = 2 * np.pi / m.wavelength
            res = _characteristic(m.effective_index, k, fiber.radius, m.n_core, 1.0)
            scale = abs(
                _characteristic(m.effective_index * 1.01, k, fiber.radius, m.n_core, 1.0)
            )
            assert abs(res) < 1e-9 * scale

    def test_parameter_relations(self, modes):
        for m in modes.values():
            k = 2 * np.pi / m.wavelength
            assert m.interior_parameter**2 == pytest.approx(
                (k * m.n_core) ** 2 - m.beta**2, rel=1e-12
            )
            assert m.exterior_parameter**2 == pytest.approx(
                m.beta**2 - k**2, rel=1e-12
            )

    def test_dispersion_monotone(self, modes):
        n783 = modes[783].effective_index
        n852 = modes[852.347].effective_index
        n1064 = modes[1064].effective_index
        assert n783 > n852 > n1064

    def test_no_mode_error(self):
        # tiny fiber guides nothing findable on the scan grid
        with pytest.raises(NoModeError):
            solve_he11(FiberSpec(radius=30e-9), 1.5e-6)

    def test_multimode_flag(self):
        m = solve_he11(FiberSpec(radius=420e-9), 783e-9)
        assert m.multimode

    @pytest.mark.parametrize("radius_nm", [200, 250, 300])
    def test_vectorised_scan_picks_scalar_loop_bracket(self, radius_nm):
        from nanotrap.fiber_mode import _characteristic

        fiber = FiberSpec(radius=radius_nm * 1e-9)
        for nm in (783, 852.347, 880.2524, 1064):
            lam = nm * 1e-9
            n1, k, a = fiber.core_index(lam), 2 * np.pi / lam, fiber.radius
            grid = np.arange(1.0 + 2e-6, n1 - 2e-6, 1e-4)
            scalar = np.array([_characteristic(float(x), k, a, n1, 1.0) for x in grid])
            vector = _characteristic(grid, k, a, n1, 1.0)
            signs = np.sign(scalar[:-1]) * np.sign(scalar[1:]) < 0
            assert np.array_equal(signs, np.sign(vector[:-1]) * np.sign(vector[1:]) < 0)
            idx = np.nonzero(signs)[0][-1]
            neff = solve_he11(fiber, lam).effective_index
            assert grid[idx] <= neff <= grid[idx + 1]

    @pytest.mark.parametrize("radius_nm", [200, 250, 300])
    @pytest.mark.parametrize("nm", [783, 852.347, 880.2524, 1064])
    def test_closed_form_power_matches_quadrature(self, radius_nm, nm):
        """Closed-form flux of the unit-amplitude circular mode against quad."""
        from nanotrap.fiber_mode import _guided_power_unit_amplitude, _radial_profiles_e

        m = solve_he11(FiberSpec(radius=radius_nm * 1e-9), nm * 1e-9)
        a = m.fiber.radius

        def s_z_times_r(r):
            rr = np.array([r])
            e_r, e_phi, _ = _radial_profiles_e(m, rr)
            h_r, h_phi, _ = radial_profiles_h(m, rr)
            return 0.5 * np.real(e_r * np.conj(h_phi) - e_phi * np.conj(h_r))[0] * r

        inner, _ = integrate.quad(s_z_times_r, 0, a, limit=200, epsabs=0, epsrel=1e-13)
        outer, _ = integrate.quad(
            s_z_times_r, a, a + 70 / m.exterior_parameter, limit=200, epsabs=0, epsrel=1e-13
        )
        oracle = 2 * np.pi * (inner + outer)
        assert _guided_power_unit_amplitude(m) == pytest.approx(oracle, rel=1e-10)
        assert m.normalization == pytest.approx(1 / np.sqrt(oracle), rel=1e-10)


class TestFieldStructure:
    def test_quadrature_on_polarization_axis(self, probe_field, fiber):
        e = field_at(probe_field, fiber.radius + 230e-9, 0.0, 0.0)
        # transverse dominant component in quadrature with the longitudinal one
        assert abs(np.real(e[0] * np.conj(e[2]))) < 1e-12 * np.sum(np.abs(e) ** 2)
        assert abs(e[1]) < 1e-12 * abs(e[0])

    def test_longitudinal_vanishes_90_deg_away(self, probe_field, fiber):
        e_axis = field_at(probe_field, fiber.radius + 230e-9, 0.0, 0.0)
        e_perp = field_at(probe_field, fiber.radius + 230e-9, np.pi / 2, 0.0)
        peak = np.max(np.abs(e_axis))
        assert abs(e_perp[2]) < 1e-12 * peak

    def test_phase_convention_dominant_component_real_positive(self, probe_field, fiber):
        e = field_at(probe_field, fiber.radius * (1 + 1e-9), 0.0, 0.0)
        assert e[0].real > 0
        assert abs(e[0].imag) < 1e-10 * e[0].real

    def test_evanescent_decay_monotone(self, probe_field, fiber):
        r = np.linspace(fiber.radius * 1.001, fiber.radius + 1e-6, 80)
        intensity = np.sum(np.abs(field_at(probe_field, r, 0.7, 0.0)) ** 2, axis=-1)
        assert np.all(np.diff(intensity) < 0)

    def test_tangential_continuity(self, modes, fiber):
        from nanotrap.fiber_mode import _radial_profiles_e

        a = fiber.radius
        for m in modes.values():
            e_in = _radial_profiles_e(m, np.array([a * (1 - 1e-12)]))
            e_out = _radial_profiles_e(m, np.array([a * (1 + 1e-12)]))
            for comp in (1, 2):  # e_phi, e_z
                assert abs(e_in[comp][0] - e_out[comp][0]) < 1e-9 * abs(e_out[comp][0])
            h_in = radial_profiles_h(m, np.array([a * (1 - 1e-12)]))
            h_out = radial_profiles_h(m, np.array([a * (1 + 1e-12)]))
            for comp in (0, 1, 2):
                assert abs(h_in[comp][0] - h_out[comp][0]) < 1e-8 * abs(h_out[comp][0])

    def test_opposite_side_symmetry(self, probe_field, fiber):
        # diametric points carry the same transverse field and an inverted
        # longitudinal one, so the intensity is pi-periodic in phi and the
        # ellipticity vector flips sign across the fiber
        r = fiber.radius + 180e-9
        for phi in (0.0, 0.4, 1.1):
            e1 = field_at(probe_field, r, phi, 0.0)
            e2 = field_at(probe_field, r, phi + np.pi, 0.0)
            scale = np.max(np.abs(e1))
            assert e2[0] == pytest.approx(e1[0], rel=1e-12, abs=1e-13 * scale)
            assert e2[1] == pytest.approx(e1[1], rel=1e-12, abs=1e-13 * scale)
            assert e2[2] == pytest.approx(-e1[2], rel=1e-12, abs=1e-13 * scale)
            assert np.sum(np.abs(e2) ** 2) == pytest.approx(
                np.sum(np.abs(e1) ** 2), rel=1e-12
            )
            eps1 = np.real(1j * np.cross(e1, np.conj(e1))) / np.sum(np.abs(e1) ** 2)
            eps2 = np.real(1j * np.cross(e2, np.conj(e2))) / np.sum(np.abs(e2) ** 2)
            assert np.allclose(eps2, -eps1, atol=1e-12)

    def test_power_normalization_independent_quadrature(self, probe_field, fiber):
        """Re-integrate the axial Poynting flux of the full quasi-linear field."""
        from nanotrap.fiber_mode import _radial_profiles_e

        m = probe_field.mode
        amp2 = (m.normalization * np.sqrt(probe_field.power)) ** 2

        def s_z_times_r(r):
            rr = np.array([r])
            e_r, e_phi, _ = _radial_profiles_e(m, rr)
            h_r, h_phi, _ = radial_profiles_h(m, rr)
            # quasi-linear: cos^2 and sin^2 azimuthal factors integrate to pi
            val = np.pi * (
                np.real(e_r * np.conj(h_phi)) - np.real(e_phi * np.conj(h_r))
            )
            return amp2 * val[0] * r

        a = fiber.radius
        inner, _ = integrate.quad(s_z_times_r, 0, a, epsabs=0, epsrel=1e-11)
        outer, _ = integrate.quad(
            s_z_times_r, a, a + 70 / m.exterior_parameter, epsabs=0, epsrel=1e-11
        )
        assert inner + outer == pytest.approx(probe_field.power, rel=1e-6)

    def test_backward_beam_flips_spin(self, modes, fiber):
        fwd = LightField(mode=modes[852.347], power=1e-6, direction=+1)
        bwd = LightField(mode=modes[852.347], power=1e-6, direction=-1)
        r = fiber.radius + 230e-9
        e_f = field_at(fwd, r, 0.0, 0.0)
        e_b = field_at(bwd, r, 0.0, 0.0)
        spin_f = np.real(1j * np.cross(e_f, np.conj(e_f)))
        spin_b = np.real(1j * np.cross(e_b, np.conj(e_b)))
        assert spin_f[1] == pytest.approx(-spin_b[1], rel=1e-12)


class TestConfigurations:
    def test_running_wave_z_independent(self, probe_field, fiber):
        grid = PolarGrid(fiber.radius, fiber.radius + 800e-9, 10, 12, z=0.0)
        grid2 = PolarGrid(fiber.radius, fiber.radius + 800e-9, 10, 12, z=0.3e-6)
        assert np.allclose(
            intensity_map(probe_field, grid), intensity_map(probe_field, grid2), rtol=1e-12
        )

    def test_standing_wave_period(self, modes, fiber):
        standing = LightField(
            mode=modes[1064],
            power=1e-3,
            configuration="standing",
            backward_power=1e-3,
        )
        period = np.pi / modes[1064].beta
        r = fiber.radius + 200e-9
        z = np.linspace(0, period, 7)
        i1 = np.sum(np.abs(field_at(standing, r, 0.0, z)) ** 2, axis=-1)
        i2 = np.sum(np.abs(field_at(standing, r, 0.0, z + period)) ** 2, axis=-1)
        assert np.allclose(i1, i2, rtol=1e-9)
        # antinode at z = 0 with default relative phase
        assert i1[0] == pytest.approx(np.max(i1), rel=1e-9)

    def test_standing_equal_powers_linear_at_antinode(self, modes, fiber):
        standing = LightField(
            mode=modes[1064], power=1e-3, configuration="standing", backward_power=1e-3
        )
        e = field_at(standing, fiber.radius + 230e-9, 0.0, 0.0)
        spin = np.real(1j * np.cross(e, np.conj(e)))
        assert np.linalg.norm(spin) < 1e-12 * np.sum(np.abs(e) ** 2)

    def test_power_linearity(self, modes, fiber):
        grid = PolarGrid(fiber.radius, fiber.radius + 600e-9, 6, 8)
        f1 = LightField(mode=modes[783], power=1e-3)
        f2 = LightField(mode=modes[783], power=2e-3)
        assert np.allclose(
            2.0 * intensity_map(f1, grid), intensity_map(f2, grid), rtol=1e-12
        )

    def test_negative_power_rejected(self, modes):
        with pytest.raises(DomainError):
            LightField(mode=modes[783], power=-1e-3)

    def test_unsolved_mode_rejected(self):
        from nanotrap.errors import ModeStateError

        with pytest.raises(ModeStateError):
            LightField(mode="not a mode", power=1e-3)


class TestMaps:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            PolarGrid(-1e-9, 1e-6, 4, 4)
        with pytest.raises(DomainError):
            PolarGrid(1e-6, 1e-7, 4, 4)

    def test_field_map_csv_format(self, probe_field, fiber, tmp_path):
        grid = PolarGrid(fiber.radius, fiber.radius + 500e-9, 3, 4)
        path = tmp_path / "map.csv"
        write_field_map_csv(path, probe_field, grid, header_lines=["test = 1"])
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        reader = csv_mod.reader(lines)
        header = next(reader)
        assert header == [
            "r_m",
            "phi_rad",
            "z_m",
            "Ex_re",
            "Ex_im",
            "Ey_re",
            "Ey_im",
            "Ez_re",
            "Ez_im",
        ]
        rows = list(reader)
        assert len(rows) == 12
        # row-major: r outer, phi inner; values round-trip at double precision
        r_vals = [float(row[0]) for row in rows]
        assert r_vals[:4] == [r_vals[0]] * 4
        e = field_at(probe_field, float(rows[0][0]), float(rows[0][1]), 0.0)
        assert float(rows[0][3]) == e[0].real
