"""HE11 solver and field evaluation: dispersion, eigenvalue, continuity,
power normalization, polarization structure, and map exports."""
import csv as csv_mod
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from field_oracle import assert_bitwise_equal, per_beam_field, per_mode_profiles, radial_profiles_h
from nanotrap.atom_cs import default_atomic_data
from nanotrap.errors import DomainError, NoModeError
from nanotrap import fiber_mode as fm
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
            res = _characteristic(m.effective_index, k, fiber.radius, m.n_core)
            scale = abs(
                _characteristic(m.effective_index * 1.01, k, fiber.radius, m.n_core)
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
        # tiny fiber: the root lies below the bracket's lower end, 1 + 2e-6
        with pytest.raises(NoModeError):
            solve_he11(FiberSpec(radius=30e-9), 1.5e-6)

    def test_multimode_flag(self):
        m = solve_he11(FiberSpec(radius=420e-9), 783e-9)
        assert m.multimode

    @pytest.mark.parametrize("radius_nm", [200, 250, 300, 420, 600])
    def test_vectorised_scan_picks_scalar_loop_bracket(self, radius_nm):
        # the whole grid's last sign change brackets the solver's root, and refined by
        # bisection it agrees with the solver to the solver's 1e-12; at 600 nm and
        # 783 nm (V = 5.1 > 3.83) the grid crosses the J1 zero at u = 3.83, which
        # the solver's bracket excludes
        from nanotrap.fiber_mode import _characteristic
        from nanotrap.numerics import find_root

        fiber = FiberSpec(radius=radius_nm * 1e-9)
        for nm in (783, 852.347, 880.2524, 1064):
            lam = nm * 1e-9
            n1, k, a = fiber.core_index(lam), 2 * np.pi / lam, fiber.radius
            grid = np.arange(1.0 + 2e-6, n1 - 2e-6, 1e-4)
            scalar = np.array([_characteristic(float(x), k, a, n1) for x in grid])
            vector = _characteristic(grid, k, a, n1)
            signs = np.sign(scalar[:-1]) * np.sign(scalar[1:]) < 0
            assert np.array_equal(signs, np.sign(vector[:-1]) * np.sign(vector[1:]) < 0)
            idx = np.nonzero(signs)[0][-1]
            mode = solve_he11(fiber, lam)
            assert grid[idx] <= mode.effective_index <= grid[idx + 1]
            root = find_root(
                lambda x: _characteristic(x, k, a, n1), grid[idx], grid[idx + 1], 1e-12
            )
            assert abs(mode.effective_index - root) <= 1e-12

    def test_solve_evaluates_few_grid_points(self, monkeypatch):
        # two evaluations check the closed-form bracket and about 40 bisect it,
        # against one per 1e-4 grid step (about 4500) for a full scan
        import nanotrap.fiber_mode as fm

        characteristic, points = fm._characteristic, []

        def counted(neff, *args):
            points.append(np.size(neff))
            return characteristic(neff, *args)

        monkeypatch.setattr(fm, "_characteristic", counted)
        solve_he11(FiberSpec(radius=250e-9), 783e-9)
        assert sum(points) <= 64

    def test_thick_fiber_solves_beyond_the_j_domain(self):
        # V = 50.8: a full scan would need J at u up to V, outside |u| <= 30, but the
        # solver's bracket holds only effective indices with u < 3.83, and the HE11
        # root has u < 2.405
        from nanotrap.fiber_mode import _characteristic

        fiber = FiberSpec(radius=3e-6)
        assert v_number(fiber, 400e-9) > 30
        m = solve_he11(fiber, 400e-9)
        assert m.multimode and m.interior_parameter * fiber.radius < 2.405
        k = 2 * np.pi / m.wavelength
        res = _characteristic(m.effective_index, k, fiber.radius, m.n_core)
        scale = abs(_characteristic(m.effective_index * (1 - 1e-6), k, fiber.radius, m.n_core))
        assert abs(res) < 1e-6 * scale

    @pytest.mark.parametrize("radius_nm", [200, 250, 300])
    @pytest.mark.parametrize("nm", [783, 852.347, 880.2524, 1064])
    def test_closed_form_power_matches_quadrature(self, radius_nm, nm):
        """Closed-form flux of the unit-amplitude circular mode, normalization^-2, against quad."""
        from nanotrap.fiber_mode import _profiles

        m = solve_he11(FiberSpec(radius=radius_nm * 1e-9), nm * 1e-9)
        a = m.fiber.radius

        def s_z_times_r(r):
            rr = np.array([r])
            e_r, e_phi, _ = _profiles(m, r)
            h_r, h_phi, _ = radial_profiles_h(m, rr)
            return 0.5 * np.real(e_r * np.conj(h_phi) - e_phi * np.conj(h_r))[0] * r

        inner, _ = integrate.quad(s_z_times_r, 0, a, limit=200, epsabs=0, epsrel=1e-13)
        outer, _ = integrate.quad(
            s_z_times_r, a, a + 70 / m.exterior_parameter, limit=200, epsabs=0, epsrel=1e-13
        )
        oracle = 2 * np.pi * (inner + outer)
        assert m.normalization**-2 == pytest.approx(oracle, rel=1e-10)


@pytest.mark.simd_baseline
def test_he11_phase_is_minus_i_for_every_solvable_mode():
    # -1 < s < 0 makes e_r just outside the surface +i times a positive number, so the
    # global phase factor -i makes the dominant transverse component real and positive
    solved = 0
    for radius_nm in range(80, 2001, 40):
        fiber = FiberSpec(radius=radius_nm * 1e-9)
        for nm in range(410, 1501, 20):
            try:
                mode = solve_he11(fiber, nm * 1e-9)
            except NoModeError:
                continue
            solved += 1
            assert -1 < mode.s_parameter < 0
            for angle in (0.0, np.pi / 2):
                e = field_at(LightField(mode=mode, power=1e-3, polarization_angle=angle),
                             fiber.radius * (1 + 1e-9), angle, 0.0)
                dominant = e[int(angle > 0)]
                assert dominant.real > 0 and dominant.imag == 0.0
    assert solved == 2645


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
        from nanotrap.fiber_mode import _profiles

        a = fiber.radius
        for m in modes.values():
            e_in = _profiles(m, a * (1 - 1e-12))
            e_out = _profiles(m, a * (1 + 1e-12))
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
        from nanotrap.fiber_mode import _profiles

        m = probe_field.mode
        amp2 = (m.normalization * np.sqrt(probe_field.power)) ** 2

        def s_z_times_r(r):
            rr = np.array([r])
            e_r, e_phi, _ = _profiles(m, r)
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
    def test_map_evaluates_bessel_once_per_radius(self, probe_field, fiber, monkeypatch):
        # radial profiles on the sparse r axis: a 400 x 256 map needs 400 radii
        # of Bessel evaluations, not 102 400
        import nanotrap.fiber_mode as fm

        probe_field.mode.exterior_scale  # cached on the mode, not part of the map
        radii = []

        def counting(kernel):
            def counted(order, x):
                radii.append(np.size(x))
                return kernel(order, x)

            return counted

        monkeypatch.setattr(fm, "bessel_j", counting(fm.bessel_j))
        monkeypatch.setattr(fm, "bessel_k", counting(fm.bessel_k))
        grid = PolarGrid(0.5 * fiber.radius, fiber.radius + 1e-6, 400, 256)
        assert intensity_map(probe_field, grid).shape == (400, 256)
        assert sum(radii) == 400

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


def stacked_lights(modes):
    """Beams that exercise every branch of the field evaluation."""
    return [
        # standing wave with unequal powers and a relative phase
        LightField(mode=modes[1064], power=0.77e-3, configuration="standing",
                   backward_power=0.8 * 0.77e-3, relative_phase=0.3),
        # tilted blue beam
        LightField(mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2 + np.deg2rad(5.0)),
        # zero-power backward beam, and a beam of zero power
        LightField(mode=modes[852.347], power=4e-12, configuration="standing"),
        LightField(mode=modes[880.2524], power=0.0),
        LightField(mode=modes[880.2524], power=100e-6, direction=-1, polarization_angle=0.4),
    ]


class TestStackedFields:
    """Profiles, and fields summed over a trailing axis of beams, equal the per-mode and
    per-beam evaluation bit for bit."""

    def test_profiles_equal_per_mode_profiles(self, modes, fiber):
        stack = [modes[nm] for nm in (783, 1064, 852.347, 880.2524)]
        a = fiber.radius
        for r in (
            np.linspace(0.2 * a, 3 * a, 41),  # the core (J) and the cladding (K)
            np.linspace(0.1 * a, 0.9 * a, 9),  # the core alone
            a + np.linspace(20e-9, 1200e-9, 250)[:, None],
            a + 230e-9,
            a,
        ):
            for mode in stack:
                for got, want in zip(fm._profiles(mode, r), per_mode_profiles(mode, r)):
                    assert_bitwise_equal(got[..., 0], want)

    @pytest.mark.parametrize(
        "where",
        [
            lambda a: (a * np.linspace(0.5, 4.0, 17)[:, None], np.arange(12) * np.pi / 6, 0.0),
            lambda a: (
                a + np.linspace(30e-9, 800e-9, 17), np.linspace(-0.5, np.pi, 17), np.linspace(-3e-7, 3e-7, 17)
            ),
            lambda a: (a + 230e-9, 0.0, 0.0),
            lambda a: (a + 230e-9, np.linspace(-0.5, 0.5, 33), 37e-9),
        ],
        ids=["r-phi grid through the core", "line", "point on plane P", "azimuth line"],
    )
    def test_fields_equal_per_beam_fields(self, modes, fiber, where):
        r, phi, z = where(fiber.radius)
        for light in stacked_lights(modes):
            assert_bitwise_equal(field_at(light, r, phi, z), per_beam_field(light, r, phi, z))

    def test_spin_density_equals_cross_product_oracle(self):
        rng = np.random.default_rng(5)
        for shape in [(3,), (1, 3), (33, 3), (4, 19, 3), (2, 5, 7, 3)]:
            scale = 10.0 ** rng.integers(-3, 4, shape)
            e = rng.standard_normal(shape) * scale + 1j * rng.standard_normal(shape)
            e[rng.random(shape) < 0.2] = 0.0  # exact zeros of either sign
            e.real[rng.random(shape) < 0.2] = -0.0
            e.imag[rng.random(shape) < 0.2] = -0.0
            e[..., :1] = e[..., :1].real  # and some purely real components
            assert_bitwise_equal(fm._spin_density(e), np.real(1j * np.cross(e, e.conj())))


class TestClosedFormKernel:
    """The closed-form |E|^2 and i(E x E*) equal those of the Cartesian field."""

    POINTS = [  # (r - a, phi, z): an r-phi grid, a line, one point
        (np.linspace(1e-9, 1500e-9, 23)[:, None], np.linspace(-np.pi, np.pi, 29), 37e-9),
        (np.linspace(5e-9, 900e-9, 41), np.linspace(-0.5, 2 * np.pi, 41), np.linspace(-1e-6, 1e-6, 41)),
        (230e-9, 0.0, 0.0),
    ]

    @staticmethod
    def lights(modes):
        lights = stacked_lights(modes)  # standing, tilted, zero-power, direction -1, tune-out
        lights.append(LightField(mode=modes[1064], power=0.5e-3, configuration="standing",
                                 backward_power=0.2e-3, relative_phase=2.0, direction=-1,
                                 polarization_angle=1.1))
        return lights

    @staticmethod
    def balanced_lights(modes):
        """A balanced standing wave, a tilted beam and its reverse, with their points."""
        balanced = LightField(mode=modes[1064], power=0.77e-3, configuration="standing",
                              backward_power=0.77e-3, relative_phase=0.7, polarization_angle=0.3)
        tilted = LightField(mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2 + 0.1)
        reversed_tilt = replace(tilted, direction=-1)
        return [balanced, tilted, reversed_tilt], (np.linspace(1e-9, 900e-9, 31), np.linspace(-3, 3, 31), 0.4e-6)

    @pytest.mark.parametrize("point", range(len(POINTS)), ids=["grid", "line", "point"])
    def test_equals_cartesian_field(self, modes, fiber, point):
        gap, phi, z = self.POINTS[point]
        r = fiber.radius + gap
        lights = self.lights(modes)
        intensity, (s_x, s_y) = fm._intensity_and_spin(lights)(r, phi, z)
        assert s_x.shape == s_y.shape == intensity.shape == np.broadcast(r, phi, z).shape + (len(lights),)
        for k, light in enumerate(lights):
            e = field_at(light, r, phi, z)
            want = np.sum(np.abs(e) ** 2, axis=-1)
            assert np.all(np.abs(intensity[..., k] - want) <= 1e-13 * want)  # 1.4e-15 measured
            s = fm._spin_density(e)  # the Cartesian spin: the kernel keeps its x and y components
            spin = np.stack([s_x[..., k], s_y[..., k], np.zeros_like(s_x[..., k])], axis=-1)
            assert np.max(np.abs(spin - s)) <= 1e-14 * np.max(np.abs(s))  # 1.6e-15
            assert np.max(np.abs(s[..., 2])) <= 1e-14 * np.max(np.abs(s))  # z is 0 to 5.5e-16

    def test_balanced_standing_wave_has_no_spin_and_reversal_negates_it(self, modes, fiber):
        lights, (gap, phi, z) = self.balanced_lights(modes)
        _, (s_x, s_y) = fm._intensity_and_spin(lights)(fiber.radius + gap, phi, z)
        for s in (s_x, s_y):
            assert np.all(s[:, 0] == 0.0) and np.any(s[:, 1] != 0.0)
            assert np.array_equal(s[:, 2], -s[:, 1])

    def test_rejects_points_not_outside_the_fiber(self, modes, fiber):
        for with_spin in (True, False):
            kernel = fm._intensity_and_spin([LightField(mode=modes[783], power=1e-3)], with_spin)
            for r in (fiber.radius, fiber.radius * np.array([2.0, 0.5])):
                with pytest.raises(DomainError, match="outside the fiber"):
                    kernel(r, 0.0, 0.0)

    @pytest.mark.parametrize("point", range(len(POINTS) + 1), ids=["grid", "line", "point", "balanced"])
    def test_intensity_only_kernel_equals_full_kernel(self, modes, fiber, point):
        # the mF-averaged potential's kernel skips the spin; its |E|^2 keeps every bit
        if point < len(self.POINTS):
            lights, (gap, phi, z) = self.lights(modes), self.POINTS[point]
        else:
            lights, (gap, phi, z) = self.balanced_lights(modes)
        r = fiber.radius + gap
        intensity, spin = fm._intensity_and_spin(lights, with_spin=False)(r, phi, z)
        assert spin is None
        assert np.array_equal(intensity, fm._intensity_and_spin(lights)(r, phi, z)[0])
        assert intensity.shape == np.broadcast(r, phi, z).shape + (len(lights),)

    @pytest.mark.parametrize("radius_nm", [200, 250, 320])
    def test_float_constants_equal_array_construction(self, radius_nm):
        # each field's constants in math float arithmetic, against the array expressions
        # they replaced (same operation order): standing, imbalanced, phased, direction -1,
        # zero-power and tune-out lights, on modes of several radii and wavelengths
        fiber = FiberSpec(radius=radius_nm * 1e-9)
        lights = []
        for nm in (700, 783, 852.347, 880.2524, 937, 1064):
            mode = solve_he11(fiber, nm * 1e-9)
            lights += [
                LightField(mode=mode, power=0.77e-3, configuration="standing", backward_power=0.77e-3),
                LightField(mode=mode, power=0.5e-3, configuration="standing", backward_power=0.2e-3,
                           relative_phase=2.0, direction=-1, polarization_angle=1.1),
                LightField(mode=mode, power=8.5e-3, polarization_angle=np.pi / 2 + np.deg2rad(5.0)),
                LightField(mode=mode, power=0.0, configuration="standing", backward_power=3e-6),
                LightField(mode=mode, power=0.0),
            ]
        rows = [(f.mode.fiber.radius, f.mode.beta, f.mode.exterior_parameter, f.mode.s_parameter,
                 f.mode.exterior_scale, f.mode.normalization, f.power, f.polarization_angle,
                 f.direction, f.backward_power * (f.configuration == "standing"), f.relative_phase)
                for f in lights]
        a, beta, q, s, c_out, norm, fwd, angle, d, bwd, phase = np.array(rows).T
        scale = np.sqrt(2.0) * norm * c_out
        c0, c2 = scale * beta * (1 - s) / (2 * q), scale * beta * (1 + s) / (2 * q)
        total, cross, spin, wave = fwd + bwd, 2 * np.sqrt(fwd * bwd), 2 * d * (fwd - bwd), 2 * d * beta
        want = np.array([a, q, scale, c0, c2, angle, phase, total, cross, spin, wave]).T
        got = np.array([fm._kernel_constants(f) for f in lights])
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.simd_baseline
class TestScanBesselTable:
    """The trap search's 64-point scan reads K_0, K_1, K_2 from a table cached on each mode."""

    @pytest.mark.parametrize("radius_nm", [245, 250, 255])  # geometry-sweep's radii; paper.cfg's 250
    def test_scan_bessel_equals_the_kernel_values(self, radius_nm, monkeypatch):
        # the values one kernel call over several fields computes at the scan radii, bit for
        # bit; the wavelengths are geometry-sweep's three and paper.cfg's four
        fiber = FiberSpec(radius=radius_nm * 1e-9)
        lights = [LightField(mode=solve_he11(fiber, nm * 1e-9), power=1e-3)
                  for nm in (783, 852.347, 880.2524, 1064)]
        kernel, bessel_k, seen = fm._intensity_and_spin(lights), fm.bessel_k, []
        monkeypatch.setattr(fm, "bessel_k", lambda order, x: seen.append(bessel_k(order, x)) or seen[-1])
        kernel(fiber.radius + fm.SCAN_OFFSETS, 0.0, 0.0)
        monkeypatch.undo()
        (computed,) = seen
        assert computed.shape == (3, 64, len(lights))
        for i, light in enumerate(lights):
            assert "scan_bessel" not in vars(light.mode)
            assert np.array_equal(light.mode.scan_bessel, computed[..., i])

    def test_scan_bessel_is_each_modes_own(self):
        # keyed by its own mode: another wavelength or radius, or a replaced mode, computes its
        # table from its own fields; only the mode that computed a table holds it
        fiber = FiberSpec(radius=250e-9)
        mode = solve_he11(fiber, 783e-9)
        table = mode.scan_bessel
        assert mode.scan_bessel is table
        with pytest.raises(ValueError, match="read-only"):  # no caller can change a later scan
            table[0, 0] = 0.0
        others = [solve_he11(fiber, 1064e-9), solve_he11(FiberSpec(radius=255e-9), 783e-9), replace(mode),
                  replace(mode, exterior_parameter=1.01 * mode.exterior_parameter),
                  replace(mode, fiber=FiberSpec(radius=255e-9))]
        for other in others:
            assert "scan_bessel" not in vars(other)
            own = fm.bessel_k((0, 1, 2), (other.fiber.radius + fm.SCAN_OFFSETS) * other.exterior_parameter)
            assert np.array_equal(other.scan_bessel, own) and other.scan_bessel is not table
        assert np.array_equal(others[2].scan_bessel, table)  # an unchanged copy: the same values
        assert not any(np.array_equal(other.scan_bessel, table) for other in others[:2] + others[3:])
