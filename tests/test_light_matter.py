"""Polarization analysis, Stark shifts, fictitious fields, and the
assembled two-color trap."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants as cst

from nanotrap import atom_cs, light_matter as lm
from nanotrap.atom_cs import ground_state
from nanotrap.errors import DomainError, NoTrapError, SaddlePointError
from nanotrap.fiber_mode import FiberSpec, LightField, field_at, solve_he11
from nanotrap.light_matter import (
    MagneticEnvironment,
    clock_splitting,
    ellipticity,
    fictitious_field,
    find_trap_minimum,
    mw_splitting,
    scalar_shift,
    site_fields,
    spherical_components,
    trap_frequencies,
    trap_potential,
    vector_shift,
)

MU_B_HZ_PER_G = cst.physical_constants["Bohr magneton"][0] * 1e-4 / cst.h

complex_triples = st.tuples(
    *[st.floats(-1.0, 1.0) for _ in range(6)]
).map(lambda t: np.array([t[0] + 1j * t[1], t[2] + 1j * t[3], t[4] + 1j * t[5]]))


class TestEllipticity:
    def test_circular_in_xz_plane(self):
        e = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
        eps = ellipticity(e)
        assert np.allclose(eps, [0.0, -1.0, 0.0], atol=1e-15)
        assert np.linalg.norm(eps) == pytest.approx(1.0, abs=1e-15)

    def test_linear_field_has_zero_ellipticity(self):
        assert np.allclose(ellipticity(np.array([0.3, -1.2, 0.7])), 0.0, atol=1e-16)

    def test_paper_probe_anchor(self, probe_field, fiber):
        e = field_at(probe_field, fiber.radius + 230e-9, 0.0, 0.0)
        assert np.linalg.norm(ellipticity(e)) == pytest.approx(0.84, abs=0.02)

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            ellipticity(np.zeros(3))

    @settings(max_examples=100, deadline=None)
    @given(complex_triples)
    def test_magnitude_bounded_by_one(self, e):
        if np.sum(np.abs(e) ** 2) < 1e-12:
            return
        assert np.linalg.norm(ellipticity(e)) <= 1.0 + 1e-12

    def test_sign_flip_across_fiber(self, probe_field, fiber):
        for phi in np.linspace(0, np.pi, 7):
            e1 = field_at(probe_field, fiber.radius + 150e-9, phi, 0.0)
            e2 = field_at(probe_field, fiber.radius + 150e-9, phi + np.pi, 0.0)
            assert np.allclose(ellipticity(e1), -ellipticity(e2), atol=1e-12)


class TestSphericalComponents:
    def test_circular_aligned_with_axis(self):
        e = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)  # eps = -y
        a_plus, a_zero, a_minus = spherical_components(e, [0, -1, 0])
        assert abs(a_plus) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(a_zero) == pytest.approx(0.0, abs=1e-12)
        assert abs(a_minus) == pytest.approx(0.0, abs=1e-12)

    def test_axis_reversal_swaps_sigma(self):
        e = np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)
        a_plus, _, a_minus = spherical_components(e, [0, 1, 0])
        assert abs(a_minus) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(a_plus) == pytest.approx(0.0, abs=1e-12)

    def test_paper_sigma_plus_fraction(self, probe_field, fiber):
        e = field_at(probe_field, fiber.radius + 230e-9, 0.0, 0.0)
        a_plus, a_zero, a_minus = spherical_components(e, [0, 1, 0])
        total = np.sum(np.abs(e) ** 2)
        eps_y = ellipticity(e)[1]
        # direct decomposition against the ellipticity-projection relation
        assert abs(a_plus) ** 2 / total == pytest.approx((1 + eps_y) / 2, abs=1e-12)
        assert abs(a_plus) ** 2 / total == pytest.approx(0.92, abs=0.01)
        assert abs(a_zero) ** 2 / total < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(complex_triples)
    def test_norm_conserved(self, e):
        total = np.sum(np.abs(e) ** 2)
        if total < 1e-12:
            return
        a_plus, a_zero, a_minus = spherical_components(e, [0.3, -0.5, 0.8])
        assert abs(a_plus) ** 2 + abs(a_zero) ** 2 + abs(a_minus) ** 2 == pytest.approx(
            total, rel=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(complex_triples)
    def test_spin_projection_identity(self, e):
        if np.sum(np.abs(e) ** 2) < 1e-12:
            return
        axis = np.array([0.0, 1.0, 0.0])
        a_plus, _, a_minus = spherical_components(e, axis)
        spin = np.real(1j * np.cross(e, np.conj(e)))
        assert abs(a_plus) ** 2 - abs(a_minus) ** 2 == pytest.approx(
            float(spin @ axis), rel=1e-9, abs=1e-12
        )

    def test_zero_axis_rejected(self):
        with pytest.raises(DomainError):
            spherical_components(np.array([1.0, 0, 0]), [0, 0, 0])


class TestShifts:
    def test_linear_field_no_fictitious_field(self, data):
        b = fictitious_field(np.array([1e3, 0.0, 0.0]), 880.2524e-9, 4, data)
        assert np.allclose(b, 0.0, atol=1e-15)

    def test_scalar_shift_vanishes_at_tune_out(self, data):
        lam = atom_cs.tune_out(860e-9, 893e-9, data)
        e = np.array([1e3, 0.0, 0.0])
        at_tune_out = scalar_shift(e, lam, data)
        at_d2 = scalar_shift(e, 852e-9, data)
        assert abs(at_tune_out) < 1e-6 * abs(at_d2)

    def test_scalar_shift_signs(self, data):
        e = np.array([1e3, 0.0, 0.0])
        assert scalar_shift(e, 783e-9, data) > 0  # repulsive
        assert scalar_shift(e, 1064e-9, data) < 0  # attractive

    def test_scalar_shift_linearity(self, data):
        e = np.array([1e3, 200.0, 0.0])
        assert scalar_shift(np.sqrt(2) * e, 1064e-9, data) == pytest.approx(
            2 * scalar_shift(e, 1064e-9, data), rel=1e-12
        )

    def test_vector_shift_zero_for_mf0(self, data):
        e = np.array([1e3, 0.0, 1e3j])
        assert vector_shift(e, 783e-9, ground_state(4, 0), [0, 1, 0], data) == 0.0

    def test_vector_shift_odd_in_mf(self, data):
        e = np.array([1e3, 0.0, 1e3j])
        up = vector_shift(e, 783e-9, ground_state(4, 3), [0, 1, 0], data)
        dn = vector_shift(e, 783e-9, ground_state(4, -3), [0, 1, 0], data)
        assert up == pytest.approx(-dn, rel=1e-12)

    def test_vector_shift_fictitious_field_identity(self, probe_field, fiber, data):
        # the two computation paths agree to 1e-12 relative
        e = field_at(probe_field, fiber.radius + 230e-9, 0.0, 0.0)
        axis = np.array([0.0, 1.0, 0.0])
        for f, mf in ((4, 4), (4, -2), (3, 1), (3, -3)):
            state = ground_state(f, mf)
            direct = vector_shift(e, 852.347e-9, state, axis, data)
            gf = data.g_f("ground", f)
            b = fictitious_field(e, 852.347e-9, f, data)
            zeeman = gf * mf * MU_B_HZ_PER_G * float(b @ axis)
            assert direct == pytest.approx(zeeman, rel=1e-12)


def reference_potential(config, position, state, boff, data):
    """The trap potential at one point, summed from the public shift functions."""
    r, phi, z = position
    total = 0.0
    bfict = np.zeros(3)
    for fld in config.fields():
        e = field_at(fld, r, phi, z)
        total = total + scalar_shift(e, fld.mode.wavelength, data)
        if state is not None:
            bfict = bfict + fictitious_field(e, fld.mode.wavelength, state.f, data)
    if state is not None:
        b = np.linalg.norm(boff * np.array([0.0, 1.0, 0.0]) + bfict)
        total = total + (
            atom_cs.breit_rabi_energy(state, b, data) - atom_cs.breit_rabi_energy(state, 0.0, data)
        )
    if config.c3 is not None:
        total = total - config.c3 / ((r - config.fiber.radius) ** 3 * cst.h)
    return float(total)


class TestTrapPotential:
    @pytest.mark.parametrize(
        "state", [None, ground_state(4, 4), ground_state(3, -3)], ids=["mF-averaged", "4,4", "3,-3"]
    )
    @pytest.mark.parametrize("manipulated", [False, True], ids=["trap", "manipulated"])
    def test_prepared_potential_equals_trap_potential_exactly(
        self, trap_config, manipulation_field, trap_minimum, data, state, manipulated
    ):
        cfg = replace(trap_config, manipulation=manipulation_field if manipulated else None)
        u = lm._potential(cfg, state, 28.0, data)
        r0, phi0, z0 = trap_minimum
        r = r0 + np.linspace(-80e-9, 300e-9, 5)
        phi = phi0 + np.linspace(-0.4, 0.4, 5)
        z = z0 + np.linspace(-100e-9, 100e-9, 5)
        for point in zip(r, phi, z):
            expected = reference_potential(cfg, point, state, 28.0, data)
            assert u(*point) == expected
            assert trap_potential(cfg, point, state, 28.0, data) == expected
        grid = u(r[:, None], phi[None, :], z[2])
        assert np.array_equal(
            grid, trap_potential(cfg, (r[:, None], phi[None, :], z[2]), state, 28.0, data)
        )
        for i, j in np.ndindex(grid.shape):
            assert grid[i, j] == u(r[i], phi[j], z[2])

    def test_blue_only_is_repulsive(self, fiber, modes, data):
        blue = LightField(mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2)
        red_off = LightField(mode=modes[1064], power=0.0, configuration="standing")
        cfg = lm.TrapConfig(fiber=fiber, blue=blue, red=red_off, c3=None)
        r = fiber.radius + np.linspace(30e-9, 900e-9, 60)
        u = trap_potential(cfg, (r, 0.0, 0.0), data=data)
        assert np.all(np.diff(u) < 0)  # monotonically decaying repulsion
        with pytest.raises(NoTrapError):
            find_trap_minimum(cfg, data=data)

    def test_minimum_at_230_nm(self, fiber, trap_minimum):
        assert (trap_minimum[0] - fiber.radius) * 1e9 == pytest.approx(230, abs=30)
        assert trap_minimum[1] == pytest.approx(0.0, abs=1e-6)
        assert abs(trap_minimum[2]) < 1e-12

    def test_mirror_symmetry_in_phi(self, trap_config, data):
        r = trap_config.fiber.radius + 230e-9
        for phi in (0.3, 0.9):
            u_plus = trap_potential(trap_config, (r, phi, 0.0), data=data)
            u_minus = trap_potential(trap_config, (r, -phi, 0.0), data=data)
            assert u_plus == pytest.approx(u_minus, rel=1e-12)

    def test_inside_fiber_rejected(self, trap_config, data):
        with pytest.raises(DomainError):
            trap_potential(trap_config, (trap_config.fiber.radius * 0.5, 0.0, 0.0), data=data)

    def test_raising_blue_power_pushes_outward(self, trap_config, trap_minimum, data):
        from dataclasses import replace

        stronger = replace(
            trap_config, blue=replace(trap_config.blue, power=1.3 * trap_config.blue.power)
        )
        r_new = find_trap_minimum(stronger, data=data)[0]
        assert r_new > trap_minimum[0]

    def test_diametric_site_equivalent(self, trap_config, trap_minimum, data):
        r0, phi0, z0 = trap_minimum
        u1 = trap_potential(trap_config, (r0, phi0, z0), data=data)
        u2 = trap_potential(trap_config, (r0, phi0 + np.pi, z0), data=data)
        assert u1 == pytest.approx(u2, rel=1e-12)


    def test_minimum_pinned_at_surface_clamp_raises(self, data):
        # at a = 260 nm this (4,4) potential falls all the way to the fiber, so
        # the radial search ends pinned at its clamp 1 nm above the surface
        fiber = FiberSpec(radius=260e-9)
        mode = {nm: solve_he11(fiber, nm * 1e-9) for nm in (783, 880.2524, 1064)}
        cfg = lm.TrapConfig(
            fiber=fiber,
            blue=LightField(
                mode=mode[783], power=8.5e-3, polarization_angle=np.pi / 2 + 0.0807575511186125
            ),
            red=LightField(
                mode=mode[1064],
                power=0.77e-3,
                configuration="standing",
                backward_power=0.77e-3 * 0.9631628709357303,
            ),
            c3=data.c3_ground_jm3,
            manipulation=LightField(mode=mode[880.2524], power=100e-6),
        )
        with pytest.raises(NoTrapError, match="surface"):
            find_trap_minimum(cfg, ground_state(4, 4), 20.88949098894614, data=data)


def golden_minimize(f, lo, hi, tol):
    """Scalar golden-section search, the reference the zoom search is held to."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def reference_minimum(config, state, boff, data, start, tol):
    """Coordinate-wise (r, phi, z) golden-section search from ``start`` to ``tol``."""
    u = lm._potential(config, state, boff, data)
    z_half = 0.25 * config.red.mode.guided_wavelength
    r0, phi0, z0 = start
    for _ in range(200):
        previous = np.array([r0, r0 * phi0, z0])
        r0 = golden_minimize(lambda r: u(r, phi0, z0), r0 - 50e-9, r0 + 50e-9, tol)
        phi0 = golden_minimize(lambda p: u(r0, p, z0), phi0 - 0.5, phi0 + 0.5, tol / r0)
        z0 = golden_minimize(lambda zz: u(r0, phi0, zz), z0 - z_half, z0 + z_half, tol)
        if np.max(np.abs(np.array([r0, r0 * phi0, z0]) - previous)) < tol:
            break
    return r0, phi0, z0


class TestZoomMinimize:
    def test_quadratic_minimum_within_tol(self):
        tol = 1e-9
        x = lm._zoom_minimize(lambda x: (x - 0.3137) ** 2, -1.0, 2.0, tol)
        assert abs(x - 0.3137) <= tol

    def test_minimum_at_lower_bound(self):
        tol = 1e-7
        x = lm._zoom_minimize(lambda x: 3.0 * x, 1.0, 5.0, tol)
        assert abs(x - 1.0) <= tol

    @pytest.mark.parametrize("width", [1.0, 0.37, 242.3e-9, 3e-4])
    def test_symmetric_function_on_symmetric_bracket(self, width):
        x = lm._zoom_minimize(lambda x: np.cosh(x / width), -width, width, 1e-6 * width)
        assert abs(x) <= 1e-12 * width

    def test_one_call_per_zoom(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return (x - 0.1) ** 2

        lm._zoom_minimize(f, -1.0, 1.0, 2.0 / 16**3)
        assert calls == [33, 33, 33]


class TestTrapSearch:
    @pytest.mark.parametrize(
        "state, manipulated",
        [(None, False), (ground_state(4, 4), False), (ground_state(4, 4), True)],
        ids=["mF-averaged", "4,4", "4,4-manipulated"],
    )
    def test_within_0_02_nm_of_reference_search(
        self, trap_config, manipulation_field, data, state, manipulated
    ):
        cfg = replace(trap_config, manipulation=manipulation_field if manipulated else None)
        found = find_trap_minimum(cfg, state, 28.0, data=data)
        ref = reference_minimum(cfg, state, 28.0, data, found, 0.1e-9 / 1000)
        assert abs(found[0] - ref[0]) < 0.02e-9
        assert ref[0] * abs(found[1] - ref[1]) < 0.02e-9
        assert abs(found[2] - ref[2]) < 0.02e-9

    def test_field_evaluation_counts(self, trap_config, manipulation_field, data, monkeypatch):
        calls = []

        def counted(light, r, phi, z):
            calls.append(np.size(r))
            return field_at(light, r, phi, z)

        monkeypatch.setattr(lm, "field_at", counted)
        minimum = find_trap_minimum(trap_config, data=data)
        assert len(calls) <= 60  # two fields; a golden-section search made 230
        for cfg in (trap_config, replace(trap_config, manipulation=manipulation_field)):
            n_fields = len(cfg.fields())
            calls.clear()
            trap_frequencies(cfg, ground_state(4, 4), 28.0, minimum=minimum, data=data)
            assert calls == [19] * n_fields
            calls.clear()
            lm.site_environment(cfg, 28.0, minimum, data)
            assert calls == [2] * n_fields


def pointwise_frequencies(config, state, boff, minimum, data):
    """Trap frequencies from a central-difference Hessian of scalar potential calls."""
    u = lm._potential(config, state, boff, data)
    r0, phi0, z0 = minimum
    step = 1e-9

    def u_local(d):
        return u(r0 + d[0], phi0 + d[1] / r0, z0 + d[2])

    hess = np.zeros((3, 3))
    u0 = u_local(np.zeros(3))
    for i in range(3):
        for j in range(i, 3):
            di, dj = np.zeros(3), np.zeros(3)
            di[i] = dj[j] = step
            if i == j:
                val = (u_local(di) - 2.0 * u0 + u_local(-di)) / step**2
            else:
                val = (
                    u_local(di + dj) - u_local(di - dj) - u_local(-di + dj) + u_local(-di - dj)
                ) / (4.0 * step**2)
            hess[i, j] = hess[j, i] = val
    evals, evecs = np.linalg.eigh(hess * cst.h / data.mass_kg)
    freqs = np.zeros(3)
    freqs[np.argmax(np.abs(evecs), axis=0)] = np.sqrt(evals) / (2 * np.pi)
    return tuple(float(f) for f in freqs)


class TestTrapFrequencies:
    def test_paper_anchor(self, trap_config, trap_minimum, data):
        nu_r, nu_phi, nu_z = trap_frequencies(trap_config, minimum=trap_minimum, data=data)
        assert nu_r == pytest.approx(120e3, rel=0.25)
        assert nu_phi == pytest.approx(87e3, rel=0.25)
        assert nu_z == pytest.approx(186e3, rel=0.25)

    @pytest.mark.parametrize("state", [None, ground_state(4, 4)], ids=["mF-averaged", "4,4"])
    @pytest.mark.parametrize("manipulated", [False, True], ids=["trap", "manipulated"])
    def test_equal_to_pointwise_hessian(
        self, trap_config, manipulation_field, data, state, manipulated
    ):
        cfg = replace(trap_config, manipulation=manipulation_field if manipulated else None)
        minimum = find_trap_minimum(cfg, state, 28.0, data=data)
        freqs = trap_frequencies(cfg, state, 28.0, minimum=minimum, data=data)
        assert freqs == pointwise_frequencies(cfg, state, 28.0, minimum, data)

    def test_sqrt_power_scaling_without_surface_term(self, fiber, modes, data):
        from dataclasses import replace

        blue = LightField(mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2)
        red = LightField(
            mode=modes[1064],
            power=0.77e-3,
            configuration="standing",
            backward_power=0.77e-3,
        )
        cfg = lm.TrapConfig(fiber=fiber, blue=blue, red=red, c3=None)
        base_min = find_trap_minimum(cfg, data=data)
        base = trap_frequencies(cfg, minimum=base_min, data=data)
        scaled_cfg = lm.TrapConfig(
            fiber=fiber,
            blue=replace(blue, power=1.1 * blue.power),
            red=replace(red, power=1.1 * red.power, backward_power=1.1 * red.backward_power),
            c3=None,
        )
        scaled_min = find_trap_minimum(scaled_cfg, data=data)
        assert scaled_min[0] == pytest.approx(base_min[0], abs=0.5e-9)
        scaled = trap_frequencies(scaled_cfg, minimum=scaled_min, data=data)
        for b, s in zip(base, scaled):
            assert s / b == pytest.approx(np.sqrt(1.1), rel=1e-3)

    def test_axial_frequency_even_in_phi_b(self, fiber, modes, data):
        from dataclasses import replace

        def nu_z(phi_b):
            blue = LightField(
                mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2 + phi_b
            )
            red = LightField(
                mode=modes[1064],
                power=0.77e-3,
                configuration="standing",
                backward_power=0.77e-3,
            )
            cfg = lm.TrapConfig(fiber=fiber, blue=blue, red=red, c3=None)
            return trap_frequencies(cfg, data=data)[2]

        delta = np.deg2rad(0.5)
        assert abs(nu_z(delta) - nu_z(-delta)) < 1e-3 * nu_z(0.0)

    def test_saddle_rejected(self, trap_config, trap_minimum, data):
        # the radial barrier between surface and well is not a minimum
        r_barrier = trap_config.fiber.radius + 100e-9
        with pytest.raises(SaddlePointError):
            trap_frequencies(
                trap_config, minimum=(r_barrier, 0.0, 0.0), data=data
            )

    def test_scalar_potential_first_order_invariant_in_phi_b(
        self, fiber, modes, trap_config, trap_minimum, data
    ):
        from dataclasses import replace

        phi_b = np.deg2rad(5.0)
        tilted = replace(
            trap_config,
            blue=replace(trap_config.blue, polarization_angle=np.pi / 2 + phi_b),
        )
        u0 = trap_potential(trap_config, trap_minimum, data=data)
        u1 = trap_potential(tilted, trap_minimum, data=data)
        # exact cos^2 projection: the tilted blue is a cos/sin mixture of the
        # two orthogonal orientations, so the change is bounded by the
        # in-plane-oriented blue shift at the same point
        e_blue_in_plane = field_at(
            replace(trap_config.blue, polarization_angle=0.0), *trap_minimum
        )
        u_blue_max = abs(scalar_shift(e_blue_in_plane, 783e-9, data))
        assert abs(u1 - u0) < np.sin(phi_b) ** 2 * u_blue_max


class TestSiteFields:
    def test_nominal_configuration_has_no_fictitious_field(self, trap_config, data):
        env = site_fields(trap_config, 28.0, data=data)
        assert np.linalg.norm(env.fictitious_field_upper) < 1e-9
        assert np.linalg.norm(env.fictitious_field_lower) < 1e-9

    def test_manipulation_field_antisymmetric_between_sites(
        self, trap_config, manipulation_field, data
    ):
        env = site_fields(trap_config, 28.0, manipulation=manipulation_field, data=data)
        up, lo = env.fictitious_field_upper, env.fictitious_field_lower
        assert np.linalg.norm(up + lo) < 1e-9 * np.linalg.norm(up)

    def test_tilt_sin_squared_law_at_fixed_site(self, trap_config, trap_minimum, modes, data):
        # the in-plane constituent of the tilted blue field carries the spin:
        # at a fixed point its fictitious field scales exactly as sin^2(phi_b)
        def bfict_y(phi_b):
            blue = LightField(
                mode=modes[783], power=8.5e-3, polarization_angle=np.pi / 2 + phi_b
            )
            e = field_at(blue, *trap_minimum)
            return fictitious_field(e, 783e-9, 4, data)[1]

        ratio = bfict_y(np.deg2rad(8.0)) / bfict_y(np.deg2rad(5.0))
        expected = np.sin(np.deg2rad(8.0)) ** 2 / np.sin(np.deg2rad(5.0)) ** 2
        assert expected == pytest.approx(2.5499, abs=1e-3)
        assert ratio == pytest.approx(2.55, abs=0.01)

    def test_tilt_upper_site_parallel_to_offset(self, trap_config, data):
        # probe and blue co-propagate and beta_v(783) > 0: fictitious field
        # parallel to the offset field (+y) at the upper site
        env = site_fields(trap_config, 28.0, phi_b=np.deg2rad(5.0), data=data)
        assert env.fictitious_field_upper[1] > 0
        assert env.fictitious_field_lower[1] < 0

    def test_scales_the_configured_backward_power(self, trap_config, data):
        # a 0.4 mW backward beam moves the site from 483 nm to 308 nm above the
        # surface; site_fields must search the standing wave it was given
        unbalanced = replace(trap_config, red=replace(trap_config.red, backward_power=0.4e-3))
        expected = find_trap_minimum(unbalanced, data=data)
        env = site_fields(unbalanced, 28.0, red_imbalance=1.0, data=data)
        assert (expected[0] - unbalanced.fiber.radius) * 1e9 == pytest.approx(308.2, abs=1.0)
        assert env.site_upper == expected

    def test_red_imbalance_mechanism(self, trap_config, data):
        env = site_fields(trap_config, 28.0, red_imbalance=0.8, data=data)
        assert abs(env.fictitious_field_upper[1]) > 1e-3
        balanced = site_fields(trap_config, 28.0, red_imbalance=1.0, data=data)
        assert abs(balanced.fictitious_field_upper[1]) < 1e-9

    def test_mf_dependent_minima_displaced_oppositely(
        self, trap_config, manipulation_field, trap_minimum, data
    ):
        from dataclasses import replace

        cfg = replace(trap_config, manipulation=manipulation_field)
        r_avg = find_trap_minimum(cfg, data=data)[0]
        r_up = find_trap_minimum(cfg, ground_state(4, 4), 28.0, data=data)[0]
        r_dn = find_trap_minimum(cfg, ground_state(4, -4), 28.0, data=data)[0]
        assert (r_up - r_avg) * (r_dn - r_avg) < 0
        assert abs(r_up - r_avg) > 0.5e-9  # displacement is resolved


def manual_env(boff, bfict_y):
    return MagneticEnvironment(
        offset_field=np.array([0.0, boff, 0.0]),
        fictitious_field_upper=np.array([0.0, bfict_y, 0.0]),
        fictitious_field_lower=np.array([0.0, -bfict_y, 0.0]),
    )


class TestClockSplitting:
    def test_paper_anchor_16_7_khz(self, data):
        split = clock_splitting(manual_env(28.0, 0.35), data)
        assert abs(split.exact_hz) == pytest.approx(16.7e3, abs=0.2e3)

    def test_zero_fictitious_field(self, data):
        assert clock_splitting(manual_env(28.0, 0.0), data).exact_hz == 0.0

    def test_exact_close_to_quadratic_approximation(self, data):
        split = clock_splitting(manual_env(28.0, 0.35), data)
        assert split.exact_hz == pytest.approx(split.approximate_hz, rel=0.01)

    def test_symmetric_straddle(self, data):
        from nanotrap.atom_cs import mw_transition_frequency

        env = manual_env(28.0, 0.35)
        b_up, b_lo = env.total_magnitudes()
        center = mw_transition_frequency((3, 0), (4, 0), 28.0, data)
        up = mw_transition_frequency((3, 0), (4, 0), b_up, data)
        lo = mw_transition_frequency((3, 0), (4, 0), b_lo, data)
        half = 0.5 * abs(up - lo)
        midpoint_offset = 0.5 * abs((up - center) + (lo - center))
        assert midpoint_offset < 0.01 * half


class TestMwSplitting:
    def test_inferred_bfict_for_31_khz(self, data):
        # invert the linear slope (gF4 + |gF3|) * 3 * muB: 31.1 kHz needs ~7.4 mG
        slope = (
            data.g_f("ground", 4) - data.g_f("ground", 3)
        ) * 3.0 * MU_B_HZ_PER_G  # Hz/G per unit mF... evaluated for mF = -3
        bfict = 31.1e3 / (2.0 * abs(slope))
        assert bfict == pytest.approx(7.4e-3, abs=0.2e-3)
        split = mw_splitting(manual_env(3.0, bfict), (3, -3), (4, -3), data)
        assert abs(split) == pytest.approx(31.1e3, rel=0.01)

    def test_zero(self, data):
        assert mw_splitting(manual_env(3.0, 0.0), (3, -3), (4, -3), data) == 0.0

    def test_odd_in_bfict(self, data):
        plus = mw_splitting(manual_env(3.0, 7.4e-3), (3, -3), (4, -3), data)
        minus = mw_splitting(manual_env(3.0, -7.4e-3), (3, -3), (4, -3), data)
        assert plus == pytest.approx(-minus, rel=1e-9)
