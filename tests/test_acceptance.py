"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Each criterion recomputes its inputs from scratch so the
stated runtime budgets include the mode solves.
"""
import time
from dataclasses import replace

import numpy as np
from scipy import constants as cst

from field_oracle import radial_profiles_h
from nanotrap import atom_cs, dynamics, light_matter, spectra
from nanotrap.atom_cs import ground_state
from nanotrap.fiber_mode import FiberSpec, LightField, field_at, solve_he11
from nanotrap.light_matter import (
    MagneticEnvironment,
    clock_splitting,
    ellipticity,
    fictitious_field,
    find_trap_minimum,
    mw_splitting,
    site_fields,
    trap_frequencies,
    vector_shift,
)

MU_B_HZ_PER_G = cst.physical_constants["Bohr magneton"][0] * 1e-4 / cst.h


def report(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index}: {name}: {status} ({detail})")
    return ok


def paper_trap(data):
    fiber = FiberSpec(radius=250e-9)
    blue = LightField(mode=solve_he11(fiber, 783e-9), power=8.5e-3, polarization_angle=np.pi / 2)
    red = LightField(
        mode=solve_he11(fiber, 1064e-9),
        power=0.77e-3,
        polarization_angle=0.0,
        configuration="standing",
        backward_power=0.77e-3,
    )
    return light_matter.TrapConfig(fiber=fiber, blue=blue, red=red, c3=data.c3_ground_jm3)


# --- independent oracle for the fictitious field (criterion 4) --------------
# Written from the data-file constants and ``field_at`` alone, so that it shares
# neither the Stark operator nor the mode-power quadrature with the program.


def oracle_vector_coefficient(wavelength_m, f, data):
    """beta_v (G per (V/m)^2) of ground manifold F in the two-line model.

    Second-order shifts of mJ = +-1/2 in a unit sigma+ field, with the squared
    3j weights written out (D2: 1/4 to mJ' = +-3/2, 1/12 to mJ' = +-1/2; D1:
    1/3) and counter-rotating terms; J is projected onto F and divided by the
    Zeeman g_F including the nuclear term.
    """
    omega = 2 * np.pi * cst.c / wavelength_m
    w1, w2 = 2 * np.pi * data.d1_frequency_hz, 2 * np.pi * data.d2_frequency_hz
    s1, s2 = data.d1_reduced_dipole_cm**2, data.d2_reduced_dipole_cm**2
    shift_up = s2 * (1 / 4 / (w2 - omega) + 1 / 12 / (w2 + omega)) + s1 / 3 / (w1 + omega)
    shift_down = s2 * (1 / 12 / (w2 - omega) + 1 / 4 / (w2 + omega)) + s1 / 3 / (w1 - omega)
    splitting = -(shift_up - shift_down) / (4 * cst.hbar)  # J per (V/m)^2
    i, j, ff = data.nuclear_spin, 0.5, f * (f + 1)
    j_projection = (ff + j * (j + 1) - i * (i + 1)) / (2 * ff)
    g_f = data.g_j_ground * j_projection + data.g_i * (ff + i * (i + 1) - j * (j + 1)) / (2 * ff)
    mu_b_j_per_g = cst.physical_constants["Bohr magneton"][0] * 1e-4
    return splitting * j_projection / (g_f * mu_b_j_per_g)


def poynting_power(light):
    """Guided power of a +z running beam: the axial flux 1/2 Re(E x H*),
    with H = curl E / (i omega mu0).

    Gauss-Legendre in r (40 nodes in the core, 120 outside, split at r = a)
    and 32 uniform azimuthal nodes.  A running wave varies as exp(i beta z),
    so the transverse H needs only the x and y derivatives of E_z, taken by
    central differences with a 1 pm step; no node lies within 1 pm of r = a.
    """
    mode = light.mode
    a = mode.fiber.radius
    r_far = a + 30.0 / mode.exterior_parameter
    x_in, w_in = np.polynomial.legendre.leggauss(40)
    x_out, w_out = np.polynomial.legendre.leggauss(120)
    r = np.concatenate([0.5 * a * (x_in + 1), a + 0.5 * (r_far - a) * (x_out + 1)])
    w_r = np.concatenate([0.5 * a * w_in, 0.5 * (r_far - a) * w_out])
    phi = 2 * np.pi * np.arange(32) / 32
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    x, y = rr * np.cos(pp), rr * np.sin(pp)

    def e_z(xx, yy):
        return field_at(light, np.hypot(xx, yy), np.arctan2(yy, xx), 0.0)[..., 2]

    step = 1e-12
    dez_dx = (e_z(x + step, y) - e_z(x - step, y)) / (2 * step)
    dez_dy = (e_z(x, y + step) - e_z(x, y - step)) / (2 * step)
    e = field_at(light, rr, pp, 0.0)
    i_beta = 1j * mode.beta
    i_omega_mu0 = 1j * 2 * np.pi * cst.c / mode.wavelength * cst.mu_0
    h_x = (dez_dy - i_beta * e[..., 1]) / i_omega_mu0
    h_y = (i_beta * e[..., 0] - dez_dx) / i_omega_mu0
    s_z = 0.5 * np.real(e[..., 0] * np.conj(h_y) - e[..., 1] * np.conj(h_x))
    return float(np.sum(s_z * rr * w_r[:, None]) * 2 * np.pi / phi.size)


def oracle_fictitious_field(fields, site, data, f=4):
    """Sum over beams of beta_v * i(E x E*) at a site, in G.

    Each beam's field is rescaled so that its forward beam carries the set
    power by the Poynting flux above, not by the program's normalisation.
    """
    total = np.zeros(3)
    for light in fields:
        running = replace(light, configuration="running", backward_power=0.0)
        scale = np.sqrt(light.power / poynting_power(running))
        e = field_at(light, *site) * scale
        spin = np.real(1j * np.cross(e, np.conj(e)))
        total = total + oracle_vector_coefficient(light.mode.wavelength, f, data) * spin
    return total


def test_criterion_1_ellipticity_anchor(data):
    start = time.perf_counter()
    fiber = FiberSpec(radius=250e-9)
    probe = LightField(mode=solve_he11(fiber, 852e-9), power=4e-12, polarization_angle=0.0)
    e = field_at(probe, fiber.radius + 230e-9, 0.0, 0.0)
    magnitude = float(np.linalg.norm(ellipticity(e)))
    elapsed = time.perf_counter() - start
    ok = abs(magnitude - 0.84) <= 0.02 and elapsed < 1.0
    report(1, "ellipticity |eps| = 0.84 +- 0.02 at 230 nm", ok,
           f"|eps| = {magnitude:.4f}, runtime {elapsed:.2f} s")
    assert abs(magnitude - 0.84) <= 0.02
    assert elapsed < 1.0


def test_criterion_2_zeeman_anchor(data):
    start = time.perf_counter()

    def outer_shift(sign):
        excited = atom_cs.zeeman_shift_excited((5, sign * 5), 28.0, data)
        ground = atom_cs.breit_rabi_energy((4, sign * 4), 28.0, data) - atom_cs.breit_rabi_energy(
            (4, sign * 4), 0.0, data
        )
        return excited - ground

    splitting = outer_shift(+1) - outer_shift(-1)
    elapsed = time.perf_counter() - start
    ok = abs(splitting - 78.4e6) <= 0.1e6 and elapsed < 1.0
    report(2, "outermost sigma+/sigma- splitting 78.4 +- 0.1 MHz at 28 G", ok,
           f"splitting = {splitting / 1e6:.3f} MHz, runtime {elapsed:.2f} s")
    assert abs(splitting - 78.4e6) <= 0.1e6
    assert elapsed < 1.0


def test_criterion_3_clock_anchor(data):
    b = np.linspace(0.0, 5.0, 26)
    shifts = np.array(
        [
            atom_cs.mw_transition_frequency((3, 0), (4, 0), bi, data)
            - data.hyperfine_splitting_hz
            for bi in b
        ]
    )
    alpha0 = np.polyfit(b, shifts, 2)[0] / 1e3  # kHz/G^2
    env = MagneticEnvironment(
        offset_field=np.array([0.0, 28.0, 0.0]),
        fictitious_field_upper=np.array([0.0, 0.35, 0.0]),
        fictitious_field_lower=np.array([0.0, -0.35, 0.0]),
    )
    split = abs(clock_splitting(env, data).exact_hz)
    ok_alpha = abs(alpha0 - 0.427) <= 0.005 * 0.427
    ok_split = abs(split - 16.7e3) <= 0.2e3
    report(3, "clock coefficient 0.427 kHz/G^2 and 16.7 kHz splitting", ok_alpha and ok_split,
           f"alpha0 = {alpha0:.4f} kHz/G^2, splitting = {split / 1e3:.2f} kHz vs measured 16.6(6)")
    assert ok_alpha
    assert ok_split


def test_criterion_4_fictitious_field_anchor(data):
    start = time.perf_counter()
    trap = paper_trap(data)
    manipulation = LightField(
        mode=solve_he11(trap.fiber, 880.2524e-9), power=100e-6, polarization_angle=0.0
    )
    env = site_fields(trap, 28.0, manipulation=manipulation, data=data)
    magnitude = float(np.linalg.norm(env.fictitious_field_upper))
    r0 = env.site_upper[0]
    gradient_t_per_m = (
        float(np.linalg.norm(env.fictitious_field_upper - env.fictitious_field_lower))
        / (2.0 * r0)
        * 1e-4
    )
    elapsed = time.perf_counter() - start

    # the oracle is computed outside the timed span
    oracle = oracle_fictitious_field((trap.blue, trap.red, manipulation), env.site_upper, data)
    oracle_magnitude = float(np.linalg.norm(oracle))
    rel_oracle = float(np.linalg.norm(env.fictitious_field_upper - oracle)) / oracle_magnitude
    rel_mirror = (
        float(np.linalg.norm(env.fictitious_field_lower + env.fictitious_field_upper)) / magnitude
    )
    identity_gradient = magnitude * 1e-4 / r0  # |B| / r0 in T/m
    ok_oracle = rel_oracle <= 1e-6
    ok_mirror = rel_mirror <= 1e-9
    ok_grad = abs(gradient_t_per_m - identity_gradient) <= 1e-9 * identity_gradient
    # The measured envelope is reported, not asserted: the ideal model does not
    # promise it (README, "Model scope and known limitations").
    in_envelope = abs(magnitude - 0.35) <= 0.3 * 0.35 and abs(gradient_t_per_m - 70.0) <= 0.3 * 70.0
    comparison = (
        f"|Bfict| = {magnitude:.4f} G computed, {oracle_magnitude:.4f} G oracle, "
        f"0.35 G +- 30% measured; gradient = {gradient_t_per_m:.1f} T/m computed, "
        f"{oracle_magnitude * 1e-4 / r0:.1f} T/m oracle, 70 T/m +- 30% measured; "
        f"model/measured = {magnitude / 0.35:.2f} (field), {gradient_t_per_m / 70.0:.2f} "
        f"(gradient), {'inside' if in_envelope else 'outside'} the measured envelope "
        f"(see README: Model scope and known limitations)"
    )
    report(4, "tune-out 100 uW: Bfict at both sites and its gradient match the two-line oracle",
           ok_oracle and ok_mirror and ok_grad and elapsed < 10.0,
           f"{comparison}; oracle rel. diff {rel_oracle:.1e}, runtime {elapsed:.1f} s")
    assert elapsed < 10.0
    assert ok_oracle, f"Bfict(upper) off the oracle by {rel_oracle:.1e} (relative): {comparison}"
    assert ok_mirror, f"Bfict(lower) != -Bfict(upper): relative mismatch {rel_mirror:.1e}"
    assert ok_grad, (
        f"gradient = {gradient_t_per_m:.4f} T/m != |Bfict| / r0 = {identity_gradient:.4f} T/m"
    )


def test_criterion_5_tune_out_search(data):
    lam = atom_cs.tune_out(860e-9, 893e-9, data)
    ok = abs(lam * 1e9 - 880.25) <= 1.5
    report(5, "tune-out wavelength 880.25 +- 1.5 nm", ok, f"lambda = {lam * 1e9:.4f} nm")
    assert ok


def test_criterion_6_trap_anchors(data):
    start = time.perf_counter()
    trap = paper_trap(data)
    minimum = find_trap_minimum(trap, data=data)
    distance_nm = (minimum[0] - trap.fiber.radius) * 1e9
    nu = trap_frequencies(trap, minimum=minimum, data=data)
    elapsed = time.perf_counter() - start
    ok_pos = abs(distance_nm - 230.0) <= 30.0
    ok_freq = (
        abs(nu[0] - 120e3) <= 0.25 * 120e3
        and abs(nu[1] - 87e3) <= 0.25 * 87e3
        and abs(nu[2] - 186e3) <= 0.25 * 186e3
    )
    report(6, "trap at 230 +- 30 nm with frequencies (120, 87, 186) kHz +- 25%",
           ok_pos and ok_freq and elapsed < 60.0,
           f"distance = {distance_nm:.1f} nm, nu = ({nu[0] / 1e3:.1f}, {nu[1] / 1e3:.1f}, "
           f"{nu[2] / 1e3:.1f}) kHz, runtime {elapsed:.1f} s")
    assert ok_pos
    assert ok_freq
    assert elapsed < 60.0


def test_criterion_7_lineshape_anchors(data):
    fwhm_103 = dynamics.pi_pulse_fwhm(103e-6)
    fwhm_40 = dynamics.pi_pulse_fwhm(40e-6)
    grid = np.linspace(-60e3, 60e3, 121)
    d, y = spectra.simulate_mw_spectrum(
        [-30.35e3, 30.35e3], [0.45, 0.5], 40e-6, grid, 0.02, seed=2016
    )
    fit = spectra.fit_mw_spectrum((d, y), 40e-6, components=2)
    ok_103 = abs(fwhm_103 - 7.76e3) <= 0.05e3
    ok_40 = abs(fwhm_40 - 19.98e3) <= 0.1e3
    ok_split = abs(fit.splitting_hz - 60.7e3) <= 0.9e3
    report(7, "pi-pulse FWHM anchors and 60.7 kHz two-line recovery",
           ok_103 and ok_40 and ok_split,
           f"FWHM(103 us) = {fwhm_103 / 1e3:.3f} kHz, FWHM(40 us) = {fwhm_40 / 1e3:.3f} kHz, "
           f"splitting = {fit.splitting_hz / 1e3:.2f} kHz")
    assert ok_103 and ok_40 and ok_split


def test_criterion_8_transmission_round_trip():
    start = time.perf_counter()
    truth_model = spectra.SpectrumModel(1.0, 0.9, 39.82e6, -38.55e6, 8.3e6)
    initial = spectra.SpectrumModel(0.8, 1.1, 35e6, -42e6, 10e6)
    truth = truth_model.as_parameters()
    grid = np.linspace(-80e6, 80e6, 81)
    hits = 0
    split_hits = 0
    n_trials = 200
    for seed in range(n_trials):
        sim = spectra.simulate_spectrum(truth_model, grid, 1e4, seed=seed)
        res = spectra.fit_transmission(sim, initial)
        hits += bool(np.all(np.abs(res.parameters - truth) <= 3 * res.sigmas))
        splitting = res.parameters[2] - res.parameters[3]
        split_hits += bool(abs(splitting - 78.37e6) <= 0.3e6)
    elapsed = time.perf_counter() - start
    ok = hits / n_trials >= 0.95 and split_hits / n_trials >= 0.95 and elapsed < 120.0
    report(8, "transmission round trip: 3-sigma coverage >= 95% over 200 trials", ok,
           f"coverage = {hits / n_trials:.3f}, splitting hits = {split_hits / n_trials:.3f}, "
           f"runtime {elapsed:.1f} s")
    assert hits / n_trials >= 0.95
    assert split_hits / n_trials >= 0.95
    assert elapsed < 120.0


def test_criterion_9_property_suite(data):
    trap = paper_trap(data)
    fiber = trap.fiber
    checks = {}

    # population conservation to 1e-9 along an evolution trajectory
    gen = dynamics.pump_rates((0.7, 0.1, 0.2), 0.05, data)
    p = np.zeros(20)
    p[:9] = 1.0 / 9.0
    tau = dynamics.pumping_time_constant(gen)
    out = dynamics.evolve_rates(gen, p, 5 * tau)
    checks["population conservation"] = abs(out.sum() - 1.0) < 1e-9

    # mirror covariance of pumping under sigma+ <-> sigma-
    ss1 = dynamics.pump_steady_state(dynamics.pump_rates((0.92, 0.0, 0.08), 0.01, data), data)
    ss2 = dynamics.pump_steady_state(dynamics.pump_rates((0.08, 0.0, 0.92), 0.01, data), data)
    checks["mirror covariance"] = bool(
        np.allclose(ss1.populations, ss2.populations[::-1], atol=1e-12)
    )

    # ellipticity sign flip across the fiber
    probe = LightField(mode=solve_he11(fiber, 852e-9), power=4e-12, polarization_angle=0.0)
    e_up = field_at(probe, fiber.radius + 230e-9, 0.0, 0.0)
    e_dn = field_at(probe, fiber.radius + 230e-9, np.pi, 0.0)
    checks["ellipticity sign flip"] = bool(
        np.allclose(ellipticity(e_up), -ellipticity(e_dn), atol=1e-12)
    )

    # power normalization of modes to 1e-6 (independent quadrature)
    from scipy import integrate
    from nanotrap.fiber_mode import _radial_profiles_e

    mode = probe.mode
    amp2 = (mode.normalization * np.sqrt(probe.power)) ** 2

    def s_z_times_r(r):
        rr = np.array([r])
        e_r, e_phi, _ = _radial_profiles_e(mode, rr)
        h_r, h_phi, _ = radial_profiles_h(mode, rr)
        val = np.pi * (np.real(e_r * np.conj(h_phi)) - np.real(e_phi * np.conj(h_r)))
        return amp2 * val[0] * r

    inner, _ = integrate.quad(s_z_times_r, 0, fiber.radius, epsabs=0, epsrel=1e-11)
    outer, _ = integrate.quad(
        s_z_times_r,
        fiber.radius,
        fiber.radius + 70 / mode.exterior_parameter,
        epsabs=0,
        epsrel=1e-11,
    )
    checks["power normalization"] = abs((inner + outer) - probe.power) < 1e-6 * probe.power

    # vector-shift / fictitious-field identity to 1e-12 relative
    e_site = field_at(probe, fiber.radius + 230e-9, 0.0, 0.0)
    axis = np.array([0.0, 1.0, 0.0])
    identity_ok = True
    for f, mf in ((4, 4), (4, -1), (3, 2)):
        direct = vector_shift(e_site, 852e-9, ground_state(f, mf), axis, data)
        b = fictitious_field(e_site, 852e-9, f, data)
        zeeman = data.g_f("ground", f) * mf * MU_B_HZ_PER_G * float(b @ axis)
        identity_ok &= abs(direct - zeeman) <= 1e-12 * abs(zeeman)
    checks["vector-shift identity"] = identity_ok

    # mF-dependent trap minima displaced in opposite radial directions
    from dataclasses import replace

    manipulation = LightField(
        mode=solve_he11(fiber, 880.2524e-9), power=100e-6, polarization_angle=0.0
    )
    cfg = replace(trap, manipulation=manipulation)
    r_avg = find_trap_minimum(cfg, data=data)[0]
    r_up = find_trap_minimum(cfg, ground_state(4, 4), 28.0, data=data)[0]
    r_dn = find_trap_minimum(cfg, ground_state(4, -4), 28.0, data=data)[0]
    checks["mF minima displaced oppositely"] = bool((r_up - r_avg) * (r_dn - r_avg) < 0)

    # tilt scheme: sin^2 law of the model at the fixed site + odd sign behavior
    site = find_trap_minimum(trap, data=data)

    def tilted_bfict_y(phi_b):
        blue = replace(trap.blue, polarization_angle=np.pi / 2 + phi_b)
        return fictitious_field(field_at(blue, *site), 783e-9, 4, data)[1]

    ratio = tilted_bfict_y(np.deg2rad(8.0)) / tilted_bfict_y(np.deg2rad(5.0))
    checks["tilt sin^2 ratio 2.55 +- 0.01"] = abs(ratio - 2.55) <= 0.01

    # flipping the sign of Bfict swaps which site is higher (linear Zeeman)
    env_tilt = site_fields(trap, 3.0, phi_b=np.deg2rad(5.0), data=data)
    env_flip = MagneticEnvironment(
        offset_field=env_tilt.offset_field,
        fictitious_field_upper=-env_tilt.fictitious_field_upper,
        fictitious_field_lower=-env_tilt.fictitious_field_lower,
    )
    mw_plus = mw_splitting(env_tilt, (3, -3), (4, -3), data)
    mw_minus = mw_splitting(env_flip, (3, -3), (4, -3), data)
    checks["odd in Bfict"] = bool(
        np.sign(mw_plus) == -np.sign(mw_minus) and abs(mw_plus + mw_minus) < 1e-3 * abs(mw_plus)
    )

    ok = all(checks.values())
    report(9, "property suite", ok, ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, checks
