"""The four benchmark workloads: seeded inputs, set-up, one job, output checks.

Each workload is a closed loop with one client: one job at a time, in one
process, with no extra threads.  Inputs come only from the seed.  Every
in-process job gets a fresh input: inputs are drawn without end in stratified
blocks (each block covers every stratum of every input once), so no input
repeats within a run and the job mix hardly depends on the seed.

nanotrap is imported inside ``setup`` so that a set-up probe in a fresh
interpreter times the import too.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PAPER_CFG = SRC / "nanotrap" / "data" / "paper.cfg"

# Envelopes that tier-1 passes for the bundled config (tests/test_acceptance.py),
# as (value, allowed deviation), and limits of the seeded checks.  The
# self-test swaps one for a wrong value.
ANCHORS = {
    "ellipticity_abs": (0.84, 0.02),  # |eps| of the probe 230 nm above the surface
    "tune_out_nm": (880.25, 1.5),
    "trap_distance_nm": (230.0, 30.0),
    "trap_frequencies_khz": ((120.0, 87.0, 186.0), 0.25),  # relative deviation
    "mw_splitting_hz": (60.7e3, 0.9e3),  # about 5 sigma of the fit at this noise
    "max_pull": 5.0,  # fitted centres within 5 sigma of the truth
    "min_site_distance_nm": 50.0,  # a trap minimum is this far off the surface
}

CHECK_NOTES = [
    "bundled config: |eps| = 0.84 +- 0.02 at the grid node nearest 230 nm above the "
    "surface, tune-out 880.25 +- 1.5 nm, trap at 230 +- 30 nm with (120, 87, 186) kHz "
    "+- 25%, MW two-line splitting 60.7 +- 0.9 kHz and fitted centres within 5 sigma",
    "acceptance criterion 4 (|Bfict| = 0.35 G +- 30%) is tier-1's documented failure; "
    "the benchmark checks only that each bfict scheme gives a finite |Bfict| > 1e-6 G",
    "seeded inputs: trap frequencies real and positive, minima at least 50 nm off the "
    "surface, |eps| <= 1, populations summing to 1 within 1e-9, fits converged with "
    "centres within 5 sigma of the truth",
    "determinism: in-process, the first inputs run again after the timed loop (untimed) "
    "and in the traced run every input runs traced and untraced, with bit-identical "
    "results; in cli-session every output file of every session hashes the same as in "
    "the first session",
]


def stratified(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """(n, dims) uniforms in [0, 1), each column hitting each of n strata once."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (strata + rng.random((n, dims))) / n


def _pick(u: float, values):
    return values[min(int(u * len(values)), len(values) - 1)]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _import_nanotrap() -> SimpleNamespace:
    from nanotrap import atom_cs, dynamics, fiber_mode, light_matter, spectra

    return SimpleNamespace(
        atom_cs=atom_cs,
        dynamics=dynamics,
        fiber_mode=fiber_mode,
        light_matter=light_matter,
        spectra=spectra,
        data=atom_cs.default_atomic_data(),
    )


@dataclass(frozen=True)
class InProcess:
    """A warm in-process workload."""

    name: str
    why: str
    size: str
    draw: Callable  # (rng, n) -> list of job inputs
    setup: Callable  # () -> state
    job: Callable  # (state, inputs) -> outputs
    check: Callable  # (inputs, outputs, anchors) -> list of problems
    digest: Callable  # outputs -> str
    block: int  # inputs per stratified block

    def inputs(self, seed: int):
        """Distinct inputs without end, the same sequence for the same seed."""
        rng = np.random.default_rng([seed, 1])
        while True:
            yield from self.draw(rng, self.block)


# --- geometry-sweep ------------------------------------------------------

# The 3 radii bracket the nominal 250 nm.  At 260 nm and 100 uW the (4,4)
# state has no trap, so the state-resolved search is not a valid job there.
RADII_M = (245e-9, 250e-9, 255e-9)
MANIPULATION_W = (0.0, 50e-6, 100e-6)
BLUE_M, RED_M, MANIPULATION_M = 783e-9, 1064e-9, 880.2524e-9


def _geometry_draw(rng, n):
    u = stratified(rng, n, 5)
    return [
        {
            "radius": _pick(row[0], RADII_M),
            "phi_b": np.deg2rad(8.0 * row[1]),
            "red_imbalance": 0.7 + 0.3 * row[2],
            "manipulation_w": _pick(row[3], MANIPULATION_W),
            "offset_g": 3.0 + 25.0 * row[4],
        }
        for row in u
    ]


def _geometry_setup():
    s = _import_nanotrap()
    fm = s.fiber_mode
    s.modes = {}
    for radius in RADII_M:
        fiber = fm.FiberSpec(radius=radius)
        s.modes[radius] = {lam: fm.solve_he11(fiber, lam) for lam in (BLUE_M, RED_M, MANIPULATION_M)}
    return s


def _geometry_job(s, p):
    fm, lm = s.fiber_mode, s.light_matter
    modes = s.modes[p["radius"]]
    blue = fm.LightField(mode=modes[BLUE_M], power=8.5e-3, polarization_angle=np.pi / 2)
    red = fm.LightField(
        mode=modes[RED_M], power=0.77e-3, configuration="standing", backward_power=0.77e-3
    )
    manipulation = None
    if p["manipulation_w"] > 0:
        manipulation = fm.LightField(mode=modes[MANIPULATION_M], power=p["manipulation_w"])
    base = lm.TrapConfig(fiber=modes[BLUE_M].fiber, blue=blue, red=red, c3=s.data.c3_ground_jm3)
    # the configuration site_fields derives from (base, phi_b, red_imbalance)
    trap = replace(
        base,
        blue=replace(blue, polarization_angle=np.pi / 2 + p["phi_b"]),
        red=replace(red, backward_power=red.power * p["red_imbalance"]),
        manipulation=manipulation,
    )
    minimum = lm.find_trap_minimum(trap, data=s.data)
    freqs = lm.trap_frequencies(trap, minimum=minimum, data=s.data)
    env = lm.site_fields(
        base,
        p["offset_g"],
        manipulation=manipulation,
        phi_b=p["phi_b"],
        red_imbalance=p["red_imbalance"],
        data=s.data,
    )
    stretched = lm.find_trap_minimum(
        trap, s.atom_cs.ground_state(4, 4), p["offset_g"], data=s.data
    )
    split = lm.clock_splitting(env, s.data)
    return SimpleNamespace(
        minimum=minimum, freqs=freqs, env=env, stretched=stretched, clock_hz=split.exact_hz
    )


def _geometry_check(p, out, anchors):
    problems = []
    min_nm = anchors["min_site_distance_nm"]
    freqs = np.asarray(out.freqs)
    if not (np.all(np.isfinite(freqs)) and np.all(freqs > 0)):
        problems.append(f"trap frequencies not real and positive: {freqs}")
    for label, site in (("mF-averaged", out.minimum), ("(4,4)", out.stretched)):
        d_nm = (site[0] - p["radius"]) * 1e9
        if not (math.isfinite(d_nm) and d_nm >= min_nm):
            problems.append(f"{label} minimum {d_nm!r} nm above the surface")
    if abs(out.env.site_upper[0] - out.minimum[0]) > 0.1e-9:
        problems.append("site_fields found another minimum than find_trap_minimum")
    b_up = np.asarray(out.env.fictitious_field_upper)
    if not (np.all(np.isfinite(b_up)) and math.isfinite(out.clock_hz)):
        problems.append("non-finite fictitious field or clock splitting")
    return problems


def _geometry_digest(out):
    env = out.env
    return _digest(
        out.minimum, out.freqs, out.stretched, env.fictitious_field_upper,
        env.fictitious_field_lower, [out.clock_hz],
    )


# --- pumping -------------------------------------------------------------


def _pumping_draw(rng, n):
    u = stratified(rng, n, 4)
    jobs = []
    for row in u:
        lo, hi = sorted(row[:2])  # uniform on the simplex of (sigma+, pi, sigma-)
        jobs.append(
            {
                "fractions": (lo, hi - lo, 1.0 - hi),
                "saturation": 0.005 * 10.0 ** row[2],
                "duration_s": 1e-4 + 9e-4 * row[3],
            }
        )
    return jobs


def _pumping_setup():
    return _import_nanotrap()


def _pumping_job(s, p):
    dy = s.dynamics
    rates = dy.pump_rates(p["fractions"], p["saturation"], s.data)
    steady = dy.pump_steady_state(rates, s.data)
    uniform = dy.PopulationVector(4, np.full(9, 1.0 / 9.0))
    evolved = dy.pump_evolution(rates, uniform, p["duration_s"], s.data)
    tau = dy.pumping_time_constant(rates)
    return SimpleNamespace(steady=steady.populations, evolved=evolved.populations, tau=tau)


def _pumping_check(p, out, anchors):
    problems = []
    for label, pops in (("steady state", out.steady), ("evolved", out.evolved)):
        if abs(float(np.sum(pops)) - 1.0) > 1e-9 or np.any(pops < -1e-12):
            problems.append(f"{label} populations do not sum to 1: {pops}")
    if not (math.isfinite(out.tau) and out.tau > 0):
        problems.append(f"pumping time {out.tau!r} not positive")
    return problems


def _pumping_digest(out):
    return _digest(out.steady, out.evolved, [out.tau])


# --- spectrum-fits -------------------------------------------------------

SPECTRUM_GRID = np.linspace(-80e6, 80e6, 81)
MW_GRID = np.linspace(-60e3, 60e3, 121)


def _spectrum_draw(rng, n):
    u = stratified(rng, n, 14)
    jobs = []
    for row, noise_seed in zip(u, rng.integers(0, 2**62, size=n)):
        truth = np.array(
            [
                0.6 + 0.8 * row[0],
                0.6 + 0.8 * row[1],
                30e6 + 15e6 * row[2],
                -45e6 + 15e6 * row[3],
                6e6 + 4e6 * row[4],
            ]
        )
        start = truth * np.array([0.8 + 0.4 * row[5], 0.8 + 0.4 * row[6], 1, 1, 0.85 + 0.35 * row[7]])
        start[2:4] += (row[8:10] - 0.5) * 6e6
        jobs.append(
            {
                "truth": truth,
                "start": start,
                "mw_centers": (-35e3 + 10e3 * row[10], 25e3 + 10e3 * row[11]),
                "mw_amplitudes": (0.35 + 0.2 * row[12], 0.55 - 0.2 * row[12]),
                "tau_s": 30e-6 + 20e-6 * row[13],
                "noise_seed": int(noise_seed),
            }
        )
    return jobs


def _spectrum_setup():
    return _import_nanotrap()


def _spectrum_job(s, p):
    sp = s.spectra
    sim = sp.simulate_spectrum(sp.SpectrumModel(*p["truth"]), SPECTRUM_GRID, 1e4, seed=p["noise_seed"])
    fit = sp.fit_transmission(sim, sp.SpectrumModel(*p["start"]))
    d, y = sp.simulate_mw_spectrum(
        p["mw_centers"], p["mw_amplitudes"], p["tau_s"], MW_GRID, 0.02, seed=p["noise_seed"]
    )
    mw = sp.fit_mw_spectrum((d, y), p["tau_s"], components=2)
    return SimpleNamespace(fit=fit, mw=mw)


def _pulls(values, sigmas, truth):
    sigmas = np.asarray(sigmas, dtype=float)
    if not np.all(np.isfinite(sigmas) & (sigmas > 0)):
        return np.array([np.inf])
    return np.abs(np.asarray(values) - np.asarray(truth)) / sigmas


def _spectrum_check(p, out, anchors):
    problems = []
    max_pull = anchors["max_pull"]
    fit, mw = out.fit, out.mw
    if not (fit.converged and mw.fit.converged):
        problems.append("fit did not converge")
    pulls = _pulls(fit.parameters[2:4], fit.sigmas[2:4], p["truth"][2:4])
    if np.max(pulls) > max_pull:
        problems.append(f"transmission centres {np.max(pulls):.2f} sigma from the truth")
    pulls = _pulls(mw.centers_hz, mw.center_sigmas_hz, p["mw_centers"])
    if np.max(pulls) > max_pull:
        problems.append(f"MW centres {np.max(pulls):.2f} sigma from the truth")
    return problems


def _spectrum_digest(out):
    return _digest(out.fit.parameters, out.fit.covariance, out.mw.fit.parameters, out.mw.fit.covariance)


IN_PROCESS = {
    "geometry-sweep": InProcess(
        name="geometry-sweep",
        why="the paper's dependence curves in one warm process: light shifts, point-wise "
        "field_at and the atom model do nearly all the work; no import, pumping or fits",
        size="a fresh geometry per job, in stratified blocks of 12: radius in {245, 250, 255} "
        "nm (modes solved in set-up), phi_B 0-8 deg, red imbalance 0.7-1.0, manipulation "
        "0/50/100 uW, offset 3-28 G",
        draw=_geometry_draw,
        setup=_geometry_setup,
        job=_geometry_job,
        check=_geometry_check,
        digest=_geometry_digest,
        block=12,
    ),
    "pumping": InProcess(
        name="pumping",
        why="rate-equation pumping (dynamics) does nearly all the work here and almost "
        "none anywhere else, so a faster propagator shows only here",
        size="a fresh drive of the 20-level generator per job, in stratified blocks of 8: "
        "(sigma+, pi, sigma-) uniform on the simplex, saturation 0.005-0.05 log-uniform, "
        "pumping duration 0.1-1 ms",
        draw=_pumping_draw,
        setup=_pumping_setup,
        job=_pumping_job,
        check=_pumping_check,
        digest=_pumping_digest,
        block=8,
    ),
    "spectrum-fits": InProcess(
        name="spectrum-fits",
        why="millisecond jobs where the damped Gauss-Newton fitter and the spectrum "
        "models do all the work, so per-call overhead and fitter changes show",
        size="81-point transmission spectrum (5 parameters) and 121-point two-line MW "
        "spectrum (4 parameters) per job; a fresh truth and noise seed per job, in "
        "stratified blocks of 16",
        draw=_spectrum_draw,
        setup=_spectrum_setup,
        job=_spectrum_job,
        check=_spectrum_check,
        digest=_spectrum_digest,
        block=16,
    ),
}


# --- cli-session ---------------------------------------------------------

CLI_WHY = (
    "what a terminal user pays: each subcommand as a fresh process, so import, config "
    "parsing, cold mode solves and the output writers dominate"
)
DENSE_GRID = ["--set", "grid.n_r=400", "--set", "grid.n_phi=256"]  # 102400 points
CLI_SIZE = "bundled paper.cfg; 15 subcommand runs per session; dense field map of 102400 points"

# (job name, subcommand arguments); fits read the CSV their simulate job wrote
CLI_JOBS = [
    ("mode", ["mode"]),
    ("fieldmap-field", ["fieldmap", "--kind", "field"]),
    ("fieldmap-intensity", ["fieldmap", "--kind", "intensity"]),
    ("fieldmap-ellipticity", ["fieldmap", "--kind", "ellipticity"]),
    ("fieldmap-dense", ["fieldmap", "--kind", "field", *DENSE_GRID]),
    ("trap", ["trap"]),
    ("bfict-tuneout", ["bfict", "--scheme", "tuneout"]),
    ("bfict-tilt", ["bfict", "--scheme", "tilt", "--phi-b", "5", "--set", "magnetics.offset_field=3 G"]),
    ("bfict-imbalance", ["bfict", "--scheme", "imbalance", "--imbalance", "0.8"]),
    ("pump", ["pump"]),
    ("spectrum-simulate", ["spectrum", "simulate"]),
    ("spectrum-fit", ["spectrum", "fit", "--data", "{spectrum-simulate}/spectrum.csv"]),
    ("mw-simulate", ["mw", "simulate"]),
    ("mw-fit", ["mw", "fit", "--data", "{mw-simulate}/mw.csv"]),
    ("tuneout", ["tuneout"]),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli_job(name, args, session_dir: Path, seed: int, spans: Path | None, timeout: float):
    """Run one subcommand in a fresh process; return (seconds, exit code, stderr).
    Raises subprocess.TimeoutExpired, with the child killed, after ``timeout`` s."""
    out = session_dir / name
    out.mkdir(parents=True)
    argv = [a.format(**{j: session_dir / j for j, _ in CLI_JOBS}) for a in args]
    argv += ["--config", str(PAPER_CFG), "--out", str(out), "--seed", str(seed)]
    if spans is None:
        cmd = [sys.executable, "-m", "nanotrap.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def hash_outputs(job_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(job_dir.iterdir())
        if p.suffix in (".json", ".csv")
    }


def _read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _config_value(path: Path, key: str) -> float:
    """A config value echoed into a CSV header line ``# key = value``."""
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key} = "):
            return float(line.split("=", 1)[1])
    raise KeyError(key)


def _field_eps(cols):
    e = cols[:, 3:9:2] + 1j * cols[:, 4:9:2]
    norm = np.sum(np.abs(e) ** 2, axis=1)
    return np.real(1j * np.cross(e, np.conj(e))) / norm[:, None], norm


def _near(value, anchor, relative=False):
    target, tol = anchor
    return abs(value - target) <= (tol * abs(target) if relative else tol)


def check_cli_job(name: str, session_dir: Path, anchors: dict) -> list[str]:
    """Check one job's output files; returns the problems found."""
    job_dir = session_dir / name
    problems: list[str] = []

    def load(fname):
        return json.loads((job_dir / fname).read_text())

    if name == "mode":
        modes = load("mode.json")["modes"]
        for field, m in modes.items():
            if m["multimode"] or not 1.0 < m["effective_index"] < 1.5:
                problems.append(f"{field}: neff {m['effective_index']!r}, multimode {m['multimode']}")
        if len(modes) != 4:
            problems.append(f"expected 4 modes, got {len(modes)}")
    elif name.startswith("fieldmap"):
        path = job_dir / "fieldmap.csv"
        header, cols = _read_csv(path)
        n_r, n_phi = int(_config_value(path, "grid.n_r")), int(_config_value(path, "grid.n_phi"))
        if cols.shape[0] != n_r * n_phi:
            problems.append(f"{cols.shape[0]} rows for a {n_r} x {n_phi} grid")
        if name in ("fieldmap-field", "fieldmap-dense"):
            eps, _ = _field_eps(cols)
            if np.max(np.linalg.norm(eps, axis=1)) > 1 + 1e-12:
                problems.append("|eps| > 1 somewhere on the grid")
        if name == "fieldmap-field":
            radius = _config_value(path, "fiber.radius")
            on_axis = np.nonzero(cols[:, 1] == 0.0)[0]
            node = on_axis[np.argmin(np.abs(cols[on_axis, 0] - radius - 230e-9))]
            mag = float(np.linalg.norm(eps[node]))
            if not _near(mag, anchors["ellipticity_abs"]):
                problems.append(f"|eps| = {mag:.4f} at {(cols[node, 0] - radius) * 1e9:.1f} nm")
        elif name in ("fieldmap-intensity", "fieldmap-ellipticity"):
            _, field_cols = _read_csv(session_dir / "fieldmap-field" / "fieldmap.csv")
            eps, intensity = _field_eps(field_cols)
            if name == "fieldmap-intensity":
                ok = np.allclose(cols[:, 3], intensity, rtol=1e-12, atol=0.0) and np.all(cols[:, 3] > 0)
                if not ok:
                    problems.append("intensity map disagrees with |E|^2 of the field map")
            elif not (np.allclose(cols[:, 3:6], eps, rtol=0.0, atol=1e-9)
                      and np.max(np.linalg.norm(cols[:, 3:6], axis=1)) <= 1 + 1e-12):
                problems.append("ellipticity map disagrees with the field map or |eps| > 1")
    elif name == "trap":
        doc = load("trap.json")
        d_nm = doc["minimum_position"]["distance_to_surface_m"] * 1e9
        khz = [f / 1e3 for f in doc["trap_frequencies_Hz"]]
        target, rel = anchors["trap_frequencies_khz"]
        if not _near(d_nm, anchors["trap_distance_nm"]):
            problems.append(f"trap {d_nm:.1f} nm above the surface")
        if not all(_near(f, (t, rel), relative=True) for f, t in zip(khz, target)):
            problems.append(f"trap frequencies {khz} kHz")
        if not np.all(np.isfinite(doc["Bfict_upper_G"])):
            problems.append("non-finite fictitious field")
    elif name.startswith("bfict"):
        doc = load("bfict.json")
        b = float(np.linalg.norm(doc["Bfict_upper_G"]))
        if not (math.isfinite(b) and b > 1e-6):
            problems.append(f"|Bfict| = {b!r} G is not finite and non-zero")
        if abs(doc["site_lower"][1] - doc["site_upper"][1] - np.pi) > 1e-12:
            problems.append("sites are not diametric")
    elif name == "pump":
        doc = load("pump.json")
        for key in ("steady_state", "evolved_state", "intensity_fractions_sigma_plus_pi_sigma_minus"):
            v = np.asarray(doc[key])
            if abs(v.sum() - 1.0) > 1e-9 or np.any(v < -1e-12):
                problems.append(f"{key} does not sum to 1")
        if not doc["pumping_time_1_e"] > 0:
            problems.append("pumping time not positive")
    elif name in ("spectrum-simulate", "mw-simulate"):
        fname, key = ("spectrum.csv", "spectrum.points") if name == "spectrum-simulate" else ("mw.csv", "mw.points")
        _, cols = _read_csv(job_dir / fname)
        if cols.shape[0] != int(_config_value(job_dir / fname, key)) or np.any(cols[:, 1:] < 0):
            problems.append(f"{fname}: wrong row count or negative values")
    elif name == "spectrum-fit":
        doc = load("spectrum_fit.json")
        cfg = doc["config"]
        pulls = _pulls(
            [doc["parameters"]["delta_plus_hz"], doc["parameters"]["delta_minus_hz"]],
            [doc["sigmas"]["delta_plus_hz"], doc["sigmas"]["delta_minus_hz"]],
            [cfg["spectrum.delta_plus"], cfg["spectrum.delta_minus"]],
        )
        if not doc["converged"] or np.max(pulls) > anchors["max_pull"]:
            problems.append(f"spectrum fit: converged {doc['converged']}, max pull {np.max(pulls):.2f}")
    elif name == "mw-fit":
        doc = load("mw_fit.json")
        cfg = doc["config"]
        pulls = _pulls(doc["centers_hz"], doc["center_sigmas_hz"], [cfg["mw.center_1"], cfg["mw.center_2"]])
        if np.max(pulls) > anchors["max_pull"]:
            problems.append(f"MW centres {np.max(pulls):.2f} sigma from the truth")
        if not _near(doc["splitting_hz"], anchors["mw_splitting_hz"]):
            problems.append(f"MW splitting {doc['splitting_hz']!r} Hz")
    elif name == "tuneout":
        nm = load("tuneout.json")["tune_out_wavelength_nm"]
        if not _near(nm, anchors["tune_out_nm"]):
            problems.append(f"tune-out at {nm!r} nm")
    return problems
