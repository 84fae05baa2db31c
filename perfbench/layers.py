"""Per-layer metrics of the traced run, computed from a tracer summary.

A metric of a layer the workload never calls reads 0.  ``LAYER_MAP`` says
which end-to-end metric, on which workload, each layer metric should move.
"""
from __future__ import annotations


def _get(summary, name, key):
    return summary.get(name, {}).get(key, 0)


def _ratio(a, b):
    return a / b if b else 0.0


def _field(name, key):
    return lambda s, ctx: _get(s, name, key)


def _per_call(name, key):
    return lambda s, ctx: _ratio(_get(s, name, key), _get(s, name, "calls"))


def _per_process(name):
    return lambda s, ctx: _ratio(ctx["processes"], _get(s, name, "calls"))


def _per_job_distinct(name):
    return lambda s, ctx: _ratio(_get(s, name, "distinct"), _get(s, name, "calls"))


def _calls(name):
    return (f"{name}.calls", "count", _field(name, "calls"))


def _self(name):
    return (f"{name}.self_s", "s", _field(name, "self_s"))


FM, LM, AC, DY, NU = "fiber_mode", "light_matter", "atom_cs", "dynamics", "numerics"

# (metric name, unit, value from (summary, context))
PER_LAYER = [
    ("cli.import_s", "s", lambda s, ctx: ctx["import_s"]),
    ("cli.import_floor_s", "s", lambda s, ctx: ctx["import_floor_s"]),
    _self("cli.RunConfig.load"),
    _calls("constants.load_constants"),
    ("constants.load_constants.useful_ratio", "ratio", _per_process("constants.load_constants")),
    _calls("atom_cs.AtomicData.from_file"),
    ("atom_cs.AtomicData.from_file.useful_ratio", "ratio", _per_process("atom_cs.AtomicData.from_file")),
    _self("cli.write"),
    ("cli.write.bytes", "B", _field("cli.write", "bytes")),
    _self("cli.main"),
    _calls(f"{FM}.solve_he11"),
    _self(f"{FM}.solve_he11"),
    _calls(f"{FM}.field_at"),
    (f"{FM}.field_at.points", "count", _field(f"{FM}.field_at", "points")),
    _self(f"{FM}.field_at"),
    (
        f"{FM}.field_at.us_per_point",
        "us",
        lambda s, ctx: 1e6 * _ratio(_get(s, f"{FM}.field_at", "self_s"), _get(s, f"{FM}.field_at", "points")),
    ),
    _self(f"{FM}.intensity_map"),
    _self(f"{FM}.ellipticity_map"),
    _calls(f"{LM}.trap_potential"),
    (f"{LM}.trap_potential.points", "count", _field(f"{LM}.trap_potential", "points")),
    _self(f"{LM}.trap_potential"),
    _calls(f"{LM}.find_trap_minimum"),
    _self(f"{LM}.find_trap_minimum"),
    (
        f"{LM}.find_trap_minimum.potential_calls_per_search",
        "count/call",
        _per_call(f"{LM}.find_trap_minimum", "potential_calls"),
    ),
    (f"{LM}.find_trap_minimum.useful_ratio", "ratio", _per_job_distinct(f"{LM}.find_trap_minimum")),
    _self(f"{LM}.trap_frequencies"),
    _calls(f"{LM}.site_fields"),
    _self(f"{LM}.site_fields"),
    _calls(f"{AC}.breit_rabi_energy"),
    _self(f"{AC}.breit_rabi_energy"),
    _calls(f"{AC}.vector_shift_coefficient_g_per_v2m2"),
    (
        f"{AC}.vector_shift_coefficient_g_per_v2m2.useful_ratio",
        "ratio",
        _per_job_distinct(f"{AC}.vector_shift_coefficient_g_per_v2m2"),
    ),
    _calls(f"{AC}.scalar_polarizability"),
    (f"{AC}.scalar_polarizability.useful_ratio", "ratio", _per_job_distinct(f"{AC}.scalar_polarizability")),
    _self(f"{AC}.tune_out"),
    _self(f"{DY}.pump_rates"),
    _self(f"{DY}.pump_steady_state"),
    _calls(f"{DY}.evolve_rates"),
    _self(f"{DY}.evolve_rates"),
    (
        f"{DY}.evolve_rates.us_per_simulated_us",
        "us/us",
        lambda s, ctx: _ratio(_get(s, f"{DY}.evolve_rates", "self_s"), _get(s, f"{DY}.evolve_rates", "simulated_s")),
    ),
    _self(f"{DY}.pumping_time_constant"),
    _calls(f"{NU}.least_squares"),
    _self(f"{NU}.least_squares"),
    (f"{NU}.least_squares.iterations", "count/call", _per_call(f"{NU}.least_squares", "iterations")),
    (f"{NU}.least_squares.model_evals", "count/call", _per_call(f"{NU}.least_squares", "model_evals")),
    (f"{NU}.least_squares.converged_ratio", "ratio", _per_call(f"{NU}.least_squares", "converged")),
    _calls(f"{NU}.find_root"),
    _self(f"{NU}.find_root"),
    _self("spectra.simulate_spectrum"),
    _self("spectra.fit_transmission"),
    _self("spectra.simulate_mw_spectrum"),
    _self("spectra.fit_mw_spectrum"),
    ("trace.overhead_frac", "ratio", lambda s, ctx: ctx["overhead_frac"]),
]

# which end-to-end metric each layer metric should move, on which workload
LAYER_MAP = {
    "cli.import_s, cli.import_floor_s (numpy and scipy.special alone)":
        "setup_s and job_p50_s on cli-session; nothing in-process",
    "cli.RunConfig.load.self_s, constants.load_constants.calls, "
    "atom_cs.AtomicData.from_file.calls (useful ratio: 1 per process)":
        "job_p50_s on cli-session",
    "cli.write.self_s, cli.write.bytes (cli._write_json, cli._write_csv and "
    "fiber_mode.write_*_csv), cli.main.self_s":
        "jobs_per_s on cli-session (dense map)",
    "fiber_mode.solve_he11.calls, .self_s":
        "job_p50_s on cli-session; setup_s on geometry-sweep; none on pumping or spectrum-fits",
    "fiber_mode.field_at.calls, .points, .self_s, .us_per_point; "
    "fiber_mode.intensity_map.self_s, fiber_mode.ellipticity_map.self_s":
        "jobs_per_s on geometry-sweep (per point) and on cli-session (bulk)",
    "light_matter.trap_potential.*, light_matter.find_trap_minimum.* (useful_ratio: distinct "
    "inputs per job / calls), light_matter.trap_frequencies.self_s, light_matter.site_fields.*":
        "job_p50_s and jobs_per_s on geometry-sweep; trap/bfict/pump jobs on cli-session",
    "atom_cs.breit_rabi_energy.*, atom_cs.vector_shift_coefficient_g_per_v2m2.*, "
    "atom_cs.scalar_polarizability.* (useful ratio: distinct wavelengths per job / calls), "
    "atom_cs.tune_out.self_s":
        "job_p50_s on geometry-sweep",
    "dynamics.pump_rates.self_s, dynamics.pump_steady_state.self_s, dynamics.evolve_rates.*, "
    "dynamics.pumping_time_constant.self_s":
        "jobs_per_s and job_p50_s on pumping; the pump job on cli-session",
    "numerics.least_squares.* (iterations from FitResult), numerics.find_root.*":
        "jobs_per_s on spectrum-fits",
    "spectra.simulate_spectrum.self_s, spectra.fit_transmission.self_s, "
    "spectra.simulate_mw_spectrum.self_s, spectra.fit_mw_spectrum.self_s":
        "jobs_per_s on spectrum-fits",
    "trace.overhead_frac": "traced wall time / untraced wall time - 1 of the same jobs",
}


def per_layer_metrics(summary: dict, ctx: dict) -> dict:
    return {name: {"value": float(fn(summary, ctx)), "unit": unit} for name, unit, fn in PER_LAYER}
