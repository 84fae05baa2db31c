"""Span tracer for the nanotrap benchmark, installed at runtime by patching
module attributes; no file under ``src/`` is edited.

Every traced name is wrapped once, and the same wrapper is written into each
module that holds a reference to it (``light_matter.field_at`` is
``fiber_mode.field_at`` under another name), so calls across modules are
traced too.  A span records its name, start, end, the span that was open
when it started, and the wrapper's own bookkeeping time around the span
(opening it before the start stamp, counting its work after the end stamp).
Self time is the span's duration minus its children's durations and their
bookkeeping, so no span is charged for the tracer's work.  What remains
unmeasured is the wrapper's call and return, well under a microsecond per
call, and in ``numerics.least_squares`` the extra call that counts each model
evaluation.  Spans are kept in flat arrays and written out with ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array

import numpy as np

# span name -> every (module, attribute) through which callers reach it.
# A dotted attribute names a classmethod on a class of that module.
TRACED = {
    "cli.main": [("nanotrap.cli", "main")],
    "cli.RunConfig.load": [("nanotrap.cli", "RunConfig.load")],
    "cli.write": [
        ("nanotrap.cli", "_write_json"),
        ("nanotrap.cli", "_write_csv"),
        ("nanotrap.cli", "write_field_map_csv"),
        ("nanotrap.cli", "write_scalar_map_csv"),
    ],
    "constants.load_constants": [
        ("nanotrap.constants", "load_constants"),
        ("nanotrap.atom_cs", "load_constants"),
        ("nanotrap.fiber_mode", "load_constants"),
    ],
    "atom_cs.AtomicData.from_file": [("nanotrap.atom_cs", "AtomicData.from_file")],
    "fiber_mode.solve_he11": [
        ("nanotrap.fiber_mode", "solve_he11"),
        ("nanotrap.cli", "solve_he11"),
        ("nanotrap", "solve_he11"),
    ],
    "fiber_mode.field_at": [
        ("nanotrap.fiber_mode", "field_at"),
        ("nanotrap.light_matter", "field_at"),
        ("nanotrap.cli", "field_at"),
    ],
    "fiber_mode.intensity_map": [
        ("nanotrap.fiber_mode", "intensity_map"),
        ("nanotrap.cli", "intensity_map"),
    ],
    "fiber_mode.ellipticity_map": [
        ("nanotrap.fiber_mode", "ellipticity_map"),
        ("nanotrap.cli", "ellipticity_map"),
    ],
    "light_matter.trap_potential": [("nanotrap.light_matter", "trap_potential")],
    "light_matter.find_trap_minimum": [("nanotrap.light_matter", "find_trap_minimum")],
    "light_matter.trap_frequencies": [("nanotrap.light_matter", "trap_frequencies")],
    "light_matter.site_fields": [("nanotrap.light_matter", "site_fields")],
    "atom_cs.breit_rabi_energy": [
        ("nanotrap.atom_cs", "breit_rabi_energy"),
        ("nanotrap.light_matter", "breit_rabi_energy"),
    ],
    "atom_cs.vector_shift_coefficient_g_per_v2m2": [
        ("nanotrap.atom_cs", "vector_shift_coefficient_g_per_v2m2")
    ],
    "atom_cs.scalar_polarizability": [("nanotrap.atom_cs", "scalar_polarizability")],
    "atom_cs.tune_out": [("nanotrap.atom_cs", "tune_out")],
    "dynamics.pump_rates": [("nanotrap.dynamics", "pump_rates")],
    "dynamics.pump_steady_state": [("nanotrap.dynamics", "pump_steady_state")],
    "dynamics.evolve_rates": [("nanotrap.dynamics", "evolve_rates")],
    "dynamics.pumping_time_constant": [("nanotrap.dynamics", "pumping_time_constant")],
    "numerics.least_squares": [
        ("nanotrap.numerics", "least_squares"),
        ("nanotrap.spectra", "least_squares"),
    ],
    "numerics.find_root": [
        ("nanotrap.numerics", "find_root"),
        ("nanotrap.dynamics", "find_root"),
        ("nanotrap.fiber_mode", "find_root"),
        ("nanotrap.atom_cs", "find_root"),
    ],
    "spectra.simulate_spectrum": [("nanotrap.spectra", "simulate_spectrum")],
    "spectra.fit_transmission": [("nanotrap.spectra", "fit_transmission")],
    "spectra.simulate_mw_spectrum": [("nanotrap.spectra", "simulate_mw_spectrum")],
    "spectra.fit_mw_spectrum": [("nanotrap.spectra", "fit_mw_spectrum")],
}

# Calls whose distinct inputs are counted, per job, for a useful-work ratio,
# with the parameters that make an input; the AtomicData argument is left out
# because it is the same in every call.
_INPUT_PARAMS = {
    "light_matter.find_trap_minimum": ("config", "state", "boff", "phi_start"),
    "atom_cs.scalar_polarizability": ("wavelength_m",),
    "atom_cs.vector_shift_coefficient_g_per_v2m2": ("wavelength_m", "f"),
}


def _points(result) -> int:
    size = np.size(result)
    return size // 3 if np.ndim(result) >= 1 and np.shape(result)[-1] == 3 else size


class Tracer:
    """Collects spans and per-name counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bookkeeping = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._distinct: dict[str, set] = {}
        self.jobs = 0
        self._saved: list[tuple] = []
        self._wrappers: dict[tuple, object] = {}  # (name, original) -> wrapper
        self._signatures: dict[str, inspect.Signature] = {}

    # --- recording -------------------------------------------------------

    def _count(self, name: str, key: str, value: float) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0.0) + value

    def _observe(self, name, args, kwargs, result) -> None:
        """Work counts that only the call's arguments or result reveal."""
        if name in ("fiber_mode.field_at", "light_matter.trap_potential"):
            self._count(name, "points", _points(result))
        elif name == "cli.write":
            self._count(name, "bytes", os.path.getsize(args[0]))
        elif name == "dynamics.evolve_rates":
            duration = args[2] if len(args) > 2 else kwargs["duration"]
            self._count(name, "simulated_s", float(duration))
        elif name == "numerics.least_squares":
            self._count(name, "iterations", result.iterations)
            self._count(name, "converged", bool(result.converged))
        if name in _INPUT_PARAMS:
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            key = repr([bound.arguments[p] for p in _INPUT_PARAMS[name]])
            self._distinct.setdefault(name, set()).add(key)

    def wrap(self, name: str, func):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        if name in _INPUT_PARAMS:
            self._signatures[name] = inspect.signature(func)
        counts_model = name == "numerics.least_squares"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if counts_model:
                model, evals = args[0], [0]

                def counted(params, x):
                    evals[0] += 1
                    return model(params, x)

                args = (counted,) + args[1:]
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.bookkeeping.append(0.0)
            self._stack.append(idx)
            start = self.start[idx] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = self.end[idx] = time.perf_counter()
                self._stack.pop()
            if counts_model:
                self._count(name, "model_evals", evals[0])
            self._observe(name, args, kwargs, result)
            self.bookkeeping[idx] = (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def end_job(self) -> None:
        """Close one job: distinct inputs are counted within a job only."""
        for name, keys in self._distinct.items():
            self._count(name, "distinct", len(keys))
        self._distinct.clear()
        self.jobs += 1

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every traced attribute with its wrapper."""
        wrappers = self._wrappers
        for name, sites in TRACED.items():
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                if isinstance(original, classmethod):
                    key = (name, original.__func__)
                    if key not in wrappers:
                        wrappers[key] = classmethod(self.wrap(name, original.__func__))
                else:
                    key = (name, original)
                    if key not in wrappers:
                        wrappers[key] = self.wrap(name, original)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrappers[key])

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    # --- output ----------------------------------------------------------

    def as_dump(self) -> dict:
        """Spans and counters in the form ``load`` returns and ``summarize`` takes."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "bookkeeping": np.frombuffer(self.bookkeeping, dtype=np.float64),
            "names": self.names,
            "counters": self.counters,
            "jobs": self.jobs,
        }

    def dump(self, path) -> None:
        """Write spans and counters to ``path`` (numpy .npz)."""
        d = self.as_dump()
        meta = {k: d.pop(k) for k in ("names", "counters", "jobs")}
        np.savez(path, meta=np.array(json.dumps(meta)), **d)


def load(path) -> dict:
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name_id", "parent", "start", "end", "bookkeeping")}
        meta = json.loads(str(z["meta"]))
    return {**spans, **meta}


def summarize(dumps: list[dict]) -> dict:
    """Per-name calls, self time and counters, summed over span dumps."""
    out: dict[str, dict[str, float]] = {}
    for d in dumps:
        names = d["names"]
        dur = d["end"] - d["start"]
        parent = d["parent"]
        has_parent = parent >= 0
        # a child's bookkeeping lies inside its parent's span, but is the tracer's work
        held = (dur + d["bookkeeping"])[has_parent]
        child = np.bincount(parent[has_parent], weights=held, minlength=dur.size)
        self_s = dur - child
        for nid, name in enumerate(names):
            mine = d["name_id"] == nid
            entry = out.setdefault(name, {})
            entry["calls"] = entry.get("calls", 0) + int(mine.sum())
            entry["self_s"] = entry.get("self_s", 0.0) + float(self_s[mine].sum())
        # trap_potential spans opened directly by a minimum search
        if "light_matter.find_trap_minimum" in names and "light_matter.trap_potential" in names:
            search = names.index("light_matter.find_trap_minimum")
            potential = names.index("light_matter.trap_potential")
            pot = (d["name_id"] == potential) & has_parent
            inside = d["name_id"][parent[pot]] == search
            entry = out["light_matter.find_trap_minimum"]
            entry["potential_calls"] = entry.get("potential_calls", 0) + int(inside.sum())
        for name, counters in d["counters"].items():
            entry = out.setdefault(name, {})
            for key, value in counters.items():
                entry[key] = entry.get(key, 0) + value
    return out
