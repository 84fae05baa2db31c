"""nanotrap benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A record of the run (the
environment, every metric, the checks and the failures) is written under
``.perfbench-out/``.  The exit code is 0 when every job passed its checks,
1 when some did not, and 2 when the package cannot be found.
"""
from __future__ import annotations

import os

# one job at a time in one process: keep BLAS single-threaded, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

OUT = wl.ROOT / ".perfbench-out"
WORKLOADS = ["cli-session", "geometry-sweep", "pumping", "spectrum-fits"]
SETUP_REPEATS = 3  # fresh interpreters per set-up or import measurement
CLI_SESSIONS = 2  # at least, so that every session's outputs can be compared with the first's
CLI_DEADLINE_S = 150  # no CLI job starts later, and none runs past it
REPEATS_CHECKED = 2  # in-process inputs run again after the timed loop, untimed
END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB"}
# reference_seconds() on the 2-vCPU host where the bounds were set; timings
# scaled by REFERENCE_S / reference_seconds() are at that host's speed
REFERENCE_S = 0.003


def reference_seconds() -> float:
    """Time one fixed computation that uses no nanotrap code: small numpy
    operations and interpreter work, the mix that nanotrap's jobs are made of.
    The shared host's speed drifts by up to 2x over minutes, and this time
    drifts with it.  The median of three rounds after an untimed one, so that
    a cold start does not count."""
    x = np.linspace(0.0, 1.0, 64)
    rounds = []
    for _ in range(4):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += float(np.sum(np.sin(x * i)))
            acc += {"i": i}["i"] * 1e-9
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds[1:])


@dataclass
class Loop:
    """Latencies of the timed jobs of one closed loop, each with the reference
    time taken just before it if any, and failures of every job."""

    latencies: list = field(default_factory=list)  # wall-clock seconds
    references: list = field(default_factory=list)  # reference_seconds() before each job
    problems: list = field(default_factory=list)  # (label, problem) pairs
    attempted: int = 0
    failed: int = 0

    def record(self, label: str, problems: list, seconds: float | None = None,
               reference: float | None = None) -> None:
        """Count one job; ``seconds`` is None for an untimed check."""
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
            if reference is not None:
                self.references.append(reference)
        self.problems += [(label, p) for p in problems]
        self.failed += bool(problems)

    def scaled(self) -> list:
        """The latencies at the reference host speed, or as measured if no
        reference was taken."""
        if not self.references:
            return self.latencies
        return [t * REFERENCE_S / r for t, r in zip(self.latencies, self.references)]


def fresh_process_seconds(code: str) -> float:
    """Wall time from starting a fresh interpreter until ``code`` prints 'ready'."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=wl.ROOT, env=wl.child_env(),
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {code}")
    return seconds


def median_fresh_seconds(code: str) -> float:
    return statistics.median(fresh_process_seconds(code) for _ in range(SETUP_REPEATS))


def setup_code(name: str) -> str:
    if name == "cli-session":
        return "import nanotrap.cli; print('ready', flush=True)"
    return (
        f"import sys; sys.path.insert(0, {str(wl.BENCH_DIR)!r}); import workloads; "
        f"workloads.IN_PROCESS[{name!r}].setup(); print('ready', flush=True)"
    )


IMPORT_CLI = setup_code("cli-session")
IMPORT_FLOOR = "import numpy, scipy.special; print('ready', flush=True)"


# --- in-process workloads -------------------------------------------------


def run_job(work, state, job, anchors, spans=None) -> tuple:
    """Run one in-process job, traced if ``spans`` is given, and check it.
    Returns (seconds, digest or None, problems); any exception, in the job
    or in its checks, is a problem of that job."""
    if spans is not None:
        spans.install()
    t0 = time.perf_counter()
    try:
        out = work.job(state, job)
        seconds = time.perf_counter() - t0
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc(limit=3)]
    finally:
        if spans is not None:
            spans.uninstall()
            spans.end_job()
    try:
        problems = work.check(job, out, anchors)
        if threading.active_count() > 1:  # it would slow reference_seconds() too
            problems.append("the job left a thread running")
        return seconds, work.digest(out), problems
    except Exception:
        return seconds, None, [f"output check raised: {traceback.format_exc(limit=3)}"]


def timed_loop(work, state, inputs, anchors, seconds) -> Loop:
    """Run jobs on fresh inputs for ``seconds``, then to the end of the current
    stratified block, so that every run has the same mix of inputs.  Then run
    the first inputs again, untimed: they must reproduce their results bit for bit."""
    loop, first = Loop(), []
    t_start = time.perf_counter()
    while (
        not loop.latencies
        or len(loop.latencies) % work.block
        or time.perf_counter() - t_start < seconds
    ):
        job = next(inputs)
        reference = reference_seconds()
        took, digest, problems = run_job(work, state, job, anchors)
        loop.record(f"job {loop.attempted}", problems, took, reference)
        if len(first) < REPEATS_CHECKED:
            first.append((job, digest))
    for i, (job, digest) in enumerate(first):
        _, again, problems = run_job(work, state, job, anchors)
        if digest is not None and again is not None and again != digest:
            problems.append("a repeated input gave a different result")
        loop.record(f"repeat of job {i}", problems)
    return loop


def traced_loop(work, state, inputs, anchors, seconds, spans) -> tuple:
    """Run each fresh input untraced and traced, alternating which goes first,
    for ``seconds`` and to the end of a stratified block; the two results must
    be bit-identical."""
    plain, traced = Loop(), Loop()
    t_start = time.perf_counter()
    i = 0
    while i == 0 or i % work.block or time.perf_counter() - t_start < seconds:
        job = next(inputs)
        runs = {}
        for is_traced in (False, True) if i % 2 == 0 else (True, False):
            runs[is_traced] = run_job(work, state, job, anchors, spans if is_traced else None)
        (p_took, p_digest, p_problems), (t_took, t_digest, t_problems) = runs[False], runs[True]
        if None not in (p_digest, t_digest) and p_digest != t_digest:
            t_problems.append("the traced result differs from the untraced one")
        plain.record(f"job {i}", p_problems, p_took)
        traced.record(f"traced job {i}", t_problems, t_took)
        i += 1
    return plain, traced


def run_in_process(name, seed, seconds, trace, anchors):
    work = wl.IN_PROCESS[name]
    inputs = work.inputs(seed)
    if not trace:
        setup_s = median_fresh_seconds(setup_code(name))
        state = work.setup()
        loop = timed_loop(work, state, inputs, anchors, seconds)
        metrics = end_to_end(loop, setup_s, resource.RUSAGE_SELF)
        return [loop], metrics, {"setup_samples": SETUP_REPEATS}
    spans = tracer.Tracer()
    spans.install()
    state = work.setup()  # traced: mode solves and data loading show as layers
    spans.uninstall()
    plain, traced = traced_loop(work, state, inputs, anchors, seconds, spans)
    metrics = per_layer(tracer.summarize([spans.as_dump()]), plain, traced, processes=1)
    return [plain, traced], metrics, {"traced_jobs": len(traced.latencies)}


# --- cli-session ----------------------------------------------------------


def cli_job(name, args, session_dir, seed, spans, anchors, first_hashes, deadline) -> tuple:
    """Run and check one CLI job; returns (seconds or None if it never started,
    problems).  Any exception, a timeout included, is a problem of that job."""
    t0 = time.perf_counter()
    if t0 >= deadline:
        return None, [f"not started: the run passed its {CLI_DEADLINE_S} s deadline"]
    try:
        took, code, stderr = wl.run_cli_job(name, args, session_dir, seed, spans, deadline - t0)
    except Exception as exc:
        return time.perf_counter() - t0, [f"did not finish: {exc!r}"]
    if code != 0:
        return took, [f"exit code {code}: {stderr.strip()[-500:]}"]
    try:
        problems = wl.check_cli_job(name, session_dir, anchors)
        hashes = wl.hash_outputs(session_dir / name)
    except Exception:
        return took, [f"output check raised: {traceback.format_exc(limit=3)}"]
    if first_hashes.setdefault(name, hashes) != hashes:
        problems.append("output files differ from the first session's")
    return took, problems


def cli_sessions(run_dir, seed, anchors, seconds, min_sessions, paired=False):
    """Run whole sessions, at least ``min_sessions``, and as many as end nearest
    to ``seconds``; every session's output files must hash as in the first session.
    ``paired`` runs each job twice in a row, untraced and traced (alternating
    which goes first), into two sessions, and returns the traced loop second."""
    plain, traced = Loop(), Loop()
    first_hashes: dict = {}
    t_start = time.perf_counter()
    deadline = t_start + CLI_DEADLINE_S
    index = 0
    rounds, elapsed = 0, 0.0
    # one more round, if it takes as long as the mean round so far, ends nearer to ``seconds``
    while index < min_sessions or elapsed + elapsed / rounds / 2 < seconds:
        runs = [(plain, run_dir / f"s{index}", None)]
        if paired:
            index += 1
            runs.append((traced, run_dir / f"s{index}", run_dir / f"spans{index}"))
            runs[1][2].mkdir(parents=True)
        for k, (name, args) in enumerate(wl.CLI_JOBS):
            for loop, session_dir, spans_dir in runs if k % 2 == 0 else runs[::-1]:
                spans = spans_dir / f"{name}.npz" if spans_dir else None
                reference = reference_seconds()
                took, problems = cli_job(
                    name, args, session_dir, seed, spans, anchors, first_hashes, deadline
                )
                loop.record(f"{session_dir.name} {name}", problems, took, reference)
        index += 1
        rounds += 1
        elapsed = time.perf_counter() - t_start
    return plain, traced, index


def run_cli_session(seed, seconds, trace, anchors):
    run_dir = OUT / f"cli-session-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if not trace:
            setup_s = median_fresh_seconds(IMPORT_CLI)
            loop, _, sessions = cli_sessions(run_dir, seed, anchors, seconds, CLI_SESSIONS)
            metrics = end_to_end(loop, setup_s, resource.RUSAGE_CHILDREN)
            return [loop], metrics, {"sessions": sessions, "setup_samples": SETUP_REPEATS}
        plain, traced, sessions = cli_sessions(run_dir, seed, anchors, seconds, 1, paired=True)
        dumps = [tracer.load(p) for p in sorted(run_dir.glob("spans*/*.npz"))]
        metrics = per_layer(tracer.summarize(dumps), plain, traced, processes=len(dumps))
        return [plain, traced], metrics, {"sessions": sessions, "traced_processes": len(dumps)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# --- metrics --------------------------------------------------------------


def end_to_end(loop: Loop, setup_s: float, who) -> dict:
    """Every timed job ran on its own input (or was its own subcommand run), so
    the median and the rate are over all of them: a cache that only repeats of
    an input could hit has no repeats to hit.  In-process, job times are at the
    reference host speed, and extra_metrics gives them as wall-clock times too."""
    scaled = loop.scaled()
    values = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(scaled),
        "jobs_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(summary, plain: Loop, traced: Loop, processes: int) -> dict:
    ctx = {
        "processes": processes,
        "import_s": median_fresh_seconds(IMPORT_CLI),
        "import_floor_s": median_fresh_seconds(IMPORT_FLOOR),
        "overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
    }
    return layers.per_layer_metrics(summary, ctx)


def extra_metrics(loops: list) -> dict:
    """End-to-end figures kept out of BENCHMARK.json's metric set (they can be 0 or absent)."""
    timed = loops[0]
    lat = timed.latencies
    extra = {
        "failed_frac": {
            "value": sum(loop.failed for loop in loops) / sum(loop.attempted for loop in loops),
            "unit": "ratio",
        },
        "job_samples": {"value": len(lat), "unit": "count"},
    }
    if timed.references:
        extra["job_p50_wall_s"] = {"value": statistics.median(lat), "unit": "s"}
        extra["jobs_per_wall_s"] = {"value": len(lat) / sum(lat), "unit": "1/s"}
        extra["host_speed"] = {
            "value": statistics.median(REFERENCE_S / r for r in timed.references),
            "unit": "ratio",
        }
    if len(lat) >= 100:  # at least 10 samples beyond the 90th percentile
        extra["job_p90_s"] = {"value": statistics.quantiles(timed.scaled(), n=10)[8], "unit": "s"}
    return extra


def environment(seed: int) -> dict:
    import numpy
    import scipy

    git = {"commit": None, "dirty": None}
    if (wl.ROOT / ".git").exists():
        def git_out(*args):
            return subprocess.run(["git", *args], cwd=wl.ROOT, capture_output=True, text=True).stdout.strip()

        git = {"commit": git_out("rev-parse", "HEAD") or None, "dirty": bool(git_out("status", "--porcelain"))}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git": git,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, anchors=None) -> dict:
    anchors = {**wl.ANCHORS, **(anchors or {})}
    OUT.mkdir(exist_ok=True)
    if name == "cli-session":
        loops, metrics, info = run_cli_session(seed, seconds, trace, anchors)
        why, size = wl.CLI_WHY, wl.CLI_SIZE
    else:
        loops, metrics, info = run_in_process(name, seed, seconds, trace, anchors)
        why, size = wl.IN_PROCESS[name].why, wl.IN_PROCESS[name].size
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    extra = extra_metrics(loops)
    problems = [f"{label}: {p}" for loop in loops for label, p in loop.problems]
    record = {
        "workload": name,
        "why": why,
        "input_size": size,
        "loop": "closed, one client, one job at a time, one process",
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "checks": wl.CHECK_NOTES,
        "layer_map": layers.LAYER_MAP,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {**extra, **{k: {"value": v, "unit": "count"} for k, v in info.items()}},
        "problems": problems[:50],
    }
    path = OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return {"record": path, **record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "nanotrap" / "cli.py").is_file():
        print(f"nanotrap sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(wl.SRC))
    # one CPU for the run and its child processes, so that reference_seconds()
    # times the CPU that every job runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload == "all":
        return run_all(args)
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    shown = {**r["metrics"], **(r["extra"] if not args.trace else {})}
    for metric, m in shown.items():
        print(f"{r['workload']:15s} {metric:55s} {m['value']:>14.6g} {m['unit']}")
    for problem in r["problems"][:5]:
        print(f"{r['workload']:15s} FAILED {problem}", file=sys.stderr)
    print(f"{r['workload']:15s} record {r['record'].relative_to(wl.ROOT)}")
    summary = {key: r[key] for key in ("attempted", "failed", "metrics")}
    print(json.dumps({"correct": r["failed"] == 0, **summary}))
    return 0 if r["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so no cache or peak memory carries over; one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result, exit code {proc.returncode}", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
