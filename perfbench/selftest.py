"""Self-test of the benchmark, kept out of tier-1 (the file name does not
match pytest's test_*.py):

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that every metric of BENCHMARK.json is reported with its unit, and that a
deliberately wrong anchor, or a check that raises, is counted as a failed
job.  Takes a few minutes.
"""
import json
import sys

import layers
import run
import workloads as wl


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> None:
    sys.path.insert(0, str(wl.SRC))
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(per_layer == {name: unit for name, unit, _ in layers.PER_LAYER},
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    check(end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from run.py")
    check({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS), "unknown workload in BENCHMARK.json")

    for name in run.WORKLOADS:
        for trace in (False, True):
            r = run.run_workload(name, seed=3, seconds=0.0, trace=trace)
            check(r["failed"] == 0, f"{name} trace={trace}: {r['problems'][:3]}")
            check(units(r["metrics"]) == (per_layer if trace else end_to_end),
                  f"{name} trace={trace}: metrics or units differ")
            if not trace:
                check(r["extra"]["failed_frac"]["value"] == 0.0, f"{name}: failed_frac not 0")
            print(f"selftest: {name} trace={int(trace)} ok ({r['attempted']} jobs)", flush=True)

    wrong = {"tune_out_nm": (870.0, 1.5)}
    r = run.run_workload("cli-session", seed=3, seconds=0.0, trace=False, anchors=wrong)
    sessions = r["extra"]["sessions"]["value"]
    check(r["failed"] == sessions and r["extra"]["failed_frac"]["value"] == sessions / r["attempted"],
          "a wrong tune-out anchor is not counted once per session")
    check(units(r["metrics"]) == end_to_end, "cli-session metrics missing with a failed job")
    wrong = {"min_site_distance_nm": 1e6}
    r = run.run_workload("geometry-sweep", seed=3, seconds=0.0, trace=False, anchors=wrong)
    check(r["failed"] == r["attempted"] and r["extra"]["failed_frac"]["value"] == 1.0,
          "a wrong site-distance anchor is not counted in failed_frac")
    broken = {"max_pull": None}  # the output check itself raises
    r = run.run_workload("spectrum-fits", seed=3, seconds=0.0, trace=False, anchors=broken)
    check(r["failed"] == r["attempted"] and "output check raised" in r["problems"][0],
          "a check that raises is not counted as a failed job")
    print("selftest: wrong anchors and a raising check counted in failed_frac; all ok")


if __name__ == "__main__":
    main()
