#!/usr/bin/env python3
"""The planner benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Builds the library and perfbench/planner_bench from source into
.bench_build/perfbench (configured on the first run, brought up to date on
every run), runs the workload, and prints each
metric by name and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, every time scaled to one host speed
by the reference kernel that planner_bench times between the ops (the
measured times are printed beside them); --trace 1 the per-layer ones and
writes the span trace to .bench_build/perfbench/traces/. Exits non-zero
when the build fails or any op's output fails its checks.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper-suite", "large-dag", "fault-replan")
RUN_TIMEOUT_S = 170
# One reference_kernel call (planner_bench.cpp) on the development box in
# its fast state; end-to-end times are reported at this host speed.
REF_NOMINAL_S = 0.005

# Metric units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["failed_frac"] = "ratio"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings planner_bench up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD))
    log = BUILD / "build.log"
    with open(log, "w") as out:
        def step(cmd):
            if subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=out,
                              env=env).returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")

        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", "perfbench", "-B", str(BUILD)] + gen)
        step(["cmake", "--build", str(BUILD), "--target", "planner_bench",
              "-j", str(min(4, os.cpu_count() or 1))])
    return BUILD / "planner_bench"


def op_samples(raw):
    """The faster half of every op's repetitions, pooled."""
    return [x for item in raw["items"]
            for x in stats.fastest_half(item["op_s"])]


def host_scale(raw):
    """REF_NOMINAL_S over the run's reference kernel time (the mean of its
    faster half): the factor that takes the run's times to the reference
    host speed."""
    return REF_NOMINAL_S / statistics.fmean(stats.fastest_half(raw["ref_s"]))


def end_to_end(raw, scale):
    """The end-to-end metrics, every time multiplied by `scale`. Load from
    other tenants of a shared host only ever adds time, so each time is
    taken from fast repetitions."""
    ops = op_samples(raw)
    return {
        "setup_s": scale * min(raw["setup_s"]),
        # One pass over the ops, each op at its fastest repetition.
        "wall_s": scale * sum(min(i["timed_s"]) for i in raw["items"]),
        "op_s.p50": scale * stats.percentile(ops, 0.5),
        "op_s.p75": scale * stats.percentile(ops, 0.75),
        "makespan_ratio": stats.geomean(raw["ratios"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    m = dict(raw["layers"])
    m["schedulers.locbs.pass_slope"] = stats.slope(raw["pass_points"])
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{a.workload}-{a.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"planner_bench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = raw["attempted"], raw["failed"]
    scale = host_scale(raw)
    print(f"workload {a.workload}  seed {a.seed}  rounds {raw['rounds']}  "
          f"op samples {len(op_samples(raw))}  digest {raw['digest']}")
    print(f"host scale {scale:.4f} (reference kernel "
          f"{1e3 * REF_NOMINAL_S / scale:.4g} ms, nominal "
          f"{1e3 * REF_NOMINAL_S:.4g} ms)")
    for err in raw["errors"]:
        print(f"  FAILED {err}")
    if not raw["deterministic"]:
        print("  FAILED schedule digest differs between rounds")
    try:
        metrics = per_layer(raw) if a.trace else end_to_end(raw, scale)
        measured = {} if a.trace else end_to_end(raw, 1.0)
    except (ValueError, ZeroDivisionError) as e:
        print(f"  FAILED metrics: {e}")
        metrics = measured = {}
    correct = (failed == 0 and raw["deterministic"] and bool(metrics)
               and all(math.isfinite(v) for v in metrics.values()))
    shown = dict(metrics)
    if not a.trace:
        shown["failed_frac"] = failed / attempted
    for name, value in sorted(shown.items()):
        line = f"  {name:36s} {value:.6g} {UNITS[name]}"
        if UNITS[name] == "s" and name in measured:
            line += f"  (measured {measured[name]:.6g} s)"
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
