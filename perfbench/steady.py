#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and prints, per metric, the
median, the quartiles and the relative spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload paper-suite --runs 10
    python3 perfbench/steady.py --workload large-dag --runs 3 --same-seed
    python3 perfbench/steady.py --workload large-dag --runs 2 --trace 1

Run i uses seed seed0 + i (or seed0 every time with --same-seed, which
also requires the schedule digest to repeat exactly). A spread below a
third of the bound is "steady"; below the bound, "within"; else "WIDE".
Quartiles come from statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
    digest = lines[0].split("digest ")[-1]
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seed", action="store_true")
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, digests, counts = {}, [], []
    for i in range(a.runs):
        seed = a.seed0 if a.same_seed else a.seed0 + i
        result, digest = run_once(a.workload, seed, seconds, a.trace)
        digests.append(digest)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{a.runs} seed {seed} digest {digest} "
              f"attempted {result['attempted']} failed {result['failed']}",
              flush=True)

    print(f"\n{'metric':36s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = stats.spread(vals)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread < bound / 3
                       else "within" if spread <= bound else "WIDE")
        print(f"{name:36s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6} "
              f"{verdict}")
    if a.same_seed:
        repeat = len(set(digests)) == 1 and all(c == counts[0]
                                                 for c in counts)
        print(f"\ndigests and counts repeat exactly: {repeat}")
        if not repeat:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
