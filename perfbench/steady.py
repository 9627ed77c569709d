#!/usr/bin/env python3
"""Runs one workload repeatedly and prints the spread of every metric.

    python3 perfbench/steady.py --workload W [--runs 10] [--first-seed 1]

Each run uses the next seed and BENCHMARK.json's command and
run_seconds, with tracing off. For every end-to-end metric the script
prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the interquartile range as a share of the median, next to the
metric's bound. A bound holds comfortably when the spread stays below a
third of it. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    cmd = spec["command"]

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(cmd + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                              cwd=root, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"run {i} (seed {seed}) exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"run {i} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, failed share(s) {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':34} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        mark = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:34} {unit:>9} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound:>6} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
