#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each end-to-end
metric's median and spread (interquartile distance over median), next to
the bound BENCHMARK.json sets for it.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Each run uses its own seed. The spread of a metric should stay below a third
of its bound; `setup_s` is exempt from the spread rule but not from the
median comparison between two sets of runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect or failed: {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<24} {'median':>14} {'spread':>8} {'bound':>6}  {'bound/3':>7}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- too wide"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<24} {med:>14.6g} {spread:>8.4f} {bounds[name]:>6}  {bounds[name] / 3:>7.4f}{flag}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in vals)}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
