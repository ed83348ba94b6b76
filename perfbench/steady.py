#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload once per seed (seeds 1..runs) for BENCHMARK.json's
run_seconds, for one or more sets of runs, and prints each end-to-end
metric's median, quartiles and spread (the distance between the
quartiles as a share of the median). It fails when any metric's spread
is wider than its bound, when a later set's median is worse than the
first set's by more than the bound, or when the share of failed
operations differs between sets.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr[-2000:]}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    problems = []

    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i
                r = run_once(bench, workload, seed, seconds)
                runs.append(r)
                print(f"# {workload} set {s + 1} seed {seed}: " + json.dumps(
                    {k: v["value"] for k, v in r["metrics"].items()}), flush=True)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        first_medians = {}
        for s, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            if s == 0:
                first_shares = shares
            elif shares != first_shares:
                problems.append(f"{workload}: failed share differs between sets")
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                flag = ""
                if spread > m["bound"]:
                    flag = "  SPREAD > BOUND"
                    problems.append(f"{workload} {name}: spread {spread:.3f} > bound {m['bound']}")
                if s == 0:
                    first_medians[name] = med
                else:
                    base = first_medians[name]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    if worse > m["bound"]:
                        flag += "  MEDIAN WORSE"
                        problems.append(f"{workload} {name}: set {s + 1} median worse by {worse:.3f}")
                print(f"  {name:<16}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{m['bound']:>7}{flag}")
    if problems:
        print("\nNOT STEADY:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("\nsteady: every spread and median shift is within its bound")


if __name__ == "__main__":
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    main()
