#!/usr/bin/env python3
"""Same-host A/B performance gate: the work tree against its base commit.

The base is HEAD when the work tree differs from it (a change not yet
committed), else HEAD^ (the last commit is the change); a perfbench
lockfile rewritten by an earlier build does not count as a difference,
and the paths that made it pick HEAD are printed. The base is
extracted with `git archive` into a temporary directory; perfbench is
built in both trees, and PAIRS interleaved pairs of every BENCHMARK.json
workload run for SECONDS each, alternating which side runs first. Both
sides of a pair use the same seed.

The gate fails when a run's outputs are not correct, when the share of
failed operations rises, or when an end-to-end metric's median on the
work tree is worse than the base median by more than that metric's
BENCHMARK.json bound. Both sides run on this host in the same time
window, so a slower or busier host moves both sides alike.

For each metric it also prints each side's median and quartiles and the
number of pairs the work tree won (was strictly better in), which is
what a claimed gain is judged on: a win in nearly every pair, and a
median gain wider than the base's interquartile range.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(ROOT / "perfbench"))
from steady import run_once, summarize  # noqa: E402

PAIRS = 5
SECONDS = 3


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


# Rewritten by any perfbench build that is not --locked (it still lists a
# deleted crate), so it says nothing about whether the change is committed.
BUILD_REWRITTEN = {"perfbench/Cargo.lock"}


def base_commit():
    """HEAD if the work tree has changes of its own, else HEAD^."""
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=normal"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    # Porcelain lines are "XY path" or "XY old -> new"; the last path counts.
    dirty = [line[3:].split(" -> ")[-1] for line in status.splitlines()]
    dirty = [p for p in dirty if p not in BUILD_REWRITTEN]
    if dirty:
        print("perf A/B: uncommitted changes, so the base is HEAD: " + ", ".join(dirty),
              flush=True)
    return git("rev-parse", "--short", "HEAD" if dirty else "HEAD^")


def extract(commit, dest):
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")


def build(tree):
    """Builds tree's perfbench into tree/perfbench/target; returns the binary."""
    manifest = tree / "perfbench" / "Cargo.toml"
    target = tree / "perfbench" / "target"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(manifest)], env=env, check=True)
    return str(target / "release" / "perfbench")


def worse_by(metric, base, work):
    """How much worse work is than base, as a share of base."""
    delta = work - base if metric["better"] == "lower" else base - work
    if base == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / base


def wins(metric, base_runs, work_runs):
    """Pairs (same index, same seed) in which work beat base on metric."""
    name = metric["name"]
    sign = -1 if metric["better"] == "lower" else 1
    return sum(sign * (w["metrics"][name]["value"] - b["metrics"][name]["value"]) > 0
               for b, w in zip(base_runs, work_runs))


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    base = base_commit()

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        base_tree = Path(tmp)
        extract(base, base_tree)
        sides = {"base": build(base_tree), "work": build(ROOT)}
        print(f"perf A/B: work tree vs {base}, {PAIRS} pairs x {SECONDS} s per workload",
              flush=True)
        runs = {(side, w): [] for side in sides for w in workloads}
        for i in range(PAIRS):
            order = ["base", "work"] if i % 2 == 0 else ["work", "base"]
            for w in workloads:
                for side in order:
                    cmd = {"command": [sides[side]]}
                    runs[(side, w)].append(run_once(cmd, w, 1 + i, SECONDS))
            print(f"# pair {i + 1}/{PAIRS} done", flush=True)

    problems = []
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'base':>11}{'base q1-q3':>22}{'work':>11}{'work q1-q3':>22}"
              f"{'worse':>9}{'wins':>6}{'bound':>7}")
        shares = {}
        for side in sides:
            rs = runs[(side, w)]
            shares[side] = sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        if shares["work"] > shares["base"]:
            problems.append(f"{w}: failed share rose from {shares['base']:.4f} "
                            f"to {shares['work']:.4f}")
        for m in metrics:
            name = m["name"]
            stats = {side: summarize([r["metrics"][name]["value"] for r in runs[(side, w)]])
                     for side in sides}
            med = {side: stats[side][0] for side in sides}
            quart = {side: f"{stats[side][1]:.5g}-{stats[side][2]:.5g}" for side in sides}
            worse = worse_by(m, med["base"], med["work"])
            flag = ""
            if worse > m["bound"]:
                flag = "  WORSE"
                problems.append(f"{w} {name}: median worse by {worse:.3f} > bound {m['bound']}")
            won = wins(m, runs[("base", w)], runs[("work", w)])
            print(f"  {name:<16}{med['base']:>11.5g}{quart['base']:>22}{med['work']:>11.5g}"
                  f"{quart['work']:>22}{worse:>+9.3f}{f'{won}/{PAIRS}':>6}{m['bound']:>7}{flag}")
    if problems:
        print("\nperf A/B: FAIL\n  " + "\n  ".join(problems))
        sys.exit(1)
    print(f"\nperf A/B: OK (no end-to-end metric worse than its bound vs {base})")


if __name__ == "__main__":
    main()
