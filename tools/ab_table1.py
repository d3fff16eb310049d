#!/usr/bin/env python3
"""Before/after record of the serial Table-I campaign for two builds.

Runs `bench/table1_fault_coverage --threads 1` of a "before" and an
"after" build tree, interleaved (before, after, before, ...), for both
gate-open conventions, and writes one JSON record: the campaign wall
time (min and median over the runs), the DC and transient Newton
iterations, the pivot and KCL reject counts, and whether the two builds
print the same tables and fault lists (the verdict check).

    python3 tools/ab_table1.py --before OLD/build --after build \\
        --runs 5 --out BENCH_newton.json

Both trees must be built (Release for timing). Progress, warnings and
timing lines are left out of the verdict comparison.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

CONVENTIONS = {"bulk-leak": [], "pessimistic": ["--pessimistic"]}
COUNTERS = {
    "dc_newton": "solver.dc.newton_iterations",
    "transient_newton": "solver.transient.newton_iterations",
    "dc_solves": "solver.dc.solves",
    "transient_steps": "solver.transient.steps_accepted",
    "pivot_rejects": ("solver.dc.pivot_rejects", "solver.transient.pivot_rejects"),
    "kcl_rejects": ("solver.dc.kcl_rejects", "solver.transient.kcl_rejects"),
    # Counters of the per-solve gate that the KCL exit check replaced;
    # they read 0 on builds without it.
    "refinement_steps": ("solver.dc.refinement_steps", "solver.transient.refinement_steps"),
    "dense_fallbacks": ("solver.dc.dense_fallbacks", "solver.transient.dense_fallbacks"),
}


def verdict_lines(stdout):
    """The tables and fault lists: everything but progress, logs, timing."""
    skip = ("  fault ", "[warn", "[info", "metrics snapshot", "bench json")
    return [l for l in stdout.splitlines() if not l.startswith(skip)]


def run_once(build, flags, tmp):
    json_path = os.path.join(tmp, "run.json")
    metrics_path = os.path.join(tmp, "metrics.json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [os.path.join(build, "bench", "table1_fault_coverage"), "--threads", "1",
           "--json", json_path, "--metrics", metrics_path] + flags
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    with open(json_path) as f:
        wall = json.loads(f.readline())["wall_clock_sec"]
    with open(metrics_path) as f:
        counters = json.load(f)["counters"]
    counts = {}
    for key, names in COUNTERS.items():
        names = names if isinstance(names, tuple) else (names,)
        counts[key] = sum(counters.get(n, 0) for n in names)
    return wall, counts, verdict_lines(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="build tree of the old code")
    ap.add_argument("--after", required=True, help="build tree of the new code")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sides = {"before": args.before, "after": args.after}
    walls = {s: {c: [] for c in CONVENTIONS} for s in sides}
    counts = {s: {} for s in sides}
    lines = {s: {} for s in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.runs):
            for side in sides:
                for conv, flags in CONVENTIONS.items():
                    wall, c, v = run_once(sides[side], flags, tmp)
                    walls[side][conv].append(wall)
                    if counts[side].setdefault(conv, c) != c:
                        sys.exit(f"{side} {conv}: Newton counts differ between runs")
                    lines[side].setdefault(conv, v)
                    print(f"run {i + 1} {side:6s} {conv:11s} {wall:.3f} s", file=sys.stderr)

    record = {"workload": "table1_fault_coverage --threads 1", "runs": args.runs,
              "interleaved": True}
    for side in sides:
        record[side] = {
            conv: dict(wall_s={"min": round(min(walls[side][conv]), 4),
                               "median": round(statistics.median(walls[side][conv]), 4)},
                       **counts[side][conv])
            for conv in CONVENTIONS
        }
    record["verdicts_identical"] = all(lines["before"][c] == lines["after"][c]
                                       for c in CONVENTIONS)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(record, indent=1))
    return 0 if record["verdicts_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
