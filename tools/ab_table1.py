#!/usr/bin/env python3
"""Before/after record of a serial analog campaign bench for two builds.

Runs a bench of a "before" and an "after" build tree with `--threads 1`,
interleaved (before, after, before, ...), and writes one JSON record:
wall time (every run's, then min and median), the DC and transient Newton
iterations, the Newton iterations spent simulating faults (the
`campaign.newton_per_fault` histogram's sum and count, over every
campaign of the process), the pivot and KCL reject counts, and whether
the two builds print the same output.

    python3 tools/ab_table1.py --before OLD/build --after build \\
        --runs 5 --out BENCH_newton.json

--mode table1 (default) runs `bench/table1_fault_coverage` for both
gate-open conventions and times the campaign (its `--json` wall clock);
progress, warnings and timing lines are left out of the verdict
comparison. --mode dft_campaigns runs `bench/dft_campaigns`, times the
whole process and compares its stdout byte for byte.

Both trees must be built (Release for timing).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# Per mode: the bench, and its runs per side as {name: extra flags}.
MODES = {
    "table1": ("table1_fault_coverage", {"bulk-leak": [], "pessimistic": ["--pessimistic"]}),
    "dft_campaigns": ("dft_campaigns", {"serial": []}),
}
COUNTERS = {
    "dc_newton": "solver.dc.newton_iterations",
    "transient_newton": "solver.transient.newton_iterations",
    "dc_solves": "solver.dc.solves",
    "transient_steps": "solver.transient.steps_accepted",
    "pivot_rejects": ("solver.dc.pivot_rejects", "solver.transient.pivot_rejects"),
    "kcl_rejects": ("solver.dc.kcl_rejects", "solver.transient.kcl_rejects"),
}


def verdict_lines(stdout):
    """The tables and fault lists: everything but progress, logs, timing."""
    skip = ("  fault ", "[warn", "[info", "metrics snapshot", "bench json")
    return [l for l in stdout.splitlines() if not l.startswith(skip)]


def run_once(build, mode, flags, tmp):
    json_path = os.path.join(tmp, "run.json")
    metrics_path = os.path.join(tmp, "metrics.json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [os.path.join(build, "bench", MODES[mode][0]), "--threads", "1",
           "--metrics", metrics_path] + flags
    if mode == "table1":
        cmd += ["--json", json_path]
    start = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    wall = time.perf_counter() - start
    if mode == "table1":
        with open(json_path) as f:
            wall = json.loads(f.readline())["wall_clock_sec"]
        out = verdict_lines(out)
    with open(metrics_path) as f:
        metrics = json.load(f)
    counters = metrics["counters"]
    counts = {}
    for key, names in COUNTERS.items():
        names = names if isinstance(names, tuple) else (names,)
        counts[key] = sum(counters.get(n, 0) for n in names)
    per_fault = metrics["histograms"].get("campaign.newton_per_fault", {})
    counts["campaign_newton"] = round(per_fault.get("sum", 0))
    counts["faults_simulated"] = per_fault.get("count", 0)
    return wall, counts, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="build tree of the old code")
    ap.add_argument("--after", required=True, help="build tree of the new code")
    ap.add_argument("--mode", choices=MODES, default="table1")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench, configs = MODES[args.mode]
    sides = {"before": args.before, "after": args.after}
    walls = {s: {c: [] for c in configs} for s in sides}
    counts = {s: {} for s in sides}
    outputs = {s: {} for s in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.runs):
            for side in sides:
                for conf, flags in configs.items():
                    wall, c, out = run_once(sides[side], args.mode, flags, tmp)
                    walls[side][conf].append(wall)
                    if counts[side].setdefault(conf, c) != c:
                        sys.exit(f"{side} {conf}: Newton counts differ between runs")
                    outputs[side].setdefault(conf, out)
                    print(f"run {i + 1} {side:6s} {conf:11s} {wall:.3f} s", file=sys.stderr)

    record = {"workload": f"{bench} --threads 1", "runs": args.runs, "interleaved": True,
              "wall": "process" if args.mode == "dft_campaigns" else "campaign"}
    for side in sides:
        record[side] = {
            conf: dict(wall_s={"runs": [round(w, 4) for w in walls[side][conf]],
                               "min": round(min(walls[side][conf]), 4),
                               "median": round(statistics.median(walls[side][conf]), 4)},
                       **counts[side][conf])
            for conf in configs
        }
    same = all(outputs["before"][c] == outputs["after"][c] for c in configs)
    record["stdout_identical" if args.mode == "dft_campaigns" else "verdicts_identical"] = same
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(record, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
