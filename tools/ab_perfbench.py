#!/usr/bin/env python3
"""Paired perfbench comparison of two checkouts of this repository.

Runs `perfbench/run.py` of a "before" and an "after" checkout in
alternating pairs (before first on even pairs, after first on odd ones)
and prints, per end-to-end metric: the median of each side as reported
(divided by the run's host slowdown), the raw median (the value before
that division, from the run's stderr line), the median paired
difference, the before side's quartile spread, and in how many pairs the
after side was better.

    python3 tools/ab_perfbench.py --before ../parent --after . \\
        --workload table1_campaign --pairs 10 --seconds 55 --out ab.json

The host-pace kernels are code in the benchmark binary, so their speed
depends on where the linker puts them: before measuring, the tool reads
each side's `HostPace::sample` address with `nm` and warns when the two
differ mod 64 (a shifted kernel changes the slowdown divisor, and with it
every normalized figure, by several percent).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

METRICS = ("run_s", "fault_p50_ms", "fault_p95_ms", "setup_s", "peak_rss_mb")
RAW_LINE = re.compile(r"host slowdown ([0-9.eE+-]+); before dividing by it: (.*)")


def build_and_locate(checkout):
    """Builds the checkout's benchmark program; returns HostPace::sample's address."""
    build = os.path.join(checkout, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(checkout, "perfbench"), "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "--parallel", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=subprocess.DEVNULL)
    out = subprocess.run(["nm", "-C", os.path.join(build, "lsl_perfbench")],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        if line.endswith("HostPace::sample()"):
            return int(line.split()[0], 16)
    return None


def run_once(checkout, workload, seconds):
    """One perfbench run: (normalized metrics, raw metrics, slowdown)."""
    proc = subprocess.run([sys.executable, os.path.join(checkout, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
                           "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_perfbench: run in {checkout} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    norm = {k: v["value"] for k, v in result["metrics"].items()}
    raw = dict(norm)  # peak_rss_mb is never divided
    slowdown = 1.0
    for line in proc.stderr.splitlines():
        m = RAW_LINE.search(line)
        if m:
            slowdown = float(m.group(1))
            for part in m.group(2).split(","):
                name, value = part.split()
                raw[name] = float(value)
    return norm, raw, slowdown


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="checkout of the old code")
    ap.add_argument("--after", required=True, help="checkout of the new code")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--out", help="write the per-run figures and the summary as JSON")
    args = ap.parse_args()

    sides = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    address = {s: build_and_locate(path) for s, path in sides.items()}
    for s in sides:
        a = address[s]
        print(f"{s}: HostPace::sample at {a:#x} (mod 64 = {a % 64})" if a is not None
              else f"{s}: HostPace::sample not found")
    if None not in address.values() and address["before"] % 64 != address["after"] % 64:
        print("WARNING: HostPace::sample sits at a different address mod 64 on the two "
              "sides; the normalized figures are not comparable, read the raw ones")

    runs = {s: [] for s in sides}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for s in order:
            norm, raw, slowdown = run_once(sides[s], args.workload, args.seconds)
            runs[s].append({"metrics": norm, "raw": raw, "slowdown": slowdown})
        b, a = runs["before"][-1], runs["after"][-1]
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{m} {b['metrics'].get(m, 0):.4g} -> {a['metrics'].get(m, 0):.4g}"
            for m in METRICS[:3]), flush=True)

    summary = {}
    print(f"\n{args.workload}, {args.pairs} pairs (lower is better; wins = pairs the after "
          "side was lower)")
    print(f"{'metric':14} {'before':>10} {'after':>10} {'change':>8} {'raw before':>11} "
          f"{'raw after':>10} {'raw chg':>8} {'med diff':>10} {'before IQR':>10} {'wins':>6}")
    for m in METRICS:
        row = {}
        for kind in ("metrics", "raw"):
            before = [r[kind].get(m, 0.0) for r in runs["before"]]
            after = [r[kind].get(m, 0.0) for r in runs["after"]]
            mb, ma = statistics.median(before), statistics.median(after)
            row[kind] = {"before_median": mb, "after_median": ma,
                         "change_pct": 100.0 * (ma - mb) / mb if mb else 0.0,
                         "median_diff": statistics.median(a - b for a, b in zip(after, before)),
                         "before_iqr": quartile_spread(before),
                         "wins": sum(a < b for a, b in zip(after, before))}
        summary[m] = row
        n, r = row["metrics"], row["raw"]
        print(f"{m:14} {n['before_median']:10.4g} {n['after_median']:10.4g} "
              f"{n['change_pct']:+7.1f}% {r['before_median']:11.4g} {r['after_median']:10.4g} "
              f"{r['change_pct']:+7.1f}% {n['median_diff']:10.4g} {n['before_iqr']:10.4g} "
              f"{n['wins']:3d}/{args.pairs}")
    slow = {s: statistics.median(r["slowdown"] for r in runs[s]) for s in sides}
    print(f"median host slowdown: before {slow['before']:.4f}, after {slow['after']:.4f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                       "host_pace_sample_mod64": {s: (a % 64 if a is not None else None)
                                                  for s, a in address.items()},
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
