#!/usr/bin/env python3
"""Fault-simulation benchmark: builds the library and the benchmark program
from source, then runs one workload in one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload table1_campaign --seed 1 --seconds 55 --trace 0

Workloads: table1_campaign, fault_dictionary, digital_atpg (see
BENCHMARK.json). --trace 0 prints the end-to-end metrics; --trace 1 makes a
separate traced run and prints every per-layer metric, writing its spans to
.bench_build/perfbench/trace-<workload>.json. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

Re-record the pinned references (perfbench/refs) after a change that is
meant to alter the results:

    python3 perfbench/run.py --workload table1_campaign --record

The build lives in .bench_build/perfbench (Release, configured once,
rebuilt incrementally on every run).
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table1_campaign", "fault_dictionary", "digital_atpg")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; kills it on timeout."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    except FileNotFoundError:
        fail(f"not found: {cmd[0]}", 1)
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}", 1)


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src) or not any(
        name.endswith(".cpp") for _, _, files in os.walk(src) for name in files
    ):
        fail(f"no library sources under {src}; run from the repository root")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        run_logged(["cmake", "--build", BUILD, "--parallel", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "lsl_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record the pinned references instead of measuring")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--refs", os.path.join(HERE, "refs")]
    if args.record:
        run_logged(cmd + ["--record"], None)
        return
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{args.workload}.json")]
    # A terminated runner must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}", 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed a malformed result", 1)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
