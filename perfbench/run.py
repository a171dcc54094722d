#!/usr/bin/env python3
"""Cable's repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the perfbench
benchmark program from source into .bench_build/perfbench (Release), runs one
workload in its own process, echoes its readable report, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics are the `end_to_end` list of BENCHMARK.json with --trace 0 and
its `per_layer` list with --trace 1, each as {"value": ..., "unit": ...}.
Exits nonzero, without a result line, when the sources or the build are
missing, and with a result line but a nonzero code when a correctness
check failed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table3", "lattice-scale", "interactive")
# A run measures for --seconds plus set-up, a warm-up and checks; the
# first run also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    # Build chatter goes to stderr; stdout carries only the report.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Cable sources (src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if run_checked(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
                fail("cmake configure failed")
        if run_checked(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs], BUILD_TIMEOUT_S):
            fail("build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("workload timed out")
    lines = out.splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit {proc.returncode})")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        print(out, end="")
        fail(f"perfbench ended without a result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    got = raw["metrics"]
    correct = bool(raw["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            value = got[m["name"]]
        elif args.trace:
            # A layer this workload never calls.
            value = 0.0
        else:
            print(f"FAILED: end-to-end metric {m['name']} missing")
            correct, value = False, 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
