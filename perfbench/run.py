#!/usr/bin/env python3
"""Run one benchmark workload against the libraries under src/.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload clean_reads --seed 1 --seconds 20 --trace 0

Builds the benchmark from source first (perfbench/CMakeLists.txt, Release,
into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), then runs the
workload. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("clean_reads", "paper_reads", "wire_interactive", "pim_fleet")
BUILD_TIMEOUT_S = 850


def build(build_root):
    """Configure (once) and build the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_root, exist_ok=True)
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(len(os.sched_getaffinity(0)))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def validate(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s is malformed" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", os.path.join(build_root, "tmp")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (args.workload, done.returncode),
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        validate(result)
    except ValueError as err:
        print("perfbench: bad result line: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
