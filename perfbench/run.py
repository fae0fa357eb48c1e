#!/usr/bin/env python3
"""End-to-end benchmark of the Weaver request path.

    python3 perfbench/run.py --workload sweep|cold_verify|served_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench CMake package
(Release) into .bench_build/perfbench, then runs one measured invocation of
the benchmark binary and passes its output through. The last line of
standard output is the result as one JSON object; the exit status is 0
only when the build succeeded and every correctness check passed. Spans
of a traced run and served_mix's set-up snapshot go to .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "cold_verify", "served_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / target / "perfbench").resolve()
    out_dir = root / ".bench_out"
    if not build(root, build_dir):
        return 2
    out_dir.mkdir(exist_ok=True)

    cmd = [str(build_dir / "weaver_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        print(done.stdout, file=sys.stderr)
        log(f"benchmark produced no result (exit {done.returncode})")
        return done.returncode or 4
    # A failed correctness check still reports its result, with
    # "correct": false and a non-zero exit status.
    print(done.stdout, end="", flush=True)
    if done.returncode != 0:
        log(f"correctness gate failed (exit {done.returncode})")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
