#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 pvnbench/run.py --workload fleet_churn --seed 1 --seconds 15 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and compiles the repository's
libraries plus the pvnbench binary into .bench_build/pvnbench (Release);
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the binary's JSON result. The exit code is the
binary's: non-zero when a correctness check failed or the build did.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pvnbench")
WORKLOADS = ("fleet_churn", "chain_web", "tunnel_mix")
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pvnbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "pvnbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("pvnbench: repository sources not found at " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print("pvnbench: build failed: %s" % e, file=sys.stderr)
        return 2

    sys.stdout.flush()
    try:
        return subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pvnbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
