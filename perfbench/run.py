#!/usr/bin/env python3
"""Builds the msim benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

The benchmark and the simulator library are built with CMake (Release) into
.bench_build/perfbench; later runs rebuild only what changed. With --trace 1
the recorded spans are also written to .bench_build/traces/<workload>.json
(Chrome trace-event format, loadable in Perfetto). The last line of standard
output is the JSON result; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "metal_paper", "native_ckpt"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(TRACE_DIR, args.workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
