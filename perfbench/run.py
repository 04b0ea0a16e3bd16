#!/usr/bin/env python3
"""Build edgesim's benchmark from source and run one workload.

    python3 perfbench/run.py --workload alias-dsre|mem-stream|paper-repro \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the simulator, the ten paper bench binaries
and the driver, in Release) under .bench_build/perfbench, then replaces
itself with the driver, so the measured run is a single process. Build
output goes to stderr; the last line of stdout is the driver's JSON
result. README.md in this directory defines the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("alias-dsre", "mem-stream", "paper-repro")


def build():
    """Configure and build the benchmark; exit non-zero on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print(f"perfbench: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
            sys.exit(1)


def driver_argv(workload, seed, seconds, trace, extra=()):
    """The driver's command line for one workload run."""
    return [
        os.path.join(BUILD, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--golden", os.path.join(HERE, "golden"),
        "--bench-dir", os.path.join(BUILD, "edgesim_bench"),
        "--work-dir", BUILD,
        "--trace-out", os.path.join(BUILD, f"trace-{workload}-seed{seed}.json"),
        *extra,
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    build()
    argv = driver_argv(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
