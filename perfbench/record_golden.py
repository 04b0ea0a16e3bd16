#!/usr/bin/env python3
"""Record the benchmark's golden record from the current sources.

    python3 perfbench/record_golden.py

Builds the benchmark (see run.py) and runs every workload once with
--record for each golden seed, overwriting perfbench/golden/. Record a
new golden only for a change that means to alter simulated results,
and say in the change which cells or outputs moved and why.
"""

import subprocess
import sys

import run

# The default seed (wl::KernelParams and MachineConfig both default to
# 1) and one seed held out from tuning the benchmark.
GOLDEN_SEEDS = (1, 7)


def main():
    run.build()
    for workload in run.WORKLOADS:
        # The paper binaries take no seed, so one recording covers them.
        seeds = GOLDEN_SEEDS[:1] if workload == "paper-repro" else GOLDEN_SEEDS
        for seed in seeds:
            argv = run.driver_argv(workload, seed, 1, 0, ["--record"])
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            last = out.stdout.strip().splitlines()[-1:]
            print(workload, seed, last[0] if last else "(no output)")
            if out.returncode != 0 or '"correct": true' not in out.stdout:
                sys.exit(f"recording {workload} seed {seed} failed")


if __name__ == "__main__":
    main()
