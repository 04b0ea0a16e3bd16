#!/usr/bin/env python3
"""The benchmark's own test, at tiny size.

    python3 perfbench/test_perfbench.py

For every workload it checks that
  1. every metric BENCHMARK.json names is printed, with its unit;
  2. the deterministic results (per-cell cycles and counters, or the
     paper binaries' stdout) are identical across two runs, and between
     the untraced and traced passes of a traced run;
  3. a corrupted copy of the golden record is counted as a failure that
     names the cell or binary.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import run

SEED = 3


def drive(workload, trace, golden, record=False):
    """Run the driver at tiny size; returns (result JSON, stdout)."""
    extra = ["--tiny", "--golden", golden] + (["--record"] if record else [])
    argv = run.driver_argv(workload, SEED, 0, trace, extra)
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_metrics(result, wanted, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in wanted},
           f"{what}: every BENCHMARK.json metric printed with its unit")


def same_tree(a, b):
    """Relative path -> bytes of every file under a, compared with b."""
    def files(root):
        out = {}
        for d, _, names in os.walk(root):
            for n in names:
                p = os.path.join(d, n)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, root)] = f.read()
        return out
    fa = files(a)
    return bool(fa) and fa == files(b)


def corrupt(golden, workload):
    """Change one recorded value; returns the item it belongs to."""
    if workload == "paper-repro":
        path = os.path.join(golden, "paper-repro", "bench_fig5_speedup.txt")
        with open(path, "ab") as f:
            f.write(b"x")
        return "bench_fig5_speedup"
    path = os.path.join(golden, f"{workload}.seed{SEED}.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    item, rest = lines[1].split(" ", 1)
    key, value = rest.split(" ", 1)[0].split("=")
    lines[1] = lines[1].replace(f"{key}={value}", f"{key}={int(value) + 1}", 1)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return item


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    scratch = os.path.join(run.BUILD, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    for w in spec["workloads"]:
        name = w["name"]
        first, second, bad = (os.path.join(scratch, name, d)
                              for d in ("first", "second", "corrupt"))
        r, _ = drive(name, 0, first, record=True)
        expect(r["correct"] and r["failed"] == 0, f"{name}: untraced run clean")
        r, _ = drive(name, 1, second, record=True)
        expect(r["correct"] and r["failed"] == 0,
               f"{name}: traced passes repeat the untraced pass exactly")
        expect(same_tree(first, second),
               f"{name}: results identical across two runs")

        r, _ = drive(name, 0, first)
        expect(r["correct"] and r["attempted"] > 0 and r["failed"] == 0,
               f"{name}: matches its golden record")
        check_metrics(r, spec["end_to_end"], f"{name} --trace 0")
        r, _ = drive(name, 1, first)
        expect(r["correct"], f"{name}: traced run matches its golden record")
        check_metrics(r, spec["per_layer"], f"{name} --trace 1")

        shutil.copytree(first, bad)
        item = corrupt(bad, name)
        r, out = drive(name, 0, bad)
        expect(not r["correct"] and r["failed"] > 0 and
               f"FAILED {item}:" in out,
               f"{name}: corrupted golden counted as a failure of {item}")
    shutil.rmtree(scratch, ignore_errors=True)
    print("all checks passed")


if __name__ == "__main__":
    main()
