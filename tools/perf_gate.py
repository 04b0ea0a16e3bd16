#!/usr/bin/env python3
"""Gate a change on paired perfbench runs against a base revision.

    python3 tools/perf_gate.py <base-revision>

Checks the base revision out in a temporary git worktree and runs
`perfbench/run.py --seed 1 --trace 0` on every workload that
BENCHMARK.json lists, PAIRS times in each checkout, on this host,
alternating which side runs first. Exits 1 when any run is not
correct, or when an end-to-end metric's change/base ratio, the median
over the pairs, is worse than 1 by more than that metric's bound in
BENCHMARK.json. The two runs of a pair share one host and the same
minute, so no calibration is needed, and host speed that drifts
between pairs cancels out.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Shorter runs than BENCHMARK.json's run_seconds keep the gate to about
# ten minutes. Each run still takes the median of at least three
# passes, and the gate the median over PAIRS pairs.
PAIRS = 10
SECONDS = 5


def run(checkout, workload):
    """One perfbench run in `checkout`; its JSON result line."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    try:
        return json.loads(p.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(p.stdout[-2000:] + p.stderr[-4000:], file=sys.stderr)
        return {"correct": False, "metrics": {}}


def ratio(base, change, name):
    """Median over pairs of change / base for one metric."""
    return statistics.median(c["metrics"][name]["value"] /
                             b["metrics"][name]["value"]
                             for b, c in zip(base, change))


def verdict(bench, base, change):
    """Report lines and failures for {workload: [result, ...]} pairs."""
    report, fails = [], []
    for w in base:
        for side, runs in (("base", base[w]), ("change", change[w])):
            bad = sum(r.get("correct") is not True for r in runs)
            if bad:
                fails.append(f"{w}: {bad} {side} run(s) not correct")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            try:
                r = ratio(base[w], change[w], name)
            except (KeyError, ZeroDivisionError,
                    statistics.StatisticsError):
                fails.append(f"{w}: {name} missing from a result")
                continue
            if m["better"] == "lower":
                worse = r > 1 + bound
            else:
                worse = r < 1 - bound
            line = (f"{w} {name}: change/base {r:.3f} "
                    f"(bound {bound:.0%}, {m['better']} is better)")
            report.append(line + (" WORSE" if worse else ""))
            if worse:
                fails.append(line)
    return report, fails


def measure(bench, tree):
    """PAIRS alternating base/change runs per workload."""
    base, change = {}, {}
    for w in (x["name"] for x in bench["workloads"]):
        base[w], change[w] = [], []
        for i in range(PAIRS):
            sides = [("base", tree, base[w]), ("change", ROOT, change[w])]
            for side, checkout, runs in sides[::1 if i % 2 == 0 else -1]:
                runs.append(run(checkout, w))
                got = runs[-1]["metrics"]
                print(f"{w} pair {i + 1} {side}: " + " ".join(
                    f"{n}={got[n]['value']:.6g}" for n in
                    (m["name"] for m in bench["end_to_end"]) if n in got),
                    flush=True)
    return base, change


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: perf_gate.py <base-revision>")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        tree, sys.argv[1]], check=True)
        try:
            base, change = measure(bench, tree)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree])
    report, fails = verdict(bench, base, change)
    print("\n".join(report))
    print(f"perf gate: {PAIRS} pairs per workload, "
          f"{time.monotonic() - start:.0f} s")
    for f in fails:
        print("FAIL " + f)
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
