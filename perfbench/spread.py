#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs workloads over several seeds
and prints, per end-to-end metric, the median and the interquartile range
as a share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the root of a checkout. A metric is steady enough when its spread
stays below a third of its bound (setup_s is exempt from the spread rule).
Exits non-zero if any run fails or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in workloads:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            start = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            wall = time.monotonic() - start
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (name, seed, done.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print("%s seed %d (%.0f s): %s" % (name, seed, wall, " ".join(
                "%s=%.4g" % (m, values[m][-1]) for m in bounds)))
            sys.stdout.flush()
        print("%s (%d runs)" % (name, len(values["setup_s"])))
        for m, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s" and spread > bounds[m]:
                flag = "  OVER BOUND"
                ok = False
            elif m != "setup_s" and spread > bounds[m] / 3:
                flag = "  over a third of the bound"
            print("  %-20s median %14.6g  spread %6.3f  bound %.3f%s"
                  % (m, med, spread, bounds[m], flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
