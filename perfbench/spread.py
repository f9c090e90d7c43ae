#!/usr/bin/env python3
"""Run perfbench on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload router_kv --runs 10 [--first-seed 1]

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of that median, next
to the bound BENCHMARK.json fixes for it. A steady benchmark keeps each
end-to-end spread (setup_s aside) below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-26s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(mid) if mid else float("inf")
        bound = bounds.get(name)
        print("%-26s %14.6g %9.4f %7s" % (
            name, mid, spread, "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
