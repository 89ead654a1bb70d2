#!/usr/bin/env python3
"""Steadiness check: runs one workload K times and prints each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload faults-sim --runs 5
    python3 perfbench/steady.py --workload serve-mix --runs 10 --first-seed 101

Run i uses seed first_seed + i.  For every metric the table shows the
median, the first and third quartiles (statistics.quantiles, n=4), the
interquartile range and the full range (max - min), both as a share of
the median, and, for end-to-end metrics, the bound from BENCHMARK.json and
whether the interquartile share stays below a third of it.  The attempted
and failed operation counts of every run are listed too, so a failure
share that differs between runs shows.  Runs one at a time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit("steady: run failed (exit %d): %s" % (done.returncode,
                                                        " ".join(cmd)))
    if "CHECK FAILED" in done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units = {}, {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(root, args.workload, seed, seconds, args.trace)
        share = result["failed"] / result["attempted"]
        print("run %d seed %d: correct=%s attempted=%d failed=%d (%.6f)" %
              (i + 1, seed, result["correct"], result["attempted"],
               result["failed"], share), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("\nper run, in seed order:")
    for name, vals in values.items():
        print("  %-40s %s" % (name, " ".join("%.6g" % v for v in vals)))

    print("\n%-42s %12s %12s %12s %8s %8s %6s %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound",
           "steady"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if iqr < bound / 3 else "NO")
        print("%-42s %12.6g %12.6g %12.6g %8.4f %8.4f %6s %s" %
              (name + " [" + units[name] + "]", med, q1, q3, iqr, rng,
               "" if bound is None else "%.2f" % bound, verdict))


if __name__ == "__main__":
    main()
