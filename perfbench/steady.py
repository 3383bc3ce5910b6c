#!/usr/bin/env python3
"""Steadiness check: are two sets of runs of one commit in agreement?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run it from the repository root. For each workload in BENCHMARK.json it
makes two sets of untraced runs, set A on seeds 1..N and set B on seeds
1001..1000+N, and prints for every end-to-end metric each set's median,
quartiles and spread ((q3 - q1) / |median|, quartiles as
statistics.quantiles gives them). Every run lasts BENCHMARK.json's
run_seconds. A set is steady on a metric when its spread stays below a
third of the metric's bound, and the two sets agree when set B's median is
not worse than set A's by more than the bound. One traced run per workload
then prints trace.overhead_pct. The exit status is 1 when any run fails,
any spread exceeds its bound or any pair disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
        unknown = set(names) - {w["name"] for w in bench["workloads"]}
        if unknown:
            parser.error(f"unknown workloads: {sorted(unknown)}")

    ok = True
    for workload in names:
        sets = []
        for base in (1, 1001):
            runs = [run(bench["command"], workload, base + i, seconds, 0)
                    for i in range(args.runs)]
            sets.append(runs)
        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each")
        print(f"{'metric':<20} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, runs in zip("AB", sets):
                q1, median, q3, share = spread([r[name] for r in runs])
                medians.append(median)
                steady = share < bound / 3
                ok = ok and share <= bound
                print(f"{name:<20} {label:<3} {q1:12.6g} {median:12.6g} {q3:12.6g} "
                      f"{share:8.2%} {bound:6.2f}  {'steady' if steady else 'SPREAD'}")
            change = worse_by(metric, medians[0], medians[1])
            agree = change <= bound
            ok = ok and agree
            print(f"{name:<20} B vs A: {change:+.2%} worse -> "
                  f"{'agree' if agree else 'DISAGREE'}")
        traced = run(bench["command"], workload, 1, seconds, 1)
        print(f"trace.overhead_pct = {traced['trace.overhead_pct']:+.2f} %")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
