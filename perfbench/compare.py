#!/usr/bin/env python3
"""Compare two builds of netdsl on one workload, or measure one build's spread.

    python3 perfbench/compare.py A [B] --workload udp-arq --runs 10

A and B are netdsl checkouts (each with perfbench/).  With two, the script
runs them alternately for --runs pairs, A first in even pairs and B first in
odd ones, each pair on its own seed, and prints per end-to-end metric each
side's median and quartiles and how many pairs each side won (ties count
for neither).  With one, it runs --runs seeds and prints each metric's
median, quartiles and spread (interquartile range over median) against the
metric's bound in BENCHMARK.json.  Every run lasts BENCHMARK.json's
run_seconds, and the seeds are FIRST_SEED, FIRST_SEED + 1, ...
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

FIRST_SEED = 1000


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.terminate()  # run.py stops its own child on SIGTERM
            proc.wait()
    if proc.returncode != 0:
        sys.exit("%s: run with seed %d failed" % (checkout, seed))
    result = json.loads(out.decode().strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: run with seed %d was not correct" % (checkout, seed))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    spec = json.load(open(os.path.join(args.checkouts[0], "BENCHMARK.json")))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    sides = [os.path.abspath(c) for c in args.checkouts]
    values = {s: {m["name"]: [] for m in metrics} for s in sides}
    failed = {s: [] for s in sides}
    for i in range(args.runs):
        seed = FIRST_SEED + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for side in order:
            r = run_once(side, args.workload, seed, seconds)
            failed[side].append(r["failed"] / r["attempted"])
            for m in metrics:
                values[side][m["name"]].append(r["metrics"][m["name"]]["value"])
        print("run %d of %d done" % (i + 1, args.runs), file=sys.stderr)
    print("workload %s, %d runs of %d s" % (args.workload, args.runs, seconds))
    for side in sides:
        print("failed share %s: %s" % (side, sorted(set(failed[side]))))
    for m in metrics:
        name, better = m["name"], m["better"]
        if len(sides) == 1:
            v = values[sides[0]][name]
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            print("%-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f (bound %.3f)"
                  % (name, med, q1, q3, spread, m["bound"]))
        else:
            a, b = values[sides[0]][name], values[sides[1]][name]
            wins_a = wins_b = 0
            for x, y in zip(a, b):
                if x == y:
                    continue
                a_better = x > y if better == "higher" else x < y
                wins_a += a_better
                wins_b += not a_better
            qa, qb = quartiles(a), quartiles(b)
            print("%-16s A median %-12.6g [%.6g, %.6g]  B median %-12.6g [%.6g, %.6g]  "
                  "wins A %d B %d (%s is better)"
                  % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], wins_a, wins_b, better))


if __name__ == "__main__":
    main()
