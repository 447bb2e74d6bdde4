#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs each workload N times, each
with another seed, and prints the median and quartiles of every
end-to-end metric.  The spread is (Q3 - Q1) / median with the quartiles
of Python's statistics.quantiles(values, n=4); a metric is flagged when
its spread exceeds its bound in BENCHMARK.json (setup_s is shown but not
flagged: its bound applies to the median, not to the spread).  With
--sets 2 it repeats the whole set on fresh seeds and also flags a
median that moved by more than the bound.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]
        [--seed-start 1] [--seconds S] [--sets 1]

Exit code 0 when nothing is flagged, 1 otherwise.  Every run's full
line is appended to .bench_results/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    ledger = open(os.path.join(ROOT, ".bench_results", "steady.jsonl"), "a")
    flagged = 0
    for workload in args.workloads.split(","):
        medians = []
        for index in range(args.sets):
            first_seed = args.seed_start + index * args.runs
            lines = []
            for seed in range(first_seed, first_seed + args.runs):
                line = run_once(workload, seed, args.seconds)
                ledger.write(json.dumps(dict(line, workload=workload,
                                             seed=seed)) + "\n")
                ledger.flush()
                lines.append(line)
            shares = {l["failed"] / l["attempted"] for l in lines}
            wrong = sum(1 for l in lines if not l["correct"])
            print(f"\n{workload} set {index + 1}: seeds {first_seed}.."
                  f"{first_seed + args.runs - 1}, {wrong} incorrect, "
                  f"failed shares {sorted(shares)}")
            if wrong or len(shares) != 1:
                flagged += 1
            print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}")
            set_medians = {}
            for name, bound in bounds.items():
                values = [l["metrics"][name]["value"] for l in lines]
                median, q1, q3, spread = summarize(values)
                set_medians[name] = median
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  SPREAD > BOUND"
                    flagged += 1
                elif name != "setup_s" and spread > bound / 3:
                    flag = "  spread > bound/3"
                print(f"  {name:<20} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6.3f}{flag}")
            medians.append(set_medians)
        if args.sets == 2:
            better = {m["name"]: m["better"] for m in bench["end_to_end"]}
            for name, bound in bounds.items():
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                if worse > bound:
                    print(f"  {name}: second median worse by {worse:.3f} "
                          f"> bound {bound}")
                    flagged += 1
    print(f"\n{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
