#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. perfbench_selftest: each output check accepts a clean output and
   rejects the same output with one corruption.
2. Small-input mode: every workload end to end on tiny inputs, untraced
   and traced; each must be correct, fail no operation, and print
   exactly the metrics BENCHMARK.json names (end-to-end ones nonzero).
Exit code 0 when everything passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    if not run.build():
        return 1
    failures = 0
    done = subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")])
    failures += done.returncode != 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--small", "1"],
                cwd=ROOT, capture_output=True, text=True)
            problems = []
            if done.returncode != 0:
                problems.append(f"exit {done.returncode}: {done.stderr[-500:]}")
            else:
                line = json.loads(done.stdout.strip().splitlines()[-1])
                key = "per_layer" if trace else "end_to_end"
                want = {m["name"] for m in bench[key]}
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(line)}")
                if not line["correct"] or line["failed"]:
                    problems.append("incorrect or failed operations")
                if set(line["metrics"]) != want:
                    problems.append("metric names differ from BENCHMARK.json")
                if not trace and any(m["value"] <= 0
                                     for m in line["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            status = "FAIL" if problems else "ok  "
            print(f"{status}  {workload} small, trace {trace} "
                  f"{'; '.join(problems)}")
            failures += bool(problems)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
