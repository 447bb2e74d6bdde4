#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles the repo's
libraries from source) into .bench_build, runs it from the repo root,
checks its outputs, and prints one JSON line last:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the harness records spans around every call into a layer,
writes them as a Chrome trace, and the per-layer metrics are computed
from that trace file.  The full result, stamped with the host CPU count
and the git SHA, is kept under .bench_results/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, ".bench_results")
HARNESS_TIMEOUT_S = 170

# End-to-end metrics: name -> unit (BENCHMARK.json has the bounds).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "wirelength_per_hpwl": "ratio",
    "vias_per_net": "1/net",
    "gr_wirelength_per_hpwl": "ratio",
    "gr_vias_per_net": "1/net",
}

# Per-layer metrics: (name, unit, kind, source).  kind "span" is the
# nearest-rank median duration of the spans named `source` (scaled to
# the unit), "span_p90" their 90th percentile, and "counter" the median
# over operations of the counter `source` the harness recorded.
PER_LAYER = [
    ("bmgen.generate_s", "s", "span", "bmgen.generate"),
    ("bmgen.perturb_s", "s", "span", "bmgen.perturb"),
    ("lefdef.parse_s", "s", "span", "lefdef.parse"),
    ("lefdef.write_s", "s", "span", "lefdef.write"),
    ("groute.run_s", "s", "span", "groute.run"),
    ("groute.initial_nets", "count", "counter", "groute.initial_nets"),
    ("groute.rrr_victims", "count", "counter", "groute.rrr_victims"),
    ("groute.reroutes", "count", "counter", "groute.reroutes"),
    ("groute.overflow", "tracks", "counter", "groute.overflow"),
    ("groute.overflowed_edges", "count", "counter", "groute.overflowed_edges"),
    ("groute.par.batches", "count", "counter", "groute.par.batches"),
    ("groute.par.mean_batch_nets", "nets", "counter",
     "groute.par.mean_batch_nets"),
    ("groute.par.conflicts", "count", "counter", "groute.par.conflicts"),
    ("crp.run_s", "s", "span", "crp.run"),
    ("crp.iteration_s", "s", "span", "crp.iteration"),
    ("crp.phase.LCC_s", "s", "counter", "crp.phase.LCC_s"),
    ("crp.phase.GCP_s", "s", "counter", "crp.phase.GCP_s"),
    ("crp.phase.ECC_s", "s", "counter", "crp.phase.ECC_s"),
    ("crp.phase.SEL_s", "s", "counter", "crp.phase.SEL_s"),
    ("crp.phase.UD_s", "s", "counter", "crp.phase.UD_s"),
    ("crp.critical_cells", "count", "counter", "crp.critical_cells"),
    ("crp.moves", "count", "counter", "crp.moves"),
    ("crp.reroutes", "count", "counter", "crp.reroutes"),
    ("legalizer.windows", "count", "counter", "legalizer.windows"),
    ("legalizer.candidates", "count", "counter", "legalizer.candidates"),
    ("ilp.solves", "count", "counter", "ilp.solves"),
    ("ilp.pivots", "count", "counter", "ilp.pivots"),
    ("pricing.nets_priced", "count", "counter", "pricing.nets_priced"),
    ("pricing.reuse_ratio", "ratio", "counter", "pricing.reuse_ratio"),
    ("eco.run_s", "s", "span", "eco.run"),
    ("eco.patch_s", "s", "counter", "eco.patch_s"),
    ("eco.dirty_nets", "count", "counter", "eco.dirty_nets"),
    ("eco.scope_cells", "count", "counter", "eco.scope_cells"),
    ("eco.cache_evictions", "count", "counter", "eco.cache_evictions"),
    ("eco.failed_reroutes", "count", "counter", "eco.failed_reroutes"),
    ("droute.run_s", "s", "span", "droute.run"),
    ("droute.drvs", "count", "counter", "droute.drvs"),
    ("droute.open_nets", "count", "counter", "droute.open_nets"),
    ("droute.min_area_patches", "count", "counter",
     "droute.min_area_patches"),
    ("serve.op.bmgen.p50_ms", "ms", "span", "serve.bmgen"),
    ("serve.op.run.p50_ms", "ms", "span", "serve.run"),
    ("serve.op.run.p90_ms", "ms", "span_p90", "serve.run"),
    ("serve.op.eco.p50_ms", "ms", "span", "serve.eco"),
    ("serve.op.report.p50_ms", "ms", "span", "serve.report"),
    ("serve.op.stats.p50_ms", "ms", "span", "serve.stats"),
    ("serve.connections", "count", "counter", "serve.connections"),
    ("serve.daemon_threads", "count", "counter", "serve.daemon_threads"),
    ("serve.daemon_vmsize_mb", "MB", "counter", "serve.daemon_vmsize_mb"),
    ("trace.op_p50_ms", "ms", "span", "op"),
]


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest sample with at least q of
    the samples at or below it (never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 1000)) * len(ordered) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def per_layer_from_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    durations = {}
    counters = {}
    for event in events:
        if event["ph"] == "X":
            durations.setdefault(event["name"], []).append(event["dur"] / 1e6)
        elif event["ph"] == "C":
            counters.setdefault(event["name"], []).append(
                event["args"]["value"])
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        scale = 1e3 if unit == "ms" else 1.0
        if kind == "counter":
            values = counters.get(source, [])
            value = statistics.median(values) if values else 0.0
        else:
            values = durations.get(source, [])
            q = 0.9 if kind == "span_p90" else 0.5
            value = nearest_rank(values, q) * scale if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"run.py: build failed; see {log_path}")
                return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", type=int, choices=(0, 1), default=0,
                        help="tiny inputs: every workload in seconds")
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(".bench_results", f"work-{tag}-{os.getpid()}")
    trace_path = os.path.join(RESULTS, f"trace-{tag}.json")
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--crp", os.path.join(BUILD, "crp"),
               "--work-dir", work_dir, "--small", str(args.small)]
    if args.trace:
        command += ["--trace-out", trace_path]
    # Its own process group, so a timeout also stops the serve daemon.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log(f"run.py: {args.workload} exceeded {HARNESS_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        log(f"run.py: harness exited with {process.returncode}")
        return 1
    harness = json.loads(lines[-1])

    if args.trace:
        metrics = per_layer_from_trace(trace_path)
    else:
        metrics = {name: {"value": harness["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": harness["correct"],
              "attempted": harness["attempted"],
              "failed": harness["failed"],
              "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, small=args.small,
                  cpus=os.cpu_count(), git_sha=git_sha(),
                  samples=harness["samples"], config=harness["config"],
                  errors=harness["errors"])
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=2)

    for error in harness["errors"]:
        print(f"CHECK FAILED: {error}")
    for name, count in sorted(harness["samples"].items()):
        print(f"samples {name}: {count}")
    for name, value in sorted(harness["config"].items()):
        print(f"config {name}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
