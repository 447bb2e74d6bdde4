// The four benchmark workloads (README.md lists their make-up).  Each
// builds its inputs from the seed in set-up, repeats its operation
// until the measured window has passed (and at least a workload's
// minimum count of operations has run), then checks the outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "recorder.hpp"

namespace crp::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny inputs and short windows: all four workloads end to end in
  /// seconds (the self-test mode).
  bool small = false;
  /// Directory for the run's files (inputs, outputs, daemon socket).
  std::string workDir = ".";
  /// The `crp` CLI that serve-mixed starts as its daemon.
  std::string crpBinary;
};

struct RunResult {
  /// Reasons the outputs were wrong; empty when every check passed.
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;
  /// End-to-end metrics by name (units are fixed in run.py).
  std::map<std::string, double> metrics;
  /// Raw sample count behind each percentile metric.
  std::map<std::string, int> samples;
  /// The workload's make-up (sizes, knobs, thread counts).
  std::map<std::string, std::string> config;
};

RunResult runWorkload(const RunOptions& options, Recorder& recorder);

/// The workload names runWorkload accepts.
const std::vector<std::string>& workloadNames();

}  // namespace crp::perfbench
