// Benchmark-side tracing and sample statistics.
//
// The Recorder keeps spans the benchmark opens around its calls into
// the program's layers (name, start, end, parent span, operation index,
// run id) plus per-operation counter values, all in memory, and writes
// them as one Chrome trace_event file when the run ends.  run.py derives
// the per-layer metrics from that file.  With tracing off every call is
// a branch on a bool, so untraced runs measure the program alone.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace crp::perfbench {

/// Seconds on the steady clock since the process started.
double nowSeconds();

class Recorder {
 public:
  Recorder(bool enabled, std::string runId);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nests under the thread's open
  /// span.  `op` is the workload operation the span belongs to (-1 for
  /// set-up and checks).
  class Span {
   public:
    Span(Recorder& recorder, const char* name, int op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder& recorder_;
    int index_ = -1;
  };

  /// Records a finished span whose bounds were measured elsewhere (for
  /// intervals delimited by a program callback).
  void addSpan(const char* name, int op, double start, double end);

  /// Records the value of a per-operation counter.
  void count(const std::string& name, int op, double value);

  /// Writes the Chrome trace; returns false when the file cannot be
  /// written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
    std::uint64_t thread = 0;
  };
  struct CounterRecord {
    std::string name;
    int op = -1;
    double value = 0.0;
    double at = 0.0;
  };

  int open(const char* name, int op);
  void close(int index);

  bool enabled_ = false;
  std::string runId_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<CounterRecord> counters_;
};

/// Nearest-rank percentile over raw samples: the smallest sample with at
/// least q of the samples at or below it.  Never interpolates, so the
/// result is always one of the samples.  Empty input gives 0.
double nearestRank(std::vector<double> samples, double q);

/// Peak resident set size of a process in MB, read from VmHWM in
/// /proc/<pid>/status ("self" for this process); 0 when unreadable.
double peakRssMb(const std::string& pid = "self");

/// A numeric field ("VmSize", "Threads", ...) of /proc/<pid>/status.
double procStatusField(const std::string& pid, const std::string& field);

}  // namespace crp::perfbench
