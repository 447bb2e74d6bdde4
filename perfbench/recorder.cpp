#include "recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

namespace crp::perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// Index of the innermost open span on this thread (-1 at top level).
thread_local int tlOpenSpan = -1;

std::uint64_t threadKey() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

double nowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

Recorder::Recorder(bool enabled, std::string runId)
    : enabled_(enabled), runId_(std::move(runId)) {}

Recorder::Span::Span(Recorder& recorder, const char* name, int op)
    : recorder_(recorder) {
  if (recorder_.enabled_) index_ = recorder_.open(name, op);
}

Recorder::Span::~Span() {
  if (index_ >= 0) recorder_.close(index_);
}

int Recorder::open(const char* name, int op) {
  SpanRecord record;
  record.name = name;
  record.start = nowSeconds();
  record.parent = tlOpenSpan;
  record.op = op;
  record.thread = threadKey();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
  tlOpenSpan = static_cast<int>(spans_.size()) - 1;
  return tlOpenSpan;
}

void Recorder::close(int index) {
  const double end = nowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end = end;
  tlOpenSpan = spans_[index].parent;
}

void Recorder::addSpan(const char* name, int op, double start, double end) {
  if (!enabled_) return;
  SpanRecord record;
  record.name = name;
  record.start = start;
  record.end = end;
  record.parent = tlOpenSpan;
  record.op = op;
  record.thread = threadKey();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

void Recorder::count(const std::string& name, int op, double value) {
  if (!enabled_) return;
  const double at = nowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.push_back(CounterRecord{name, op, value, at});
}

bool Recorder::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::Json events = obs::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    obs::Json event = obs::Json::object();
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("ts", span.start * 1e6);
    event.set("dur", (span.end - span.start) * 1e6);
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(span.thread));
    obs::Json args = obs::Json::object();
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", span.parent);
    args.set("op", span.op);
    args.set("run", runId_);
    event.set("args", std::move(args));
    events.append(std::move(event));
  }
  for (const CounterRecord& counter : counters_) {
    obs::Json event = obs::Json::object();
    event.set("name", counter.name);
    event.set("ph", "C");
    event.set("ts", counter.at * 1e6);
    event.set("pid", 1);
    obs::Json args = obs::Json::object();
    args.set("value", counter.value);
    args.set("op", counter.op);
    args.set("run", runId_);
    event.set("args", std::move(args));
    events.append(std::move(event));
  }
  obs::Json doc = obs::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  obs::Json meta = obs::Json::object();
  meta.set("run", runId_);
  doc.set("metadata", std::move(meta));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

double nearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n - 1e-9)));
  return samples[std::min(rank, samples.size()) - 1];
}

double procStatusField(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream values(line.substr(key.size()));
    double value = 0.0;
    values >> value;
    return value;
  }
  return 0.0;
}

double peakRssMb(const std::string& pid) {
  return procStatusField(pid, "VmHWM") / 1024.0;
}

}  // namespace crp::perfbench
