// perfbench: runs one benchmark workload and prints its result as one
// JSON line (the last line of standard output).  run.py builds this
// binary, drives it, and turns the line into the benchmark's result.
//
//   perfbench --workload NAME --seed N --seconds S --crp PATH
//             [--work-dir DIR] [--trace-out FILE] [--small 1]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "obs/json.hpp"
#include "recorder.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace crp;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument " << key << "\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--crp PATH [--work-dir DIR] [--trace-out FILE] "
                 "[--small 1]\n";
    return 2;
  }
  auto get = [&](const char* key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  perfbench::RunOptions options;
  options.workload = args["workload"];
  options.seed = std::stoull(get("seed", "1"));
  options.seconds = std::stod(get("seconds", "10"));
  options.small = get("small", "0") == "1";
  options.workDir = get("work-dir", ".");
  options.crpBinary = get("crp", "crp");
  const std::string traceOut = get("trace-out", "");
  std::filesystem::create_directories(options.workDir);

  perfbench::Recorder recorder(
      !traceOut.empty(),
      options.workload + "-seed" + std::to_string(options.seed));
  perfbench::RunResult result;
  try {
    result = perfbench::runWorkload(options, recorder);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  if (!traceOut.empty() && !recorder.writeChromeTrace(traceOut)) {
    std::cerr << "perfbench: cannot write " << traceOut << "\n";
    return 1;
  }

  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: CHECK FAILED: " << error << "\n";
  }
  obs::Json line = obs::Json::object();
  line.set("correct", result.errors.empty());
  line.set("attempted", result.attempted);
  line.set("failed", result.failed);
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, value] : result.metrics) metrics.set(name, value);
  line.set("metrics", std::move(metrics));
  obs::Json samples = obs::Json::object();
  for (const auto& [name, count] : result.samples) samples.set(name, count);
  line.set("samples", std::move(samples));
  obs::Json config = obs::Json::object();
  for (const auto& [name, value] : result.config) config.set(name, value);
  line.set("config", std::move(config));
  obs::Json errors = obs::Json::array();
  for (const std::string& error : result.errors) errors.append(error);
  line.set("errors", std::move(errors));
  std::cout << line.dump() << std::endl;
  return 0;
}
