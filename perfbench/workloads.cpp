#include "workloads.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bmgen/generator.hpp"
#include "bmgen/perturb.hpp"
#include "check/audit.hpp"
#include "checks.hpp"
#include "crp/framework.hpp"
#include "db/eco.hpp"
#include "droute/detailed_router.hpp"
#include "eval/evaluator.hpp"
#include "groute/global_router.hpp"
#include "lefdef/def_parser.hpp"
#include "lefdef/def_writer.hpp"
#include "lefdef/guide_io.hpp"
#include "lefdef/lef_parser.hpp"
#include "lefdef/lef_writer.hpp"
#include "obs/context.hpp"
#include "obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/thread_pool.hpp"

namespace crp::perfbench {

namespace {

/// Worker threads of every in-process flow: one pool shared by the
/// router and the framework, whose caller also works (3 busy threads).
constexpr int kThreads = 2;
/// serve-mixed: daemon pool workers and client connections (4 in all).
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 2;

using Clock = std::chrono::steady_clock;

std::string str(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// Per-operation deltas of the program's own obs counters and RunReport
/// totals; only taken in traced runs (observability stays off in
/// untraced runs so they measure the program as shipped).
class LayerProbe {
 public:
  LayerProbe(Recorder& recorder, core::CrpFramework* framework)
      : recorder_(recorder), framework_(framework) {
    if (!recorder_.enabled()) return;
    before_ = obs::ObsContext::defaultContext().metrics().snapshot();
    if (framework_ != nullptr) report_ = framework_->runReport();
  }

  void setFramework(core::CrpFramework* framework) {
    framework_ = framework;
    if (recorder_.enabled() && framework_ != nullptr) {
      report_ = framework_->runReport();
    }
  }

  /// Records the operation's counters under their per-layer names.
  void record(int op) {
    if (!recorder_.enabled()) return;
    const obs::MetricsSnapshot delta =
        obs::ObsContext::defaultContext().metrics().snapshot().deltaSince(
            before_);
    auto counter = [&](const char* name) -> double {
      const auto it = delta.counters.find(name);
      return it == delta.counters.end() ? 0.0
                                        : static_cast<double>(it->second);
    };
    recorder_.count("groute.initial_nets", op, counter("gr.initial_nets"));
    recorder_.count("groute.rrr_victims", op, counter("gr.rrr_victims"));
    recorder_.count("groute.reroutes", op, counter("gr.reroutes"));
    const double batches = counter("gr.par.batches");
    recorder_.count("groute.par.batches", op, batches);
    recorder_.count("groute.par.mean_batch_nets", op,
                    batches > 0 ? counter("gr.par.nets") / batches : 0.0);
    recorder_.count("groute.par.conflicts", op, counter("gr.par.conflicts"));
    recorder_.count("legalizer.windows", op, counter("legalizer.windows"));
    recorder_.count("legalizer.candidates", op,
                    counter("legalizer.candidates"));
    recorder_.count("ilp.solves", op, counter("ilp.solves"));
    recorder_.count("ilp.pivots", op, counter("ilp.pivots"));
    recorder_.count("crp.critical_cells", op, counter("crp.critical_cells"));
    recorder_.count("crp.moves", op, counter("crp.moves"));
    recorder_.count("crp.reroutes", op, counter("crp.reroutes"));
    if (framework_ == nullptr) return;
    const obs::RunReport& now = framework_->runReport();
    for (const char* phase : core::kPhases) {
      recorder_.count(std::string("crp.phase.") + phase + "_s", op,
                      now.phaseSeconds(phase) - report_.phaseSeconds(phase));
    }
    const auto hits = now.pricing.cacheHits - report_.pricing.cacheHits;
    const auto skips = now.pricing.deltaSkips - report_.pricing.deltaSkips;
    const auto priced = now.pricing.netsPriced() - report_.pricing.netsPriced();
    recorder_.count("pricing.nets_priced", op, static_cast<double>(priced));
    recorder_.count("pricing.reuse_ratio", op,
                    priced > 0 ? static_cast<double>(hits + skips) /
                                     static_cast<double>(priced)
                               : 0.0);
  }

 private:
  Recorder& recorder_;
  core::CrpFramework* framework_ = nullptr;
  obs::MetricsSnapshot before_;
  obs::RunReport report_;
};

/// Turns the framework's per-iteration callback into crp.iteration
/// spans (traced runs only).
void traceIterations(Recorder& recorder, core::CrpFramework& framework,
                     int op) {
  if (!recorder.enabled()) return;
  auto start = std::make_shared<double>(nowSeconds());
  framework.setIterationCallback(
      [&recorder, op, start](int, const core::IterationReport&) {
        const double now = nowSeconds();
        recorder.addSpan("crp.iteration", op, *start, now);
        *start = now;
      });
}

void recordRouterQor(Recorder& recorder, int op,
                     const groute::GlobalRouteStats& stats) {
  recorder.count("groute.overflow", op, stats.totalOverflow);
  recorder.count("groute.overflowed_edges", op, stats.overflowedEdges);
}

groute::GlobalRouterOptions routerOptions(util::ThreadPool* pool) {
  groute::GlobalRouterOptions options;
  options.routerThreads = pool != nullptr ? kThreads : 1;
  options.sharedPool = pool;
  return options;
}

core::CrpOptions crpOptions(int k, util::ThreadPool* pool) {
  core::CrpOptions options;
  options.iterations = k;
  options.threads = pool != nullptr ? kThreads : 1;
  options.routerThreads = pool != nullptr ? kThreads : 1;
  options.sharedPool = pool;
  return options;
}

double medianMs(const std::vector<double>& seconds) {
  return nearestRank(seconds, 0.5) * 1e3;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// ---------------------------------------------------------------------
// paper-flow and gr-scale: whole flows, one design per operation.

struct FlowSpec {
  bmgen::BenchmarkSpec design;  ///< seed filled in per design
  /// Distinct designs per run, drawn from the run's seed; operations
  /// cycle through them in whole rounds.
  int designs = 1;
  int k = 10;
  bool fromFiles = false;  ///< parse LEF/DEF (paper-flow) or copy the db
  bool detailedRoute = false;
  bool threadParityCheck = false;
};

/// One design of the run: its generated database and file names.
struct FlowInput {
  db::Database db;
  std::string lefPath, defPath, outDef, outGuide;
  double hpwl = 0.0;  ///< HPWL of the input placement (QoR reference)
};

struct FlowOutcome {
  double seconds = 0.0;
  groute::GlobalRouteStats gr;
  droute::DetailedRouteStats dr;
};

db::Database loadInput(const FlowSpec& flow, const FlowInput& input) {
  if (!flow.fromFiles) return input.db;
  auto [tech, lib] = lefdef::parseLefFile(input.lefPath);
  db::Design design = lefdef::parseDefFile(input.defPath, tech, lib);
  return db::Database(std::move(tech), std::move(lib), std::move(design));
}

/// GR + CR&P at one router/framework thread, for the determinism check.
std::uint64_t serialFingerprint(const FlowSpec& flow, const FlowInput& input) {
  db::Database db = loadInput(flow, input);
  groute::GlobalRouter router(db, routerOptions(nullptr));
  router.run();
  core::CrpFramework framework(db, router, crpOptions(flow.k, nullptr));
  framework.run();
  return check::flowFingerprint(db, router);
}

/// One flow: [parse] -> GR -> CR&P -> [DR -> evaluate] -> write.  The
/// timed part ends with the written outputs; the checks run after it.
FlowOutcome runFlowOp(const FlowSpec& flow, const FlowInput& input, int op,
                      bool check, util::ThreadPool& pool, Recorder& recorder,
                      std::vector<std::string>& errors) {
  FlowOutcome out;
  std::optional<db::Database> db;
  if (!flow.fromFiles) db.emplace(input.db);  // untimed copy of the input
  LayerProbe probe(recorder, nullptr);
  const auto t0 = Clock::now();
  std::optional<groute::GlobalRouter> router;
  std::optional<core::CrpFramework> framework;
  {
    Recorder::Span span(recorder, "op", op);
    if (flow.fromFiles) {
      Recorder::Span parse(recorder, "lefdef.parse", op);
      db.emplace(loadInput(flow, input));
    }
    {
      Recorder::Span gr(recorder, "groute.run", op);
      router.emplace(*db, routerOptions(&pool));
      router->run();
    }
    {
      Recorder::Span crp(recorder, "crp.run", op);
      framework.emplace(*db, *router, crpOptions(flow.k, &pool));
      probe.setFramework(&*framework);
      traceIterations(recorder, *framework, op);
      framework->run();
    }
    std::vector<lefdef::NetGuide> guides = router->buildGuides();
    if (flow.detailedRoute) {
      {
        Recorder::Span dr(recorder, "droute.run", op);
        droute::DetailedRouter detailed(*db, guides);
        out.dr = detailed.run();
      }
      Recorder::Span evaluate(recorder, "eval.score", op);
      const eval::Metrics metrics = eval::collectMetrics(out.dr);
      if (eval::score(metrics, *db) <= 0.0) errors.push_back("score <= 0");
    }
    Recorder::Span write(recorder, "lefdef.write", op);
    lefdef::writeDefFile(input.outDef, *db);
    lefdef::writeGuidesFile(input.outGuide, *db, guides);
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.gr = router->stats();

  probe.record(op);
  recordRouterQor(recorder, op, out.gr);
  if (flow.detailedRoute) {
    recorder.count("droute.drvs", op, out.dr.totalDrvs());
    recorder.count("droute.open_nets", op, out.dr.openNets);
    recorder.count("droute.min_area_patches", op,
                   static_cast<double>(out.dr.minAreaPatches));
  }

  if (check) {
    Recorder::Span span(recorder, "check.flow", -1);
    if (std::string why = checkGlobalRouting(*db, *router); !why.empty()) {
      errors.push_back(why);
    }
    if (flow.detailedRoute) {
      if (std::string why = checkDetailedRouting(out.dr); !why.empty()) {
        errors.push_back(why);
      }
    }
    if (flow.threadParityCheck && op == 0 &&
        check::flowFingerprint(*db, *router) !=
            serialFingerprint(flow, input)) {
      errors.push_back("GR + CR&P fingerprint at " +
                       std::to_string(kThreads) +
                       " threads differs from the 1-thread rerun");
    }
  }
  return out;
}

RunResult runFlowWorkload(const RunOptions& options, const FlowSpec& flow,
                          Recorder& recorder) {
  RunResult result;
  std::vector<FlowInput> inputs;
  double nets = 0.0;
  for (int d = 0; d < flow.designs; ++d) {
    bmgen::BenchmarkSpec spec = flow.design;
    spec.seed = options.seed * 1000 + static_cast<std::uint64_t>(d);
    spec.name += "_" + std::to_string(d);
    const std::string base = options.workDir + "/" + spec.name;
    FlowInput input{[&] {
                      Recorder::Span span(recorder, "bmgen.generate", -1);
                      return bmgen::generateBenchmark(spec);
                    }(),
                    base + ".lef", base + ".def", base + ".out.def",
                    base + ".out.guide", 0.0};
    input.hpwl = static_cast<double>(input.db.totalHpwl());
    nets += input.db.numNets();
    {
      Recorder::Span span(recorder, "lefdef.write_input", -1);
      lefdef::writeLefFile(input.lefPath, input.db.tech(),
                           input.db.library());
      lefdef::writeDefFile(input.defPath, input.db);
    }
    inputs.push_back(std::move(input));
  }
  util::ThreadPool pool(kThreads);
  result.metrics["setup_s"] = nowSeconds();

  std::vector<double> seconds;
  std::vector<FlowOutcome> firstRound;
  const auto windowStart = Clock::now();
  for (int op = 0;; ++op) {
    const int d = op % flow.designs;
    ++result.attempted;
    const FlowOutcome out = runFlowOp(flow, inputs[d], op, op < flow.designs,
                                      pool, recorder, result.errors);
    seconds.push_back(out.seconds);
    if (op < flow.designs) {
      firstRound.push_back(out);
    } else if (out.gr.wirelengthDbu != firstRound[d].gr.wirelengthDbu ||
               out.gr.vias != firstRound[d].gr.vias ||
               out.dr.wirelengthDbu != firstRound[d].dr.wirelengthDbu ||
               out.dr.viaCount != firstRound[d].dr.viaCount) {
      result.errors.push_back("flow " + std::to_string(op) +
                              " QoR differs from the first flow of its design");
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - windowStart).count();
    if (d + 1 == flow.designs && elapsed >= options.seconds) break;
  }

  double hpwl = 0.0, grWl = 0.0, grVias = 0.0, drWl = 0.0, drVias = 0.0;
  double overflow = 0.0, drvs = 0.0;
  for (int d = 0; d < flow.designs; ++d) {
    hpwl += inputs[d].hpwl;
    grWl += static_cast<double>(firstRound[d].gr.wirelengthDbu);
    grVias += static_cast<double>(firstRound[d].gr.vias);
    drWl += static_cast<double>(firstRound[d].dr.wirelengthDbu);
    drVias += static_cast<double>(firstRound[d].dr.viaCount);
    overflow += firstRound[d].gr.totalOverflow;
    drvs += firstRound[d].dr.totalDrvs();
  }
  result.metrics["op_p50_ms"] = medianMs(seconds);
  result.metrics["ops_per_s"] = seconds.size() / sum(seconds);
  result.samples["op_p50_ms"] = static_cast<int>(seconds.size());
  result.metrics["peak_rss_mb"] = peakRssMb();
  result.metrics["gr_wirelength_per_hpwl"] = grWl / hpwl;
  result.metrics["gr_vias_per_net"] = grVias / nets;
  result.metrics["wirelength_per_hpwl"] =
      (flow.detailedRoute ? drWl : grWl) / hpwl;
  result.metrics["vias_per_net"] = (flow.detailedRoute ? drVias : grVias) / nets;
  result.config["gr_wirelength_dbu"] = str(grWl);
  result.config["gr_vias"] = str(grVias);
  result.config["gr_total_overflow"] = str(overflow);
  if (flow.detailedRoute) {
    result.config["dr_wirelength_dbu"] = str(drWl);
    result.config["dr_vias"] = str(drVias);
    result.config["dr_drvs"] = str(drvs);
  }
  result.config["input_hpwl_dbu"] = str(hpwl);
  result.config["designs"] = str(flow.designs);
  result.config["cells_per_design"] = str(inputs.front().db.numCells());
  result.config["nets"] = str(nets);
  result.config["k"] = str(flow.k);
  result.config["threads"] = str(kThreads);
  result.config["locality_bias"] = str(flow.design.localityBias);
  result.config["hotspots"] = str(flow.design.hotspots);
  result.config["macros"] = str(flow.design.macroCount);
  result.config["multi_row_frac"] = str(flow.design.multiRowFrac);
  return result;
}

RunResult runPaperFlow(const RunOptions& options, Recorder& recorder) {
  FlowSpec flow;
  flow.design.name = "paper_flow";
  flow.design.targetCells = options.small ? 400 : 1500;
  flow.design.localityBias = 0.95;
  flow.design.hotspots = 1;
  flow.design.refinePlacement = true;
  flow.designs = options.small ? 2 : 16;
  flow.k = options.small ? 2 : 10;
  flow.fromFiles = true;
  flow.detailedRoute = true;
  flow.threadParityCheck = true;
  return runFlowWorkload(options, flow, recorder);
}

RunResult runGrScale(const RunOptions& options, Recorder& recorder) {
  FlowSpec flow;
  flow.design.name = "gr_scale";
  flow.design.targetCells = options.small ? 1500 : 20000;
  flow.design.utilization = 0.75;
  flow.design.localityBias = 0.97;
  flow.design.hotspots = 2;
  flow.design.macroCount = options.small ? 2 : 12;
  flow.design.multiRowFrac = 0.1;
  flow.k = options.small ? 1 : 3;
  return runFlowWorkload(options, flow, recorder);
}

// ---------------------------------------------------------------------
// eco-stream: runs of small clustered deltas on routed designs.

/// One routed, CR&P-optimized design and the framework its ECOs go
/// through.
struct EcoDesign {
  db::Database db;
  double hpwl = 0.0;  ///< of the generated input (QoR reference)
  std::unique_ptr<groute::GlobalRouter> router = nullptr;
  std::unique_ptr<core::CrpFramework> framework = nullptr;
  groute::GlobalRouteStats qor = {};  ///< after `qorAfter` ECOs
};

RunResult runEcoStream(const RunOptions& options, Recorder& recorder) {
  RunResult result;
  const int designs = options.small ? 2 : 4;
  const int baseK = options.small ? 1 : 10;
  const double frac = 0.005;
  // GR QoR is read after this many ECOs on each design, and every run
  // applies at least as many, so it does not depend on the run's length.
  const int qorAfter = options.small ? 3 : 25;
  bmgen::BenchmarkSpec spec;
  spec.targetCells = options.small ? 800 : 3000;
  spec.localityBias = 0.95;

  util::ThreadPool pool(kThreads);
  std::vector<EcoDesign> streams;
  double nets = 0.0;
  for (int d = 0; d < designs; ++d) {
    spec.name = "eco_stream_" + std::to_string(d);
    spec.seed = options.seed * 1000 + static_cast<std::uint64_t>(d);
    EcoDesign& design = streams.emplace_back(EcoDesign{[&] {
      Recorder::Span span(recorder, "bmgen.generate", -1);
      return bmgen::generateBenchmark(spec);
    }()});
    design.hpwl = static_cast<double>(design.db.totalHpwl());
    nets += design.db.numNets();
  }
  for (EcoDesign& design : streams) {  // `streams` no longer reallocates
    design.router = std::make_unique<groute::GlobalRouter>(
        design.db, routerOptions(&pool));
    {
      Recorder::Span span(recorder, "groute.run", -1);
      design.router->run();
    }
    design.framework = std::make_unique<core::CrpFramework>(
        design.db, *design.router, crpOptions(baseK, &pool));
    Recorder::Span span(recorder, "crp.run", -1);
    design.framework->run();
  }
  result.metrics["setup_s"] = nowSeconds();

  core::EcoOptions eco;
  eco.iterations = 1;
  std::vector<double> seconds;
  const auto windowStart = Clock::now();
  for (int op = 0;; ++op) {
    EcoDesign& design = streams[op % designs];
    db::EcoDelta delta;
    {
      Recorder::Span span(recorder, "bmgen.perturb", op);
      bmgen::PerturbOptions perturb;
      perturb.frac = frac;
      perturb.seed = options.seed * 1000003ULL + static_cast<unsigned>(op);
      delta = bmgen::perturbDesign(design.db, perturb);
    }
    ++result.attempted;
    LayerProbe probe(recorder, design.framework.get());
    traceIterations(recorder, *design.framework, op);
    core::EcoReport report;
    const auto t0 = Clock::now();
    bool applied = true;
    try {
      Recorder::Span span(recorder, "op", op);
      Recorder::Span run(recorder, "eco.run", op);
      report = design.framework->runEco(delta, eco);
    } catch (const std::exception& error) {
      // runEco leaves the design untouched when it throws.
      ++result.failed;
      result.config["eco_failure"] = error.what();
      applied = false;
    }
    const int round = op / designs + 1;
    if (applied) {
      seconds.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      probe.record(op);
      recorder.count("eco.patch_s", op, report.patchSeconds);
      recorder.count("eco.dirty_nets", op, report.dirtyNets);
      recorder.count("eco.scope_cells", op, report.scopeCells);
      recorder.count("eco.cache_evictions", op,
                     static_cast<double>(report.cacheEvictions));
      recorder.count("eco.failed_reroutes", op, report.failedReroutes);
    }
    if (round == qorAfter) {
      design.qor = design.router->stats();
      recordRouterQor(recorder, op, design.qor);
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - windowStart).count();
    if ((op + 1) % designs == 0 && round >= qorAfter &&
        elapsed >= options.seconds) {
      break;
    }
  }

  double hpwl = 0.0, wirelength = 0.0, vias = 0.0, overflow = 0.0;
  {
    Recorder::Span span(recorder, "check.eco", -1);
    for (const EcoDesign& design : streams) {
      if (std::string why = checkGlobalRouting(design.db, *design.router);
          !why.empty()) {
        result.errors.push_back(why);
      }
      hpwl += design.hpwl;
      wirelength += static_cast<double>(design.qor.wirelengthDbu);
      vias += static_cast<double>(design.qor.vias);
      overflow += design.qor.totalOverflow;
    }
  }

  result.metrics["op_p50_ms"] = medianMs(seconds);
  result.metrics["ops_per_s"] = seconds.size() / sum(seconds);
  result.samples["op_p50_ms"] = static_cast<int>(seconds.size());
  result.metrics["peak_rss_mb"] = peakRssMb();
  result.metrics["gr_wirelength_per_hpwl"] = wirelength / hpwl;
  result.metrics["gr_vias_per_net"] = vias / nets;
  result.metrics["wirelength_per_hpwl"] = wirelength / hpwl;
  result.metrics["vias_per_net"] = vias / nets;
  result.config["gr_wirelength_dbu"] = str(wirelength);
  result.config["gr_vias"] = str(vias);
  result.config["gr_total_overflow"] = str(overflow);
  result.config["input_hpwl_dbu"] = str(hpwl);
  result.config["designs"] = str(designs);
  result.config["cells_per_design"] = str(streams.front().db.numCells());
  result.config["base_k"] = str(baseK);
  result.config["eco_k"] = str(eco.iterations);
  result.config["delta_frac"] = str(frac);
  result.config["qor_after_ecos_per_design"] = str(qorAfter);
  result.config["threads"] = str(kThreads);
  return result;
}

// ---------------------------------------------------------------------
// serve-mixed: closed-loop clients against a `crp serve` daemon.

/// The daemon child process; the destructor stops and reaps it on any
/// path that did not shut it down cleanly.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::string& log) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      const std::string workers = std::to_string(kServeWorkers);
      ::execl(binary.c_str(), binary.c_str(), "serve", "--socket",
              socket.c_str(), "--workers", workers.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 100 && !tryReap(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Waits up to `timeoutSeconds` for the daemon to exit; returns its
  /// exit code, or -1 if it is still running or died by a signal.
  int wait(double timeoutSeconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeoutSeconds);
    while (Clock::now() < deadline) {
      if (tryReap()) return exitCode_;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

 private:
  bool tryReap() {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done != pid_) return false;
    exitCode_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    pid_ = -1;
    return true;
  }

  pid_t pid_ = -1;
  int exitCode_ = -1;
};

obs::Json request(const char* op, std::uint64_t session = 0) {
  obs::Json json = obs::Json::object();
  json.set("op", op);
  if (session != 0) json.set("session", static_cast<std::int64_t>(session));
  return json;
}

/// The final frame of a reply; throws on an error frame.
obs::Json finalFrame(const std::vector<obs::Json>& frames, const char* op) {
  if (frames.empty()) throw std::runtime_error(std::string(op) + ": no reply");
  const obs::Json& last = frames.back();
  const obs::Json* ok = last.find("ok");
  if (ok == nullptr || !ok->asBool()) {
    const obs::Json* error = last.find("error");
    throw std::runtime_error(std::string(op) + ": " +
                             (error != nullptr ? error->asString()
                                               : last.dump()));
  }
  return last;
}

struct ChainSpec {
  int cells = 600;
  std::uint64_t seed = 1;
  int k = 2;
  double perturbFrac = 0.02;
};

obs::Json bmgenParams(const ChainSpec& chain, std::uint64_t session) {
  obs::Json json = request("bmgen", session);
  json.set("name", "serve_chain_" + std::to_string(chain.seed));
  json.set("cells", chain.cells);
  json.set("localityBias", 0.9);
  json.set("hotspots", 1);
  json.set("seed", static_cast<std::int64_t>(chain.seed));
  return json;
}

obs::Json runParams(const ChainSpec& chain, std::uint64_t session) {
  obs::Json json = request("run", session);
  json.set("k", chain.k);
  json.set("seed", static_cast<std::int64_t>(chain.seed));
  obs::Json perturb = obs::Json::object();
  perturb.set("seed", static_cast<std::int64_t>(chain.seed));
  perturb.set("frac", chain.perturbFrac);
  json.set("perturb", std::move(perturb));
  return json;
}

obs::Json ecoParams(const obs::Json& delta, std::uint64_t session) {
  obs::Json json = request("eco", session);
  json.set("delta", delta);
  json.set("k", 1);
  return json;
}

/// Final-frame fingerprints of one chain, and its GR QoR.
struct ChainPrints {
  obs::Json run, eco, report;
  double wirelength = 0.0;
  double vias = 0.0;
  double hpwl = 0.0;  ///< of the generated design (QoR reference)
  double nets = 0.0;
};

/// The chain run in-process through the library's job functions.
ChainPrints chainInProcess(const ChainSpec& chain, util::ThreadPool& pool) {
  serve::SessionManager manager;
  std::shared_ptr<serve::Session> session = manager.open("ref", pool);
  serve::runBmgenJob(*session, bmgenParams(chain, 0));
  const double hpwl = static_cast<double>(session->db->totalHpwl());
  const double nets = session->db->numNets();
  const obs::Json run = serve::runRunJob(*session, runParams(chain, 0), {});
  const obs::Json eco = serve::runEcoJob(
      *session, ecoParams(*run.find("ecoDelta"), 0), {});
  const obs::Json report = serve::runReportJob(*session);
  ChainPrints prints;
  prints.run = *run.find("fingerprint");
  prints.eco = *eco.find("fingerprint");
  prints.report = *report.find("fingerprint");
  prints.hpwl = hpwl;
  prints.nets = nets;
  return prints;
}

/// GR wirelength and vias from a report frame's RunReport.
void readRouterQor(const obs::Json& reportFrame, ChainPrints& prints) {
  const obs::Json* report = reportFrame.find("report");
  const obs::Json* router = report != nullptr ? report->find("router") : nullptr;
  if (router == nullptr) return;
  if (const obs::Json* wl = router->find("wirelengthDbu")) {
    prints.wirelength = wl->asDouble();
  }
  if (const obs::Json* vias = router->find("vias")) {
    prints.vias = vias->asDouble();
  }
}

struct ClientLog {
  std::map<std::string, std::vector<double>> latency;  ///< seconds, per op
  std::vector<double> chainSeconds;
  /// Every completed chain: its spec index and final-frame prints.
  std::vector<std::pair<int, ChainPrints>> chains;
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;
  double maxConnections = 0.0;  ///< as the daemon's stats op reported
};

RunResult runServeMixed(const RunOptions& options, Recorder& recorder) {
  RunResult result;
  // Distinct chains per client; clients cycle through them, so every
  // completed chain can be compared against one in-process rerun.
  const int chainsPerClient = options.small ? 2 : 6;
  std::vector<ChainSpec> specs;
  for (int c = 0; c < kServeClients; ++c) {
    for (int j = 0; j < chainsPerClient; ++j) {
      ChainSpec chain;
      chain.cells = options.small ? 150 : 600;
      chain.seed = options.seed * 101 + static_cast<std::uint64_t>(
                                             c * chainsPerClient + j);
      specs.push_back(chain);
    }
  }

  // The expected final frames: each chain run in-process through the
  // library's job functions, before the daemon starts.
  std::vector<ChainPrints> expected;
  {
    Recorder::Span span(recorder, "serve.expected", -1);
    util::ThreadPool pool(kServeWorkers);
    for (const ChainSpec& chain : specs) {
      expected.push_back(chainInProcess(chain, pool));
    }
  }

  const std::string socket = options.workDir + "/serve.sock";
  std::filesystem::remove(socket);
  std::optional<Daemon> daemon;
  {
    Recorder::Span span(recorder, "serve.start", -1);
    daemon.emplace(options.crpBinary, socket, options.workDir + "/serve.log");
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      try {
        serve::Client hello(socket);
        finalFrame(hello.call(request("hello")), "hello");
        break;
      } catch (const std::exception&) {
        if (Clock::now() > deadline || daemon->wait(0.0) >= 0) {
          throw std::runtime_error("crp serve did not answer hello");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  result.metrics["setup_s"] = nowSeconds();
  const std::string pid = std::to_string(daemon->pid());

  // The daemon's peak RSS is read once this many chains have completed,
  // so it describes a fixed amount of work whatever the host's speed.
  const int rssAfterChains = options.small ? 4 : 120;
  std::atomic<int> completedChains{0};
  std::atomic<double> daemonRss{0.0};

  std::vector<ClientLog> logs(kServeClients);
  std::atomic<int> nextOp{0};
  const auto windowStart = Clock::now();
  auto client = [&](int index) {
    ClientLog& log = logs[index];
    try {
      serve::Client connection(socket);
      auto timed = [&](const char* op, const obs::Json& req, int opIndex) {
        Recorder::Span span(recorder, op, opIndex);
        const auto t0 = Clock::now();
        obs::Json frame = finalFrame(connection.call(req), op);
        log.latency[op].push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        return frame;
      };
      const obs::Json opened =
          finalFrame(connection.call(request("open_session")), "open_session");
      const auto session =
          static_cast<std::uint64_t>(opened.find("session")->asInt());
      for (int j = 0;; ++j) {
        const int specIndex = index * chainsPerClient + j % chainsPerClient;
        const ChainSpec& chain = specs[specIndex];
        const int op = nextOp.fetch_add(1);
        ++log.attempted;
        try {
          Recorder::Span span(recorder, "op", op);
          const auto t0 = Clock::now();
          timed("serve.bmgen", bmgenParams(chain, session), op);
          const obs::Json run = timed("serve.run", runParams(chain, session), op);
          const obs::Json eco = timed(
              "serve.eco", ecoParams(*run.find("ecoDelta"), session), op);
          const obs::Json report =
              timed("serve.report", request("report", session), op);
          log.chainSeconds.push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          if (completedChains.fetch_add(1) + 1 == rssAfterChains) {
            daemonRss = peakRssMb(pid);
          }
          // A light read while the other client is mid-job.
          const obs::Json stats = timed("serve.stats", request("stats"), op);
          if (const obs::Json* c = stats.find("connections")) {
            log.maxConnections = std::max(log.maxConnections, c->asDouble());
          }
          ChainPrints prints;
          prints.run = *run.find("fingerprint");
          prints.eco = *eco.find("fingerprint");
          prints.report = *report.find("fingerprint");
          readRouterQor(report, prints);
          log.chains.emplace_back(specIndex, std::move(prints));
        } catch (const std::exception& error) {
          // A failed request ends this client: the daemon may be gone.
          ++log.failed;
          log.errors.push_back(error.what());
          break;
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - windowStart).count();
        if (j + 1 >= chainsPerClient && completedChains >= rssAfterChains &&
            elapsed >= options.seconds) {
          break;
        }
      }
      finalFrame(connection.call(request("close_session", session)),
                 "close_session");
    } catch (const std::exception& error) {
      log.errors.push_back(std::string("client: ") + error.what());
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  const double window =
      std::chrono::duration<double>(Clock::now() - windowStart).count();

  // Daemon state after the load, then a clean shutdown.
  {
    serve::Client control(socket);
    double connections = 0.0;
    for (const ClientLog& log : logs) {
      connections = std::max(connections, log.maxConnections);
    }
    const int counterOp = nextOp.load();
    recorder.count("serve.connections", counterOp, connections);
    recorder.count("serve.daemon_threads", counterOp,
                   procStatusField(pid, "Threads"));
    recorder.count("serve.daemon_vmsize_mb", counterOp,
                   procStatusField(pid, "VmSize") / 1024.0);
    if (daemonRss.load() == 0.0) {
      result.errors.push_back("fewer than " + std::to_string(rssAfterChains) +
                              " chains completed");
    }
    result.metrics["peak_rss_mb"] = daemonRss.load();
    result.config["daemon_peak_rss_mb_at_end"] = str(peakRssMb(pid));
    control.call(request("shutdown"));
  }
  const int exitCode = daemon->wait(30.0);
  if (exitCode != 0) {
    result.errors.push_back("crp serve exited with " +
                            std::to_string(exitCode));
  }
  daemon.reset();  // reaps (or kills and reaps) the child
  if (::kill(std::stoi(pid), 0) == 0) {
    result.errors.push_back("crp serve still running after shutdown");
  }

  // Every final frame against the same chain run in-process.
  std::vector<double> chainSeconds;
  std::map<std::string, std::vector<double>> latency;
  std::vector<ChainPrints> qorBySpec(specs.size());
  for (ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    for (const std::string& error : log.errors) result.errors.push_back(error);
    chainSeconds.insert(chainSeconds.end(), log.chainSeconds.begin(),
                        log.chainSeconds.end());
    for (auto& [op, values] : log.latency) {
      latency[op].insert(latency[op].end(), values.begin(), values.end());
    }
    for (const auto& [specIndex, prints] : log.chains) {
      const ChainPrints& want = expected[specIndex];
      for (const std::string& why :
           {checkSameFingerprint(want.run, prints.run, "serve run"),
            checkSameFingerprint(want.eco, prints.eco, "serve eco"),
            checkSameFingerprint(want.report, prints.report,
                                 "serve report")}) {
        if (!why.empty()) result.errors.push_back(why);
      }
      qorBySpec[specIndex] = prints;
    }
  }

  // QoR of the distinct chains (each completes at least once per run),
  // against their inputs' HPWL and net count.
  double wirelength = 0.0, vias = 0.0, hpwl = 0.0, nets = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wirelength += qorBySpec[i].wirelength;
    vias += qorBySpec[i].vias;
    hpwl += expected[i].hpwl;
    nets += expected[i].nets;
  }
  result.metrics["op_p50_ms"] = medianMs(chainSeconds);
  result.samples["op_p50_ms"] = static_cast<int>(chainSeconds.size());
  result.metrics["ops_per_s"] = chainSeconds.size() / window;
  result.metrics["gr_wirelength_per_hpwl"] = wirelength / hpwl;
  result.metrics["gr_vias_per_net"] = vias / nets;
  result.metrics["wirelength_per_hpwl"] = wirelength / hpwl;
  result.metrics["vias_per_net"] = vias / nets;
  result.config["gr_wirelength_dbu"] = str(wirelength);
  result.config["gr_vias"] = str(vias);
  result.config["input_hpwl_dbu"] = str(hpwl);
  for (const auto& [op, values] : latency) {
    result.samples[op] = static_cast<int>(values.size());
    result.config[op + ".p50_ms"] = str(nearestRank(values, 0.5) * 1e3);
  }
  result.config["clients"] = str(kServeClients);
  result.config["daemon_workers"] = str(kServeWorkers);
  result.config["chain_cells"] = str(specs.front().cells);
  result.config["chain_k"] = str(specs.front().k);
  result.config["distinct_chains"] = str(specs.size());
  return result;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"paper-flow", "gr-scale",
                                                 "eco-stream", "serve-mixed"};
  return names;
}

RunResult runWorkload(const RunOptions& options, Recorder& recorder) {
  // Observability instruments the program only in traced runs.
  obs::setEnabled(recorder.enabled());
  if (options.workload == "paper-flow") return runPaperFlow(options, recorder);
  if (options.workload == "gr-scale") return runGrScale(options, recorder);
  if (options.workload == "eco-stream") return runEcoStream(options, recorder);
  if (options.workload == "serve-mixed") {
    return runServeMixed(options, recorder);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace crp::perfbench
