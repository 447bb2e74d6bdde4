// Negative tests of the benchmark's output checks: each check accepts a
// clean output and rejects the same output with one corruption (a
// dropped route segment, an overlapping cell, an open net, an altered
// fingerprint).  Exit code 0 when every case behaves.
//
//   perfbench_selftest
#include <cstdio>
#include <memory>
#include <string>

#include "bmgen/generator.hpp"
#include "checks.hpp"
#include "crp/framework.hpp"
#include "groute/global_router.hpp"
#include "serve/session.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace crp;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// A small routed, CR&P-optimized design; fresh for every case because
/// each case corrupts it.
struct Routed {
  db::Database db;
  std::unique_ptr<groute::GlobalRouter> router;

  Routed() : db(makeDesign()) {
    groute::GlobalRouterOptions options;
    options.routerThreads = 1;
    router = std::make_unique<groute::GlobalRouter>(db, options);
    router->run();
    core::CrpOptions crp;
    crp.iterations = 1;
    crp.threads = 1;
    crp.routerThreads = 1;
    core::CrpFramework framework(db, *router, crp);
    framework.run();
  }

  static db::Database makeDesign() {
    bmgen::BenchmarkSpec spec;
    spec.targetCells = 300;
    spec.hotspots = 1;
    spec.seed = 7;
    return bmgen::generateBenchmark(spec);
  }

  /// A net whose route has more than one segment.
  db::NetId multiSegmentNet() const {
    for (db::NetId net = 0; net < db.numNets(); ++net) {
      if (router->route(net).segments.size() > 1) return net;
    }
    return db::kInvalidId;
  }
};

void globalRoutingCases() {
  {
    Routed clean;
    const std::string why = perfbench::checkGlobalRouting(clean.db, *clean.router);
    expect(why.empty(), "clean GR output passes (" + why + ")");
  }
  {
    Routed routed;
    const db::NetId net = routed.multiSegmentNet();
    routed.router->mutableRoute(net).segments.pop_back();
    expect(!perfbench::checkGlobalRouting(routed.db, *routed.router).empty(),
           "dropped route segment is rejected");
  }
  {
    Routed routed;
    const db::NetId net = routed.multiSegmentNet();
    // Without touching the graph: only the recomputed totals and the
    // audit can see it.
    groute::RouteSegment extra = routed.router->route(net).segments.front();
    routed.router->mutableRoute(net).segments.push_back(extra);
    const groute::GlobalRouteStats stats = routed.router->stats();
    const perfbench::RecomputedGr mine =
        perfbench::recomputeGlobalRouting(routed.db, *routed.router);
    expect(mine.wirelengthDbu != stats.wirelengthDbu ||
               mine.vias != stats.vias,
           "duplicated segment shows in the recomputed totals");
  }
  {
    Routed routed;
    const db::Point target = routed.db.cell(0).pos;
    routed.db.moveCell(1, target);
    const std::string why =
        perfbench::checkGlobalRouting(routed.db, *routed.router);
    expect(!why.empty(), "overlapping cell is rejected (" + why + ")");
  }
  {
    Routed routed;
    // ripUp keeps demand consistent, so the only fault is the open net.
    routed.router->ripUp(routed.multiSegmentNet());
    const std::string why =
        perfbench::checkGlobalRouting(routed.db, *routed.router);
    expect(!why.empty(), "open GR net is rejected (" + why + ")");
  }
}

void detailedRoutingCases() {
  droute::DetailedRouteStats stats;
  stats.wirelengthDbu = 1000;
  stats.viaCount = 10;
  expect(perfbench::checkDetailedRouting(stats).empty(),
         "DR output without open nets passes");
  stats.openNets = 1;
  expect(!perfbench::checkDetailedRouting(stats).empty(),
         "DR open net is rejected");
}

void fingerprintCases() {
  util::ThreadPool pool(1);
  serve::SessionManager manager;
  auto session = manager.open("selftest", pool);
  obs::Json bmgen = obs::Json::object();
  bmgen.set("cells", 150);
  bmgen.set("seed", 3);
  serve::runBmgenJob(*session, bmgen);
  obs::Json run = obs::Json::object();
  run.set("k", 1);
  const obs::Json result = serve::runRunJob(*session, run, {});
  const obs::Json fingerprint = *result.find("fingerprint");
  const obs::Json again = *serve::runReportJob(*session).find("fingerprint");
  expect(perfbench::checkSameFingerprint(fingerprint, again, "report").empty(),
         "same fingerprint passes");
  obs::Json altered = fingerprint;
  altered.set("seed", fingerprint.find("seed")->asInt() + 1);
  expect(!perfbench::checkSameFingerprint(fingerprint, altered, "report")
              .empty(),
         "altered fingerprint is rejected");
}

}  // namespace

int main() {
  globalRoutingCases();
  detailedRoutingCases();
  fingerprintCases();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
