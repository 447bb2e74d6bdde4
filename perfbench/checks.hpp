// Output checks of the benchmark.  Each one compares the program's
// output against a value the benchmark computes apart from the code
// under test, or against a property the method must have, and returns
// an empty string when it holds or a one-line reason when it does not.
// selftest.cpp shows that each check rejects a corrupted output.
#pragma once

#include <string>

#include "droute/detailed_router.hpp"
#include "groute/global_router.hpp"
#include "obs/json.hpp"

namespace crp::perfbench {

/// Wirelength, vias and total overflow recomputed from the per-net
/// routes and the graph's capacities, not from the router's running
/// totals or usage arrays.
struct RecomputedGr {
  geom::Coord wirelengthDbu = 0;
  long vias = 0;
  double totalOverflow = 0.0;
};
RecomputedGr recomputeGlobalRouting(const db::Database& db,
                                    const groute::GlobalRouter& router);

/// The routed design passes DbAuditor::auditAll, has no open GR net,
/// and its recomputed QoR equals GlobalRouter::stats().
std::string checkGlobalRouting(const db::Database& db,
                               const groute::GlobalRouter& router);

/// Detailed routing left no net open.
std::string checkDetailedRouting(const droute::DetailedRouteStats& stats);

/// Two fingerprint documents are identical.
std::string checkSameFingerprint(const obs::Json& expected,
                                 const obs::Json& actual,
                                 const std::string& what);

}  // namespace crp::perfbench
