#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "check/audit.hpp"

namespace crp::perfbench {

RecomputedGr recomputeGlobalRouting(const db::Database& db,
                                    const groute::GlobalRouter& router) {
  const groute::RoutingGraph& graph = router.graph();
  const int layers = graph.numLayers();
  const int nx = graph.grid().countX();
  const int ny = graph.grid().countY();
  auto node = [&](int l, int x, int y) {
    return (static_cast<std::size_t>(l) * ny + y) * nx + x;
  };
  std::vector<double> wireUse(static_cast<std::size_t>(layers) * nx * ny, 0.0);
  std::vector<int> viaCount(wireUse.size(), 0);

  RecomputedGr out;
  for (db::NetId net = 0; net < db.numNets(); ++net) {
    for (const groute::RouteSegment& seg : router.route(net).segments) {
      const int l0 = std::min(seg.a.layer, seg.b.layer);
      const int l1 = std::max(seg.a.layer, seg.b.layer);
      if (l0 != l1) {
        out.vias += l1 - l0;
        for (int l = l0; l <= l1; ++l) ++viaCount[node(l, seg.a.x, seg.a.y)];
        continue;
      }
      const int x0 = std::min(seg.a.x, seg.b.x);
      const int x1 = std::max(seg.a.x, seg.b.x);
      const int y0 = std::min(seg.a.y, seg.b.y);
      const int y1 = std::max(seg.a.y, seg.b.y);
      // A wire edge (l, x, y) runs from gcell (x, y) one step along
      // the layer's direction.
      for (int x = x0; x < x1; ++x) {
        const groute::WireEdge e{l0, x, y0};
        wireUse[node(l0, x, y0)] += 1.0;
        out.wirelengthDbu += graph.wireEdgeDist(e);
      }
      for (int y = y0; y < y1; ++y) {
        const groute::WireEdge e{l0, x0, y};
        wireUse[node(l0, x0, y)] += 1.0;
        out.wirelengthDbu += graph.wireEdgeDist(e);
      }
    }
  }

  const double beta = graph.config().beta;
  for (int l = 0; l < layers; ++l) {
    const bool horizontal =
        graph.layerDir(l) == db::LayerDir::kHorizontal;
    for (int y = 0; y < graph.wireEdgeCountY(l); ++y) {
      for (int x = 0; x < graph.wireEdgeCountX(l); ++x) {
        const groute::WireEdge e{l, x, y};
        const int x2 = horizontal ? x + 1 : x;
        const int y2 = horizontal ? y : y + 1;
        const double viaEstimate = std::sqrt(
            (viaCount[node(l, x, y)] + viaCount[node(l, x2, y2)]) / 2.0);
        const double demand =
            wireUse[node(l, x, y)] + graph.fixedUsage(e) + beta * viaEstimate;
        out.totalOverflow += std::max(0.0, demand - graph.capacity(e));
      }
    }
  }
  return out;
}

std::string checkGlobalRouting(const db::Database& db,
                               const groute::GlobalRouter& router) {
  const check::AuditReport audit = check::DbAuditor(db, &router).auditAll();
  if (!audit.clean()) {
    return "audit: " + audit.failures.front().describe();
  }
  const groute::GlobalRouteStats stats = router.stats();
  if (stats.openNets != 0) {
    return "GR left " + std::to_string(stats.openNets) + " open nets";
  }
  const RecomputedGr mine = recomputeGlobalRouting(db, router);
  std::ostringstream why;
  if (mine.wirelengthDbu != stats.wirelengthDbu) {
    why << "GR wirelength " << stats.wirelengthDbu << " != recomputed "
        << mine.wirelengthDbu;
  } else if (mine.vias != stats.vias) {
    why << "GR vias " << stats.vias << " != recomputed " << mine.vias;
  } else if (std::abs(mine.totalOverflow - stats.totalOverflow) >
             1e-9 * std::max(1.0, std::abs(mine.totalOverflow))) {
    why << "GR overflow " << stats.totalOverflow << " != recomputed "
        << mine.totalOverflow;
  }
  return why.str();
}

std::string checkDetailedRouting(const droute::DetailedRouteStats& stats) {
  if (stats.openNets == 0) return "";
  return "DR left " + std::to_string(stats.openNets) + " open nets";
}

std::string checkSameFingerprint(const obs::Json& expected,
                                 const obs::Json& actual,
                                 const std::string& what) {
  if (expected == actual) return "";
  return what + " fingerprint differs: expected " + expected.dump() +
         ", got " + actual.dump();
}

}  // namespace crp::perfbench
