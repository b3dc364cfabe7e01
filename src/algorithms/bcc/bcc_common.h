// Shared preprocessing for the parallel BCC algorithms: spanning forest,
// Euler-tour rooting, and subtree low/high values.
#pragma once

#include <algorithm>
#include <vector>

#include "algorithms/bcc/bcc.h"
#include "algorithms/cc/cc.h"
#include "algorithms/tree/euler.h"
#include "algorithms/tree/range_query.h"
#include "graphs/graph.h"
#include "pasgal/telemetry.h"

namespace pasgal::internal {

struct BccPrep {
  EulerForest forest;
  // low[v]/high[v]: extremal `first` value reachable from subtree(v) through
  // a single non-tree edge (or first[v] itself).
  std::vector<std::uint64_t> low, high;
  std::vector<VertexId> edge_source;  // source vertex of each directed slot

  bool is_tree_edge(VertexId u, VertexId v) const {
    return forest.parent[v] == u || forest.parent[u] == v;
  }
  // Subtree(child) has a non-tree edge escaping subtree(parent)?
  bool escapes_parent(VertexId child) const {
    VertexId p = forest.parent[child];
    return low[child] < forest.first[p] || high[child] > forest.last[p];
  }
};

// Preprocess from a caller-supplied spanning forest (fast_bcc passes the
// union-find forest; gbbs_bcc passes a BFS forest).
inline BccPrep bcc_preprocess_from_forest(const Graph& g,
                                          std::span<const Edge> forest_edges,
                                          std::span<const VertexId> comp_label,
                                          Tracer* stats = nullptr) {
  std::size_t n = g.num_vertices();
  std::size_t m = g.num_edges();
  BccPrep prep;

  prep.forest = euler_tour_forest(n, forest_edges, comp_label);
  if (stats) stats->end_round(n);
  const EulerForest& forest = prep.forest;

  prep.edge_source.resize(m);
  parallel_for(0, n, [&](std::size_t v) {
    for (EdgeId e = g.edge_begin(static_cast<VertexId>(v));
         e < g.edge_end(static_cast<VertexId>(v)); ++e) {
      prep.edge_source[e] = static_cast<VertexId>(v);
    }
  });

  // Per-vertex extremal `first` over non-tree neighbours.
  std::vector<std::uint64_t> minf(n), maxf(n);
  parallel_for(0, n, [&](std::size_t vi) {
    VertexId v = static_cast<VertexId>(vi);
    std::uint64_t lo = forest.first[v], hi = forest.first[v];
    for (VertexId w : g.neighbors(v)) {
      if (prep.is_tree_edge(v, w)) continue;
      lo = std::min(lo, forest.first[w]);
      hi = std::max(hi, forest.first[w]);
    }
    minf[vi] = lo;
    maxf[vi] = hi;
  });
  if (stats) {
    stats->add_edges(m);
    stats->end_round(n);
  }

  // Subtrees are contiguous in first-order; aggregate with range queries.
  auto order = tabulate(n, [](std::size_t i) { return static_cast<VertexId>(i); });
  sort_inplace(std::span<VertexId>(order), [&](VertexId a, VertexId b) {
    return forest.first[a] < forest.first[b];
  });
  std::vector<std::uint64_t> pos_of(n);
  parallel_for(0, n, [&](std::size_t i) { pos_of[order[i]] = i; });
  auto minf_in_order = tabulate(n, [&](std::size_t i) { return minf[order[i]]; });
  auto maxf_in_order = tabulate(n, [&](std::size_t i) { return maxf[order[i]]; });
  auto first_in_order =
      tabulate(n, [&](std::size_t i) { return forest.first[order[i]]; });
  RangeMin<std::uint64_t> min_table(minf_in_order, static_cast<std::uint64_t>(-1));
  RangeMax<std::uint64_t> max_table(maxf_in_order, 0);

  prep.low.resize(n);
  prep.high.resize(n);
  parallel_for(0, n, [&](std::size_t vi) {
    VertexId v = static_cast<VertexId>(vi);
    std::size_t lo = pos_of[v];
    std::size_t hi = static_cast<std::size_t>(
        std::upper_bound(first_in_order.begin(), first_in_order.end(),
                         forest.last[v]) -
        first_in_order.begin());
    prep.low[vi] = min_table.query(lo, hi);
    prep.high[vi] = max_table.query(lo, hi);
  });
  if (stats) stats->end_round(n);
  return prep;
}

inline BccPrep bcc_preprocess(const Graph& g, Tracer* stats = nullptr) {
  ConnectivityResult cc = connected_components(g, {.tracer = stats}).output;
  return bcc_preprocess_from_forest(g, cc.forest, cc.label, stats);
}

// Steps 4-5 of FAST-BCC (skeleton + connectivity + labels); defined in
// fast_bcc.cpp, shared with gbbs_bcc.
BccResult bcc_from_prep(const Graph& g, const BccPrep& prep, Tracer* stats);

}  // namespace pasgal::internal
