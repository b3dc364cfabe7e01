// Multi-source restricted reachability — the engine under both pasgal_scc
// (VGC local searches) and gbbs_scc (tau = 1, strict frontier order).
//
// Marks reached[v] for every v reachable from `roots` along edges that stay
// inside the same subproblem (sub[u] == sub[v]) and only through vertices
// where live(v) holds. Subproblems are disjoint and each has at most one
// root, so a single byte array serves all searches at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/hashbag.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal::internal {

template <typename Live>
void multi_reach(const Graph& g, const Graph& gt,
                 const std::vector<VertexId>& roots,
                 const std::vector<std::uint64_t>& sub, Live&& live,
                 std::vector<std::atomic<std::uint8_t>>& reached,
                 const AlgoOptions& opt, Tracer* stats = nullptr) {
  std::size_t n = g.num_vertices();
  EdgeId m = g.num_edges();
  const EdgeId dense_limit =
      m / static_cast<EdgeId>(opt.dense_threshold_den) + 1;

  std::vector<VertexId> current;
  current.reserve(roots.size());
  for (VertexId r : roots) {
    std::uint8_t expected = 0;
    if (reached[r].compare_exchange_strong(expected, 1,
                                           std::memory_order_relaxed)) {
      current.push_back(r);
    }
  }

  HashBag<VertexId> bag(10);
  if (stats) bag.attach_tracer(stats);
  while (!current.empty()) {
    EdgeId work = reduce_indexed<EdgeId>(
                      current.size(), 0, std::plus<EdgeId>{},
                      [&](std::size_t i) { return g.out_degree(current[i]); }) +
                  current.size();

    if (opt.use_dense && work > dense_limit) {
      // Dense pull rounds until the wave subsides.
      for (;;) {
        if (stats) stats->end_round(current.size(), RoundKind::kDense);
        std::vector<std::uint8_t> newly(n, 0);
        parallel_for(0, n, [&](std::size_t vi) {
          VertexId v = static_cast<VertexId>(vi);
          if (!live(v) || reached[v].load(std::memory_order_relaxed)) return;
          std::uint64_t scanned = 0;
          for (VertexId u : gt.neighbors(v)) {
            ++scanned;
            if (reached[u].load(std::memory_order_relaxed) &&
                sub[u] == sub[v]) {
              reached[v].store(1, std::memory_order_relaxed);
              newly[vi] = 1;
              break;
            }
          }
          if (stats) stats->add_edges(scanned);
        });
        if (stats) stats->add_visits(n);
        auto next = pack_indexed<VertexId>(
            n, [&](std::size_t v) { return newly[v] != 0; },
            [&](std::size_t v) { return static_cast<VertexId>(v); });
        if (next.empty()) return;
        EdgeId next_work =
            reduce_indexed<EdgeId>(next.size(), 0, std::plus<EdgeId>{},
                                   [&](std::size_t i) {
                                     return g.out_degree(next[i]);
                                   }) +
            next.size();
        current = std::move(next);
        if (next_work <= dense_limit) break;  // back to sparse
      }
      continue;
    }

    if (stats) {
      stats->end_round(current.size(), opt.vgc.tau > 1 ? RoundKind::kLocal
                                                       : RoundKind::kSparse);
    }
    parallel_for(
        0, current.size(),
        [&](std::size_t i) {
          VertexId root = current[i];
          std::uint64_t root_sub = sub[root];
          local_search(
              g, root, opt.vgc,
              [&](VertexId v) {
                if (!live(v) || sub[v] != root_sub) return false;
                std::uint8_t expected = 0;
                return reached[v].compare_exchange_strong(
                    expected, 1, std::memory_order_relaxed);
              },
              bag, stats);
        },
        1);
    current = bag.extract_all();
  }
}

}  // namespace pasgal::internal
