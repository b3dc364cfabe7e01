// Multi-source restricted reachability — the engine under both pasgal_scc
// (VGC local searches) and gbbs_scc (tau = 1, strict frontier order).
//
// Marks reached[v] for every v reachable from `roots` along edges that stay
// inside the same subproblem (sub[u] == sub[v]) and only through vertices
// where live(v) holds. Subproblems are disjoint and each has at most one
// root, so a single byte array serves all searches at once. Huge frontiers
// take edge_map_dense pull rounds; the rest run as VGC local searches.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/edge_map.h"
#include "pasgal/hashbag.h"
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
  Adjacency adj = g.adjacency();

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
                      [&](std::size_t i) { return adj.degree(current[i]); }) +
                  current.size();

    if (go_dense(work, m, opt)) {
      // One pull round; the next round re-decides from the sparse list.
      if (stats) stats->end_round(current.size(), RoundKind::kDense);
      std::vector<std::uint8_t> mask(n, 0);
      parallel_for(0, current.size(),
                   [&](std::size_t i) { mask[current[i]] = 1; });
      VertexSubset frontier =
          VertexSubset::dense(std::move(mask), current.size());
      VertexSubset next = edge_map_dense(
          g, gt, frontier,
          [&](VertexId u, VertexId v) {
            if (sub[u] != sub[v]) return false;
            reached[v].store(1, std::memory_order_relaxed);
            return true;
          },
          [&](VertexId v) {
            return live(v) && !reached[v].load(std::memory_order_relaxed);
          },
          opt, stats);
      next.to_sparse();
      current = next.sparse_vertices();
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
              adj, root, opt.vgc,
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
