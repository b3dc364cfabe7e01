#include <atomic>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "pasgal/edge_map.h"

namespace pasgal {

// GAPBS-style direction-optimizing BFS (Beamer et al., SC'12): top-down
// (push) by default; bottom-up (pull) when the frontier's unexplored edge
// count exceeds remaining/alpha; back to top-down when the frontier shrinks
// below n/beta. Still one global synchronization per level. The controller
// picks the direction; edge_map_dense/edge_map_sparse run the rounds.
RunReport<std::vector<std::uint32_t>> gapbs_bfs(const Graph& g, const Graph& gt,
                                                const AlgoOptions& opt) {
  admit(algo_spec("bfs", "gapbs"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    std::vector<std::atomic<std::uint32_t>> dist(n);
    parallel_for(0, n, [&](std::size_t i) {
      dist[i].store(kInfDist, std::memory_order_relaxed);
    });
    dist[opt.source].store(0, std::memory_order_relaxed);

    VertexSubset frontier = VertexSubset::single(n, opt.source);
    std::uint32_t level = 0;
    bool bottom_up = false;
    // Edges not yet scanned from settled vertices — GAPBS's alpha signal.
    EdgeId edges_remaining = g.num_edges();

    while (!frontier.empty()) {
      stats->end_round(frontier.size());
      ++level;
      EdgeId frontier_edges = frontier.out_degree_sum(g);
      if (!bottom_up &&
          frontier_edges > edges_remaining / static_cast<EdgeId>(kGapbsAlpha)) {
        bottom_up = true;
      } else if (bottom_up &&
                 frontier.size() < n / static_cast<std::size_t>(kGapbsBeta)) {
        bottom_up = false;
      }
      edges_remaining -= std::min(edges_remaining, frontier_edges);

      auto cond = [&](VertexId v) {
        return dist[v].load(std::memory_order_relaxed) == kInfDist;
      };
      if (bottom_up) {
        // One task per v: a plain store, and cond(v) turns false with it.
        auto update_seq = [&](VertexId, VertexId v) {
          dist[v].store(level, std::memory_order_relaxed);
          return true;
        };
        frontier = edge_map_dense(g, gt, frontier, update_seq, cond, opt,
                                  stats);
      } else {
        auto update = [&](VertexId, VertexId v) {
          std::uint32_t expected = kInfDist;
          return dist[v].compare_exchange_strong(expected, level,
                                                 std::memory_order_relaxed);
        };
        frontier = edge_map_sparse(g, frontier, update, cond, opt, stats);
      }
    }

    std::vector<std::uint32_t> out(n);
    parallel_for(0, n, [&](std::size_t i) {
      out[i] = dist[i].load(std::memory_order_relaxed);
    });
    return out;
  });
}

}  // namespace pasgal
