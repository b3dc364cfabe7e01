#include <atomic>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "pasgal/edge_map.h"
#include "pasgal/pending_pool.h"

namespace pasgal {

namespace {

// The VGC window (§2.2's multi-frontier, keyed by absolute distance): a
// sparse round runs the pending entries within kWindow levels of the global
// minimum L. On road:700:700 at 4 workers, 16 took ~77 rounds, 32 ~42
// rounds in the least time, and 64 ~34 rounds but scanned more edges.
constexpr std::uint64_t kWindow = 32;

}  // namespace

// PASGAL BFS (§2.2): label-correcting BFS over one PendingPool
// (pasgal/pending_pool.h). An entry (v, d) is valid while dist[v] == d, and
// stale entries are dropped (a vertex may be visited more than once — the
// extra work the paper accepts in exchange for fewer rounds). Each round
// takes L, the minimum pending distance, and picks one of three paths:
//  1. Dense: once level L's own work (|F| + outdeg(F), effective degrees)
//     crosses go_dense, direction-optimized pull rounds (edge_map_dense) run
//     level by level from L for as long as each level's work crosses it too.
//     The first level is pulled unconditionally, so a round that chose the
//     pull always advances. Level L is exact: dist[] only ever holds path
//     lengths, and if some vertex of true distance <= L held a larger label,
//     the last correctly labelled vertex on its shortest path would sit below
//     L with a valid entry whose out-edges were never relaxed — contradicting
//     L's minimality. Each later level's frontier is the vertices the pull
//     labelled plus the pending entries at that level; vertices that a local
//     search already expanded are left out, their out-edges already relaxed.
//  2. One level, one hop: if the window's work (entries with d <= L +
//     kWindow) reaches vgc_limit, the frontier already has parallelism, and
//     only the entries at L run, one hop each (tau=1).
//  3. VGC window: otherwise every entry within the window runs a local search
//     (budget tau vertices or kVgcEngageFactor*tau edges).
// Entries above the round's cut stay pending; they are never re-keyed.
RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt) {
  admit(algo_spec("bfs", "pasgal"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    EdgeId m = g.num_edges();
    Adjacency adj = g.adjacency();
    static_assert(PendingPool::kUnreached == kInfDist);
    PendingPool pool(n, opt.source, stats);
    std::vector<std::atomic<std::uint32_t>>& dist = pool.dist();

    // The work of the pending entries with d <= hi, in go_dense's measure:
    // each valid entry names a distinct vertex (dist only falls, so a vertex
    // has at most one entry at its current distance).
    auto work_upto = [&](std::uint64_t hi) {
      const std::vector<std::uint64_t>& pending = pool.entries();
      return reduce_indexed<EdgeId>(
          pending.size(), 0, std::plus<EdgeId>{},
          [&](std::size_t i) -> EdgeId {
            return entry_dist(pending[i]) <= hi
                       ? adj.degree(entry_vertex(pending[i])) + 1
                       : 0;
          });
    };

    // VGC applies throughout the sparse regime: any frontier below the density
    // threshold is scheduling-bound on a many-core machine, which is exactly
    // what local searches amortize. (kVgcEngageFactor*tau acts as a floor so
    // tiny tau values still engage near the source.)
    const std::uint64_t vgc_limit = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(opt.vgc.tau) * kVgcEngageFactor,
        m / opt.dense_threshold_den + 1);

    for (;;) {
      if (opt.cancel != nullptr) opt.cancel->check("pasgal_bfs round");
      const std::uint32_t low = pool.collect();
      if (pool.empty()) break;

      // --- Dense (direction-optimized) phase -------------------------------
      if (go_dense(work_upto(low), m, opt)) {
        std::vector<std::uint64_t> first = pool.take_upto(low);
        VertexSubset frontier = VertexSubset::sparse(
            n, tabulate(first.size(),
                        [&](std::size_t i) { return entry_vertex(first[i]); }));
        std::uint32_t level = low;
        do {
          stats->end_round(frontier.size(), RoundKind::kDense);
          const std::uint32_t next_level = ++level;
          VertexSubset pulled = edge_map_dense(
              g, gt, frontier,
              [&](VertexId, VertexId v) {
                dist[v].store(next_level, std::memory_order_relaxed);
                return true;
              },
              [&](VertexId v) {
                return dist[v].load(std::memory_order_relaxed) > next_level;
              },
              opt, stats);
          // Pending entries at the new level join the vertices the pull
          // labelled. The pull labels only vertices that sat above `level`,
          // so the two sets are disjoint and the count adds up.
          std::vector<std::uint64_t> joining = pool.take_upto(level);
          joining = filter(std::span<const std::uint64_t>(joining),
                           [&](std::uint64_t e) { return pool.is_valid(e); });
          if (joining.empty()) {
            frontier = std::move(pulled);
          } else {
            std::vector<std::uint8_t> mask = pulled.dense_mask();
            parallel_for(0, joining.size(), [&](std::size_t i) {
              mask[entry_vertex(joining[i])] = 1;
            });
            frontier = VertexSubset::dense(std::move(mask),
                                           pulled.size() + joining.size());
          }
        } while (!frontier.empty() && go_dense(g, frontier, opt));
        // Hand back to the sparse rounds at `level`: its frontier joins the
        // pool. The next round's L is `level` and its work the frontier's,
        // below the threshold, so it runs sparse.
        frontier.to_sparse();
        pool.keep(frontier.sparse_vertices(), level);
        continue;
      }

      // --- Sparse phase: one hop at L, or VGC local searches over the window -
      VgcParams vgc = opt.vgc;
      std::vector<std::uint64_t> ready;
      if (work_upto(low + kWindow) >= vgc_limit) {
        vgc.tau = 1;
        ready = pool.take_upto(low);
      } else {
        ready = pool.take_upto(low + kWindow);
      }
      stats->end_round(ready.size(),
                       vgc.tau > 1 ? RoundKind::kLocal : RoundKind::kSparse);
      parallel_for(
          0, ready.size(),
          [&](std::size_t i) {
            VertexId root = entry_vertex(ready[i]);
            std::uint32_t root_dist = entry_dist(ready[i]);
            local_search_dist(
                root, root_dist, vgc,
                [&](VertexId u, std::uint32_t du,
                    auto&& emit) -> std::uint64_t {
                  if (dist[u].load(std::memory_order_relaxed) != du) return 0;
                  std::uint32_t nd = du + 1;
                  adj.scan(u, [&](VertexId v) {
                    if (write_min(dist[v], nd)) emit(v, nd);
                  });
                  return adj.degree(u);
                },
                [&](VertexId v, std::uint32_t d) { pool.insert(v, d); },
                stats);
          },
          1);
    }

    std::vector<std::uint32_t> out(n);
    parallel_for(0, n, [&](std::size_t i) {
      out[i] = dist[i].load(std::memory_order_relaxed);
    });
    return out;
  });
}

}  // namespace pasgal
