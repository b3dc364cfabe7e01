#include <atomic>
#include <bit>
#include <memory>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "pasgal/edge_map.h"
#include "pasgal/hashbag.h"

namespace pasgal {

namespace {

// Multi-frontier bucket index (§2.2): an entry is keyed by its gap to the
// round's base distance when it is inserted — bucket 0 holds gap 0, bucket
// j>=1 gaps in [2^(j-1), 2^j). Entries stay in their bucket until it is
// extracted; the only move is the dense phase's hand-back, which re-keys
// pending entries against the level the pull stopped at.
constexpr int kNumBuckets = 34;

int bucket_for(std::uint32_t gap) {
  if (gap == 0) return 0;
  int b = 1 + (31 - std::countl_zero(gap));
  return b < kNumBuckets ? b : kNumBuckets - 1;
}

std::uint64_t encode(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
VertexId entry_vertex(std::uint64_t e) { return static_cast<VertexId>(e); }
std::uint32_t entry_dist(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

}  // namespace

// PASGAL BFS (§2.2): label-correcting BFS over hash-bag frontiers.
//  * Sparse rounds run VGC local searches (budget tau vertices or
//    kVgcEngageFactor*tau edges) when the frontier is small, or one-hop
//    expansion (tau=1) when it already has parallelism.
//  * Entries carry the tentative distance they were enqueued with; stale
//    entries are skipped (a vertex may be visited more than once — the extra
//    work the paper accepts in exchange for fewer rounds).
//  * Once the lowest bucket's work crosses go_dense's threshold,
//    direction-optimized pull rounds (edge_map_dense) take over from the
//    global-minimum pending level L, for as long as each level's own work
//    crosses it too. That level is exact: dist[] only ever holds path
//    lengths, and if some vertex of true distance <= L held a larger label,
//    the last correctly labelled vertex on its shortest path would sit
//    below L with a valid entry whose out-edges were never relaxed —
//    contradicting L's minimality. So {v : dist[v] == L} is BFS level L,
//    and pulling level by level stays exact although higher buckets still
//    hold entries.
RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt) {
  admit(algo_spec("bfs", "pasgal"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    EdgeId m = g.num_edges();
    Adjacency adj = g.adjacency();
    std::vector<std::atomic<std::uint32_t>> dist(n);
    parallel_for(0, n, [&](std::size_t i) {
      dist[i].store(kInfDist, std::memory_order_relaxed);
    });
    dist[opt.source].store(0, std::memory_order_relaxed);

    std::vector<std::unique_ptr<HashBag<std::uint64_t>>> bags;
    bags.reserve(kNumBuckets);
    for (int b = 0; b < kNumBuckets; ++b) {
      bags.push_back(std::make_unique<HashBag<std::uint64_t>>(8));
      bags.back()->attach_tracer(stats);
    }
    bags[0]->insert(encode(opt.source, 0));

    auto is_valid = [&](std::uint64_t e) {
      return dist[entry_vertex(e)].load(std::memory_order_relaxed) ==
             entry_dist(e);
    };
    auto extract_valid = [&](int b) {
      auto entries = bags[b]->extract_all();
      return filter(std::span<const std::uint64_t>(entries), is_valid);
    };
    auto min_dist = [](const std::vector<std::uint64_t>& entries) {
      return reduce_indexed<std::uint32_t>(
          entries.size(), kInfDist,
          [](std::uint32_t a, std::uint32_t b) { return a < b ? a : b; },
          [&](std::size_t i) { return entry_dist(entries[i]); });
    };
    // BFS level `level` as a dense frontier (exact once every entry below
    // it has been relaxed — see the function comment).
    auto level_frontier = [&](std::uint32_t level) {
      std::vector<std::uint8_t> mask(n);
      std::size_t count = reduce_indexed<std::size_t>(
          n, 0, std::plus<std::size_t>{}, [&](std::size_t v) -> std::size_t {
            mask[v] = dist[v].load(std::memory_order_relaxed) == level;
            return mask[v];
          });
      return VertexSubset::dense(std::move(mask), count);
    };
    // A level's work in ready_work's measure (effective degrees): with base
    // degrees an overlay could make a level heavy for the sparse round and
    // light for the pull, handing it back to bags[0] unexpanded forever.
    auto level_work = [&](const VertexSubset& f) {
      return reduce_indexed<EdgeId>(
          n, 0, std::plus<EdgeId>{}, [&](std::size_t v) -> EdgeId {
            return f.dense_mask()[v] ? adj.degree(VertexId(v)) + 1 : 0;
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
      // Lowest non-empty bucket drives the next round.
      int lowest = -1;
      for (int b = 0; b < kNumBuckets; ++b) {
        if (!bags[b]->empty()) {
          lowest = b;
          break;
        }
      }
      if (lowest < 0) break;

      // The whole bucket is processed at once: its entries span at most a 2x
      // distance range (§2.2 — "frontier i maintains vertices with distance
      // 2^i from the current frontier"), so none of them is too "unready",
      // and deferring them would reintroduce one round per level.
      std::vector<std::uint64_t> ready = extract_valid(lowest);
      if (ready.empty()) continue;

      EdgeId ready_work =
          reduce_indexed<EdgeId>(ready.size(), 0, std::plus<EdgeId>{},
                                 [&](std::size_t i) {
                                   return adj.degree(entry_vertex(ready[i]));
                                 }) +
          ready.size();

      // --- Dense (direction-optimized) phase -------------------------------
      // Drain every bag: buckets are keyed by the gap at insert time, so a
      // higher bucket may hold a lower distance. Level-synchronous pull
      // rounds through edge_map_dense then run from the global minimum L
      // for as long as the level's own work passes go_dense (the lowest
      // bucket's work does not bound level L's); each frontier is
      // {dist == level}, so vertices a pending local search already
      // labelled join at their own level.
      if (go_dense(ready_work, m, opt)) {
        std::vector<std::uint64_t> pending = std::move(ready);
        for (int b = lowest + 1; b < kNumBuckets; ++b) {
          if (bags[b]->empty()) continue;
          auto more = extract_valid(b);
          pending.insert(pending.end(), more.begin(), more.end());
        }
        std::uint32_t level = min_dist(pending);
        VertexSubset frontier = level_frontier(level);
        for (; !frontier.empty() && go_dense(level_work(frontier), m, opt);
             ++level) {
          stats->end_round(frontier.size(), RoundKind::kDense);
          std::uint32_t next_level = level + 1;
          edge_map_dense(
              g, gt, frontier,
              [&](VertexId, VertexId v) {
                dist[v].store(next_level, std::memory_order_relaxed);
                return true;
              },
              [&](VertexId v) {
                return dist[v].load(std::memory_order_relaxed) > next_level;
              },
              opt, stats);
          frontier = level_frontier(next_level);
        }
        // Hand back to the sparse machinery at `level`: its frontier goes to
        // bags[0], and pending entries above it are re-bucketed. The rest
        // were expanded by the pull (or sit in the frontier). A first level
        // that is already light comes straight back, and the next round
        // then runs it sparse.
        const auto& next = frontier.dense_mask();
        parallel_for(0, n, [&](std::size_t v) {
          if (next[v]) {
            bags[0]->insert(encode(static_cast<VertexId>(v), level));
          }
        });
        parallel_for(0, pending.size(), [&](std::size_t i) {
          std::uint32_t d = entry_dist(pending[i]);
          if (d > level && is_valid(pending[i])) {
            bags[bucket_for(d - level)]->insert(pending[i]);
          }
        });
        continue;
      }

      // --- Sparse phase: VGC local searches (tau=1 when already parallel) ---
      std::uint32_t base = min_dist(ready);
      VgcParams vgc = opt.vgc;
      if (ready_work >= vgc_limit) vgc.tau = 1;
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
                [&](VertexId v, std::uint32_t d) {
                  bags[bucket_for(d - base)]->insert(encode(v, d));
                },
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
