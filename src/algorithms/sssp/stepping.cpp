#include <algorithm>
#include <atomic>

#include "algorithms/catalog.h"
#include "algorithms/sssp/sssp.h"
#include "parlay/sort.h"
#include "pasgal/pending_pool.h"

namespace pasgal {

// The stepping algorithm framework (Dong, Gu, Sun — PPoPP'21) with VGC local
// relaxations, over the same PendingPool as pasgal_bfs (keyed by absolute
// distance). Each step collects the valid pending entries and their minimum
// distance L, then settles the entries at or below a strategy-chosen
// threshold:
//   delta-stepping: threshold = L + delta,
//   rho-stepping:   threshold = distance of the rho-th closest pending entry
//                   (everything, when at most rho entries are pending).
// Entries above the threshold stay pending, never re-keyed.
RunReport<std::vector<Dist>> stepping_sssp(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt) {
  admit(algo_spec("sssp", opt.sssp_delta_mode ? "delta" : "rho"),
        g.unweighted());
  return run_traced(opt, [&](Tracer* stats) {
    // Pending entries pack tentative distances into 32 bits (pack_entry), so
    // the ceiling here is kInf32 - 1, not the 64-bit kInfWeightDist; a
    // relaxation past it throws.
    constexpr std::uint32_t kInf32 = PendingPool::kUnreached;
    check_sssp_preconditions(g, opt.source, static_cast<Dist>(kInf32) - 1)
        .throw_if_error();
    std::size_t n = g.num_vertices();
    PendingPool pool(n, opt.source, stats);
    std::vector<std::atomic<std::uint32_t>>& dist = pool.dist();

    for (;;) {
      if (opt.cancel != nullptr) opt.cancel->check("stepping_sssp step");
      const std::uint32_t low = pool.collect();
      if (pool.empty()) break;
      const std::vector<std::uint64_t>& pending = pool.entries();

      // Strategy: pick the settling threshold for this step.
      std::uint64_t threshold;
      if (opt.sssp_delta_mode) {
        // opt.sssp_delta is a 64-bit Dist: L + delta can wrap, and a wrapped
        // sum lands below L, which would settle nothing and loop forever.
        // Saturate on wrap as well as on overshoot past the 32-bit ceiling.
        threshold = static_cast<std::uint64_t>(low) + opt.sssp_delta;
        if (threshold < low || threshold > kInf32 - 1) threshold = kInf32 - 1;
      } else if (pending.size() <= opt.sssp_rho) {
        threshold = kInf32 - 1;  // settle everything pending
      } else {
        auto dists = tabulate(pending.size(), [&](std::size_t i) {
          return entry_dist(pending[i]);
        });
        auto nth =
            dists.begin() + static_cast<std::ptrdiff_t>(opt.sssp_rho - 1);
        std::nth_element(dists.begin(), nth, dists.end());
        threshold = *nth;
      }
      std::vector<std::uint64_t> ready = pool.take_upto(threshold);

      stats->end_round(ready.size(), opt.vgc.tau > 1 ? RoundKind::kLocal
                                                     : RoundKind::kSparse);
      // Roots run closest first, each worker taking the closest one not yet
      // claimed: a root's search then finds most of its ball labelled by
      // closer roots, instead of labelling it for them to correct.
      integer_sort_inplace(std::span<std::uint64_t>(ready), entry_dist, 32);
      std::atomic<std::size_t> next{0};
      auto relax = [&](VertexId u, std::uint32_t du,
                       auto&& emit) -> std::uint64_t {
        if (dist[u].load(std::memory_order_relaxed) != du) return 0;
        for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
          VertexId v = g.edge_target(e);
          std::uint64_t nd64 =
              static_cast<std::uint64_t>(du) + g.edge_weight(e);
          if (nd64 >= kInf32) {
            throw Error(ErrorCategory::kValidation,
                        "stepping_sssp: tentative distance exceeds 32 bits");
          }
          std::uint32_t nd = static_cast<std::uint32_t>(nd64);
          if (write_min(dist[v], nd)) emit(v, nd);
        }
        return g.edge_end(u) - g.edge_begin(u);
      };
      parallel_for(
          0, static_cast<std::size_t>(num_workers()),
          [&](std::size_t) {
            for (std::size_t i; (i = next.fetch_add(1)) < ready.size();) {
              local_search_dist(
                  entry_vertex(ready[i]), entry_dist(ready[i]), opt.vgc, relax,
                  [&](VertexId v, std::uint32_t d) { pool.insert(v, d); },
                  stats);
            }
          },
          1);
    }

    return tabulate(n, [&](std::size_t v) {
      std::uint32_t d = dist[v].load(std::memory_order_relaxed);
      return d == kInf32 ? kInfWeightDist : static_cast<Dist>(d);
    });
  });
}

BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt) {
  // Not a catalog row of its own: the rho/delta rows run it for a batch, and
  // each stepping_sssp run admits the graph as its row.
  check_batch_sources(opt.sources, g.num_vertices());
  auto run = run_traced(opt.algo, [&](Tracer* stats) {
    AlgoOptions one = opt.algo;
    one.tracer = stats;
    std::vector<RunReport<std::vector<Dist>>> per_source;
    for (VertexId s : opt.sources) {
      one.source = s;
      per_source.push_back(stepping_sssp(g, one));
    }
    return per_source;
  });
  return {std::move(run.output), run.seconds, std::move(run.telemetry)};
}

}  // namespace pasgal
