#include <atomic>

#include "algorithms/cc/cc.h"
#include "algorithms/catalog.h"
#include "algorithms/scc/reach.h"
#include "algorithms/scc/scc.h"
#include "parlay/hash_rng.h"
#include "parlay/sort.h"

namespace pasgal {

namespace {

constexpr SccLabel kUnassigned = static_cast<SccLabel>(-1);

// Label scheme: every identifier derives from a vertex id p that is used
// exactly once (as a trimmed singleton or as a pivot), so values never
// collide across rounds:
//   final SCC label  : 4p      (p = pivot / trimmed vertex)
//   subproblem ids   : 4p+1 (reaches pivot's FW side only),
//                      4p+2 (BW only), 4p+3 (neither).
SccLabel scc_label_of(VertexId p) { return 4 * static_cast<SccLabel>(p); }

}  // namespace

// The BGSS-style randomized SCC framework (Wang et al., PPoPP'23 as used by
// PASGAL): trim, then rounds of batched pivots with forward/backward
// reachability; each reachability search uses VGC + hash bags (pasgal_scc)
// or strict frontier order (gbbs_scc via tau=1).
RunReport<std::vector<SccLabel>> pasgal_scc(const Graph& g, const Graph& gt,
                                            const AlgoOptions& opt) {
  admit(algo_spec("scc", "pasgal"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    std::vector<std::atomic<SccLabel>> label(n);
    parallel_for(0, n, [&](std::size_t i) {
      label[i].store(kUnassigned, std::memory_order_relaxed);
    });
    auto live = [&](VertexId v) {
      return label[v].load(std::memory_order_relaxed) == kUnassigned;
    };
    Adjacency out = g.adjacency(), in = gt.adjacency();

    // --- Trim: vertices with no live in- or out-neighbour are singleton SCCs.
    // One pass (as in Multistep/GBBS); repeated trimming would itself need
    // O(D) rounds on chain-like graphs.
    stats->phase_begin("trim");
    parallel_for(0, n, [&](std::size_t vi) {
      VertexId v = static_cast<VertexId>(vi);
      // A scan stops (returns false) at the first neighbour other than v.
      auto self = [&](VertexId u) { return u == v; };
      bool has_out = !out.scan(v, self);
      bool has_in = !in.scan(v, self);
      if (!has_in || !has_out) {
        label[v].store(scc_label_of(v), std::memory_order_relaxed);
      }
    });
    stats->end_round(n);

    // --- Randomized pivot order.
    stats->phase_begin("partition");
    Random rng(opt.scc_seed);
    auto perm =
        tabulate(n, [](std::size_t i) { return static_cast<VertexId>(i); });
    integer_sort_inplace(
        std::span<VertexId>(perm),
        [&](VertexId v) {
          return static_cast<std::uint32_t>(rng.ith_rand(v));
        },
        32);

    // Pre-partition by weak connectivity: SCCs never span weak components, so
    // seeding the subproblem ids with the component representative lets every
    // component elect pivots independently from round one (instead of burning
    // batch rounds while one global subproblem splits). The 4r+3 encoding is
    // the same "neither side of the pivot" id that r itself would produce,
    // so uniqueness of labels is preserved. connected_components reads the
    // raw CSR, so an update overlay is folded in first.
    ConnectivityResult weak =
        connected_components(materialize_effective(g), {}).output;
    std::vector<std::uint64_t> sub(n);
    parallel_for(0, n, [&](std::size_t v) {
      sub[v] = 4 * static_cast<std::uint64_t>(weak.label[v]) + 3;
    });
    // Per-subproblem pivot election, tagged by round to ignore stale slots.
    std::vector<std::atomic<std::uint64_t>> cand(4 * n + 4);
    std::vector<std::atomic<std::uint32_t>> tag(4 * n + 4);
    parallel_for(0, cand.size(), [&](std::size_t i) {
      cand[i].store(~0ULL, std::memory_order_relaxed);
      tag[i].store(~0U, std::memory_order_relaxed);
    });

    std::vector<std::atomic<std::uint8_t>> fw(n), bw(n);
  
    // Worklist in permutation order. Batch members that stay live (their
    // subproblem had a different pivot and they landed outside fw∩bw) are
    // retried at the front of the next, exponentially larger batch; every
    // round assigns at least its pivots, so the loop terminates.
    std::vector<VertexId> pending = perm;
    std::size_t batch_size = 1;
    std::uint32_t round = 0;
    stats->phase_begin("pivot_rounds");
    while (!pending.empty()) {
      std::size_t take = std::min(pending.size(), batch_size);
      batch_size = static_cast<std::size_t>(
          static_cast<double>(batch_size) * opt.scc_beta) + 1;
      ++round;

      // Batch = still-live vertices among the first `take` pending entries.
      auto batch = pack_indexed<VertexId>(
          take, [&](std::size_t i) { return live(pending[i]); },
          [&](std::size_t i) { return pending[i]; });
      std::vector<VertexId> rest(
          pending.begin() + static_cast<std::ptrdiff_t>(take), pending.end());
      if (batch.empty()) {
        pending = std::move(rest);
        continue;
      }

      // Elect one pivot per touched subproblem: the batch member with the
      // smallest permutation rank (encoded rank||vertex, min via CAS).
      parallel_for(0, batch.size(), [&](std::size_t i) {
        std::uint64_t s = sub[batch[i]];
        tag[s].store(round, std::memory_order_relaxed);
        cand[s].store(~0ULL, std::memory_order_relaxed);
      });
      parallel_for(0, batch.size(), [&](std::size_t i) {
        VertexId v = batch[i];
        std::uint64_t key =
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(rng.ith_rand(v)))
             << 32) |
            v;
        write_min(cand[sub[v]], key);
      });
      auto pivots = pack_indexed<VertexId>(
          batch.size(),
          [&](std::size_t i) {
            VertexId v = batch[i];
            return static_cast<VertexId>(
                       cand[sub[v]].load(std::memory_order_relaxed)) == v;
          },
          [&](std::size_t i) { return batch[i]; });

      // Forward and backward restricted reachability from the pivots.
      parallel_for(0, n, [&](std::size_t i) {
        fw[i].store(0, std::memory_order_relaxed);
        bw[i].store(0, std::memory_order_relaxed);
      });
      internal::multi_reach(g, gt, pivots, sub, live, fw, opt, stats);
      internal::multi_reach(gt, g, pivots, sub, live, bw, opt, stats);

      // Classify every live vertex of a pivoted subproblem.
      parallel_for(0, n, [&](std::size_t vi) {
        VertexId v = static_cast<VertexId>(vi);
        if (!live(v)) return;
        std::uint64_t s = sub[v];
        if (tag[s].load(std::memory_order_relaxed) != round) return;
        VertexId p =
            static_cast<VertexId>(cand[s].load(std::memory_order_relaxed));
        bool f = fw[v].load(std::memory_order_relaxed);
        bool b = bw[v].load(std::memory_order_relaxed);
        if (f && b) {
          label[v].store(scc_label_of(p), std::memory_order_relaxed);
        } else if (f) {
          sub[v] = 4 * static_cast<std::uint64_t>(p) + 1;
        } else if (b) {
          sub[v] = 4 * static_cast<std::uint64_t>(p) + 2;
        } else {
          sub[v] = 4 * static_cast<std::uint64_t>(p) + 3;
        }
      });

      // Retry surviving batch members ahead of the untouched tail.
      auto leftovers = filter(std::span<const VertexId>(batch),
                              [&](VertexId v) { return live(v); });
      leftovers.insert(leftovers.end(), rest.begin(), rest.end());
      pending = std::move(leftovers);
    }
    stats->phase_end();

    return tabulate(n, [&](std::size_t v) {
      return label[v].load(std::memory_order_relaxed);
    });
  });
}

RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  admit(algo_spec("scc", "gbbs"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) {
    // Same framework, reachability in strict one-hop frontier order: this is
    // the GBBS-style baseline whose round count scales with the diameter.
    AlgoOptions inner = opt;
    inner.vgc.tau = 1;
    inner.tracer = stats;
    return pasgal_scc(g, gt, inner).output;
  });
}

}  // namespace pasgal
