#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>

#include "algorithms/catalog.h"
#include "algorithms/kcore/kcore.h"
#include "parlay/sort.h"
#include "pasgal/hashbag.h"

namespace pasgal {

namespace {

// Entries carry the degree the vertex had when inserted; an entry is stale if
// the degree has since changed (the vertex has a fresher entry in a lower
// bucket) or the vertex is already peeled.
std::uint64_t encode(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
VertexId entry_vertex(std::uint64_t e) { return static_cast<VertexId>(e); }
std::uint32_t entry_deg(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

constexpr std::uint32_t kWindow = 64;  // open buckets [base, base + kWindow)

// One worker's peel-chain stack, on its own cache line.
struct alignas(64) WorkerStack {
  std::vector<VertexId> items;
};

}  // namespace

// Parallel coreness by bucketed peeling (Julienne-style buckets built from
// hash bags) with VGC: peeling v may drop a neighbour u to the current
// level k; the peeling task then claims and peels u in-task (up to tau
// vertices), collapsing O(length)-round peeling chains into one round.
//
// Only levels [base, base + kWindow) have buckets. A decrement inserts its
// neighbour only when the new degree lands in that window; a vertex above
// it waits, once, in `pending`. When level k leaves the window every
// unpeeled vertex has degree >= k, so one pass over `pending` reopens the
// window at the lowest such degree and seeds its levels directly.
RunReport<std::vector<std::uint32_t>> pasgal_kcore(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit(algo_spec("kcore", "pasgal"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    std::vector<std::atomic<std::uint32_t>> degree(n);
    std::vector<std::atomic<std::uint8_t>> peeled(n);
    parallel_for(0, n, [&](std::size_t v) {
      degree[v].store(
          static_cast<std::uint32_t>(g.out_degree(static_cast<VertexId>(v))),
          std::memory_order_relaxed);
      peeled[v].store(0, std::memory_order_relaxed);
    });
    auto is_peeled = [&](VertexId v) {
      return peeled[v].load(std::memory_order_relaxed) != 0;
    };
    auto deg = [&](VertexId v) {
      return degree[v].load(std::memory_order_relaxed);
    };

    std::vector<std::unique_ptr<HashBag<std::uint64_t>>> buckets;
    for (std::uint32_t b = 0; b < kWindow; ++b) {
      buckets.push_back(std::make_unique<HashBag<std::uint64_t>>(8));
      buckets.back()->attach_tracer(stats);
    }
    std::uint32_t base = 0;
    std::uint32_t k = 0;

    // After an advance, `pending` is sorted by min(degree - base, kWindow):
    // [seed_off[j], seed_off[j + 1]) are the vertices seeded at level
    // base + j, and [seed_off[kWindow], end) still wait above the window.
    // Seeds are peeled by the next advance, whose filter drops them.
    std::vector<VertexId> pending = iota<VertexId>(n);
    std::array<std::size_t, kWindow + 1> seed_off{};
    auto advance = [&] {
      pending = filter(std::span<const VertexId>(pending),
                       [&](VertexId v) { return !is_peeled(v); });
      base = reduce_indexed<std::uint32_t>(
          pending.size(), std::numeric_limits<std::uint32_t>::max(),
          [](std::uint32_t a, std::uint32_t b) { return std::min(a, b); },
          [&](std::size_t i) { return deg(pending[i]); });
      k = base;
      auto slot = [&](VertexId v) { return std::min(deg(v) - base, kWindow); };
      integer_sort_inplace(std::span<VertexId>(pending), slot, 8);
      for (std::uint32_t j = 0; j <= kWindow; ++j) {
        seed_off[j] = static_cast<std::size_t>(
            std::partition_point(pending.begin(), pending.end(),
                                 [&](VertexId v) { return slot(v) < j; }) -
            pending.begin());
      }
    };

    std::vector<std::uint32_t> core(n, 0);
    std::vector<WorkerStack> stacks(static_cast<std::size_t>(num_workers()));
    std::size_t remaining = n;

    auto try_claim = [&](VertexId v) {
      std::uint8_t expected = 0;
      return peeled[v].compare_exchange_strong(expected, 1,
                                               std::memory_order_relaxed);
    };

    advance();
    while (remaining > 0) {
      if (k - base >= kWindow) advance();
      std::uint32_t j = k - base;
      HashBag<std::uint64_t>& bucket = *buckets[j];
      std::size_t seed_lo = seed_off[j];
      std::size_t seeds = seed_off[j + 1] - seed_lo;
      if (seeds == 0 && bucket.empty()) {
        ++k;
        continue;
      }
      seed_off[j] = seed_off[j + 1];  // a level's seeds are read once
      auto entries = bucket.extract_all();
      // Ready = not peeled and degree matches the entry (a vertex whose
      // degree dropped since is handled by its fresher entry). Every entry
      // here has degree <= k; a seed's is k itself.
      auto entry_at = [&](std::size_t i) {
        return i < entries.size()
                   ? entries[i]
                   : encode(pending[seed_lo + i - entries.size()], k);
      };
      auto ready = pack_indexed<VertexId>(
          entries.size() + seeds,
          [&](std::size_t i) {
            std::uint64_t e = entry_at(i);
            VertexId v = entry_vertex(e);
            return !is_peeled(v) && deg(v) == entry_deg(e);
          },
          [&](std::size_t i) { return entry_vertex(entry_at(i)); });
      if (ready.empty()) {
        ++k;
        continue;
      }
      stats->end_round(ready.size(), opt.vgc.tau > 1 ? RoundKind::kLocal
                                                     : RoundKind::kSparse);

      // Peel the wave; VGC keeps chains in-task. Spillover at the current
      // level goes back into this level's bucket for the next wave.
      std::vector<std::size_t> peeled_by(ready.size(), 0);
      parallel_for(
          0, ready.size(),
          [&](std::size_t i) {
            VertexId root = ready[i];
            if (!try_claim(root)) return;
            std::vector<VertexId>& stack =
                stacks[static_cast<std::size_t>(worker_id())].items;
            stack.push_back(root);
            std::size_t peeled_in_task = 0;
            std::uint64_t edges = 0;
            while (!stack.empty()) {
              VertexId v = stack.back();
              stack.pop_back();
              ++peeled_in_task;
              core[v] = k;
              for (VertexId u : g.neighbors(v)) {
                ++edges;
                if (is_peeled(u)) continue;
                std::uint32_t d =
                    degree[u].fetch_sub(1, std::memory_order_relaxed) - 1;
                if (d <= k) {
                  // u falls into the current level.
                  if (peeled_in_task < opt.vgc.tau &&
                      stack.size() < kVgcLocalStackCap) {
                    if (try_claim(u)) stack.push_back(u);
                  } else {
                    bucket.insert(encode(u, d));
                  }
                } else if (d - base < kWindow) {
                  buckets[d - base]->insert(encode(u, d));
                }
              }
            }
            peeled_by[i] = peeled_in_task;
            stats->add_edges(edges);
            stats->add_visits(peeled_in_task);
            stats->add_local_depth(peeled_in_task);
          },
          1);
      remaining -= reduce_add(std::span<const std::size_t>(peeled_by));
    }
    return core;
  });
}

}  // namespace pasgal
