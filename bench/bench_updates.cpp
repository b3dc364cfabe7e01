// Dynamic-update throughput: delta-overlay apply rate and incremental BFS
// repair vs from-scratch recompute (graphs/delta.h, algorithms/incremental.h).
//
// Two regimes from the suite: SOC-LJ (power-law, low diameter — deletes
// rarely disconnect anything, repairs stay local) and ROAD-NA (lattice,
// D ~ sqrt(n) — a deleted one-way street invalidates a long corridor). Each
// round applies one mixed insert/delete batch and repairs the maintained
// distance vector; the full-recompute column is the overlay-aware gbbs run
// the repair must match.
#include <cstdio>
#include <random>
#include <set>

#include "algorithms/incremental.h"
#include "graphs/delta.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

// Mixed batch of valid updates against the evolving effective edge set
// (tracked the same way apply_updates validates, so every op is accepted).
std::vector<EdgeUpdate> make_batch(const Graph& g,
                                   std::set<std::uint64_t>& present,
                                   std::vector<std::uint64_t>& edges,
                                   std::mt19937_64& rng, std::size_t count) {
  std::size_t n = g.num_vertices();
  auto key = [](VertexId u, VertexId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::vector<EdgeUpdate> batch;
  batch.reserve(count);
  while (batch.size() < count) {
    if (!edges.empty() && (rng() & 1) != 0) {
      std::size_t pick = rng() % edges.size();
      std::uint64_t k = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      present.erase(k);
      batch.push_back({EdgeUpdate::Op::kDelete,
                       static_cast<VertexId>(k >> 32),
                       static_cast<VertexId>(k & 0xFFFFFFFFu)});
      continue;
    }
    VertexId u = static_cast<VertexId>(rng() % n);
    VertexId v = static_cast<VertexId>(rng() % n);
    if (present.count(key(u, v)) != 0) continue;
    present.insert(key(u, v));
    edges.push_back(key(u, v));
    batch.push_back({EdgeUpdate::Op::kInsert, u, v});
  }
  return batch;
}

}  // namespace

int main() {
  constexpr std::size_t kBatchOps = 2000;
  constexpr int kBatches = 4;

  for (const auto& spec : graph_suite()) {
    if (spec.name != "SOC-LJ" && spec.name != "ROAD-NA") continue;
    Graph g = spec.build();
    Graph gt = spec.directed ? g.transpose() : g;
    VertexId source = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.out_degree(v) > g.out_degree(source)) source = v;
    }

    std::set<std::uint64_t> present;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.neighbors(u)) {
        present.insert((static_cast<std::uint64_t>(u) << 32) | v);
      }
    }
    std::vector<std::uint64_t> edges(present.begin(), present.end());
    std::mt19937_64 rng(42);

    std::vector<std::uint32_t> dist =
        gbbs_bfs(g, gt, {.source = source}).output;
    double full_seconds =
        time_seconds([&] { gbbs_bfs(g, gt, {.source = source}); }, 2);

    std::printf("\n=== update throughput on %s (n=%zu m=%zu) ===\n",
                spec.name.c_str(), g.num_vertices(), g.num_edges());
    std::printf("full gbbs recompute: %.4f s\n", full_seconds);
    std::printf("%-8s %12s %14s %12s %12s %10s\n", "batch", "apply(s)",
                "updates/s", "repair(s)", "speedup", "resettled");
    for (int b = 0; b < kBatches; ++b) {
      std::vector<EdgeUpdate> batch =
          make_batch(g, present, edges, rng, kBatchOps);
      double apply_s = time_seconds([&] { apply_updates(g, batch); });
      IncrementalStats st;
      double repair_s = time_seconds([&] {
        st = incremental_bfs(g, gt, batch, dist, {.source = source});
      });
      std::printf("%-8d %12.4f %14.0f %12.4f %11.1fx %10llu\n", b + 1,
                  apply_s, static_cast<double>(batch.size()) / apply_s,
                  repair_s, repair_s > 0 ? full_seconds / repair_s : 0.0,
                  static_cast<unsigned long long>(st.resettled));
    }
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: apply throughput is batch-size-bound (the snapshot\n"
      "rebuild re-copies the overlay), so larger batches amortize better.\n"
      "Repair wins big on SOC-LJ (a few thousand updates touch a vanishing\n"
      "fraction of a power-law ball) and less on ROAD-NA, where one deleted\n"
      "corridor edge can invalidate a distance cone proportional to the\n"
      "graph's sqrt(n) diameter.\n");
  return 0;
}
