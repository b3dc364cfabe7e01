// Low-diameter decomposition (Miller-Peng-Xu) and LDD-based connectivity —
// the substrate GBBS's connectivity is built on, included both for
// completeness and as the round-count foil to the union-find CC
// (LDD needs O(log n / beta) BFS-like rounds; union-find needs one pass).
//
// ldd(g, beta): partitions V into clusters, each of O(log n / beta) diameter
// w.h.p., such that at most ~beta*m edges cross clusters. Every vertex v
// draws a start delay ~ Exponential(beta); cluster centres wake when their
// delay elapses and grow level-synchronously, claiming unclaimed vertices.
//
// ldd_cc: contract clusters and repeat until no edges remain — the
// classic O((n+m) log n)-work, polylog-span parallel connectivity.
#pragma once

#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct LddResult {
  // cluster[v] = centre vertex of v's cluster.
  std::vector<VertexId> cluster;
  std::size_t num_clusters = 0;
  std::size_t rounds = 0;
};

LddResult ldd(const Graph& g, double beta = 0.2, std::uint64_t seed = 1,
              Tracer* stats = nullptr);

// Connectivity labels (min vertex per component, same contract as
// connected_components) computed by repeated LDD + contraction. beta and
// seed ride AlgoOptions::scc_beta / scc_seed (the same knobs the SCC pivot
// batching uses); iteration i decomposes with seed + i.
RunReport<std::vector<VertexId>> ldd_cc(const Graph& g, const AlgoOptions& opt);

}  // namespace pasgal
