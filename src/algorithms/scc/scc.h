// Strongly connected components (§2.1 — the paper's worked example).
//
// All variants return a label per vertex; two vertices get equal labels iff
// they are in the same SCC. Label values are algorithm-specific; use
// normalize_scc_labels for cross-algorithm comparison.
//
//  * tarjan_scc    — the sequential baseline: Tarjan's algorithm (iterative,
//                    explicit stack; safe on million-vertex chains).
//  * pasgal_scc    — this paper: trimming + randomized batched pivots, with
//                    reachability searches run as VGC local searches over
//                    hash-bag frontiers (plus dense pull rounds when the
//                    frontier is huge).
//  * gbbs_scc      — identical framework, but reachability in strict
//                    BFS order (tau = 1): the baseline whose O(D)-round
//                    synchronization cost the paper measures.
//  * multistep_scc — Slota et al. (IPDPS'14): trim, FW-BW for the giant SCC,
//                    coloring for the rest, sequential cleanup.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

using SccLabel = std::uint64_t;

std::vector<SccLabel> tarjan_scc(const Graph& g, Tracer* stats = nullptr);

struct SccParams {
  VgcParams vgc;
  // Dense (pull) reachability rounds when frontier work > m/den.
  EdgeId dense_threshold_den = 20;
  bool use_dense = true;
  // Batch growth: round r uses ~beta^r pivots.
  double beta = 2.0;
  std::uint64_t seed = 42;
};

std::vector<SccLabel> pasgal_scc(const Graph& g, const Graph& gt,
                                 SccParams params = {},
                                 Tracer* stats = nullptr);

std::vector<SccLabel> gbbs_scc(const Graph& g, const Graph& gt,
                               SccParams params = {}, Tracer* stats = nullptr);

struct MultistepParams {
  // Switch to sequential Tarjan when this many vertices remain.
  std::size_t sequential_cutoff = 1000;
};
std::vector<SccLabel> multistep_scc(const Graph& g, const Graph& gt,
                                    MultistepParams params = {},
                                    Tracer* stats = nullptr);

// --- Modern entry points (algorithms/run_api.cpp) ---------------------------
// The SCC family reads vgc/dense/scc_beta/scc_seed/multistep_cutoff from the
// options.
RunReport<std::vector<SccLabel>> tarjan_scc(const Graph& g,
                                            const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> pasgal_scc(const Graph& g, const Graph& gt,
                                            const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt);

// Rewrites labels so each SCC is named by its smallest vertex id; makes
// outputs of different algorithms directly comparable.
std::vector<VertexId> normalize_scc_labels(std::span<const SccLabel> labels);

}  // namespace pasgal
