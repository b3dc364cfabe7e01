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
//                    hash-bag frontiers (plus edge_map_dense pull rounds,
//                    n visits each, when the frontier is huge).
//  * gbbs_scc      — identical framework, but reachability in strict
//                    BFS order (tau = 1): the baseline whose O(D)-round
//                    synchronization cost the paper measures.
//  * multistep_scc — Slota et al. (IPDPS'14): trim, FW-BW for the giant SCC,
//                    coloring for the rest, sequential cleanup.
//
// Every variant runs on a graph with a pending update overlay (it reads
// Graph::adjacency(); tarjan_scc through its resumable cursor).
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

using SccLabel = std::uint64_t;

// pasgal_scc/gbbs_scc read vgc, dense_threshold_den/use_dense (dense pull
// reachability rounds), cancel (checked at each dense round) and scc_seed
// (the pivot order; round r takes ~2^r pivots); gbbs_scc forces tau = 1.
// multistep_scc switches to sequential Tarjan when multistep_cutoff vertices
// remain.
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
