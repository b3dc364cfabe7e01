// Biconnected components (§2.2 "Parallel Biconnectivity").
//
// Input: an undirected graph stored symmetrized (every edge in both
// directions, no self-loops, no duplicates — i.e. Graph::symmetrize output).
// Output: a label per directed edge slot; two edges share a label iff they
// belong to the same biconnected component, and both copies of an undirected
// edge always agree.
//
//  * hopcroft_tarjan_bcc — the sequential baseline (iterative DFS with an
//    edge stack).
//  * fast_bcc            — this paper / Dong et al. (PPoPP'23): spanning
//    forest + Euler tour + low/high over subtree intervals + "fence"
//    classification + connectivity on an O(n)-node skeleton. O(n+m) work,
//    polylog span, O(n) auxiliary space; no BFS anywhere.
//  * tarjan_vishkin_bcc  — the classic parallel baseline: materializes the
//    O(m)-node auxiliary edge graph (its space blowup is what the paper's
//    BCC table shows as o.o.m. on billion-edge graphs).
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct BccResult {
  // edge_label[e] for every directed edge slot e; labels are arbitrary ids.
  std::vector<std::uint64_t> edge_label;
  std::size_t num_bccs = 0;
};

RunReport<BccResult> hopcroft_tarjan_bcc(const Graph& g,
                                         const AlgoOptions& opt);
RunReport<BccResult> fast_bcc(const Graph& g, const AlgoOptions& opt);
RunReport<BccResult> tarjan_vishkin_bcc(const Graph& g,
                                        const AlgoOptions& opt);

// GBBS-style baseline: FAST-BCC's post-processing on a BFS spanning forest —
// the level-synchronous BFS costs O(D) rounds, which is what the paper's
// BCC comparison penalizes on large-diameter graphs.
RunReport<BccResult> gbbs_bcc(const Graph& g, const AlgoOptions& opt);

// Canonical form for comparing partitions across algorithms: each edge is
// relabeled with the smallest directed-edge slot in its component.
std::vector<EdgeId> normalize_bcc_labels(std::span<const std::uint64_t> labels);

// Derived structure queries (on any BccResult + its graph):
// articulation points = vertices incident to >= 2 distinct edge labels;
// bridges = undirected edges alone in their component.
std::vector<VertexId> articulation_points(const Graph& g, const BccResult& bcc);
std::size_t count_bridges(const Graph& g, const BccResult& bcc);

}  // namespace pasgal
