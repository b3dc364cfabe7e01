// Connected components on undirected (or symmetrized) graphs.
//
//  * connected_components — lock-free concurrent union-find (link higher-
//    indexed root under lower, path-halving finds). Also emits an arbitrary
//    spanning forest: the edges whose union call merged two components.
//    Used as a building block by SCC trimming and FAST-BCC.
//  * label_prop_cc — classic label-propagation baseline (O(D) rounds), the
//    cc family's second catalog row (catalog_agreement checks it against
//    union-find): it exhibits exactly the round-count blowup on
//    large-diameter graphs that the paper targets.
#pragma once

#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct ConnectivityResult {
  // label[v] = smallest vertex id in v's component.
  std::vector<VertexId> label;
  // Edges of an arbitrary spanning forest (n - #components of them).
  std::vector<Edge> forest;
  std::size_t num_components = 0;
};

// Treats every directed edge {u,v} as undirected. Work O(m alpha(n)).
RunReport<ConnectivityResult> connected_components(const Graph& g,
                                                   const AlgoOptions& opt);

// Label propagation: rounds of min-label exchange until fixpoint. Returns
// min-vertex labels like connected_components (no forest).
RunReport<std::vector<VertexId>> label_prop_cc(const Graph& g,
                                               const AlgoOptions& opt);

// Number of distinct labels (helper shared by CC/SCC/BCC consumers).
std::size_t count_distinct_labels(std::span<const VertexId> labels);

}  // namespace pasgal
