// Triangle counting on symmetrized graphs by sorted-adjacency intersection.
//
// Both kernels orient the graph into a degree-ordered DAG first (keep edge
// u->v iff (deg(u), u) < (deg(v), v)): every triangle then appears exactly
// once, as the wedge u->v, u->w with v->w, and each directed list's length is
// bounded by O(sqrt(m)) on any graph — the classic work bound. The v2
// compressed decoder and every CSR builder in graphs/ guarantee sorted
// adjacency lists, so the filtered DAG lists are sorted for free and each
// wedge closes with one sorted-list intersection.
//
//  * seq_tc    — sequential merge intersections; the test reference.
//  * pasgal_tc — parallel over DAG sources with a merge-vs-binary-search
//                hybrid per intersection: when one list is more than
//                kTcBinarySearchRatio times longer than the other, binary-
//                searching the short list's entries into the long one beats
//                the linear merge (|short| * log|long| < |short| + |long|).
//
// Both need whole-graph adjacency access (random access into the DAG
// lists), so sharded opens are rejected upstream with a typed kUsage error.
#pragma once

#include <cstdint>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

// Degree ratio above which an intersection switches from the linear merge to
// binary-searching the shorter list into the longer one.
inline constexpr std::uint64_t kTcBinarySearchRatio = 8;

// Number of triangles in the symmetrized input graph. The input must carry
// each undirected edge in both directions (Graph::symmetrize output);
// self-loops are ignored, duplicate edges must already be deduplicated.
// pasgal_tc checks opt.cancel between source blocks (the kernel's round
// boundaries); expiry unwinds with a typed kTimeout before the next block.
RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt);
RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt);

// seq_tc with default options, returning the count alone (the serving
// benchmark's tool calls this form).
inline std::uint64_t seq_tc(const Graph& g) { return seq_tc(g, {}).output; }

}  // namespace pasgal
