// Triangle counting on symmetrized graphs.
//
// Both kernels orient the graph into a degree-ordered DAG first (keep edge
// u->v iff (deg(u), u) < (deg(v), v)): every triangle then appears exactly
// once, as the wedge u->v, u->w with v->w, and each directed list's length is
// bounded by O(sqrt(m)) on any graph — the classic work bound. The v2
// compressed decoder and every CSR builder in graphs/ guarantee sorted
// adjacency lists, so the filtered DAG lists are sorted for free.
//
//  * seq_tc    — sequential; each wedge closes with a sorted-list merge of
//                u's and v's DAG lists (|lu| + |lv| reads per DAG edge). The
//                independent reference the tests and perfbench compare to.
//  * pasgal_tc — parallel over DAG sources against a marked row: set one bit
//                per vertex of u's list, count the set bits each v in it
//                hits in v's list, clear exactly those bits. Work is
//                |lu| + sum over v in lu of |lv| per source, O(m^1.5) in
//                total with no |lu|^2 term; memory is one ceil(n/64)-word
//                bitset per worker, p * ceil(n/64) words per call.
//
// Both need whole-graph adjacency access (random access into the DAG
// lists), so sharded opens are rejected upstream with a typed kUsage error.
#pragma once

#include <cstdint>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

// Number of triangles in the symmetrized input graph. The input must carry
// each undirected edge in both directions (Graph::symmetrize output);
// self-loops are ignored, duplicate edges must already be deduplicated.
// pasgal_tc checks opt.cancel between source blocks (the kernel's round
// boundaries); expiry unwinds with a typed kTimeout before the next block.
// It records two phases on the tracer: "dag" (the orientation) and "count".
RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt);
RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt);

// seq_tc with default options, returning the count alone (the serving
// benchmark's tool calls this form).
inline std::uint64_t seq_tc(const Graph& g) { return seq_tc(g, {}).output; }

}  // namespace pasgal
