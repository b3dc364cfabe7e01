// Topological ordering of DAGs — another "peeling algorithm" in the family
// the paper's conclusion targets. Kahn peeling has the same large-diameter
// pathology as BFS: one synchronized wave per level of the DAG, and a deep
// dependency chain means O(depth) rounds. VGC collapses in-task chains.
//
//  * seq_toposort    — Kahn's algorithm with a queue (sequential baseline).
//  * pasgal_toposort — parallel Kahn over hash-bag frontiers with VGC:
//                      finishing a vertex may drop a successor's in-degree
//                      to zero; the task keeps peeling such chains locally.
//
// Both produce `level[v]` = length of the longest path ending at v — a
// canonical topological layering (u -> v implies level[u] < level[v]) that
// is schedule-independent, so parallel and sequential outputs are directly
// comparable. A cyclic input throws a kValidation Error naming the number
// of vertices stuck on cycles.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/error.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

// Library-only (no driver or daemon verb), so their guards are not catalog
// rows. pasgal_toposort reads opt.vgc.
RunReport<std::vector<std::uint32_t>> seq_toposort(const Graph& g,
                                                   const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> pasgal_toposort(const Graph& g,
                                                      const AlgoOptions& opt);

// Convenience: vertices sorted by (level, id) — a concrete topological order.
std::vector<VertexId> topological_order(std::span<const std::uint32_t> levels);

}  // namespace pasgal
