// k-core decomposition (coreness) — the first of the paper's stated
// extension targets ("we believe the techniques in current PASGAL can be
// extended to more problems, including k-core and other peeling
// algorithms").
//
// The coreness of v is the largest k such that v belongs to a subgraph of
// minimum degree k. Input must be symmetrized (undirected), as for BCC.
//
//  * seq_kcore    — Batagelj-Zaversnik bucket peeling, O(n + m), the
//                   sequential baseline.
//  * pasgal_kcore — parallel peeling over hash-bag buckets with VGC:
//                   peeling one vertex may drop a neighbour into the current
//                   bucket, and the local search keeps peeling such chains
//                   in-task (up to tau vertices) instead of paying a global
//                   round per peeling wave — the same large-diameter
//                   pathology BFS has, since peeling chains can be O(n) long
//                   (e.g. a path peels end-in, one wave per round).
//                   Buckets exist only for an open window of 64 levels;
//                   a decrement inserts its neighbour only when the new
//                   degree lands in that window. Vertices above it wait in
//                   one compacted list, which each window advance filters
//                   once to seed the next window: O(n + m/64) list work
//                   and no overflow bucket re-inserting hubs.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

// pasgal_kcore reads opt.vgc (tau = 1 disables in-task peeling chains).
RunReport<std::vector<std::uint32_t>> seq_kcore(const Graph& g,
                                                const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> pasgal_kcore(const Graph& g,
                                                   const AlgoOptions& opt);

}  // namespace pasgal
