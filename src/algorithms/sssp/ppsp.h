// Point-to-point shortest paths (s -> t) — the paper's third extension
// target. Two classic algorithms over the weighted CSR type:
//
//  * ppsp_dijkstra      — unidirectional Dijkstra with early exit at t.
//  * ppsp_bidirectional — bidirectional Dijkstra (forward from s on g,
//                         backward from t on the transpose), meeting in the
//                         middle; explores ~2*(d/2)-balls instead of one
//                         d-ball, a large win on large-diameter graphs.
//
// Both return the distance (kInfWeightDist if t unreachable) and report the
// number of settled vertices through Tracer::vertices_visited.
#pragma once

#include "algorithms/sssp/sssp.h"

namespace pasgal {

Dist ppsp_dijkstra(const WeightedGraph<std::uint32_t>& g, VertexId source,
                   VertexId target, Tracer* stats = nullptr);

// `gt` must be the weighted transpose of `g`.
Dist ppsp_bidirectional(const WeightedGraph<std::uint32_t>& g,
                        const WeightedGraph<std::uint32_t>& gt, VertexId source,
                        VertexId target, Tracer* stats = nullptr);

}  // namespace pasgal
