// Single-source shortest paths (§2.2 "Parallel SSSP").
//
// PASGAL's SSSP is the *stepping algorithm framework* (Dong, Gu, Sun,
// PPoPP'21) instantiated with BFS's pending pool (pasgal/pending_pool.h)
// and VGC:
//   * delta-stepping  — process all entries within `delta` of the minimum
//     pending distance per step;
//   * rho-stepping    — process the `rho` closest entries per step.
// Both are label-correcting: entries carry the tentative distance they were
// enqueued with and stale entries are skipped, so VGC's out-of-order local
// relaxations are safe.
//
// Baselines: sequential Dijkstra (binary heap) and round-synchronous
// frontier Bellman-Ford through edge_map (the O(D)-rounds baseline).
//
// Edge weights are uint32; distances are uint64 (kInfWeightDist if
// unreachable).
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/error.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

using Dist = std::uint64_t;
inline constexpr Dist kInfWeightDist = static_cast<Dist>(-1);

// Structural preconditions shared by every SSSP variant, run before any
// unchecked indexing: the source must exist, the weight array must cover
// every edge, and (n - 1) * max_weight — the largest distance any simple
// path can reach — must fit below `max_dist`, the algorithm's distance
// ceiling (2^32 - 1 for the stepping framework's packed 32-bit tentative
// distances, kInfWeightDist for the 64-bit baselines). Rejecting on that
// conservative product means no relaxation can overflow mid-run.
// All public SSSP entry points call this and throw the kValidation Error.
Status check_sssp_preconditions(const WeightedGraph<std::uint32_t>& g,
                                VertexId source, Dist max_dist);

// Source, knobs and tracer come from AlgoOptions.
RunReport<std::vector<Dist>> dijkstra(const WeightedGraph<std::uint32_t>& g,
                                      const AlgoOptions& opt);

// Frontier-synchronous Bellman-Ford (`-a em`): each round relaxes every
// out-edge of the vertices improved in the previous round, through
// edge_map_sparse, so sharded (.pgr --shard-mb) opens traverse shard-at-a-
// time with bounded residency. Push-only; needs no transpose. Checks
// opt.cancel at every round boundary.
RunReport<std::vector<Dist>> em_bellman_ford(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt);

// The stepping framework: rho-stepping (opt.sssp_rho entries per step) by
// default, delta-stepping (step width opt.sssp_delta) when
// opt.sssp_delta_mode is set. opt.vgc.tau = 1 disables VGC; opt.cancel is
// checked at every step boundary.
RunReport<std::vector<Dist>> stepping_sssp(const WeightedGraph<std::uint32_t>& g,
                                           const AlgoOptions& opt);

// Batched-SSSP landmark wrapper over the same batch surface as ms_bfs
// (bfs.h): validates the source list (check_batch_sources, typed kUsage),
// then runs stepping_sssp once per source inside one batch run, under the
// batch's tracer and the shared CancelToken — an expired token unwinds the
// whole batch with kTimeout. Weighted distances have no bit-parallel kernel,
// so the per-source slices carry real wall times and the batch telemetry
// accumulates every run's rounds.
BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt);

}  // namespace pasgal
