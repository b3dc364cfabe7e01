// Breadth-first search: PASGAL's VGC algorithm and the paper's baselines.
//
// All variants return the vector of hop distances from `source`
// (kInfDist for unreachable vertices), so they are directly comparable.
//
//  * seq_bfs     — the paper's sequential baseline: queue-based BFS.
//  * gbbs_bfs    — GBBS-style level-synchronous edge_map BFS with
//                  sparse/dense direction optimization.
//  * gapbs_bfs   — GAPBS-style direction-optimizing BFS (Beamer's alpha/beta
//                  hysteresis controller over edge_map_sparse/_dense).
//  * pasgal_bfs  — this paper: hash-bag frontiers, vertical granularity
//                  control with multi-frontier (2^i) distance buckets, and
//                  direction optimization from the global-minimum pending
//                  level once the lowest bucket is heavy (§2.2).
//  * ms_bfs      — bit-parallel multi-source BFS (Then et al., VLDB'14 style):
//                  one shared frontier sweep advances up to 64 sources, one
//                  per bit of a per-vertex machine word.
//
// Every dense (pull) round runs through edge_map_dense, which counts n
// visits per round (each vertex is tested against cond). Every variant runs
// on a graph with a pending update overlay (it reads Graph::adjacency()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

inline constexpr std::uint32_t kInfDist = static_cast<std::uint32_t>(-1);

// Source, tuning knobs and tracer come from AlgoOptions; the result bundles
// the distances with wall time and the run's aggregated telemetry.
RunReport<std::vector<std::uint32_t>> seq_bfs(const Graph& g,
                                              const AlgoOptions& opt);

// `gt` is the transpose (pass g itself for symmetric graphs); needed for the
// dense (pull) direction. Both read dense_threshold_den/use_dense (gapbs
// only through edge_map's knobs, its alpha/beta controller picks the
// direction) and cancel, checked at every level boundary (kTimeout).
RunReport<std::vector<std::uint32_t>> gbbs_bfs(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt);

// Beamer's hysteresis: switch to bottom-up when frontier edges exceed
// remaining/kGapbsAlpha, back to top-down when |frontier| < n/kGapbsBeta.
inline constexpr int kGapbsAlpha = 15;
inline constexpr int kGapbsBeta = 18;
RunReport<std::vector<std::uint32_t>> gapbs_bfs(const Graph& g, const Graph& gt,
                                                const AlgoOptions& opt);

// pasgal_bfs engages VGC only when the frontier's work is below
// kVgcEngageFactor*tau edge operations (pasgal/vgc.h) — i.e. when per-round
// work is too small to amortize scheduling on a many-core machine — and each
// of its local searches stops at that many scanned edges.
// Reads vgc, dense_threshold_den/use_dense (dense pull rounds) and cancel
// (checked at every sparse round and, inside edge_map_dense, every dense
// level).
RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt);

// --- bit-parallel multi-source BFS ------------------------------------------
// Each vertex carries a 64-bit `seen` mask (sources that have reached it) and
// a `visit` mask (sources that reached it last round). One level-synchronous
// sweep advances the whole batch: sparse rounds push `visit` masks along
// out-edges, OR-ing new bits into the targets and collecting first-touched
// vertices through a hash bag; dense rounds pull the in-edges of every
// vertex still missing a live bit (a source that advanced last level) via
// edge_map_dense (cond stays true until the vertex holds every live bit —
// the AND-NOT against `seen` must gather bits from every in-neighbour, not
// stop at the first hit).
// The per-source distances are byte-identical to running the single-source
// variants once per source.
//
// Validates the source list (check_batch_sources, typed kUsage), runs the
// kernel once, and slices the result into one RunReport per source, in
// input order (amortized seconds; the shared sweep's telemetry is
// batch-level — see BatchReport in options.h). Reads
// dense_threshold_den/use_dense and cancel (checked at every round boundary;
// expiry unwinds the whole batch).
BatchReport<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt);

}  // namespace pasgal
