// PageRank — the first of the four standard serving workloads promoted to a
// full vertical (driver, server verb, metrics, bench): iterative dense pull
// over the transpose with per-round L1-delta convergence.
//
//  * seq_pagerank    — textbook power iteration, one thread; the reference
//                      the parallel kernel is compared against in tests.
//  * pasgal_pagerank — dense edge_map pull (pull_exhaustive: every vertex
//                      accumulates from ALL in-neighbours each round). Each
//                      destination's in-edges are summed sequentially by one
//                      task and the convergence reduction uses the fixed
//                      block tree in parlay/primitives.h, so ranks are
//                      byte-identical across worker counts AND across
//                      sharded vs in-core execution (a shard covers a
//                      contiguous destination range with its whole in-edge
//                      payload, so no per-vertex summation order changes).
//
// Ranks follow the damped model: rank'(v) = (1-d)/n + d * (sum over in-
// neighbours u of rank(u)/outdeg(u) + dangling_mass/n), where dangling_mass
// is the rank held by zero-out-degree vertices (redistributed uniformly so
// the ranks keep summing to 1). Iteration stops when the L1 delta between
// consecutive rank vectors drops below epsilon, or after max_iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/cancel.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct PagerankParams {
  std::uint32_t max_iterations = 100;
  double epsilon = 1e-7;  // L1 convergence threshold
  double damping = 0.85;
  // Checked at every round boundary (and, via edge_map, at every shard
  // sweep boundary) by the round master; expiry unwinds with kTimeout.
  const CancelToken* cancel = nullptr;
};

struct PagerankResult {
  std::vector<double> rank;     // sums to 1 (within rounding)
  std::uint32_t iterations = 0; // rounds actually executed
  double delta = 0;             // L1 delta of the final round
};

// Sequential power iteration over explicit in-edges (gt). In-core only.
PagerankResult seq_pagerank(const Graph& g, const Graph& gt,
                            const PagerankParams& params = {},
                            Tracer* stats = nullptr);

// Parallel dense pull through edge_map (g supplies out-degrees, gt supplies
// in-edges). Works on sharded opens: the pull walks gt's shard plan.
PagerankResult pasgal_pagerank(const Graph& g, const Graph& gt,
                               const PagerankParams& params = {},
                               Tracer* stats = nullptr);

// --- Modern entry points (algorithms/run_api.cpp) ---------------------------
RunReport<PagerankResult> seq_pagerank(const Graph& g, const Graph& gt,
                                       const AlgoOptions& opt);
RunReport<PagerankResult> pasgal_pagerank(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt);

}  // namespace pasgal
