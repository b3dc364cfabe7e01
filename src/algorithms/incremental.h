// Incremental maintenance of BFS distances and connected components under
// delta-overlay updates (graphs/delta.h, DESIGN.md §5k).
//
// Contract: the caller holds a result computed *before* a batch was applied,
// applies the batch (apply_updates), then calls the repair function with the
// post-apply graph and the same batch. The repair re-settles only vertices
// whose patched neighborhoods can change the answer and is exact: the
// repaired result is byte-identical to recomputing from scratch on the
// effective graph (BFS hop distances and min-vertex component labels are
// unique fixpoints, so "identical" needs no tie-breaking caveats).
//
// Fallback: past a churn threshold (affected vertices / n), cascading repair
// loses to a straight recompute; the functions then recompute via the
// overlay-aware kernels and report fallback=true.
//
// Options: `opt` is the kernels' AlgoOptions. incremental_bfs reads
// `source`; both read `tracer` and `cancel`, which reach the repair's
// edge_map rounds and the fallback recompute. A non-null tracer records the
// repair like any kernel run — the edges and vertices each phase touches,
// one round per phase or relaxation sweep, or the recompute's own rounds on
// fallback (the repair runs inside run_traced, so the recompute nests in
// it; pasgal/options.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphs/delta.h"
#include "graphs/graph.h"
#include "pasgal/options.h"

namespace pasgal {

struct IncrementalOptions {
  // Fall back to full recompute when (invalidated + insert seeds) exceeds
  // this fraction of n. 0 forces fallback, 1 never falls back.
  double churn_threshold = 0.05;
};

struct IncrementalStats {
  // Vertices whose value was recomputed (invalidated, improved, or
  // re-relaxed). Equal to full_settled on fallback.
  std::uint64_t resettled = 0;
  // What a from-scratch recompute settles: n.
  std::uint64_t full_settled = 0;
  bool fallback = false;
};

// Repairs hop distances from `opt.source` in place. `g`/`gt` are the post-apply
// graph and its transpose (overlay attached); `dist` holds the pre-batch
// distances and is repaired to exactly gbbs_bfs(g, gt, opt).
//
// Delete phase: a deleted tree edge (u,v) with dist[v] == dist[u]+1 makes v
// a candidate; a candidate without a surviving effective in-neighbor at
// dist-1 is invalidated, cascading along its out-edges. Repair phase:
// unit-weight Bellman-Ford relaxation seeded from the settled boundary of
// the invalidated region plus the settled sources of inserted edges —
// monotone atomic-min relaxation, so the fixpoint is the exact BFS level.
IncrementalStats incremental_bfs(const Graph& g, const Graph& gt,
                                 std::span<const EdgeUpdate> batch,
                                 std::vector<std::uint32_t>& dist,
                                 const AlgoOptions& opt,
                                 const IncrementalOptions& inc = {});

// Repairs min-vertex component labels (connected_components semantics on
// the symmetrized graph) in place. Insert-only batches union label classes
// — O(batch · α + n) relabel, no traversal. Any delete forces a full
// recompute (a deletion can split a component, which labels alone cannot
// detect); `g` is the post-apply directed graph, symmetrized internally.
IncrementalStats incremental_cc(const Graph& g,
                                std::span<const EdgeUpdate> batch,
                                std::vector<VertexId>& label,
                                const AlgoOptions& opt = {});

}  // namespace pasgal
