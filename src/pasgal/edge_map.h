// edge_map with direction optimization (Beamer et al., SC'12): the one
// frontier traversal of the library, used by every level-synchronous kernel.
//
//   update(u, v)       — try to activate v from u (must be atomic; returns
//                        true iff this call activated v)
//   update_seq(u, v)   — same but called without concurrency on v (dense
//                        backward mode scans v's in-edges from one task)
//   cond(v)            — is v still eligible for activation
//
// Sparse ("push") mode maps over the frontier's out-edges and collects newly
// activated vertices. Dense ("pull") mode iterates all eligible vertices and
// scans v's in-edges while cond(v) holds (Ligra's edgeMapDense rule): a
// first-hit traversal (BFS, reachability) makes cond(v) false in the update
// that activates v, so the scan stops there; a gathering one (ms_bfs,
// PageRank) keeps cond(v) true and scans every in-edge.
//
// Knobs come from the caller's AlgoOptions: use_dense/dense_threshold_den
// drive go_dense() below, and cancel is checked at every round and shard
// boundary. Both directions are also exposed as named entry points
// (edge_map_sparse / edge_map_dense) for callers that steer their own
// rounds (gapbs_bfs, pasgal_bfs, multi_reach, ms_bfs, PageRank).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "graphs/graph.h"
#include "parlay/primitives.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"
#include "pasgal/vertex_subset.h"

namespace pasgal {

namespace internal {

// Updates may optionally take the edge id as a third argument (weighted
// traversals index the weights array with it). In sparse/push mode `e` is
// the edge's global id in g; in dense/pull mode it is the in-edge's id in gt.
template <typename F>
inline bool invoke_update(F& f, VertexId u, VertexId v, EdgeId e) {
  if constexpr (std::is_invocable_v<F&, VertexId, VertexId, EdgeId>) {
    return f(u, v, e);
  } else {
    return f(u, v);
  }
}

}  // namespace internal

// The direction rule, shared by edge_map and every caller that steers its
// own rounds: pull when the frontier's work, |F| + outdeg(F), exceeds
// m / dense_threshold_den (GAPBS uses m/20).
inline bool go_dense(EdgeId frontier_work, EdgeId m, const AlgoOptions& opt) {
  return opt.use_dense && frontier_work > m / opt.dense_threshold_den;
}

inline bool go_dense(const Graph& g, const VertexSubset& frontier,
                     const AlgoOptions& opt) {
  return go_dense(frontier.out_degree_sum(g) + frontier.size(),
                  g.num_edges(), opt);
}

// Dense ("pull") direction: iterate all cond()-eligible vertices, scan each
// one's in-neighbours while cond(v) holds (gt supplies in-edges; pass g
// itself for symmetric graphs). Visits count n per round: every vertex is
// tested against cond.
template <typename UpdateSeq, typename Cond>
VertexSubset edge_map_dense(const Graph& g, const Graph& gt,
                            VertexSubset& frontier, UpdateSeq update_seq,
                            Cond cond, const AlgoOptions& opt = {},
                            Tracer* stats = nullptr) {
  // Unchecked indexing below (neighbors(), in_frontier[u]) requires in-range
  // targets; un-deep-validated mmap storages are checked once here (a
  // single atomic load afterwards).
  g.ensure_validated();
  gt.ensure_validated();
  if (opt.cancel != nullptr) opt.cancel->check("edge_map round boundary");
  std::size_t n = g.num_vertices();
  if (stats) stats->set_round_kind(RoundKind::kDense);
  frontier.to_dense();
  const auto& in_frontier = frontier.dense_mask();
  std::vector<std::uint8_t> next(n, 0);
  // In-edges through the overlay, taken once per round (gt carries the
  // flipped, in-edge side — see graphs/delta.h). The merged lists keep the
  // ascending order a rebuilt CSR stores, so activation order (and every
  // downstream pack) matches a from-scratch rebuild.
  Adjacency in = gt.adjacency();
  // One destination range, in-edge targets supplied by the caller (the whole
  // mapped array in-core, the active shard's window when sharded).
  // Activations are counted as they happen, so the resulting subset's
  // cardinality is known without VertexSubset::dense's O(n) recount — and
  // counted per range, so per-shard sweeps sum to the identical total.
  auto scan_range = [&](std::size_t v_begin, std::size_t v_end,
                        const VertexId* tgt, EdgeId e_base) -> std::size_t {
    return reduce_indexed<std::size_t>(
        v_end - v_begin, 0, std::plus<std::size_t>{},
        [&](std::size_t rel) -> std::size_t {
          VertexId v = static_cast<VertexId>(v_begin + rel);
          if (!cond(v)) return 0;
          std::uint64_t scanned = 0;
          std::size_t hit = 0;
          auto visit = [&](VertexId u, EdgeId e) -> bool {
            ++scanned;
            if (in_frontier[u] &&
                internal::invoke_update(update_seq, u, v, e)) {
              next[v] = 1;
              hit = 1;
            }
            return cond(v);  // false: v is decided, nothing more to gather
          };
          in.scan(v, visit, tgt, e_base);
          if (stats) stats->add_edges(scanned);
          return hit;
        });
  };
  std::size_t activated = 0;
  const auto& window =
      gt.storage() != nullptr ? gt.storage()->shard_window() : nullptr;
  if (window == nullptr) {
    activated = scan_range(0, n, gt.targets().data(), 0);
  } else {
    // Pull scans in-edges, so the sweep follows gt's shard plan: each shard
    // covers a contiguous destination range and its in-edge payload.
    const ShardPlan& plan = window->plan();
    for (std::size_t s = 0; s < plan.size(); ++s) {
      if (opt.cancel != nullptr) opt.cancel->check("shard sweep boundary");
      MappedWindow::ActiveShard shard = window->activate(s);
      activated += scan_range(plan[s].v_begin, plan[s].v_end, shard.targets,
                              shard.e_base);
    }
  }
  if (stats) stats->add_visits(n);
  return VertexSubset::dense(std::move(next), activated);
}

// Sparse ("push") direction: map over the frontier's out-edges, collect
// newly activated vertices via a two-phase pack.
template <typename Update, typename Cond>
VertexSubset edge_map_sparse(const Graph& g, VertexSubset& frontier,
                             Update update, Cond cond,
                             const AlgoOptions& opt = {},
                             Tracer* stats = nullptr) {
  g.ensure_validated();
  if (opt.cancel != nullptr) opt.cancel->check("edge_map round boundary");
  std::size_t n = g.num_vertices();
  if (stats) stats->set_round_kind(RoundKind::kSparse);
  frontier.to_sparse();
  const auto& verts = frontier.sparse_vertices();
  // Out-edges through the overlay, taken once per round.
  Adjacency out_edges = g.adjacency();
  // Two-phase pack: count activations per frontier vertex, then fill. The
  // scatter slots are sized by effective degree — exactly the number of
  // edges the scan visits.
  std::size_t k = verts.size();
  std::vector<EdgeId> offsets(k + 1);
  offsets[k] = scan_indexed<EdgeId>(
      k, [&](std::size_t i) { return out_edges.degree(verts[i]); },
      [&](std::size_t i, EdgeId v) { offsets[i] = v; });
  // Process the frontier slice [lo, hi) with the given targets view, writing
  // activations at out[offsets[i] - out_base ..].
  auto push_slice = [&](std::size_t lo, std::size_t hi, const VertexId* tgt,
                        EdgeId e_base, VertexId* out, EdgeId out_base) {
    parallel_for(lo, hi, [&](std::size_t i) {
      VertexId u = verts[i];
      EdgeId base = offsets[i] - out_base;
      std::uint64_t scanned = 0;
      EdgeId slot = 0;
      auto try_push = [&](VertexId v, EdgeId e) {
        ++scanned;
        if (cond(v) && internal::invoke_update(update, u, v, e)) {
          out[base + slot++] = v;
        }
      };
      out_edges.scan(u, try_push, tgt, e_base);
      if (stats) {
        stats->add_edges(scanned);
        stats->add_visits(1);
      }
    });
  };
  const auto& window =
      g.storage() != nullptr ? g.storage()->shard_window() : nullptr;
  if (window == nullptr) {
    std::vector<VertexId> out(offsets[k], kInvalidVertex);
    push_slice(0, k, g.targets().data(), 0, out.data(), 0);
    auto next = filter(std::span<const VertexId>(out),
                       [](VertexId v) { return v != kInvalidVertex; });
    return VertexSubset::sparse(n, std::move(next));
  }
  // Sharded push: the sparse list is sorted (VertexSubset invariant), so
  // the frontier partitions into contiguous per-shard slices found by
  // binary search; shards without frontier vertices are never activated.
  // Each slice gets its own scatter buffer — a slice's out-degree sum is
  // capped by its shard's edge count, so sparse-round scratch stays within
  // the window budget instead of scaling with the whole frontier's
  // out-degree. Slices are packed in frontier order, so the concatenated
  // activation list is identical to the one the single-buffer path packs.
  const ShardPlan& plan = window->plan();
  std::vector<VertexId> next;
  std::vector<VertexId> slice_out;
  std::size_t i = 0;
  while (i < k) {
    std::size_t s = plan.shard_of(verts[i]);
    std::size_t j =
        static_cast<std::size_t>(std::lower_bound(verts.begin() +
                                                      static_cast<std::ptrdiff_t>(i),
                                                  verts.end(),
                                                  plan[s].v_end) -
                                 verts.begin());
    if (opt.cancel != nullptr) opt.cancel->check("shard sweep boundary");
    MappedWindow::ActiveShard shard = window->activate(s);
    slice_out.assign(static_cast<std::size_t>(offsets[j] - offsets[i]),
                     kInvalidVertex);
    push_slice(i, j, shard.targets, shard.e_base, slice_out.data(),
               offsets[i]);
    auto kept = filter(std::span<const VertexId>(slice_out),
                       [](VertexId v) { return v != kInvalidVertex; });
    next.insert(next.end(), kept.begin(), kept.end());
    i = j;
  }
  return VertexSubset::sparse(n, std::move(next));
}

// Direction-optimizing wrapper: `g` supplies out-edges (push); `gt` supplies
// in-edges for the pull direction (pass g itself for symmetric graphs).
template <typename Update, typename UpdateSeq, typename Cond>
VertexSubset edge_map(const Graph& g, const Graph& gt, VertexSubset& frontier,
                      Update update, UpdateSeq update_seq, Cond cond,
                      const AlgoOptions& opt = {}, Tracer* stats = nullptr) {
  g.ensure_validated();
  if (go_dense(g, frontier, opt)) {
    return edge_map_dense(g, gt, frontier, update_seq, cond, opt, stats);
  }
  return edge_map_sparse(g, frontier, update, cond, opt, stats);
}

// Convenience overload when the same update works in both modes.
template <typename Update, typename Cond>
VertexSubset edge_map(const Graph& g, const Graph& gt, VertexSubset& frontier,
                      Update update, Cond cond, const AlgoOptions& opt = {},
                      Tracer* stats = nullptr) {
  return edge_map(g, gt, frontier, update, update, cond, opt, stats);
}

}  // namespace pasgal
