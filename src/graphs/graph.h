// Compressed-sparse-row graph representation and builders.
//
// Vertex ids are 32-bit, edge ids 64-bit (matching the paper's scale needs;
// Multistep's 32-bit edge limitation is one of its tabled weaknesses).
// A directed graph is a single CSR; algorithms needing reverse edges take an
// explicitly-built transpose. Undirected graphs are stored symmetrized (every
// edge appears in both directions), as in GBBS/PBBS.
//
// Storage model: a Graph is spans over a shared GraphStorage handle
// (graphs/storage.h), which owns the arrays either as heap buffers or as an
// mmap'd read-only `.pgr` segment. Copying a Graph shares the storage;
// `transpose()` and `symmetrize()` are memoized side by side on the handle,
// so every copy (and every bench variant) pays for the reverse CSR at most
// once and for the undirected view at most once per overlay version.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graphs/storage.h"
#include "parlay/parallel.h"
#include "parlay/primitives.h"
#include "parlay/sort.h"
#include "pasgal/error.h"

namespace pasgal {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

static_assert(std::is_same_v<VertexId, StorageVertexId>);
static_assert(std::is_same_v<EdgeId, StorageEdgeId>);

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
// Edge id an Adjacency scan (graphs/delta.h) hands out for overlay-inserted
// edges: they have no slot in the base targets array (weighted traversals
// never see one — updates on weighted graphs are rejected at apply_updates).
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

class Graph;
class Adjacency;

// The delta overlay collapsed into a plain heap CSR: (base minus deleted
// edges) plus inserted edges, per-vertex sorted — the same adjacency order a
// from-scratch rebuild produces. Returns the graph unchanged when no overlay
// is attached. Implemented in graphs/delta.cpp.
Graph materialize_effective(const Graph& g);

// Parallel CSR invariant check (implemented in graphs/validate.cpp):
// offsets present and monotone, offsets[0] == 0, offsets[n] == m, every
// target < n, and n within the 32-bit vertex-id space. Returns the first
// violation as a kValidation Status. All read_* paths run this before
// handing a graph to algorithms that do unchecked offsets[]/targets[]
// indexing.
Status validate_csr(std::span<const EdgeId> offsets,
                    std::span<const VertexId> targets);
// Its two halves, for callers holding one side: offsets (n + 1 entries,
// or none when m == 0) start at 0, are monotone and end at m; every target
// is < n, with `e_base` the edge id of targets[0] (a shard's first edge).
Status validate_offsets(std::span<const EdgeId> offsets, std::uint64_t m);
Status validate_targets(std::span<const VertexId> targets, std::uint64_t n,
                        std::uint64_t e_base = 0);

struct Edge {
  VertexId from = 0;
  VertexId to = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

template <typename W>
struct WeightedEdge {
  VertexId from = 0;
  VertexId to = 0;
  W weight{};
};

// Unweighted CSR graph: span views over a shared storage handle.
class Graph {
 public:
  Graph() = default;
  Graph(std::vector<EdgeId> offsets, std::vector<VertexId> targets)
      : Graph(GraphStorage::owned(std::move(offsets), std::move(targets))) {}
  explicit Graph(StorageRef storage)
      : storage_(std::move(storage)),
        offsets_(storage_ ? storage_->offsets()
                          : std::span<const EdgeId>{}),
        targets_(storage_ ? storage_->targets()
                          : std::span<const VertexId>{}),
        num_edges_(storage_ ? storage_->edge_count() : 0) {}

  std::size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  // From the storage handle, not targets_.size(): a window-only (sharded
  // compressed) storage has no whole-graph targets array but still has m.
  std::size_t num_edges() const { return num_edges_; }

  EdgeId out_degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  EdgeId edge_begin(VertexId v) const { return offsets_[v]; }
  EdgeId edge_end(VertexId v) const { return offsets_[v + 1]; }
  VertexId edge_target(EdgeId e) const { return targets_[e]; }

  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const VertexId> targets() const { return targets_; }

  // The memory behind the spans; shared with copies and cached transposes.
  // Null only for a default-constructed (empty) graph.
  const StorageRef& storage() const { return storage_; }

  // True when targets exist only shard-at-a-time (sharded compressed open):
  // neighbors()/edge_target() are unusable, only window-driven traversal
  // (edge_map) can read edges.
  bool windowed() const { return storage_ != nullptr && storage_->windowed(); }

  // True when a pending update overlay (graphs/delta.h) is attached: the
  // base spans alone no longer describe the graph. Kernels read the
  // effective adjacency through adjacency(); whole-graph readers of the
  // spans materialize_effective() first.
  bool has_delta() const { return storage_ != nullptr && storage_->has_delta(); }

  // The per-vertex read kernels scan through: the base CSR with the
  // pending update overlay merged in, its snapshot fetched once here and
  // held by the view. Take one per traversal (graphs/delta.h).
  Adjacency adjacency() const;

  // Whether kernels may random-access the adjacency arrays. False for BOTH
  // sharded modes: windowed (compressed) opens have no whole-graph targets at
  // all, and raw sharded opens keep full spans but only the active shard is
  // hinted resident — a kernel walking raw targets would silently fault the
  // whole section past the MappedWindow, defeating
  // check_windowed_footprint's pricing.
  bool in_core() const {
    return storage_ == nullptr ||
           (!storage_->windowed() && storage_->shard_window() == nullptr);
  }

  // Typed guard for code that random-accesses the adjacency arrays: a kUsage
  // Error naming `what` unless in_core(). `instead`, if not empty, names what
  // does run on a sharded open.
  void ensure_in_core(std::string_view what,
                      std::string_view instead = {}) const {
    if (in_core()) return;
    std::string msg = std::string(what) +
                      " needs whole-graph adjacency access, but this graph "
                      "is open in windowed (sharded) mode; reopen without "
                      "--shard-mb";
    if (!instead.empty()) msg += " or use " + std::string(instead);
    throw Error(ErrorCategory::kUsage, msg, storage_->source_path());
  }

  // Builds a CSR from an edge list (duplicates preserved unless dedup=true;
  // self-loops preserved unless drop_self_loops=true). Stable counting-sort
  // construction; O(n + m) work.
  static Graph from_edges(std::size_t n, std::span<const Edge> edges,
                          bool dedup = false, bool drop_self_loops = false);

  // Reverse of every edge, with per-vertex sorted adjacency lists. Memoized
  // on the storage handle: repeat calls (from any copy of this graph) return
  // the cached reverse CSR without recomputing.
  Graph transpose() const;

  // Union of each edge with its reverse, deduplicated, self-loops dropped:
  // the symmetrized graph used for BCC / undirected problems. Row v is the
  // merge of v's effective out-list and its in-list from the memoized
  // transpose (graphs/symmetrize.cpp). Memoized on the storage handle beside
  // the transpose, keyed to the overlay snapshot it was built against:
  // apply_updates drops it, so the view always matches the current version.
  Graph symmetrize() const;

  // Whether every adjacency list is non-decreasing. One parallel pass per
  // storage handle; a positive answer is memoized on it.
  bool adjacency_sorted() const {
    if (storage_ == nullptr || storage_->adjacency_sorted()) return true;
    std::atomic<bool> ok{true};
    parallel_for(0, num_vertices(), [&](std::size_t v) {
      std::span<const VertexId> nb = neighbors(static_cast<VertexId>(v));
      if (!std::is_sorted(nb.begin(), nb.end())) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
    if (!ok.load(std::memory_order_relaxed)) return false;
    storage_->mark_adjacency_sorted();
    return true;
  }

  bool is_symmetric() const;

  // CSR invariant check; see validate_csr() above.
  Status validate() const { return validate_csr(offsets_, targets_); }

  // Lazily validates an un-deep-validated storage (the O(1) `.pgr` mmap
  // open skips per-element checks). Algorithm entry points call this before
  // unchecked offsets[]/targets[] indexing, so a well-formed-header file
  // with out-of-range targets fails with a typed kValidation error instead
  // of reading out of bounds. One pass per storage handle: the result is
  // cached on it, so copies and repeat runs pay a single atomic load.
  void ensure_validated() const {
    if (storage_ == nullptr || storage_->validated()) return;
    Status s = validate();
    if (!s.ok()) {
      throw Error(s.category(), s.message(), storage_->source_path());
    }
    storage_->mark_validated();
  }

  std::vector<Edge> to_edges() const {
    ensure_in_core("edge-list export");
    if (has_delta()) return materialize_effective(*this).to_edges();
    std::vector<Edge> edges(num_edges());
    parallel_for(0, num_vertices(), [&](std::size_t v) {
      for (EdgeId e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        edges[e] = Edge{static_cast<VertexId>(v), targets_[e]};
      }
    });
    return edges;
  }

  // Content equality (same CSR arrays), independent of backend: a heap-built
  // graph equals its mmap'd round-trip.
  friend bool operator==(const Graph& a, const Graph& b) {
    return std::equal(a.offsets_.begin(), a.offsets_.end(),
                      b.offsets_.begin(), b.offsets_.end()) &&
           std::equal(a.targets_.begin(), a.targets_.end(),
                      b.targets_.begin(), b.targets_.end());
  }

 private:
  Graph transpose_uncached() const;

  StorageRef storage_;
  std::span<const EdgeId> offsets_;   // size n+1
  std::span<const VertexId> targets_; // size m (empty when windowed)
  std::size_t num_edges_ = 0;
};

// Weighted CSR graph; weight i belongs to targets()[i]. Weights live in the
// same storage handle when W matches the on-disk weight type (so a weighted
// `.pgr` maps zero-copy); otherwise they are an owned array shared between
// copies.
template <typename W>
class WeightedGraph {
 public:
  WeightedGraph() = default;
  WeightedGraph(std::vector<EdgeId> offsets, std::vector<VertexId> targets,
                std::vector<W> weights) {
    if constexpr (std::is_same_v<W, StorageWeight>) {
      graph_ = Graph(GraphStorage::owned(std::move(offsets),
                                         std::move(targets),
                                         std::move(weights)));
      weights_ = graph_.storage()->weights();
    } else {
      graph_ = Graph(std::move(offsets), std::move(targets));
      own_weights_ = std::make_shared<const std::vector<W>>(std::move(weights));
      weights_ = *own_weights_;
    }
  }
  WeightedGraph(Graph g, std::vector<W> weights)
      : graph_(std::move(g)),
        own_weights_(
            std::make_shared<const std::vector<W>>(std::move(weights))) {
    weights_ = *own_weights_;
  }
  // Adopts a storage handle that carries weights (the weighted `.pgr` path).
  explicit WeightedGraph(StorageRef storage) : graph_(std::move(storage)) {
    static_assert(std::is_same_v<W, StorageWeight>,
                  "storage-backed weights are StorageWeight");
    if (graph_.storage() != nullptr) weights_ = graph_.storage()->weights();
  }

  std::size_t num_vertices() const { return graph_.num_vertices(); }
  std::size_t num_edges() const { return graph_.num_edges(); }
  EdgeId out_degree(VertexId v) const { return graph_.out_degree(v); }
  std::span<const VertexId> neighbors(VertexId v) const {
    return graph_.neighbors(v);
  }
  std::span<const W> neighbor_weights(VertexId v) const {
    return {weights_.data() + graph_.edge_begin(v),
            static_cast<std::size_t>(graph_.out_degree(v))};
  }
  EdgeId edge_begin(VertexId v) const { return graph_.edge_begin(v); }
  EdgeId edge_end(VertexId v) const { return graph_.edge_end(v); }
  VertexId edge_target(EdgeId e) const { return graph_.edge_target(e); }
  W edge_weight(EdgeId e) const { return weights_[e]; }

  std::span<const W> weights() const { return weights_; }

  const Graph& unweighted() const { return graph_; }

  // Structural check plus weight sanity: the weight array must cover every
  // edge (one weight per target). Algorithms index weights_[e] unchecked.
  Status validate() const {
    Status s = graph_.validate();
    if (!s.ok()) return s;
    if (weights_.size() != graph_.num_edges()) {
      return Status::Failure(
          ErrorCategory::kValidation,
          "weight array has " + std::to_string(weights_.size()) +
              " entries but the graph has " +
              std::to_string(graph_.num_edges()) + " edges");
    }
    return Status::Ok();
  }

  // See Graph::ensure_validated(): weights are storage-sized by the read
  // paths, so the structural CSR check is the part that can be deferred.
  void ensure_validated() const { graph_.ensure_validated(); }

  static WeightedGraph from_edges(std::size_t n,
                                  std::span<const WeightedEdge<W>> edges);

  WeightedGraph transpose() const;

 private:
  Graph graph_;
  // Set when weights are not storage-backed; shared so copies never repoint
  // the span at a reallocated buffer.
  std::shared_ptr<const std::vector<W>> own_weights_;
  std::span<const W> weights_;
};

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

namespace internal {

// Stable bucket placement of items keyed by vertex: returns (offsets, perm)
// where perm is the index permutation grouping items by key.
inline std::pair<std::vector<EdgeId>, std::vector<EdgeId>> bucket_by_source(
    std::size_t n, std::size_t m, const auto& key_of) {
  std::vector<std::atomic<EdgeId>> counts(n + 1);
  parallel_for(0, n + 1,
               [&](std::size_t i) { counts[i].store(0, std::memory_order_relaxed); });
  parallel_for(0, m, [&](std::size_t i) {
    counts[key_of(i)].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<EdgeId> offsets(n + 1);
  scan_indexed<EdgeId>(
      n + 1, [&](std::size_t i) { return counts[i].load(std::memory_order_relaxed); },
      [&](std::size_t i, EdgeId v) { offsets[i] = v; });
  std::vector<std::atomic<EdgeId>> cursor(n);
  parallel_for(0, n, [&](std::size_t v) {
    cursor[v].store(offsets[v], std::memory_order_relaxed);
  });
  std::vector<EdgeId> perm(m);
  parallel_for(0, m, [&](std::size_t i) {
    EdgeId pos = cursor[key_of(i)].fetch_add(1, std::memory_order_relaxed);
    perm[pos] = i;
  });
  return {std::move(offsets), std::move(perm)};
}

}  // namespace internal

inline Graph Graph::from_edges(std::size_t n, std::span<const Edge> edges,
                               bool dedup, bool drop_self_loops) {
  std::span<const Edge> input = edges;
  std::vector<Edge> cleaned;
  if (drop_self_loops) {
    cleaned = filter(edges, [](const Edge& e) { return e.from != e.to; });
    input = cleaned;
  }
  auto [offsets, perm] = internal::bucket_by_source(
      n, input.size(), [&](std::size_t i) { return input[i].from; });
  std::vector<VertexId> targets(input.size());
  parallel_for(0, input.size(),
               [&](std::size_t i) { targets[i] = input[perm[i]].to; });
  // Sort each adjacency list for deterministic layout & fast dedup.
  parallel_for(
      0, n,
      [&](std::size_t v) {
        std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
      },
      64);
  if (!dedup) return Graph(std::move(offsets), std::move(targets));

  // Remove duplicate targets per vertex.
  std::vector<EdgeId> new_deg(n);
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId lo = offsets[v], hi = offsets[v + 1];
    EdgeId count = 0;
    for (EdgeId e = lo; e < hi; ++e) {
      if (e == lo || targets[e] != targets[e - 1]) ++count;
    }
    new_deg[v] = count;
  });
  std::vector<EdgeId> new_offsets(n + 1);
  new_offsets[n] = scan_indexed<EdgeId>(
      n, [&](std::size_t v) { return new_deg[v]; },
      [&](std::size_t v, EdgeId x) { new_offsets[v] = x; });
  std::vector<VertexId> new_targets(new_offsets[n]);
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId out = new_offsets[v];
    EdgeId lo = offsets[v], hi = offsets[v + 1];
    for (EdgeId e = lo; e < hi; ++e) {
      if (e == lo || targets[e] != targets[e - 1]) new_targets[out++] = targets[e];
    }
  });
  return Graph(std::move(new_offsets), std::move(new_targets));
}

inline Graph Graph::transpose_uncached() const {
  std::size_t n = num_vertices();
  std::size_t m = num_edges();
  // Source of edge e: invert via offsets. Precompute per-edge source.
  std::vector<VertexId> source(m);
  parallel_for(0, n, [&](std::size_t v) {
    for (EdgeId e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      source[e] = static_cast<VertexId>(v);
    }
  });
  auto [offsets, perm] = internal::bucket_by_source(
      n, m, [&](std::size_t e) { return targets_[e]; });
  std::vector<VertexId> targets(m);
  parallel_for(0, m, [&](std::size_t i) { targets[i] = source[perm[i]]; });
  parallel_for(
      0, n,
      [&](std::size_t v) {
        std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
      },
      64);
  Graph t(std::move(offsets), std::move(targets));
  t.storage_->mark_adjacency_sorted();
  return t;
}

inline Graph Graph::transpose() const {
  if (storage_ == nullptr) return transpose_uncached();
  if (StorageRef cached = storage_->transpose_cache()) {
    return Graph(std::move(cached));
  }
  // A windowed open pre-populates the cache from the file's transpose
  // sections; without them the reverse CSR cannot be built shard-at-a-time.
  ensure_in_core("transpose construction");
  ensure_validated();  // the build indexes counts[target]
  Graph t = transpose_uncached();
  return Graph(storage_->set_transpose_cache(t.storage_));
}

inline bool Graph::is_symmetric() const {
  // operator== compares base spans; collapse the overlay first so the
  // transpose and the forward graph are compared at the same version.
  if (has_delta()) return materialize_effective(*this).is_symmetric();
  Graph t = transpose();
  Graph self = from_edges(num_vertices(), to_edges());  // sorted lists
  return self == t;
}

template <typename W>
WeightedGraph<W> WeightedGraph<W>::from_edges(
    std::size_t n, std::span<const WeightedEdge<W>> edges) {
  std::size_t m = edges.size();
  auto [offsets, perm] = internal::bucket_by_source(
      n, m, [&](std::size_t i) { return edges[i].from; });
  std::vector<VertexId> targets(m);
  std::vector<W> weights(m);
  parallel_for(0, m, [&](std::size_t i) {
    targets[i] = edges[perm[i]].to;
    weights[i] = edges[perm[i]].weight;
  });
  return WeightedGraph<W>(std::move(offsets), std::move(targets),
                          std::move(weights));
}

template <typename W>
WeightedGraph<W> WeightedGraph<W>::transpose() const {
  std::size_t n = num_vertices();
  std::size_t m = num_edges();
  std::vector<WeightedEdge<W>> reversed(m);
  parallel_for(0, n, [&](std::size_t v) {
    for (EdgeId e = edge_begin(v); e < edge_end(v); ++e) {
      reversed[e] =
          WeightedEdge<W>{edge_target(e), static_cast<VertexId>(v), weights_[e]};
    }
  });
  return from_edges(n, reversed);
}

}  // namespace pasgal

// Adjacency, the view Graph::adjacency() returns, needs DeltaSnapshot, which
// needs Graph: its header comes last, so every includer of this one gets it.
#include "graphs/delta.h"  // IWYU pragma: export
