// VertexSubset: a frontier in either sparse (vertex list) or dense
// (byte mask) representation, mirroring the Ligra/GBBS abstraction the
// baselines in the paper are built on.
//
// Invariant: the sparse vertex list is always sorted ascending and
// duplicate-free (hash-bag extractions are multisets, so sparse()
// deduplicates; size() and out_degree_sum() count each member once in
// either representation). Frontiers
// coming out of edge_map are often sorted already (filters over per-vertex
// sorted runs), so the is_sorted guard below makes maintaining the invariant
// close to free for them; the rest (label-correcting rounds, hash-bag
// extractions) take a parallel sort. `contains` gets to binary-search
// instead of scanning the whole frontier.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graphs/graph.h"
#include "parlay/primitives.h"
#include "parlay/sort.h"

namespace pasgal {

class VertexSubset {
 public:
  static VertexSubset sparse(std::size_t n, std::vector<VertexId> vertices) {
    VertexSubset s;
    s.n_ = n;
    s.sparse_ = std::move(vertices);
    if (!std::is_sorted(s.sparse_.begin(), s.sparse_.end())) {
      sort_inplace(std::span<VertexId>(s.sparse_));
    }
    // The list is sorted, so one compare on the maximum validates every id.
    // Out-of-universe members would otherwise ride the sorted invariant into
    // to_dense()'s unchecked mask indexing.
    if (!s.sparse_.empty() && s.sparse_.back() >= n) {
      throw Error(ErrorCategory::kValidation,
                  "sparse frontier contains vertex " +
                      std::to_string(s.sparse_.back()) +
                      ", out of range for a universe of " + std::to_string(n));
    }
    // Hash-bag extractions are multisets (a vertex can be inserted by
    // several neighbors in one round); a frontier is a set. Without this,
    // size() and out_degree_sum() overstate and the duplicates skew
    // edge_map's sparse/dense direction decision.
    s.sparse_.erase(std::unique(s.sparse_.begin(), s.sparse_.end()),
                    s.sparse_.end());
    s.is_dense_ = false;
    return s;
  }

  static VertexSubset dense(std::vector<std::uint8_t> mask) {
    VertexSubset s;
    s.n_ = mask.size();
    s.dense_ = std::move(mask);
    s.is_dense_ = true;
    s.dense_count_ = count_if_index(
        s.n_, [&](std::size_t i) { return s.dense_[i] != 0; });
    return s;
  }

  // Trusted-count overload for producers that already know how many mask
  // slots they set (edge_map's dense phase counts activations as it writes
  // them) — skips the O(n) parallel recount above. `count` must equal the
  // number of nonzero mask bytes; size(), to_sparse(), and the direction
  // heuristic all consume it.
  static VertexSubset dense(std::vector<std::uint8_t> mask,
                            std::size_t count) {
    VertexSubset s;
    s.n_ = mask.size();
    s.dense_ = std::move(mask);
    s.is_dense_ = true;
    s.dense_count_ = count;
    return s;
  }

  static VertexSubset single(std::size_t n, VertexId v) {
    return sparse(n, {v});
  }

  static VertexSubset empty(std::size_t n) { return sparse(n, {}); }

  std::size_t universe_size() const { return n_; }
  bool is_dense() const { return is_dense_; }
  std::size_t size() const { return is_dense_ ? dense_count_ : sparse_.size(); }
  bool empty() const { return size() == 0; }

  // Sorted ascending (class invariant; to_sparse packs by index, so the
  // dense->sparse conversion preserves it without a sort).
  const std::vector<VertexId>& sparse_vertices() const { return sparse_; }
  const std::vector<std::uint8_t>& dense_mask() const { return dense_; }

  bool contains(VertexId v) const {
    // Out-of-universe ids are simply absent. Without the bound, a graph
    // whose targets escaped validation (or a caller-supplied stray id, e.g.
    // kInvalidVertex) would index past the mask.
    if (v >= n_) return false;
    if (is_dense_) return dense_[v] != 0;
    return std::binary_search(sparse_.begin(), sparse_.end(), v);
  }

  // Conversions (parallel).
  void to_dense() {
    if (is_dense_) return;
    dense_.assign(n_, 0);
    parallel_for(0, sparse_.size(), [&](std::size_t i) { dense_[sparse_[i]] = 1; });
    dense_count_ = sparse_.size();  // exact: sparse_ is duplicate-free
    sparse_.clear();
    is_dense_ = true;
  }

  void to_sparse() {
    if (!is_dense_) return;
    sparse_ = pack_indexed<VertexId>(
        n_, [&](std::size_t i) { return dense_[i] != 0; },
        [&](std::size_t i) { return static_cast<VertexId>(i); });
    dense_.clear();
    is_dense_ = false;
  }

  // Total effective out-degree of the member vertices (Adjacency::degree,
  // so a pending update overlay counts) — the classic density signal.
  EdgeId out_degree_sum(const Graph& g) const {
    Adjacency adj = g.adjacency();
    if (is_dense_) {
      return reduce_indexed<EdgeId>(
          n_, 0, std::plus<EdgeId>{}, [&](std::size_t v) -> EdgeId {
            return dense_[v] ? adj.degree(static_cast<VertexId>(v)) : 0;
          });
    }
    return reduce_indexed<EdgeId>(
        sparse_.size(), 0, std::plus<EdgeId>{},
        [&](std::size_t i) { return adj.degree(sparse_[i]); });
  }

 private:
  std::size_t n_ = 0;
  bool is_dense_ = false;
  std::vector<VertexId> sparse_;
  std::vector<std::uint8_t> dense_;
  std::size_t dense_count_ = 0;
};

}  // namespace pasgal
