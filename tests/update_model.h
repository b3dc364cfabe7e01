// Test helpers shared by test_delta and the catalog equivalence harness
// (test_catalog): a seeded generator of valid update batches that keeps an
// independent rebuild of the effective graph, and two graph helpers.
#pragma once

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "graphs/delta.h"
#include "graphs/graph.h"

namespace pasgal {

inline std::uint64_t edge_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Mirrors the server/bench generators: tracks the effective edge set the way
// apply_updates validates it, so every generated op is accepted. Deletes
// pick existing effective edges; inserts rejection-sample absent ones, from
// lower to higher id when `acyclic` (a DAG base then stays a DAG).
class UpdateModel {
 public:
  explicit UpdateModel(const Graph& g, std::uint64_t seed,
                       bool acyclic = false)
      : n_(g.num_vertices()),
        base_edges_(g.to_edges()),
        rng_(seed),
        acyclic_(acyclic) {
    for (const Edge& e : base_edges_) base_keys_.insert(edge_key(e.from, e.to));
  }

  bool present(std::uint64_t k) const {
    return inserted_.count(k) != 0 ||
           (base_keys_.count(k) != 0 && deleted_.count(k) == 0);
  }

  std::vector<EdgeUpdate> make_batch(std::size_t count) {
    std::vector<EdgeUpdate> batch;
    while (batch.size() < count) {
      bool want_delete = (rng_() & 1) != 0 && !effective_keys().empty();
      if (want_delete) {
        const std::vector<std::uint64_t>& eff = effective_keys();
        std::uint64_t k = eff[rng_() % eff.size()];
        apply_delete(k);
        batch.push_back({EdgeUpdate::Op::kDelete,
                         static_cast<VertexId>(k >> 32),
                         static_cast<VertexId>(k & 0xFFFFFFFFu)});
        continue;
      }
      VertexId u = static_cast<VertexId>(rng_() % n_);
      VertexId v = static_cast<VertexId>(rng_() % n_);
      if (acyclic_ && u > v) std::swap(u, v);
      if (u == v || present(edge_key(u, v))) continue;
      apply_insert(edge_key(u, v));
      batch.push_back({EdgeUpdate::Op::kInsert, u, v});
    }
    return batch;
  }

  // The effective graph, rebuilt from scratch: base multigraph copies minus
  // every copy of a deleted key, plus the overlay inserts.
  Graph rebuild() const {
    std::vector<Edge> edges;
    edges.reserve(base_edges_.size() + inserted_.size());
    for (const Edge& e : base_edges_) {
      if (deleted_.count(edge_key(e.from, e.to)) == 0) edges.push_back(e);
    }
    for (std::uint64_t k : inserted_) {
      edges.push_back({static_cast<VertexId>(k >> 32),
                       static_cast<VertexId>(k & 0xFFFFFFFFu)});
    }
    return Graph::from_edges(n_, edges);
  }

 private:
  void apply_insert(std::uint64_t k) {
    if (deleted_.count(k) != 0) {
      deleted_.erase(k);  // cancels the delete, restoring all base copies
    } else {
      inserted_.insert(k);
    }
    cache_.clear();
  }
  void apply_delete(std::uint64_t k) {
    if (inserted_.count(k) != 0) {
      inserted_.erase(k);  // nets out of the overlay
    } else {
      deleted_.insert(k);  // suppresses every base copy
    }
    cache_.clear();
  }
  const std::vector<std::uint64_t>& effective_keys() {
    if (cache_.empty()) {
      for (std::uint64_t k : base_keys_) {
        if (deleted_.count(k) == 0) cache_.push_back(k);
      }
      cache_.insert(cache_.end(), inserted_.begin(), inserted_.end());
    }
    return cache_;
  }

  std::size_t n_;
  std::vector<Edge> base_edges_;
  std::set<std::uint64_t> base_keys_;
  std::set<std::uint64_t> inserted_;
  std::set<std::uint64_t> deleted_;
  std::vector<std::uint64_t> cache_;
  std::mt19937_64 rng_;
  bool acyclic_;
};

inline VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

// The edges of g that run from a lower to a higher id: a DAG.
inline Graph forward_edges(const Graph& g) {
  std::vector<Edge> edges;
  for (const Edge& e : g.to_edges()) {
    if (e.from < e.to) edges.push_back(e);
  }
  return Graph::from_edges(g.num_vertices(), edges, /*dedup=*/true);
}

}  // namespace pasgal
