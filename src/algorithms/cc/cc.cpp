#include "algorithms/cc/cc.h"

#include <atomic>

#include "algorithms/catalog.h"
#include "parlay/primitives.h"

namespace pasgal {

namespace {

// Path-halving find on an atomic parent array. Safe under concurrent unions:
// parents only ever decrease (roots link to smaller ids), so every step makes
// progress toward a smaller-rooted tree.
VertexId find_root(std::vector<std::atomic<VertexId>>& parent, VertexId v) {
  VertexId p = parent[v].load(std::memory_order_relaxed);
  while (p != v) {
    VertexId gp = parent[p].load(std::memory_order_relaxed);
    parent[v].compare_exchange_weak(p, gp, std::memory_order_relaxed);
    v = p;
    p = parent[v].load(std::memory_order_relaxed);
  }
  return v;
}

// Attempts to merge the components of u and v; returns the root this call
// linked under the other (then (u,v) is a spanning-forest edge), or
// kInvalidVertex when they were already connected. A root is linked at most
// once, so no two successful calls return the same vertex.
VertexId unite(std::vector<std::atomic<VertexId>>& parent, VertexId u,
               VertexId v) {
  for (;;) {
    VertexId ru = find_root(parent, u);
    VertexId rv = find_root(parent, v);
    if (ru == rv) return kInvalidVertex;
    if (ru < rv) std::swap(ru, rv);  // link larger root under smaller
    VertexId expected = ru;
    if (parent[ru].compare_exchange_strong(expected, rv,
                                           std::memory_order_relaxed)) {
      return ru;
    }
  }
}

}  // namespace

RunReport<ConnectivityResult> connected_components(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit(algo_spec("cc", "uf"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    std::size_t m = g.num_edges();
    std::vector<std::atomic<VertexId>> parent(n);
    parallel_for(0, n, [&](std::size_t i) {
      parent[i].store(static_cast<VertexId>(i), std::memory_order_relaxed);
    });

    // Each successful link's edge, in the slot of the root it linked.
    std::vector<Edge> link_edge(n);
    parallel_for(0, n, [&](std::size_t u) {
      for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
        if (v == u) continue;
        VertexId linked = unite(parent, static_cast<VertexId>(u), v);
        if (linked != kInvalidVertex) {
          link_edge[linked] = {static_cast<VertexId>(u), v};
        }
      }
    });
    stats->add_edges(m);
    stats->add_visits(n);
    stats->end_round(n);

    ConnectivityResult result;
    result.label.resize(n);
    parallel_for(0, n, [&](std::size_t v) {
      result.label[v] = find_root(parent, static_cast<VertexId>(v));
    });
    // The linked roots are exactly the vertices that are no longer roots.
    result.forest = pack_indexed<Edge>(
        n, [&](std::size_t v) { return result.label[v] != v; },
        [&](std::size_t v) { return link_edge[v]; });
    result.num_components = count_distinct_labels(result.label);
    return result;
  });
}

RunReport<std::vector<VertexId>> label_prop_cc(const Graph& g,
                                               const AlgoOptions& opt) {
  admit(algo_spec("cc", "lp"), g);
  return run_traced(opt, [&](Tracer* stats) {
    // Classic synchronous min-label propagation: every round each vertex takes
    // the minimum of its own and its neighbours' previous-round labels. Needs
    // O(D) rounds — the per-round global synchronization cost the paper's
    // techniques eliminate; kept as the ablation baseline.
    std::size_t n = g.num_vertices();
    auto label =
        tabulate(n, [](std::size_t i) { return static_cast<VertexId>(i); });
    std::vector<VertexId> next(n);
    for (;;) {
      std::atomic<bool> changed{false};
      parallel_for(0, n, [&](std::size_t u) {
        VertexId best = label[u];
        for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
          best = std::min(best, label[v]);
        }
        next[u] = best;
        if (best != label[u]) changed.store(true, std::memory_order_relaxed);
      });
      std::swap(label, next);
      stats->add_edges(g.num_edges());
      stats->end_round(n);
      if (!changed.load(std::memory_order_relaxed)) break;
    }
    return label;
  });
}

std::size_t count_distinct_labels(std::span<const VertexId> labels) {
  // Labels are component minima, hence fixpoints: label[label[v]] == label[v].
  return count_if_index(labels.size(), [&](std::size_t v) {
    return labels[v] == static_cast<VertexId>(v);
  });
}

}  // namespace pasgal
