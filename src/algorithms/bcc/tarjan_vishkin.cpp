#include <algorithm>
#include <atomic>

#include "algorithms/bcc/bcc.h"
#include "algorithms/catalog.h"
#include "algorithms/bcc/bcc_common.h"

namespace pasgal {

// Tarjan-Vishkin biconnectivity (1985) — the classic parallel baseline. It
// materializes the auxiliary graph whose NODES are the m undirected edges of
// G and runs connectivity on it; components of the auxiliary graph are the
// biconnected components. Auxiliary edges (with an arbitrary rooted spanning
// tree and Euler-tour intervals):
//   (i)   non-tree {u,v}, u and v unrelated: join node{u,v} with the parent
//         tree edges {p(u),u} and {p(v),v};
//   (ii)  non-tree {u,v}, u an ancestor of v: join node{u,v} with {p(v),v};
//   (iii) tree {p,v} whose subtree escapes subtree(p): join node{p,v} with
//         {gp, p} (p not a root).
//
// The O(m)-node auxiliary graph is the space cost the paper's BCC table
// shows as out-of-memory on the billion-edge webs — in contrast to
// FAST-BCC's O(n) skeleton.
RunReport<BccResult> tarjan_vishkin_bcc(const Graph& g,
                                        const AlgoOptions& opt) {
  admit(algo_spec("bcc", "tv"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    std::size_t m = g.num_edges();
    BccResult result;
    result.edge_label.assign(m, static_cast<std::uint64_t>(-1));
    if (n == 0 || m == 0) {
      return result;
    }

    internal::BccPrep prep = internal::bcc_preprocess(g, stats);
    const EulerForest& forest = prep.forest;

    // Node ids: one per undirected edge = per canonical slot (source < target).
    std::vector<EdgeId> node_of_slot(m);
    std::vector<std::uint64_t> is_canonical(m);
    parallel_for(0, m, [&](std::size_t e) {
      is_canonical[e] = prep.edge_source[e] < g.edge_target(e) ? 1 : 0;
    });
    std::vector<std::uint64_t> node_index(m);
    std::uint64_t num_nodes = scan_indexed<std::uint64_t>(
        m, [&](std::size_t e) { return is_canonical[e]; },
        [&](std::size_t e, std::uint64_t v) { node_index[e] = v; });
    // Reverse slot lookup to give the non-canonical copy the same node.
    auto reverse_slot = [&](std::size_t e) {
      VertexId u = prep.edge_source[e];
      VertexId v = g.edge_target(e);
      auto nbrs = g.neighbors(v);
      auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
      return static_cast<std::size_t>(g.edge_begin(v) +
                                      static_cast<EdgeId>(it - nbrs.begin()));
    };
    parallel_for(0, m, [&](std::size_t e) {
      node_of_slot[e] =
          is_canonical[e] ? node_index[e] : node_index[reverse_slot(e)];
    });
    // Node of the tree edge {parent(x), x}.
    auto parent_edge_node = [&](VertexId x) -> EdgeId {
      VertexId p = forest.parent[x];
      VertexId lo = std::min(p, x), hi = std::max(p, x);
      auto nbrs = g.neighbors(lo);
      auto it = std::lower_bound(nbrs.begin(), nbrs.end(), hi);
      return node_of_slot[static_cast<std::size_t>(
          g.edge_begin(lo) + static_cast<EdgeId>(it - nbrs.begin()))];
    };

    // Auxiliary edges: at most two per canonical slot.
    constexpr VertexId kNone = kInvalidVertex;
    std::vector<Edge> aux(2 * m, Edge{kNone, kNone});
    parallel_for(0, m, [&](std::size_t e) {
      if (!is_canonical[e]) return;
      VertexId u = prep.edge_source[e];
      VertexId v = g.edge_target(e);
      VertexId self = static_cast<VertexId>(node_of_slot[e]);
      if (prep.is_tree_edge(u, v)) {
        VertexId child = forest.parent[v] == u ? v : u;
        VertexId p = forest.parent[child];
        if (prep.escapes_parent(child) && !forest.is_root(p)) {
          aux[2 * e] = Edge{self, static_cast<VertexId>(parent_edge_node(p))};
        }
        return;
      }
      bool u_anc = forest.is_ancestor(u, v);
      bool v_anc = forest.is_ancestor(v, u);
      if (u_anc) {
        aux[2 * e] = Edge{self, static_cast<VertexId>(parent_edge_node(v))};
      } else if (v_anc) {
        aux[2 * e] = Edge{self, static_cast<VertexId>(parent_edge_node(u))};
      } else {
        aux[2 * e] = Edge{self, static_cast<VertexId>(parent_edge_node(u))};
        aux[2 * e + 1] = Edge{self, static_cast<VertexId>(parent_edge_node(v))};
      }
    });
    auto aux_half =
        filter(std::span<const Edge>(aux), [](const Edge& e) {
          return e.from != kInvalidVertex;
        });
    std::vector<Edge> aux_edges(2 * aux_half.size());
    parallel_for(0, aux_half.size(), [&](std::size_t i) {
      aux_edges[2 * i] = aux_half[i];
      aux_edges[2 * i + 1] = Edge{aux_half[i].to, aux_half[i].from};
    });
    ConnectivityResult comp = connected_components(
        Graph::from_edges(num_nodes, aux_edges), {.tracer = stats}).output;
    stats->end_round(num_nodes);

    parallel_for(0, m, [&](std::size_t e) {
      result.edge_label[e] = comp.label[node_of_slot[e]];
    });
    result.num_bccs = comp.num_components;
    return result;
  });
}

}  // namespace pasgal
