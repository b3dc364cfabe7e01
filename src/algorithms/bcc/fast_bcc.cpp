#include <atomic>

#include "algorithms/bcc/bcc.h"
#include "algorithms/catalog.h"
#include "algorithms/bcc/bcc_common.h"

namespace pasgal {

// FAST-BCC (Dong, Gu, Sun, Wang — PPoPP'23), the BCC algorithm in PASGAL.
// No BFS anywhere, O(n+m) work, polylog span, O(n) auxiliary space:
//
//   1. connectivity -> arbitrary spanning forest (union-find; no BFS),
//   2. Euler tour roots the forest: parent[], nested intervals [first,last],
//   3. subtree aggregation of extremal non-tree-neighbour `first` values
//      yields low(v)/high(v),
//   4. classification: tree edge (p, v) is a *fence* iff subtree(v) has no
//      non-tree edge escaping subtree(p); the skeleton keeps the non-fence
//      ("plain") tree edges plus the non-tree edges between unrelated
//      vertices (ancestor back edges would glue BCCs through their heads —
//      the plain tree edges along the path already carry that
//      connectivity),
//   5. connectivity on the O(n)-node skeleton: each component is one BCC
//      minus its head. Edge labels read off the child endpoint (tree edges)
//      or the descendant endpoint (back edges).
namespace internal {

// Steps 4-5 on a prepared forest: skeleton construction, connectivity on the
// skeleton, and per-edge label readout. Shared by fast_bcc (union-find
// forest) and gbbs_bcc (BFS forest).
BccResult bcc_from_prep(const Graph& g, const BccPrep& prep, Tracer* stats) {
  std::size_t n = g.num_vertices();
  std::size_t m = g.num_edges();
  BccResult result;
  result.edge_label.assign(m, static_cast<std::uint64_t>(-1));
  if (n == 0) return result;
  const EulerForest& forest = prep.forest;

  // Skeleton: both directions of each qualifying edge, built directly.
  auto skeleton_half = pack_indexed<Edge>(
      m,
      [&](std::size_t e) {
        VertexId u = prep.edge_source[e];
        VertexId v = g.edge_target(e);
        if (u > v) return false;  // one copy per undirected edge
        if (prep.is_tree_edge(u, v)) {
          VertexId child = forest.parent[v] == u ? v : u;
          return prep.escapes_parent(child);
        }
        return !forest.is_ancestor(u, v) && !forest.is_ancestor(v, u);
      },
      [&](std::size_t e) { return Edge{prep.edge_source[e], g.edge_target(e)}; });
  std::vector<Edge> skeleton(2 * skeleton_half.size());
  parallel_for(0, skeleton_half.size(), [&](std::size_t i) {
    skeleton[2 * i] = skeleton_half[i];
    skeleton[2 * i + 1] = Edge{skeleton_half[i].to, skeleton_half[i].from};
  });
  ConnectivityResult comp =
      connected_components(Graph::from_edges(n, skeleton), {.tracer = stats})
          .output;
  if (stats) stats->end_round(n);

  // Per-edge labels.
  std::vector<std::atomic<std::uint8_t>> label_used(n);
  parallel_for(0, n, [&](std::size_t i) {
    label_used[i].store(0, std::memory_order_relaxed);
  });
  parallel_for(0, m, [&](std::size_t e) {
    VertexId u = prep.edge_source[e];
    VertexId v = g.edge_target(e);
    VertexId key;
    if (prep.is_tree_edge(u, v)) {
      key = forest.parent[v] == u ? v : u;  // the child endpoint
    } else if (forest.is_ancestor(u, v)) {
      key = v;  // descendant endpoint
    } else {
      key = u;  // unrelated (or v ancestor of u): u's side is in-component
    }
    result.edge_label[e] = comp.label[key];
    label_used[comp.label[key]].store(1, std::memory_order_relaxed);
  });
  result.num_bccs = count_if_index(n, [&](std::size_t i) {
    return label_used[i].load(std::memory_order_relaxed) != 0;
  });
  return result;
}

}  // namespace internal

RunReport<BccResult> fast_bcc(const Graph& g, const AlgoOptions& opt) {
  admit(algo_spec("bcc", "pasgal"), g);
  return run_traced(opt, [&](Tracer* stats) -> BccResult {
    if (g.num_vertices() == 0) return {};
    stats->phase_begin("spanning_forest");
    ConnectivityResult cc = connected_components(g, {.tracer = stats}).output;
    stats->phase_begin("euler_tour");
    internal::BccPrep prep =
        internal::bcc_preprocess_from_forest(g, cc.forest, cc.label, stats);
    stats->phase_begin("skeleton");
    BccResult result = internal::bcc_from_prep(g, prep, stats);
    stats->phase_end();
    return result;
  });
}

}  // namespace pasgal
