#include "algorithms/catalog.h"
#include "algorithms/scc/scc.h"

namespace pasgal {

// Tarjan's SCC algorithm (the paper's sequential baseline), made iterative
// with an explicit DFS stack so adversarial graphs (e.g. a 10^6-vertex chain)
// cannot overflow the call stack.
RunReport<std::vector<SccLabel>> tarjan_scc(const Graph& g,
                                            const AlgoOptions& opt) {
  admit(algo_spec("scc", "seq"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<std::uint8_t> on_stack(n, 0);
    std::vector<VertexId> scc_stack;
    std::vector<SccLabel> label(n, 0);
    std::uint32_t next_index = 0;
    SccLabel next_scc = 0;
    std::uint64_t edges_scanned = 0;

    // Each DFS frame is a cursor into its vertex's effective out-list.
    Adjacency adj = g.adjacency();
    std::vector<Adjacency::Cursor> dfs;

    for (VertexId root = 0; root < n; ++root) {
      if (index[root] != kUnvisited) continue;
      dfs.push_back(adj.cursor(root));
      index[root] = lowlink[root] = next_index++;
      scc_stack.push_back(root);
      on_stack[root] = 1;

      while (!dfs.empty()) {
        VertexId v = dfs.back().v;
        VertexId w = 0;
        if (adj.next(dfs.back(), w)) {
          ++edges_scanned;
          if (index[w] == kUnvisited) {
            index[w] = lowlink[w] = next_index++;
            scc_stack.push_back(w);
            on_stack[w] = 1;
            dfs.push_back(adj.cursor(w));
          } else if (on_stack[w]) {
            lowlink[v] = std::min(lowlink[v], index[w]);
          }
        } else {
          dfs.pop_back();
          if (!dfs.empty()) {
            VertexId parent = dfs.back().v;
            lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
          }
          if (lowlink[v] == index[v]) {
            // v is the root of an SCC; pop it off the component stack.
            for (;;) {
              VertexId w = scc_stack.back();
              scc_stack.pop_back();
              on_stack[w] = 0;
              label[w] = next_scc;
              if (w == v) break;
            }
            ++next_scc;
          }
        }
      }
    }
    stats->add_edges(edges_scanned);
    stats->add_visits(n);
    stats->end_round(n);
    return label;
  });
}

std::vector<VertexId> normalize_scc_labels(std::span<const SccLabel> labels) {
  std::size_t n = labels.size();
  // min vertex per label value, via a sorted pass over (label, vertex).
  std::vector<std::pair<SccLabel, VertexId>> pairs(n);
  parallel_for(0, n, [&](std::size_t v) {
    pairs[v] = {labels[v], static_cast<VertexId>(v)};
  });
  sort_inplace(std::span<std::pair<SccLabel, VertexId>>(pairs));
  // pairs now grouped by label with the min vertex first in each group.
  VertexId current_rep = 0;
  // Sequential sweep (n small relative to the graph work; keeps it simple).
  std::vector<VertexId> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first) {
      current_rep = pairs[i].second;
    }
    out[pairs[i].second] = current_rep;
  }
  return out;
}

}  // namespace pasgal
