#include <queue>

#include "algorithms/catalog.h"
#include "algorithms/sssp/sssp.h"

namespace pasgal {

// Sequential Dijkstra with a binary heap and lazy deletion — the standard
// sequential SSSP baseline.
RunReport<std::vector<Dist>> dijkstra(const WeightedGraph<std::uint32_t>& g,
                                      const AlgoOptions& opt) {
  admit(algo_spec("sssp", "seq"), g.unweighted());
  return run_traced(opt, [&](Tracer* stats) {
    check_sssp_preconditions(g, opt.source, kInfWeightDist - 1)
        .throw_if_error();
    std::size_t n = g.num_vertices();
    std::vector<Dist> dist(n, kInfWeightDist);
    using Entry = std::pair<Dist, VertexId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    dist[opt.source] = 0;
    heap.push({0, opt.source});
    std::uint64_t edges = 0, visits = 0;
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d != dist[u]) continue;  // stale
      ++visits;
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
        ++edges;
        VertexId v = g.edge_target(e);
        Dist nd = d + g.edge_weight(e);
        if (nd < dist[v]) {
          dist[v] = nd;
          heap.push({nd, v});
        }
      }
    }
    stats->add_edges(edges);
    stats->add_visits(visits);
    stats->end_round(visits);
    return dist;
  });
}

}  // namespace pasgal
