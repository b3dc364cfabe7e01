#include <queue>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"

namespace pasgal {

// The paper's sequential baseline: textbook queue-based BFS.
RunReport<std::vector<std::uint32_t>> seq_bfs(const Graph& g,
                                              const AlgoOptions& opt) {
  admit(algo_spec("bfs", "seq"), g);
  return run_traced(opt, [&](Tracer* stats) {
    Adjacency adj = g.adjacency();
    std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
    std::queue<VertexId> queue;
    dist[opt.source] = 0;
    queue.push(opt.source);
    std::uint64_t edges = 0, visits = 0;
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop();
      ++visits;
      adj.scan(u, [&](VertexId v) {
        ++edges;
        if (dist[v] == kInfDist) {
          dist[v] = dist[u] + 1;
          queue.push(v);
        }
      });
    }
    stats->add_edges(edges);
    stats->add_visits(visits);
    stats->end_round(visits);  // a sequential run is one "round"
    return dist;
  });
}

}  // namespace pasgal
