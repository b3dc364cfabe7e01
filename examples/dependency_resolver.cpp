// Dependency resolution: SCC condensation + topological scheduling.
//
//   $ ./examples/dependency_resolver [n]
//
// Models a build system's dependency graph (targets + depends-on edges,
// including mutually recursive groups). PASGAL answers:
//   * which targets form cycles (SCCs of size > 1 — must build as a unit),
//   * a legal build order over the condensation DAG (parallel toposort),
//   * the critical-path depth (how many sequential build waves are needed).
#include <cstdio>
#include <cstdlib>
#include <map>

#include "algorithms/scc/condensation.h"
#include "algorithms/toposort/toposort.h"
#include "graphs/generators.h"

using namespace pasgal;

int main(int argc, char** argv) {
  std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50000;

  // A layered random DAG plus a sprinkling of back edges to create
  // mutually-recursive target groups.
  Random rng(31);
  std::vector<Edge> deps;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t fan = 1 + rng.ith_rand(3 * i) % 3;
    for (std::size_t f = 0; f < fan; ++f) {
      VertexId dep = static_cast<VertexId>(rng.ith_rand(3 * i + f) % i);
      deps.push_back({dep, static_cast<VertexId>(i)});
    }
    if (rng.ith_rand(7 * i) % 20 == 0) {  // 5% of targets join a cycle
      VertexId back = static_cast<VertexId>(i - 1 - rng.ith_rand(9 * i) % std::min<std::size_t>(i, 5));
      deps.push_back({static_cast<VertexId>(i), back});
    }
  }
  Graph g = Graph::from_edges(n, deps, /*dedup=*/true, /*drop_self_loops=*/true);
  Graph gt = g.transpose();
  std::printf("dependency graph: %zu targets, %zu edges\n", g.num_vertices(),
              g.num_edges());

  // Cyclic groups.
  auto labels = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  std::map<VertexId, std::size_t> group_size;
  for (auto l : labels) ++group_size[l];
  std::size_t cyclic_groups = 0, largest = 0;
  for (auto& [l, s] : group_size) {
    if (s > 1) {
      ++cyclic_groups;
      largest = std::max(largest, s);
    }
  }
  std::printf("mutually recursive groups: %zu (largest has %zu targets)\n",
              cyclic_groups, largest);

  // Build schedule over the condensation.
  Condensation cond = scc_condensation(g, labels);
  Tracer topo_stats;
  std::vector<std::uint32_t> levels =
      pasgal_toposort(cond.dag, {.tracer = &topo_stats}).output;
  std::uint32_t depth = 0;
  for (auto l : levels) depth = std::max(depth, l);
  auto order = topological_order(levels);
  std::printf("build plan: %zu units, critical-path depth %u "
              "(toposort in %llu rounds)\n",
              cond.dag.num_vertices(), depth + 1,
              (unsigned long long)topo_stats.rounds());
  std::printf("first units to build:");
  for (std::size_t i = 0; i < order.size() && i < 6; ++i) {
    std::printf(" target%u", cond.representative[order[i]]);
  }
  std::printf(" ...\n");

  // Wave widths (how parallel each build wave is).
  std::vector<std::size_t> wave(depth + 1, 0);
  for (auto l : levels) ++wave[l];
  std::size_t widest = 0;
  for (auto w : wave) widest = std::max(widest, w);
  std::printf("widest wave builds %zu units in parallel\n", widest);
  return 0;
}
