// Ablation: sensitivity to the VGC budget tau (§2.1 calls tau "a tunable
// parameter" equivalent to the base-case size of granularity control).
// Sweeps tau for PASGAL BFS and SCC on one road graph and one synthetic
// rectangle; tau=1 is the no-VGC (GBBS-like) configuration.
#include <cstdio>

#include "algorithms/scc/scc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  const std::vector<std::uint32_t> taus = {1, 4, 16, 64, 256, 512, 1024, 4096};

  for (const auto& spec : directed_suite()) {
    if (spec.name != "ROAD-NA" && spec.name != "REC") continue;
    Graph g = spec.build();
    Graph gt = g.transpose();

    std::printf("\n=== VGC tau ablation on %s ===\n", spec.name.c_str());
    std::printf("%8s %12s %10s %14s %12s %10s\n", "tau", "BFS time(s)",
                "BFS rounds", "BFS edges", "SCC time(s)", "SCC rounds");
    for (std::uint32_t tau : taus) {
      Tracer bfs_stats;
      double t_bfs = time_seconds([&] {
        pasgal_bfs(g, gt, {.vgc = {.tau = tau}, .tracer = &bfs_stats});
      });

      Tracer scc_stats;
      double t_scc = time_seconds([&] {
        pasgal_scc(g, gt, {.vgc = {.tau = tau}, .tracer = &scc_stats});
      });

      std::printf("%8u %12.4f %10llu %14llu %12.4f %10llu\n", tau, t_bfs,
                  static_cast<unsigned long long>(bfs_stats.rounds()),
                  static_cast<unsigned long long>(bfs_stats.edges_scanned()),
                  t_scc, static_cast<unsigned long long>(scc_stats.rounds()));
      std::fflush(stdout);
    }
  }
  std::printf(
      "\nExpected shape: rounds fall steeply as tau grows (fewer global\n"
      "synchronizations); edges scanned rises mildly (VGC revisits); the\n"
      "sweet spot is a few hundred, as the paper uses.\n");
  return 0;
}
