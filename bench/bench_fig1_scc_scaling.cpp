// Reproduces Figure 1: SCC speedup vs #processors over sequential Tarjan on
// four graphs — two low-diameter (SOC-LJ, WEB-SD) and two large-diameter
// (ROAD-NA, REC). Speedups beyond the physical core count come from the
// calibrated cost model (DESIGN.md §2/§4): the measured work, round count,
// and frontier profile of each run are projected to P cores. The shape claim
// under test: PASGAL keeps scaling on large-diameter graphs; GBBS and
// Multistep flatten (or drop below 1x) because their round counts grow with
// the diameter.
#include <cstdio>

#include "algorithms/scc/scc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  const std::vector<std::string> picks = {"SOC-LJ", "WEB-SD", "ROAD-NA", "REC"};
  const std::vector<int> processors = {1, 2, 4, 8, 16, 32, 48, 96, 192};

  for (const auto& spec : directed_suite()) {
    bool wanted = false;
    for (const auto& p : picks) wanted |= (spec.name == p);
    if (!wanted) continue;

    Graph g = spec.build();
    Graph gt = g.transpose();

    Tracer seq_stats, pasgal_stats, gbbs_stats, multi_stats;
    double t_seq = time_seconds([&] { tarjan_scc(g, {.tracer = &seq_stats}); });
    time_seconds([&] { pasgal_scc(g, gt, {.tracer = &pasgal_stats}); });
    time_seconds([&] { gbbs_scc(g, gt, {.tracer = &gbbs_stats}); });
    time_seconds([&] { multistep_scc(g, gt, {.tracer = &multi_stats}); });

    Projection proj = calibrate(t_seq, seq_stats);
    double seq_ns = t_seq * 1e9;

    std::printf("\n=== Figure 1 panel: %s (%s, analogue %s) ===\n",
                spec.name.c_str(), spec.cls.c_str(),
                spec.paper_analogue.c_str());
    std::printf("Tarjan* = 1.0 at every P. Rows: speedup over Tarjan.\n");
    std::printf("%-10s", "P");
    for (int p : processors) std::printf(" %8d", p);
    std::printf("\n");
    auto series = [&](const char* name, const Tracer& stats) {
      std::printf("%-10s", name);
      for (int p : processors) {
        std::printf(" %8.3f", proj.speedup_at(p, stats, seq_ns));
      }
      std::printf("\n");
    };
    series("PASGAL", pasgal_stats);
    series("GBBS", gbbs_stats);
    series("Multistep", multi_stats);
    std::printf("rounds: PASGAL=%llu GBBS=%llu Multistep=%llu\n",
                static_cast<unsigned long long>(pasgal_stats.rounds()),
                static_cast<unsigned long long>(gbbs_stats.rounds()),
                static_cast<unsigned long long>(multi_stats.rounds()));
    std::fflush(stdout);
  }
  return 0;
}
