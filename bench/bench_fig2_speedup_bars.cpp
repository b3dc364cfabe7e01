// Reproduces Figure 2 ("speedup of parallel algorithms over the standard
// sequential algorithm", log-scale bars, one panel per problem): for BFS,
// SCC and BCC on every suite graph, the projected speedup of each parallel
// implementation over its sequential baseline at P=192 (the paper's
// 192-hyperthread configuration), from the calibrated cost model.
// Bars below 1.0 mean the parallel algorithm loses to sequential — the
// paper's headline observation for the baselines on large-diameter graphs.
#include <cstdio>

#include "algorithms/bcc/bcc.h"
#include "algorithms/scc/scc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

constexpr int kP = 192;

}  // namespace

int main() {
  Table bfs_bars({"PASGAL", "GBBS", "GAPBS"});
  Table scc_bars({"PASGAL", "GBBS", "Multistep"});
  Table bcc_bars({"PASGAL", "GBBS", "Tarjan-Vishkin"});

  for (const auto& spec : graph_suite()) {
    Graph g = spec.build();
    Graph gt = spec.directed ? g.transpose() : Graph();
    const Graph& gt_ref = spec.directed ? gt : g;

    // --- BFS panel.
    {
      VertexId source = max_degree_vertex(g);
      Tracer seq_stats, s1, s2, s3;
      double t_seq = time_seconds([&] {
        seq_bfs(g, {.source = source, .tracer = &seq_stats});
      });
      time_seconds([&] {
        pasgal_bfs(g, gt_ref, {.source = source, .tracer = &s1});
      });
      time_seconds([&] {
        gbbs_bfs(g, gt_ref, {.source = source, .tracer = &s2});
      });
      time_seconds([&] {
        gapbs_bfs(g, gt_ref, {.source = source, .tracer = &s3});
      });
      Projection proj = calibrate(t_seq, seq_stats);
      double ns = t_seq * 1e9;
      bfs_bars.add_row(spec.cls, spec.name,
                       {proj.speedup_at(kP, s1, ns), proj.speedup_at(kP, s2, ns),
                        proj.speedup_at(kP, s3, ns)});
    }
    // --- SCC panel (directed only, as in the paper).
    if (spec.directed) {
      Tracer seq_stats, s1, s2, s3;
      double t_seq = time_seconds([&] {
        tarjan_scc(g, {.tracer = &seq_stats});
      });
      time_seconds([&] { pasgal_scc(g, gt, {.tracer = &s1}); });
      time_seconds([&] { gbbs_scc(g, gt, {.tracer = &s2}); });
      time_seconds([&] { multistep_scc(g, gt, {.tracer = &s3}); });
      Projection proj = calibrate(t_seq, seq_stats);
      double ns = t_seq * 1e9;
      scc_bars.add_row(spec.cls, spec.name,
                       {proj.speedup_at(kP, s1, ns), proj.speedup_at(kP, s2, ns),
                        proj.speedup_at(kP, s3, ns)});
    }
    // --- BCC panel (symmetrized).
    {
      Graph sym = spec.directed ? g.symmetrize() : g;
      Tracer seq_stats, s1, s2, s3;
      double t_seq = time_seconds([&] {
        hopcroft_tarjan_bcc(sym, {.tracer = &seq_stats});
      });
      time_seconds([&] { fast_bcc(sym, {.tracer = &s1}); });
      time_seconds([&] { gbbs_bcc(sym, {.tracer = &s2}); });
      time_seconds([&] { tarjan_vishkin_bcc(sym, {.tracer = &s3}); });
      Projection proj = calibrate(t_seq, seq_stats);
      double ns = t_seq * 1e9;
      bcc_bars.add_row(spec.cls, spec.name,
                       {proj.speedup_at(kP, s1, ns), proj.speedup_at(kP, s2, ns),
                        proj.speedup_at(kP, s3, ns)});
    }
    std::fflush(stdout);
  }

  bfs_bars.print("Figure 2 / BFS: projected speedup over queue BFS at P=192",
                 "speedup (log-scale bars in the paper); <1 = slower than seq");
  scc_bars.print("Figure 2 / SCC: projected speedup over Tarjan at P=192",
                 "speedup; <1 = slower than seq");
  bcc_bars.print(
      "Figure 2 / BCC: projected speedup over Hopcroft-Tarjan at P=192",
      "speedup; <1 = slower than seq");
  return 0;
}
