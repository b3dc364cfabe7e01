// Reproduces Table 1 / Table A1: statistics of the benchmark graphs
// (n, m' = directed edges, m = symmetrized edges, D' and D = diameter lower
// bounds from sampled searches, as in the paper).
#include <cstdio>

#include "graphs/graph_stats.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  std::printf("Table 1 (graph statistics). D/D' are lower bounds from sampled "
              "BFS double sweeps,\nas in the paper.\n\n");
  std::printf("%-10s %-10s %-22s %10s %10s %10s %8s %8s\n", "Class", "Graph",
              "Analogue", "n", "m'", "m", "D'", "D");
  for (const auto& spec : graph_suite()) {
    Graph g = spec.build();
    std::uint64_t n = g.num_vertices();
    std::uint64_t m_dir = spec.directed ? g.num_edges() : 0;
    Graph sym = spec.directed ? g.symmetrize() : g;
    std::uint64_t m_sym = sym.num_edges();
    std::uint64_t d_dir = 0;
    if (spec.directed) {
      Graph gt = g.transpose();
      d_dir = diameter_lower_bound(g, gt);
    }
    std::uint64_t d_sym = diameter_lower_bound(sym, sym);
    if (spec.directed) {
      std::printf("%-10s %-10s %-22s %10llu %10llu %10llu %8llu %8llu\n",
                  spec.cls.c_str(), spec.name.c_str(),
                  spec.paper_analogue.c_str(),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(m_dir),
                  static_cast<unsigned long long>(m_sym),
                  static_cast<unsigned long long>(d_dir),
                  static_cast<unsigned long long>(d_sym));
    } else {
      std::printf("%-10s %-10s %-22s %10llu %10s %10llu %8s %8llu\n",
                  spec.cls.c_str(), spec.name.c_str(),
                  spec.paper_analogue.c_str(),
                  static_cast<unsigned long long>(n), "N/A",
                  static_cast<unsigned long long>(m_sym), "N/A",
                  static_cast<unsigned long long>(d_sym));
    }
    std::fflush(stdout);
  }
  return 0;
}
