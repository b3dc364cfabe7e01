#include "graphs/graph_stats.h"

#include "algorithms/kcore/kcore.h"

namespace pasgal {

std::uint32_t degeneracy(const Graph& g) {
  auto core = seq_kcore(g, {}).output;
  std::uint32_t best = 0;
  for (auto c : core) best = std::max(best, c);
  return best;
}

}  // namespace pasgal
