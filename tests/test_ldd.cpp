// Tests for low-diameter decomposition and LDD-based connectivity.
#include <gtest/gtest.h>

#include <map>

#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

class LddTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, LddTest, ::testing::Values(1, 4));

TEST_P(LddTest, EveryVertexAssigned) {
  Graph g = gen::rectangle_grid(30, 30);
  auto result = ldd(g, 0.2, 1);
  ASSERT_EQ(result.cluster.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NE(result.cluster[v], kInvalidVertex);
    // Cluster ids are centres, and centres belong to their own cluster.
    EXPECT_EQ(result.cluster[result.cluster[v]], result.cluster[v]);
  }
}

TEST_P(LddTest, ClustersAreConnected) {
  for (auto [name, g] : std::vector<std::pair<std::string, Graph>>{
           {"grid", gen::rectangle_grid(25, 25)},
           {"rmat", gen::rmat(10, 8000, 3).symmetrize()},
           {"bubbles", gen::bubbles(20, 10)}}) {
    auto result = ldd(g, 0.3, 7);
    // Flood inside each cluster from its centre must reach all members.
    std::vector<std::uint8_t> seen(g.num_vertices(), 0);
    for (VertexId c = 0; c < g.num_vertices(); ++c) {
      if (result.cluster[c] != c) continue;
      std::vector<VertexId> stack = {c};
      seen[c] = 1;
      while (!stack.empty()) {
        VertexId u = stack.back();
        stack.pop_back();
        for (VertexId v : g.neighbors(u)) {
          if (!seen[v] && result.cluster[v] == c) {
            seen[v] = 1;
            stack.push_back(v);
          }
        }
      }
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_TRUE(seen[v]) << name << " v=" << v;
    }
  }
}

TEST_P(LddTest, SmallBetaMeansFewClusters) {
  Graph g = gen::rectangle_grid(40, 40);
  auto aggressive = ldd(g, 0.05, 3);  // few, large clusters
  auto shattering = ldd(g, 2.0, 3);   // many, tiny clusters
  EXPECT_LT(aggressive.num_clusters, shattering.num_clusters);
}

TEST_P(LddTest, CutEdgesBounded) {
  // In expectation, at most ~beta fraction of edges are cut; allow slack 4x.
  Graph g = gen::rectangle_grid(50, 50);
  double beta = 0.2;
  auto result = ldd(g, beta, 11);
  std::size_t cut = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (result.cluster[u] != result.cluster[v]) ++cut;
    }
  }
  EXPECT_LT(static_cast<double>(cut),
            4.0 * beta * static_cast<double>(g.num_edges()));
}

TEST_P(LddTest, RoundsLogarithmicNotDiameter) {
  // A 4x1000 strip has diameter ~1000, but LDD finishes in O(log n / beta)
  // rounds because clusters grow from everywhere.
  Graph g = gen::rectangle_grid(4, 1000);
  auto result = ldd(g, 0.2, 5);
  EXPECT_LT(result.rounds, 200u);
}

TEST_P(LddTest, LddCcMatchesUnionFind) {
  for (auto [name, g] : std::vector<std::pair<std::string, Graph>>{
           {"grid", gen::rectangle_grid(20, 20)},
           {"disconnected",
            gen::sampled_edges(gen::rectangle_grid(25, 25), 0.4, 3).symmetrize()},
           {"rmat", gen::rmat(10, 6000, 9).symmetrize()},
           {"isolated", Graph::from_edges(10, std::vector<Edge>{{1, 2}, {2, 1}})},
           {"edgeless", Graph::from_edges(7, {})}}) {
    auto expected = connected_components(g, {}).output.label;
    EXPECT_EQ(ldd_cc(g, {.scc_beta = 0.2, .scc_seed = 17}).output, expected)
        << name;
  }
}

TEST_P(LddTest, LddCcSeedIndependent) {
  Graph g = gen::bubbles(15, 8);
  auto a = ldd_cc(g, {.scc_beta = 0.2, .scc_seed = 1}).output;
  auto b = ldd_cc(g, {.scc_beta = 0.5, .scc_seed = 999}).output;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pasgal
