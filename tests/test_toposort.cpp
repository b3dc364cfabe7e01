// Topological sort and SCC condensation tests.
#include <gtest/gtest.h>

#include "algorithms/scc/condensation.h"
#include "algorithms/toposort/toposort.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

class ToposortTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, ToposortTest, ::testing::Values(1, 4));

Graph random_dag(std::size_t n, std::size_t m, std::uint64_t seed) {
  // Edges only from lower to higher id: guaranteed acyclic.
  Random rng(seed);
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    VertexId a = static_cast<VertexId>(rng.ith_rand(2 * i) % n);
    VertexId b = static_cast<VertexId>(rng.ith_rand(2 * i + 1) % n);
    if (a == b) continue;
    edges.push_back({std::min(a, b), std::max(a, b)});
  }
  return Graph::from_edges(n, edges, /*dedup=*/true);
}

TEST_P(ToposortTest, ParallelMatchesSequentialOnDags) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Graph g = random_dag(1000, 5000, seed);
    auto expected = seq_toposort(g, {}).output;
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(pasgal_toposort(g, {}).output, expected) << "seed=" << seed;
  }
}

TEST_P(ToposortTest, LevelsRespectEdges) {
  Graph g = random_dag(2000, 12000, 7);
  auto levels = pasgal_toposort(g, {}).output;
  ASSERT_FALSE(levels.empty());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      EXPECT_LT(levels[u], levels[v]);
    }
  }
}

TEST_P(ToposortTest, LevelsAreLongestPaths) {
  // Diamond with a long lower path: 0->1->2->3->9 and 0->9.
  std::vector<Edge> e = {{0, 1}, {1, 2}, {2, 3}, {3, 9}, {0, 9}};
  Graph g = Graph::from_edges(10, e);
  auto levels = pasgal_toposort(g, {}).output;
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels[9], 4u);  // the long path dominates
  EXPECT_EQ(levels[0], 0u);
}

TEST_P(ToposortTest, CycleDetected) {
  auto expect_cycle = [](const Graph& g) {
    for (auto run : {seq_toposort, pasgal_toposort}) {
      try {
        run(g, {});
        ADD_FAILURE() << "cyclic input accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kValidation);
        EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
      }
    }
  };
  expect_cycle(gen::cycle(10));
  // Partial cycle: DAG portion plus a 3-cycle.
  std::vector<Edge> e = {{0, 1}, {1, 2}, {2, 0}, {3, 4}};
  expect_cycle(Graph::from_edges(5, e));
}

TEST_P(ToposortTest, TopologicalOrderIsValid) {
  Graph g = random_dag(500, 2500, 11);
  auto levels = pasgal_toposort(g, {}).output;
  auto order = topological_order(levels);
  std::vector<std::size_t> position(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      EXPECT_LT(position[u], position[v]);
    }
  }
}

TEST_P(ToposortTest, TauSweep) {
  Graph g = gen::chain(5000, /*directed=*/true);
  auto expected = seq_toposort(g, {}).output;
  for (std::uint32_t tau : {1u, 32u, 1024u}) {
    EXPECT_EQ(pasgal_toposort(g, {.vgc = {.tau = tau}}).output, expected)
        << "tau=" << tau;
  }
}

TEST(ToposortRounds, VgcCollapsesDeepChains) {
  Scheduler::reset(1);
  Graph g = gen::chain(20000, /*directed=*/true);
  Tracer no_vgc_stats, vgc_stats;
  auto a =
      pasgal_toposort(g, {.vgc = {.tau = 1}, .tracer = &no_vgc_stats}).output;
  auto b = pasgal_toposort(g, {.tracer = &vgc_stats}).output;
  EXPECT_EQ(a, b);
  EXPECT_LT(vgc_stats.rounds() * 10, no_vgc_stats.rounds());
}

TEST_P(ToposortTest, CondensationIsAcyclicAndFaithful) {
  for (std::uint64_t seed : {5, 6}) {
    Graph g = gen::random_graph(800, 3000, seed);
    Graph gt = g.transpose();
    auto labels = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
    Condensation cond = scc_condensation(g, labels);
    // The condensation is a DAG.
    EXPECT_FALSE(pasgal_toposort(cond.dag, {}).output.empty())
        << "seed=" << seed;
    // component_of respects labels.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(cond.representative[cond.component_of[v]], labels[v]);
    }
    // Every original cross-component edge appears.
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.neighbors(u)) {
        if (labels[u] == labels[v]) continue;
        auto nbrs = cond.dag.neighbors(cond.component_of[u]);
        EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(),
                                       cond.component_of[v]));
      }
    }
    // No self loops, no duplicates.
    for (VertexId c = 0; c < cond.dag.num_vertices(); ++c) {
      auto nbrs = cond.dag.neighbors(c);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_NE(nbrs[i], c);
        if (i > 0) {
          EXPECT_LT(nbrs[i - 1], nbrs[i]);
        }
      }
    }
  }
}

TEST_P(ToposortTest, CondensationOfDagIsIsomorphic) {
  Graph g = random_dag(300, 900, 13);
  Graph gt = g.transpose();
  auto labels = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  Condensation cond = scc_condensation(g, labels);
  EXPECT_EQ(cond.dag.num_vertices(), g.num_vertices());
}

}  // namespace
}  // namespace pasgal
