// SSSP correctness: stepping (rho/delta, with and without VGC) and
// Bellman-Ford must match Dijkstra exactly on weighted graph families.
#include <gtest/gtest.h>

#include <limits>

#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

using WGraph = WeightedGraph<std::uint32_t>;

std::vector<std::pair<std::string, WGraph>> sssp_graphs() {
  std::vector<std::pair<std::string, WGraph>> cases;
  cases.emplace_back("single", gen::add_weights(Graph::from_edges(1, {}), 10, 1));
  cases.emplace_back("chain", gen::add_weights(gen::chain(400), 50, 2));
  cases.emplace_back("dchain", gen::add_weights(gen::chain(300, true), 50, 3));
  cases.emplace_back("grid", gen::add_weights(gen::rectangle_grid(25, 30), 100, 4));
  cases.emplace_back("road", gen::add_weights(gen::road_grid(15, 50, 0.7, 5), 1000, 5));
  cases.emplace_back("rmat", gen::add_weights(gen::rmat(11, 20000, 6), 100, 6));
  cases.emplace_back("random", gen::add_weights(gen::random_graph(2000, 12000, 7), 64, 7));
  cases.emplace_back("knn", gen::add_weights(gen::knn_graph(1500, 4, 8), 100, 8));
  cases.emplace_back("star", gen::add_weights(gen::star(500), 9, 9));
  cases.emplace_back("uniform_weight_1", gen::add_weights(gen::rectangle_grid(20, 20), 1, 10));
  cases.emplace_back("disconnected",
                     gen::add_weights(gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 11)
                                          .symmetrize(),
                                      30, 11));
  return cases;
}

class SsspTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, SsspTest, ::testing::Values(1, 4));

TEST_P(SsspTest, BellmanFordMatchesDijkstra) {
  for (const auto& [name, g] : sssp_graphs()) {
    for (VertexId src : {VertexId{0}, static_cast<VertexId>(g.num_vertices() / 2)}) {
      EXPECT_EQ(bellman_ford(g, {.source = src}).output,
                dijkstra(g, {.source = src}).output)
          << name << " src=" << src;
    }
  }
}

TEST_P(SsspTest, RhoSteppingMatchesDijkstra) {
  for (const auto& [name, g] : sssp_graphs()) {
    for (VertexId src : {VertexId{0}, static_cast<VertexId>(g.num_vertices() - 1)}) {
      EXPECT_EQ(stepping_sssp(g, {.source = src}).output,
                dijkstra(g, {.source = src}).output)
          << name << " src=" << src;
    }
  }
}

TEST_P(SsspTest, DeltaSteppingMatchesDijkstra) {
  for (const auto& [name, g] : sssp_graphs()) {
    auto expected = dijkstra(g, {}).output;
    for (Dist delta : {Dist{1}, Dist{16}, Dist{256}}) {
      EXPECT_EQ(stepping_sssp(g, {.source = 0,
                                  .sssp_delta_mode = true,
                                  .sssp_delta = delta})
                    .output,
                expected)
          << name << " delta=" << delta;
    }
  }
}

TEST_P(SsspTest, SteppingWithoutVgcMatches) {
  auto g = gen::add_weights(gen::road_grid(12, 40, 0.7, 13), 100, 13);
  auto expected = dijkstra(g, {}).output;
  // tau = 1 turns VGC off.
  EXPECT_EQ(stepping_sssp(g, {.vgc = {.tau = 1}}).output, expected);
}

TEST_P(SsspTest, SteppingTauSweep) {
  auto g = gen::add_weights(gen::rectangle_grid(10, 60), 50, 14);
  auto expected = dijkstra(g, {.source = 5}).output;
  for (std::uint32_t tau : {1u, 8u, 128u, 4096u}) {
    EXPECT_EQ(stepping_sssp(g, {.source = 5, .vgc = {.tau = tau}}).output,
              expected)
        << "tau=" << tau;
  }
}

TEST_P(SsspTest, RhoSweep) {
  auto g = gen::add_weights(gen::random_graph(1500, 9000, 15), 100, 15);
  auto expected = dijkstra(g, {.source = 1}).output;
  for (std::size_t rho : {std::size_t{1}, std::size_t{64}, std::size_t{100000}}) {
    EXPECT_EQ(stepping_sssp(g, {.source = 1, .sssp_rho = rho}).output,
              expected)
        << "rho=" << rho;
  }
}

TEST_P(SsspTest, DeltaNearSaturationTerminates) {
  // Regression: delta is a 64-bit Dist, so base + delta used to wrap and
  // produce a threshold *below* base — no entry ever settled and the step
  // loop re-inserted the same bucket forever. A saturating threshold must
  // settle everything instead, degenerating into one big step.
  auto g = gen::add_weights(gen::rectangle_grid(20, 25), 100, 18);
  auto expected = dijkstra(g, {}).output;
  for (Dist delta : {kInfWeightDist, std::numeric_limits<Dist>::max(),
                     std::numeric_limits<Dist>::max() - 1}) {
    EXPECT_EQ(stepping_sssp(g, {.source = 0,
                                .sssp_delta_mode = true,
                                .sssp_delta = delta})
                  .output,
              expected)
        << "delta=" << delta;
  }
}

TEST_P(SsspTest, UnreachableVerticesAreInf) {
  auto g = gen::add_weights(
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}}), 10, 16);
  auto d = stepping_sssp(g, {}).output;
  EXPECT_EQ(d[0], 0u);
  EXPECT_LT(d[1], kInfWeightDist);
  EXPECT_EQ(d[2], kInfWeightDist);
  EXPECT_EQ(d[3], kInfWeightDist);
}

TEST_P(SsspTest, WeightedShorterThanFewerHops) {
  // 0->1->2 with weights 1+1, plus direct 0->2 with weight 5: SSSP must take
  // the two-hop path.
  std::vector<WeightedEdge<std::uint32_t>> edges = {
      {0, 1, 1}, {1, 2, 1}, {0, 2, 5}};
  auto g = WGraph::from_edges(3, edges);
  AlgoOptions delta{.source = 0, .sssp_delta_mode = true, .sssp_delta = 4};
  for (auto d : {dijkstra(g, {}).output, stepping_sssp(g, {}).output,
                 bellman_ford(g, {}).output, stepping_sssp(g, delta).output}) {
    EXPECT_EQ(d[2], 2u);
  }
}

TEST(SsspRounds, SteppingBeatsBellmanFordRoundsOnChain) {
  Scheduler::reset(1);
  auto g = gen::add_weights(gen::chain(3000), 10, 17);
  Tracer bf_stats, step_stats;
  auto a = bellman_ford(g, {.source = 0, .tracer = &bf_stats}).output;
  auto b = stepping_sssp(g, {.source = 0, .tracer = &step_stats}).output;
  EXPECT_EQ(a, b);
  EXPECT_GT(bf_stats.rounds(), 2000u);
  EXPECT_LT(step_stats.rounds(), bf_stats.rounds() / 5);
}

}  // namespace
}  // namespace pasgal
