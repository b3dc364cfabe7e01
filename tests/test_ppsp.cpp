// Point-to-point shortest path tests: both PPSP algorithms must agree with
// full Dijkstra, and bidirectional search must settle fewer vertices.
#include <gtest/gtest.h>

#include "algorithms/sssp/ppsp.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

using WGraph = WeightedGraph<std::uint32_t>;

class PpspTest : public ::testing::Test {
 protected:
  void SetUp() override { Scheduler::reset(1); }
};

TEST_F(PpspTest, MatchesFullDijkstraOnSuite) {
  std::vector<std::pair<std::string, WGraph>> cases;
  cases.emplace_back("grid", gen::add_weights(gen::rectangle_grid(20, 30), 50, 1));
  cases.emplace_back("road", gen::add_weights(gen::road_grid(15, 40, 0.7, 2), 100, 2));
  cases.emplace_back("rmat", gen::add_weights(gen::rmat(10, 8000, 3), 64, 3));
  cases.emplace_back("chain", gen::add_weights(gen::chain(500), 9, 4));
  for (const auto& [name, g] : cases) {
    WGraph gt = g.transpose();
    Random rng(9);
    for (std::size_t trial = 0; trial < 10; ++trial) {
      VertexId s = static_cast<VertexId>(rng.ith_rand(2 * trial) % g.num_vertices());
      VertexId t =
          static_cast<VertexId>(rng.ith_rand(2 * trial + 1) % g.num_vertices());
      Dist expected = dijkstra(g, {.source = s}).output[t];
      EXPECT_EQ(ppsp_dijkstra(g, s, t), expected)
          << name << " s=" << s << " t=" << t;
      EXPECT_EQ(ppsp_bidirectional(g, gt, s, t), expected)
          << name << " s=" << s << " t=" << t;
    }
  }
}

TEST_F(PpspTest, SameSourceAndTarget) {
  auto g = gen::add_weights(gen::rectangle_grid(5, 5), 10, 5);
  auto gt = g.transpose();
  EXPECT_EQ(ppsp_dijkstra(g, 7, 7), 0u);
  EXPECT_EQ(ppsp_bidirectional(g, gt, 7, 7), 0u);
}

TEST_F(PpspTest, UnreachableTarget) {
  auto g = gen::add_weights(
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}}), 10, 6);
  auto gt = g.transpose();
  EXPECT_EQ(ppsp_dijkstra(g, 0, 3), kInfWeightDist);
  EXPECT_EQ(ppsp_bidirectional(g, gt, 0, 3), kInfWeightDist);
}

TEST_F(PpspTest, DirectedOneWay) {
  // 0 -> 1 -> 2 but no way back.
  std::vector<WeightedEdge<std::uint32_t>> e = {{0, 1, 4}, {1, 2, 5}};
  auto g = WGraph::from_edges(3, e);
  auto gt = g.transpose();
  EXPECT_EQ(ppsp_bidirectional(g, gt, 0, 2), 9u);
  EXPECT_EQ(ppsp_bidirectional(g, gt, 2, 0), kInfWeightDist);
}

TEST_F(PpspTest, BidirectionalSettlesFewerVerticesOnLargeDiameter) {
  auto g = gen::add_weights(gen::rectangle_grid(60, 60), 20, 7);
  auto gt = g.transpose();
  VertexId s = 0, t = 60 * 60 - 1;  // opposite corners
  Tracer uni_stats, bi_stats;
  Dist d1 = ppsp_dijkstra(g, s, t, &uni_stats);
  Dist d2 = ppsp_bidirectional(g, gt, s, t, &bi_stats);
  EXPECT_EQ(d1, d2);
  EXPECT_LT(bi_stats.vertices_visited(), uni_stats.vertices_visited());
}

TEST_F(PpspTest, EarlyExitBeatsFullScanOnNearbyTargets) {
  auto g = gen::add_weights(gen::rectangle_grid(50, 50), 20, 8);
  Tracer near_stats;
  ppsp_dijkstra(g, 0, 1, &near_stats);
  EXPECT_LT(near_stats.vertices_visited(), g.num_vertices() / 4);
}

}  // namespace
}  // namespace pasgal
