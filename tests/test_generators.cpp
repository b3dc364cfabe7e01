// Tests for the graph generators that stand in for the paper's datasets.
#include <gtest/gtest.h>

#include "graphs/generators.h"
#include "parlay/scheduler.h"

namespace pasgal {
namespace {

TEST(Generators, RmatDeterministic) {
  Graph a = gen::rmat(10, 5000, 7);
  Graph b = gen::rmat(10, 5000, 7);
  EXPECT_EQ(a, b);
  Graph c = gen::rmat(10, 5000, 8);
  EXPECT_NE(a, c);
}

TEST(Generators, RmatShape) {
  Graph g = gen::rmat(12, 40000, 1);
  EXPECT_EQ(g.num_vertices(), 4096u);
  EXPECT_LE(g.num_edges(), 40000u);   // dedup may remove some
  EXPECT_GT(g.num_edges(), 30000u);   // but not most
  // Power law: max degree far above average.
  EdgeId max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  EXPECT_GT(max_deg, 10 * g.num_edges() / g.num_vertices());
}

TEST(Generators, RectangleGridStructure) {
  Graph g = gen::rectangle_grid(3, 5);
  EXPECT_EQ(g.num_vertices(), 15u);
  // Interior vertex has degree 4, corner 2.
  EXPECT_EQ(g.out_degree(0), 2u);           // corner
  EXPECT_EQ(g.out_degree(7), 4u);           // interior (row1,col2)
  EXPECT_TRUE(g.is_symmetric());
  // 2*rows*cols - rows - cols undirected edges, stored both ways.
  EXPECT_EQ(g.num_edges(), 2u * (2 * 15 - 3 - 5));
}

TEST(Generators, RoadGridConnectedAsUndirected) {
  Graph g = gen::road_grid(20, 30, 0.8, 3);
  EXPECT_EQ(g.num_vertices(), 600u);
  Graph sym = g.symmetrize();
  // Underlying lattice is connected, so the symmetrized version must be too
  // (checked properly in BFS tests; here just sanity on edge counts).
  EXPECT_GE(sym.num_edges(), 2u * (2 * 600 - 20 - 30) * 9 / 10);
}

TEST(Generators, SampledEdgesRemovesRoughlyRightFraction) {
  Graph g = gen::rectangle_grid(40, 40);
  Graph s = gen::sampled_edges(g, 0.7, 5);
  double kept = static_cast<double>(s.num_edges()) / g.num_edges();
  EXPECT_NEAR(kept, 0.7, 0.05);
  EXPECT_EQ(s.num_vertices(), g.num_vertices());
}

TEST(Generators, ChainAndCycle) {
  Graph c = gen::chain(100);
  EXPECT_EQ(c.num_edges(), 198u);
  EXPECT_TRUE(c.is_symmetric());
  Graph dc = gen::chain(100, /*directed=*/true);
  EXPECT_EQ(dc.num_edges(), 99u);
  Graph cy = gen::cycle(50);
  EXPECT_EQ(cy.num_edges(), 50u);
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(cy.out_degree(v), 1u);
}

TEST(Generators, StarAndTreeAndComplete) {
  Graph s = gen::star(10);
  EXPECT_EQ(s.out_degree(0), 9u);
  EXPECT_TRUE(s.is_symmetric());
  Graph t = gen::binary_tree(15);
  EXPECT_EQ(t.num_edges(), 28u);  // 14 undirected edges
  EXPECT_TRUE(t.is_symmetric());
  Graph k = gen::complete(6);
  EXPECT_EQ(k.num_edges(), 30u);
}

TEST(Generators, BubblesShape) {
  Graph b = gen::bubbles(10, 8);
  EXPECT_EQ(b.num_vertices(), 80u);
  EXPECT_TRUE(b.is_symmetric());
  // Each ring: 8 edges; 9 junctions; all doubled.
  EXPECT_EQ(b.num_edges(), 2u * (10 * 8 + 9));
}

TEST(Generators, KnnGraphBasics) {
  Graph g = gen::knn_graph(2000, 5, 11);
  EXPECT_EQ(g.num_vertices(), 2000u);
  // Every vertex has k out-neighbours (dedup can only remove exact repeats).
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(g.out_degree(v), 5u);
}

TEST(Generators, KnnGraphNeighboursAreNear) {
  // The 1-NN of each point must be at most the distance to any fixed other
  // point; spot check that edges do not span the whole unit square.
  Graph g = gen::knn_graph(5000, 3, 13);
  EXPECT_EQ(g.num_vertices(), 5000u);
  std::size_t long_edges = 0;
  // Regenerate the points the same way the generator does.
  Random rng(13);
  auto pt = [&](std::size_t i) {
    return std::pair<double, double>(
        static_cast<double>(rng.ith_rand(2 * i) >> 11) / 9007199254740992.0,
        static_cast<double>(rng.ith_rand(2 * i + 1) >> 11) / 9007199254740992.0);
  };
  for (VertexId v = 0; v < 500; ++v) {
    auto [x1, y1] = pt(v);
    for (VertexId u : g.neighbors(v)) {
      auto [x2, y2] = pt(u);
      double d2 = (x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2);
      if (d2 > 0.01) ++long_edges;  // 0.1 apart in a 5000-point square: far
    }
  }
  EXPECT_EQ(long_edges, 0u);
}

TEST(Generators, KnnClusteredProducesComponentsOfClusters) {
  Graph g = gen::knn_graph(3000, 4, 17, /*clusters=*/5);
  EXPECT_EQ(g.num_vertices(), 3000u);
  EXPECT_GE(g.num_edges(), 3000u * 3);
}

TEST(Generators, AddWeightsSymmetricAndInRange) {
  Graph g = gen::rectangle_grid(10, 10);
  auto wg = gen::add_weights(g, 50, 3);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    auto nbrs = wg.neighbors(u);
    auto wts = wg.neighbor_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_GE(wts[i], 1u);
      EXPECT_LE(wts[i], 50u);
      // Symmetric: find reverse edge and compare.
      VertexId v = nbrs[i];
      auto rn = wg.neighbors(v);
      auto rw = wg.neighbor_weights(v);
      for (std::size_t j = 0; j < rn.size(); ++j) {
        if (rn[j] == u) {
          EXPECT_EQ(rw[j], wts[i]);
        }
      }
    }
  }
}

TEST(Generators, RandomGraphSize) {
  Graph g = gen::random_graph(1000, 8000, 21);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_GT(g.num_edges(), 7000u);
  EXPECT_LE(g.num_edges(), 8000u);
}

template <typename F>
auto with_workers(int workers, F&& f) {
  Scheduler::reset(workers);
  auto result = f();
  Scheduler::reset(1);
  return result;
}

// Building the same graph under different worker counts gives the same CSR.
TEST(Determinism, GeneratorsScheduleIndependent) {
  for (int workers : {2, 4}) {
    EXPECT_EQ(with_workers(1, [] { return gen::rmat(12, 30000, 7); }),
              with_workers(workers, [] { return gen::rmat(12, 30000, 7); }));
    EXPECT_EQ(with_workers(1, [] { return gen::knn_graph(3000, 4, 9); }),
              with_workers(workers, [] { return gen::knn_graph(3000, 4, 9); }));
    EXPECT_EQ(
        with_workers(1, [] { return gen::random_graph(2000, 9000, 5); }),
        with_workers(workers, [] { return gen::random_graph(2000, 9000, 5); }));
  }
}

}  // namespace
}  // namespace pasgal
