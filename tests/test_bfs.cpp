// BFS correctness: every parallel variant must produce exactly the
// sequential hop distances on a matrix of graph families, worker counts, and
// sources — plus VGC-specific behavioural checks.
#include <gtest/gtest.h>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

struct BfsCase {
  std::string name;
  Graph g;
  bool symmetric;
};

std::vector<BfsCase> test_graphs() {
  std::vector<BfsCase> cases;
  cases.push_back({"empty1", Graph::from_edges(1, {}), true});
  cases.push_back({"two_isolated", Graph::from_edges(2, {}), true});
  cases.push_back({"self_loop", Graph::from_edges(2, std::vector<Edge>{{0, 0}, {0, 1}}), false});
  cases.push_back({"chain200", gen::chain(200), true});
  cases.push_back({"dchain200", gen::chain(200, true), false});
  cases.push_back({"cycle100", gen::cycle(100), false});
  cases.push_back({"star1000", gen::star(1000), true});
  cases.push_back({"tree4095", gen::binary_tree(4095), true});
  cases.push_back({"grid30x40", gen::rectangle_grid(30, 40), true});
  cases.push_back({"road20x50", gen::road_grid(20, 50, 0.7, 3), false});
  cases.push_back({"rmat11", gen::rmat(11, 20000, 5), false});
  cases.push_back({"random2k", gen::random_graph(2000, 10000, 9), false});
  cases.push_back({"knn2k", gen::knn_graph(2000, 4, 11), false});
  cases.push_back({"bubbles", gen::bubbles(20, 10), true});
  // Note: sampling directed edges independently breaks symmetry.
  cases.push_back({"disconnected", gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 7), false});
  cases.push_back({"disconnected_sym",
                   gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 7).symmetrize(),
                   true});
  return cases;
}

class BfsVariants : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, BfsVariants, ::testing::Values(1, 4));

TEST_P(BfsVariants, AllVariantsMatchSequential) {
  for (const auto& c : test_graphs()) {
    if (c.g.num_vertices() == 0) continue;
    Graph gt = c.symmetric ? c.g : c.g.transpose();
    for (VertexId source :
         {VertexId{0}, static_cast<VertexId>(c.g.num_vertices() / 2),
          static_cast<VertexId>(c.g.num_vertices() - 1)}) {
      auto expected = seq_bfs(c.g, {.source = source}).output;
      EXPECT_EQ(gbbs_bfs(c.g, gt, {.source = source}).output, expected)
          << "gbbs_bfs on " << c.name << " src=" << source;
      EXPECT_EQ(gapbs_bfs(c.g, gt, {.source = source}).output, expected)
          << "gapbs_bfs on " << c.name << " src=" << source;
      EXPECT_EQ(pasgal_bfs(c.g, gt, {.source = source}).output, expected)
          << "pasgal_bfs on " << c.name << " src=" << source;
    }
  }
}

TEST_P(BfsVariants, PasgalBfsTauSweep) {
  Graph g = gen::road_grid(15, 80, 0.75, 5);
  Graph gt = g.transpose();
  auto expected = seq_bfs(g, {}).output;
  for (std::uint32_t tau : {1u, 2u, 16u, 256u, 4096u}) {
    EXPECT_EQ(pasgal_bfs(g, gt, {.vgc = {.tau = tau}}).output, expected)
        << "tau=" << tau;
  }
}

TEST_P(BfsVariants, PasgalBfsNoDenseMatches)
{
  Graph g = gen::rmat(11, 30000, 3);
  Graph gt = g.transpose();
  auto expected = seq_bfs(g, {.source = 1}).output;
  EXPECT_EQ(pasgal_bfs(g, gt, {.source = 1, .use_dense = false}).output,
            expected);
}

std::size_t dense_rounds(const RunTelemetry& t) {
  std::size_t dense = 0;
  for (const RoundTrace& r : t.rounds) {
    dense += r.kind == RoundKind::kDense ? 1 : 0;
  }
  return dense;
}

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

// dense_threshold_den = 1e9 puts the threshold at m / 1e9 == 0, so every
// round that may pull does: pasgal's dense phase from the first round
// on, driven through edge_map_dense to the last level.
TEST_P(BfsVariants, ForcedDenseMatchesSequential) {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("rmat", gen::rmat(11, 20000, 5));
  cases.emplace_back("grid", gen::rectangle_grid(30, 40));
  cases.emplace_back("chain", gen::chain(300));
  for (const auto& [name, g] : cases) {
    Graph gt = g.transpose();
    for (VertexId source : {VertexId{0}, VertexId{150}}) {
      auto expected = seq_bfs(g, {.source = source}).output;
      auto got = pasgal_bfs(
          g, gt, {.source = source, .dense_threshold_den = 1'000'000'000});
      EXPECT_EQ(got.output, expected) << name << " src=" << source;
      EXPECT_GT(dense_rounds(got.telemetry), 0u) << name << " src=" << source;
    }
  }
}

// Differential sweep: 25 sources (the hub plus an even spread) per graph
// class, covering low and high diameter, directed and symmetric inputs.
TEST_P(BfsVariants, PasgalMatchesSequentialSweep) {
  std::vector<BfsCase> cases;
  cases.push_back({"rmat16", gen::rmat(16, 600000, 7), false});
  cases.push_back({"rmat14_sym", gen::rmat(14, 150000, 8).symmetrize(), true});
  cases.push_back({"road300x300", gen::road_grid(300, 300, 0.8, 4), false});
  cases.push_back({"knn", gen::knn_graph(20000, 6, 12), false});
  cases.push_back({"random", gen::random_graph(20000, 120000, 13), false});
  cases.push_back({"star", gen::star(5000), true});
  for (const auto& c : cases) {
    Graph gt = c.symmetric ? c.g : c.g.transpose();
    std::size_t n = c.g.num_vertices();
    std::vector<VertexId> sources = {max_degree_vertex(c.g)};
    for (std::size_t i = 0; i < 24; ++i) {
      sources.push_back(static_cast<VertexId>(i * (n - 1) / 23));
    }
    for (VertexId source : sources) {
      EXPECT_EQ(pasgal_bfs(c.g, gt, {.source = source}).output,
                seq_bfs(c.g, {.source = source}).output)
          << c.name << " src=" << source;
    }
  }
}

// Sweeping the direction threshold moves the pull's entry point across
// rounds, so it starts with pending entries in varied buckets (some below
// the lowest bucket's minimum) and hands back at varied levels.
TEST_P(BfsVariants, PasgalDenseEntryPointsMatchSequential) {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("rmat", gen::rmat(12, 60000, 9));
  cases.emplace_back("knn", gen::knn_graph(4000, 5, 3));
  cases.emplace_back("road", gen::road_grid(40, 60, 0.8, 2));
  for (const auto& [name, g] : cases) {
    Graph gt = g.transpose();
    for (VertexId source : {VertexId{0}, VertexId{777}, VertexId{1999}}) {
      auto expected = seq_bfs(g, {.source = source}).output;
      for (EdgeId den : {2, 8, 50, 400, 5000}) {
        AlgoOptions opt{.source = source, .dense_threshold_den = den};
        for (std::uint32_t tau : {4u, 512u}) {
          opt.vgc.tau = tau;
          EXPECT_EQ(pasgal_bfs(g, gt, opt).output, expected)
              << name << " src=" << source << " den=" << den
              << " tau=" << tau;
        }
      }
    }
  }
}

// From an rmat hub the source's local search spreads entries over several
// buckets; the pull must still start as soon as the lowest level is heavy,
// not wait for the other buckets to drain.
TEST(BfsRounds, DenseEntersWithPendingBuckets) {
  Scheduler::reset(1);
  Graph g = gen::rmat(16, 900000, 2);
  Graph gt = g.transpose();
  VertexId hub = max_degree_vertex(g);
  auto got = pasgal_bfs(g, gt, {.source = hub});
  EXPECT_EQ(got.output, seq_bfs(g, {.source = hub}).output);
  const auto& rounds = got.telemetry.rounds;
  bool early_dense = false;
  for (std::size_t i = 0; i < rounds.size() && i <= 2; ++i) {
    early_dense = early_dense || rounds[i].kind == RoundKind::kDense;
  }
  EXPECT_TRUE(early_dense);
  EXPECT_LT(got.telemetry.edges_scanned, g.num_edges() / 4);
}

TEST(BfsOptions, GbbsHonoursUseDense) {
  Scheduler::reset(1);
  Graph g = gen::rmat(13, 120000, 1);
  Graph gt = g.transpose();
  VertexId hub = max_degree_vertex(g);
  auto with = gbbs_bfs(g, gt, {.source = hub});
  auto without = gbbs_bfs(g, gt, {.source = hub, .use_dense = false});
  EXPECT_GT(dense_rounds(with.telemetry), 0u);
  EXPECT_EQ(dense_rounds(without.telemetry), 0u);
  EXPECT_EQ(without.output, with.output);
}

TEST(BfsRounds, GapbsBottomUpRoundsAreDense) {
  Scheduler::reset(1);
  Graph g = gen::rmat(13, 120000, 1);
  Graph gt = g.transpose();
  VertexId hub = max_degree_vertex(g);
  auto got = gapbs_bfs(g, gt, {.source = hub});
  EXPECT_EQ(got.output, seq_bfs(g, {.source = hub}).output);
  EXPECT_GE(dense_rounds(got.telemetry), 1u);
}

TEST(BfsRounds, VgcReducesRoundsOnLargeDiameter) {
  Scheduler::reset(1);
  // A long skinny grid: diameter ~ 500. GBBS needs one round per level;
  // PASGAL's VGC should advance many hops per round.
  Graph g = gen::rectangle_grid(4, 500);
  Tracer gbbs_stats, pasgal_stats;
  auto a = gbbs_bfs(g, g, {.source = 0, .tracer = &gbbs_stats}).output;
  auto b =
      pasgal_bfs(g, g, {.vgc = {.tau = 512}, .tracer = &pasgal_stats}).output;
  EXPECT_EQ(a, b);
  EXPECT_GT(gbbs_stats.rounds(), 400u);
  EXPECT_LT(pasgal_stats.rounds(), gbbs_stats.rounds() / 5)
      << "VGC should cut rounds by ~tau-driven factor";
}

TEST(BfsRounds, DirectionOptimizationKicksInOnSocialGraphs) {
  Scheduler::reset(1);
  Graph g = gen::rmat(13, 120000, 3);
  Graph gt = g.transpose();
  Tracer stats;
  // Pick a high-degree source so the frontier explodes.
  VertexId best = max_degree_vertex(g);
  auto d = pasgal_bfs(g, gt, {.source = best, .tracer = &stats}).output;
  EXPECT_EQ(d, seq_bfs(g, {.source = best}).output);
  // Low-diameter graph: few rounds.
  EXPECT_LT(stats.rounds(), 40u);
}

TEST(BfsStats, EdgesScannedAtLeastReachableEdges) {
  Scheduler::reset(1);
  Graph g = gen::rectangle_grid(10, 100);
  Tracer stats;
  pasgal_bfs(g, g, {.source = 0, .tracer = &stats});
  EXPECT_GE(stats.edges_scanned(), g.num_edges());  // every edge looked at
  EXPECT_GE(stats.vertices_visited(), g.num_vertices());
}

TEST(BfsSeq, HandlesUnreachable) {
  Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  auto d = seq_bfs(g, {}).output;
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(BfsSeq, DistancesOnChain) {
  Graph g = gen::chain(50);
  auto d = seq_bfs(g, {.source = 10}).output;
  for (VertexId v = 0; v < 50; ++v) {
    EXPECT_EQ(d[v], static_cast<std::uint32_t>(std::abs(static_cast<int>(v) - 10)));
  }
}

}  // namespace
}  // namespace pasgal
