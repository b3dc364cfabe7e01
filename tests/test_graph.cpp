// Tests for the CSR graph type: construction, transpose, symmetrize.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "graphs/delta.h"
#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "parlay/hash_rng.h"
#include "parlay/scheduler.h"

namespace pasgal {
namespace {

Graph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  return Graph::from_edges(4, edges);
}

TEST(Graph, EmptyGraph) {
  Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0u);
}

TEST(Graph, FromEdgesBasic) {
  Graph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(Graph, AdjacencyListsSorted) {
  std::vector<Edge> edges = {{0, 3}, {0, 1}, {0, 2}, {1, 0}};
  Graph g = Graph::from_edges(4, edges);
  auto n0 = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
}

TEST(Graph, DedupRemovesParallelEdges) {
  std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}, {1, 2}};
  Graph g = Graph::from_edges(3, edges, /*dedup=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
}

TEST(Graph, DropSelfLoops) {
  std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  Graph g = Graph::from_edges(3, edges, /*dedup=*/false, /*drop_self_loops=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, TransposeReversesEdges) {
  Graph g = diamond();
  Graph t = g.transpose();
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_EQ(t.out_degree(3), 2u);
  EXPECT_EQ(t.out_degree(0), 0u);
  auto n3 = t.neighbors(3);
  EXPECT_EQ(std::vector<VertexId>(n3.begin(), n3.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(Graph, TransposeIsInvolution) {
  std::vector<Edge> edges;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(hash64(i) % 500),
                         static_cast<VertexId>(hash64(i + 999999) % 500)});
  }
  Graph g = Graph::from_edges(500, edges);
  EXPECT_EQ(g.transpose().transpose(), g);
}

TEST(Graph, SymmetrizeMakesSymmetric) {
  Graph g = diamond();
  Graph s = g.symmetrize();
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_EQ(s.num_edges(), 8u);  // each edge both ways, no duplicates
}

TEST(Graph, SymmetrizeDropsLoopsAndDups) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 0}, {0, 1}};
  Graph s = Graph::from_edges(2, edges).symmetrize();
  EXPECT_EQ(s.num_edges(), 2u);  // just 0<->1
  EXPECT_TRUE(s.is_symmetric());
}

// --- the merged symmetric view ----------------------------------------------

// The undirected view by definition: every effective edge in both
// directions, sorted, deduplicated, self-loops dropped.
Graph reference_symmetrize(const Graph& g) {
  std::vector<Edge> both;
  for (const Edge& e : materialize_effective(g).to_edges()) {
    both.push_back(e);
    both.push_back(Edge{e.to, e.from});
  }
  return Graph::from_edges(g.num_vertices(), both, /*dedup=*/true,
                           /*drop_self_loops=*/true);
}

bool has_edge(const Graph& g, VertexId u, VertexId v) {
  std::span<const VertexId> nb = g.neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

// An update that flips (u, v): delete it when present, insert it otherwise.
EdgeUpdate toggle(const Graph& g, VertexId u, VertexId v) {
  return {has_edge(g, u, v) ? EdgeUpdate::Op::kDelete : EdgeUpdate::Op::kInsert,
          u, v};
}

// m random edges over n vertices: small n forces duplicates and self-loops.
std::vector<Edge> random_edges(std::size_t n, std::size_t m,
                               std::uint64_t seed) {
  std::vector<Edge> edges(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges[i] = Edge{static_cast<VertexId>(hash64(seed + 2 * i) % n),
                    static_cast<VertexId>(hash64(seed + 2 * i + 1) % n)};
  }
  return edges;
}

class SymmetrizeTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override {
    Scheduler::reset(1);
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_graph_test");
  }
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_graph_test";
    std::filesystem::create_directories(dir);
    return (dir / (name + "_w" + std::to_string(GetParam()) + ".pgr"))
        .string();
  }
};

INSTANTIATE_TEST_SUITE_P(Workers, SymmetrizeTest, ::testing::Values(1, 4));

TEST_P(SymmetrizeTest, RandomGraphsWithDuplicatesAndSelfLoops) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t n : {1u, 7u, 60u, 3000u}) {
      Graph g = Graph::from_edges(n, random_edges(n, 4 * n + 5, seed * n));
      Graph s = g.symmetrize();
      EXPECT_EQ(s, reference_symmetrize(g)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(s.is_symmetric());
    }
  }
  EXPECT_EQ(Graph::from_edges(0, {}).symmetrize(),
            reference_symmetrize(Graph::from_edges(0, {})));
}

TEST_P(SymmetrizeTest, HandBuiltUnsortedRows) {
  // Rows out of order, with a duplicate and a self-loop: the merge takes
  // its out-lists from the transpose of the transpose instead.
  Graph g(std::vector<EdgeId>{0, 4, 5, 8, 9},
          std::vector<VertexId>{3, 1, 3, 0, 2, 3, 0, 2, 1});
  ASSERT_TRUE(g.validate().ok());
  EXPECT_FALSE(g.adjacency_sorted());
  EXPECT_EQ(g.symmetrize(), reference_symmetrize(g));

  std::vector<Edge> edges = random_edges(500, 4000, 77);
  std::vector<EdgeId> offsets(501, 0);
  for (const Edge& e : edges) ++offsets[e.from + 1];
  for (std::size_t v = 0; v < 500; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(edges.size());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) targets[cursor[e.from]++] = e.to;  // unsorted
  Graph big(std::move(offsets), std::move(targets));
  EXPECT_FALSE(big.adjacency_sorted());
  EXPECT_EQ(big.symmetrize(), reference_symmetrize(big));
}

TEST_P(SymmetrizeTest, EmbeddedTransposeMatchesBuiltTranspose) {
  Graph g = Graph::from_edges(2000, random_edges(2000, 9000, 5));
  std::string with = temp_path("with_t");
  std::string without = temp_path("without_t");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  write_pgr(g, with, opts);
  write_pgr(g, without);
  Graph gw = read_pgr(with);
  Graph gn = read_pgr(without);
  ASSERT_NE(gw.storage()->transpose_cache(), nullptr);
  ASSERT_EQ(gn.storage()->transpose_cache(), nullptr);
  Graph expect = reference_symmetrize(g);
  EXPECT_EQ(gw.symmetrize(), expect);
  EXPECT_EQ(gn.symmetrize(), expect);
}

TEST_P(SymmetrizeTest, OverlaidGraphMatchesMaterializedReference) {
  for (bool transpose_first : {false, true}) {
    Graph g = Graph::from_edges(300, random_edges(300, 1500, 9));
    // A cached transpose receives the flipped overlay at apply time; without
    // one, symmetrize builds it after the updates.
    if (transpose_first) (void)g.transpose();
    std::vector<EdgeUpdate> batch = {toggle(g, 5, 5)};  // a self-loop
    for (VertexId u = 10; u < 40; ++u) {
      VertexId far = static_cast<VertexId>(hash64(u) % 300);
      batch.push_back(toggle(g, u, far));
      std::span<const VertexId> nb = g.neighbors(u);
      if (!nb.empty() && nb[0] != far) batch.push_back(toggle(g, u, nb[0]));
    }
    apply_updates(g, batch);
    ASSERT_TRUE(g.has_delta());
    EXPECT_EQ(g.symmetrize(), reference_symmetrize(g))
        << "transpose_first=" << transpose_first;
  }
}

TEST_P(SymmetrizeTest, SecondCallReturnsTheMemoizedView) {
  Graph g = Graph::from_edges(400, random_edges(400, 2000, 11));
  Graph copy = g;
  Graph s1 = g.symmetrize();
  EXPECT_EQ(g.storage()->symmetric_cache(), s1.storage());
  EXPECT_EQ(g.symmetrize().storage(), s1.storage());
  EXPECT_EQ(copy.symmetrize().storage(), s1.storage())
      << "copies share the storage handle, so they share the view";
}

TEST_P(SymmetrizeTest, UpdatesAndCompactionDropTheMemo) {
  Graph g = Graph::from_edges(400, random_edges(400, 2000, 13));
  Graph before = g.symmetrize();
  Graph before_ref = reference_symmetrize(g);
  apply_updates(g, std::vector<EdgeUpdate>{toggle(g, 3, 0)});
  EXPECT_EQ(g.storage()->symmetric_cache(), nullptr);
  Graph after = g.symmetrize();
  EXPECT_NE(after.storage(), before.storage());
  EXPECT_EQ(after, reference_symmetrize(g));
  EXPECT_EQ(before, before_ref) << "an earlier view stays what it was";

  // Compaction folds the overlay into a new file version: its storage
  // starts without a memo, and clearing the overlay drops the old one.
  std::string path = temp_path("compacted");
  write_pgr(materialize_effective(g), path);
  Graph folded = read_pgr(path);
  EXPECT_EQ(folded.storage()->symmetric_cache(), nullptr);
  EXPECT_EQ(folded.symmetrize(), after);
  g.storage()->set_delta(nullptr);
  EXPECT_EQ(g.storage()->symmetric_cache(), nullptr);
}

TEST_P(SymmetrizeTest, ViewBuiltAgainstStaleSnapshotIsNotPublished) {
  Graph g = Graph::from_edges(200, random_edges(200, 800, 17));
  // A build that read the overlay version before an update landed...
  std::shared_ptr<const DeltaSnapshot> seen = g.storage()->delta_snapshot();
  Graph stale = reference_symmetrize(g);
  apply_updates(g, std::vector<EdgeUpdate>{toggle(g, 7, 0)});
  // ...is handed back to its caller but never cached for the new version.
  EXPECT_EQ(g.storage()->set_symmetric_cache(stale.storage(), seen),
            stale.storage());
  EXPECT_EQ(g.storage()->symmetric_cache(), nullptr);
  Graph fresh = g.symmetrize();
  EXPECT_NE(fresh.storage(), stale.storage());
  EXPECT_EQ(fresh, reference_symmetrize(g));
}

TEST(Graph, IsSymmetricDetectsAsymmetry) {
  EXPECT_FALSE(diamond().is_symmetric());
}

TEST(Graph, ToEdgesRoundTrip) {
  Graph g = diamond();
  Graph rebuilt = Graph::from_edges(4, g.to_edges());
  EXPECT_EQ(rebuilt, g);
}

TEST(WeightedGraphTest, FromEdgesKeepsWeights) {
  std::vector<WeightedEdge<std::uint32_t>> edges = {
      {0, 1, 10}, {0, 2, 20}, {1, 2, 5}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  // Weight attached to the right target.
  auto nbrs = g.neighbors(0);
  auto wts = g.neighbor_weights(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 1) EXPECT_EQ(wts[i], 10u);
    if (nbrs[i] == 2) EXPECT_EQ(wts[i], 20u);
  }
}

TEST(WeightedGraphTest, TransposeKeepsWeights) {
  std::vector<WeightedEdge<std::uint32_t>> edges = {{0, 1, 7}, {2, 1, 9}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  auto t = g.transpose();
  EXPECT_EQ(t.out_degree(1), 2u);
  auto nbrs = t.neighbors(1);
  auto wts = t.neighbor_weights(1);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 0) EXPECT_EQ(wts[i], 7u);
    if (nbrs[i] == 2) EXPECT_EQ(wts[i], 9u);
  }
}

TEST(Graph, LargeRandomGraphDegreesSumToEdges) {
  const std::size_t n = 10000, m = 100000;
  std::vector<Edge> edges(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges[i] = Edge{static_cast<VertexId>(hash64(i) % n),
                    static_cast<VertexId>(hash64(i * 2 + 1) % n)};
  }
  Graph g = Graph::from_edges(n, edges);
  EdgeId total = 0;
  for (VertexId v = 0; v < n; ++v) total += g.out_degree(v);
  EXPECT_EQ(total, m);
}

}  // namespace
}  // namespace pasgal
