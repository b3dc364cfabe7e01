// Tests for the VGC local-search engine itself (the algorithm-level suites
// cover its end-to-end use).
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "algorithms/bfs/bfs.h"  // kInfDist
#include "graphs/generators.h"
#include "pasgal/vgc.h"

namespace pasgal {
namespace {

class VgcTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, VgcTest, ::testing::Values(1, 4));

TEST_P(VgcTest, LocalSearchClaimsConnectedRegion) {
  Graph g = gen::chain(1000, /*directed=*/true);
  std::vector<std::atomic<std::uint8_t>> claimed(1000);
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  claimed[0].store(1, std::memory_order_relaxed);
  HashBag<VertexId> next;
  VgcParams p;
  p.tau = 100;
  std::uint64_t expanded = local_search(
      g.adjacency(), 0, p,
      [&](VertexId v) {
        std::uint8_t e = 0;
        return claimed[v].compare_exchange_strong(e, 1, std::memory_order_relaxed);
      },
      next);
  // On a chain, a budget of 100 claims exactly ~100 consecutive vertices and
  // spills the boundary.
  EXPECT_GE(expanded, 100u);
  auto spilled = next.extract_all();
  EXPECT_EQ(spilled.size(), 1u);  // exactly the boundary vertex
  // Claimed prefix is contiguous.
  std::size_t count = 0;
  while (count < 1000 && claimed[count].load(std::memory_order_relaxed)) ++count;
  for (std::size_t v = count; v < 1000; ++v) {
    EXPECT_FALSE(claimed[v].load(std::memory_order_relaxed) &&
                 v != spilled[0]);
  }
}

TEST_P(VgcTest, TauOneSpillsEveryNeighbour) {
  Graph g = gen::star(50);  // center 0 with 49 leaves (symmetrized)
  std::vector<std::atomic<std::uint8_t>> claimed(50);
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  claimed[0].store(1, std::memory_order_relaxed);
  HashBag<VertexId> next;
  VgcParams p;
  p.tau = 1;
  local_search(
      g.adjacency(), 0, p,
      [&](VertexId v) {
        std::uint8_t e = 0;
        return claimed[v].compare_exchange_strong(e, 1, std::memory_order_relaxed);
      },
      next);
  // Budget exhausted after the root: all 49 leaves spill to the bag.
  EXPECT_EQ(next.extract_all().size(), 49u);
}

TEST_P(VgcTest, SearchStopsAtAlreadyClaimedVertices) {
  Graph g = gen::chain(100, /*directed=*/true);
  std::vector<std::atomic<std::uint8_t>> claimed(100);
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  claimed[0].store(1, std::memory_order_relaxed);
  claimed[50].store(1, std::memory_order_relaxed);  // wall at 50
  HashBag<VertexId> next;
  VgcParams p;
  p.tau = 1000;
  local_search(
      g.adjacency(), 0, p,
      [&](VertexId v) {
        std::uint8_t e = 0;
        return claimed[v].compare_exchange_strong(e, 1, std::memory_order_relaxed);
      },
      next);
  EXPECT_TRUE(next.extract_all().empty());
  EXPECT_FALSE(claimed[51].load(std::memory_order_relaxed));
}

TEST_P(VgcTest, DistSearchExploresBall) {
  // FIFO expansion: on a grid the first tau expanded vertices form a ball,
  // so all distances assigned within the budget are exact.
  Graph g = gen::rectangle_grid(41, 41);
  VertexId center = 20 * 41 + 20;
  std::vector<std::atomic<std::uint32_t>> dist(g.num_vertices());
  for (auto& d : dist) d.store(kInfDist, std::memory_order_relaxed);
  dist[center].store(0, std::memory_order_relaxed);
  std::vector<std::pair<VertexId, std::uint32_t>> spilled;
  VgcParams p;
  p.tau = 200;
  local_search_dist(
      center, 0, p,
      [&](VertexId u, std::uint32_t du, auto&& emit) -> std::uint64_t {
        if (dist[u].load(std::memory_order_relaxed) != du) return 0;
        for (VertexId v : g.neighbors(u)) {
          if (write_min(dist[v], du + 1)) emit(v, du + 1);
        }
        return g.neighbors(u).size();
      },
      [&](VertexId v, std::uint32_t d) { spilled.push_back({v, d}); });
  // Every assigned finite distance equals the true grid (L1) distance.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint32_t d = dist[v].load(std::memory_order_relaxed);
    if (d == kInfDist) continue;
    std::uint32_t true_d =
        std::abs(static_cast<int>(v / 41) - 20) + std::abs(static_cast<int>(v % 41) - 20);
    EXPECT_EQ(d, true_d) << "v=" << v;
  }
  // Spills are just outside the expanded ball: their distance is within
  // 1 hop of the maximum expanded distance.
  EXPECT_FALSE(spilled.empty());
}

// The edges each relax reports cap the search at
// kVgcEngageFactor*tau edges: the search stops right after the relax that
// reaches the budget and spills what it still holds. Every emitted entry is
// either expanded by the search or spilled.
TEST_P(VgcTest, DistSearchStopsAtEdgeBudget) {
  Graph g = gen::random_graph(4000, 128000, 5);  // average out-degree 32
  std::vector<std::atomic<std::uint32_t>> dist(g.num_vertices());
  for (auto& d : dist) d.store(kInfDist, std::memory_order_relaxed);
  dist[0].store(0, std::memory_order_relaxed);
  using Entry = std::pair<VertexId, std::uint32_t>;
  std::multiset<Entry> emitted, expanded, spilled;
  std::vector<std::uint64_t> scans;
  VgcParams p;
  p.tau = 64;
  std::uint64_t count = local_search_dist(
      0, 0, p,
      [&](VertexId u, std::uint32_t du, auto&& emit) -> std::uint64_t {
        expanded.insert({u, du});
        if (dist[u].load(std::memory_order_relaxed) != du) return 0;
        for (VertexId v : g.neighbors(u)) {
          if (write_min(dist[v], du + 1)) {
            emitted.insert({v, du + 1});
            emit(v, du + 1);
          }
        }
        scans.push_back(g.out_degree(u));
        return g.out_degree(u);
      },
      [&](VertexId v, std::uint32_t d) { spilled.insert({v, d}); });
  const std::uint64_t budget =
      static_cast<std::uint64_t>(p.tau) * kVgcEngageFactor;
  std::uint64_t work = 0;
  for (std::uint64_t s : scans) work += s;
  EXPECT_EQ(count, expanded.size());
  EXPECT_LT(count, p.tau) << "the edge budget, not tau, must stop the search";
  EXPECT_GE(work, budget);
  EXPECT_LT(work - scans.back(), budget) << "expanded past the budget";
  EXPECT_FALSE(spilled.empty());
  // No entry is lost: expanded (minus the root) plus spilled is exactly the
  // emitted multiset.
  expanded.erase(expanded.find({0, 0}));
  std::multiset<Entry> covered = expanded;
  covered.insert(spilled.begin(), spilled.end());
  EXPECT_EQ(covered, emitted);
}

TEST(VgcKinfDist, SentinelValue) {
  EXPECT_EQ(kInfDist, 0xffffffffu);
}

}  // namespace
}  // namespace pasgal
