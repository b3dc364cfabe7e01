// Tests for the concurrent hash bag (the paper's frontier structure).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "algorithms/bfs/bfs.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"
#include "parlay/parallel.h"
#include "pasgal/hashbag.h"
#include "pasgal/pending_pool.h"

namespace pasgal {
namespace {

class HashBagTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, HashBagTest, ::testing::Values(1, 4));

TEST_P(HashBagTest, EmptyBag) {
  HashBag<std::uint32_t> bag;
  EXPECT_TRUE(bag.empty());
  EXPECT_EQ(bag.size(), 0u);
  EXPECT_TRUE(bag.extract_all().empty());
}

TEST_P(HashBagTest, SingleInsert) {
  HashBag<std::uint32_t> bag;
  bag.insert(42);
  EXPECT_EQ(bag.size(), 1u);
  auto out = bag.extract_all();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42u);
  EXPECT_TRUE(bag.empty());
}

TEST_P(HashBagTest, SequentialInsertExtract) {
  HashBag<std::uint32_t> bag;
  for (std::uint32_t i = 0; i < 1000; ++i) bag.insert(i);
  auto out = bag.extract_all();
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i);
}

TEST_P(HashBagTest, ParallelInsertNoLoss) {
  HashBag<std::uint32_t> bag;
  const std::size_t n = 200000;
  parallel_for(0, n, [&](std::size_t i) {
    bag.insert(static_cast<std::uint32_t>(i));
  });
  auto out = bag.extract_all();
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i) << i;
}

TEST_P(HashBagTest, MultisetKeepsDuplicates) {
  HashBag<std::uint32_t> bag;
  parallel_for(0, 5000, [&](std::size_t i) {
    bag.insert(static_cast<std::uint32_t>(i % 10));
  });
  auto out = bag.extract_all();
  EXPECT_EQ(out.size(), 5000u);
  std::vector<int> counts(10, 0);
  for (auto v : out) counts[v]++;
  for (int c : counts) EXPECT_EQ(c, 500);
}

TEST_P(HashBagTest, GrowthBeyondFirstBlock) {
  // First block holds 2^6 = 64 slots; inserting far more forces growth
  // through several blocks.
  HashBag<std::uint32_t> bag(/*first_block_log2=*/6);
  const std::size_t n = 50000;
  parallel_for(0, n, [&](std::size_t i) {
    bag.insert(static_cast<std::uint32_t>(i));
  });
  auto out = bag.extract_all();
  EXPECT_EQ(out.size(), n);
}

TEST_P(HashBagTest, ReuseAfterExtract) {
  HashBag<std::uint32_t> bag(6);
  for (int round = 0; round < 10; ++round) {
    std::size_t count = 100 + static_cast<std::size_t>(round) * 500;
    parallel_for(0, count, [&](std::size_t i) {
      bag.insert(static_cast<std::uint32_t>(i));
    });
    auto out = bag.extract_all();
    EXPECT_EQ(out.size(), count) << "round " << round;
    EXPECT_TRUE(bag.empty());
  }
}

TEST_P(HashBagTest, SixtyFourBitElements) {
  HashBag<std::uint64_t> bag;
  const std::size_t n = 50000;
  parallel_for(0, n, [&](std::size_t i) {
    bag.insert((static_cast<std::uint64_t>(i) << 32) | (i & 0xffff));
  });
  auto out = bag.extract_all();
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], (static_cast<std::uint64_t>(i) << 32) | (i & 0xffff));
  }
}

TEST_P(HashBagTest, InterleavedInsertSizeCalls) {
  HashBag<std::uint32_t> bag;
  for (std::uint32_t i = 0; i < 100; ++i) {
    bag.insert(i);
    EXPECT_EQ(bag.size(), i + 1);
  }
}

TEST_P(HashBagTest, PhasedConcurrentInsertExtractStress) {
  // Frontier lifecycle under contention: many rounds of concurrent inserts
  // (with heavy duplication, like several neighbors relaxing the same
  // vertex) followed by extract_all. Every round's extraction must return
  // exactly the inserted multiset — nothing lost, nothing duplicated,
  // nothing leaking across rounds.
  HashBag<std::uint64_t> bag(/*first_block_log2=*/4);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1000 + static_cast<std::size_t>(round) * 4000;
    std::vector<std::uint64_t> inserted(n);
    parallel_for(0, n, [&](std::size_t i) {
      // Mix unique values with duplicates; tag by round so stale elements
      // from a previous phase would be caught immediately.
      std::uint64_t v = (static_cast<std::uint64_t>(round) << 32) | (i % 997);
      inserted[i] = v;
      bag.insert(v);
    });
    auto out = bag.extract_all();
    std::sort(out.begin(), out.end());
    std::sort(inserted.begin(), inserted.end());
    ASSERT_EQ(out, inserted) << "round " << round;
    EXPECT_TRUE(bag.empty());
  }
}

TEST_P(HashBagTest, SaturationThrowsInsteadOfSpinning) {
  // Regression: with every block full, insert used to spin forever probing
  // the last block. A tiny bag (one block of 4 slots) must fill completely
  // and then fail loudly with a kResource error.
  HashBag<std::uint32_t> bag(/*first_block_log2=*/2, /*max_blocks=*/1);
  for (std::uint32_t i = 0; i < 4; ++i) bag.insert(i);
  EXPECT_EQ(bag.size(), 4u);
  try {
    bag.insert(99);
    FAIL() << "insert into a saturated bag did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kResource);
    EXPECT_NE(std::string(e.what()).find("saturated"), std::string::npos);
  }
  // The bag stays usable: extraction returns the four stored elements.
  auto out = bag.extract_all();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST_P(HashBagTest, SaturationAcrossMultipleBlocks) {
  // Two blocks (4 + 8 = 12 slots): more inserts than total capacity must
  // terminate with an error, not hang, and everything stored is preserved.
  HashBag<std::uint32_t> bag(/*first_block_log2=*/2, /*max_blocks=*/2);
  std::size_t accepted = 0;
  bool saturated = false;
  for (std::uint32_t i = 0; i < 100 && !saturated; ++i) {
    try {
      bag.insert(i);
      ++accepted;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kResource);
      saturated = true;
    }
  }
  EXPECT_TRUE(saturated);
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(accepted, 12u);
  EXPECT_EQ(bag.extract_all().size(), accepted);
}

// The pending pool: collect() merges the bag with the carry, drops stale
// entries and returns L over both; take_upto(hi) splits exactly at hi and
// keeps the rest for the next collect().
TEST_P(HashBagTest, PendingPoolDropsStaleAndSplitsAtThreshold) {
  constexpr std::size_t n = 1000;
  PendingPool pool(n, /*source=*/0);
  std::vector<std::atomic<std::uint32_t>>& dist = pool.dist();
  auto sorted = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };

  // Carry: the source's (0, 0), gone stale, and [1, 100) at distance 50.
  // Bag: [100, n) at 10 + v % 100, each also queued at a distance its
  // vertex no longer has, and the source again at 3.
  std::vector<VertexId> carried = iota<VertexId>(100);
  carried.erase(carried.begin());
  for (VertexId v : carried) dist[v].store(50, std::memory_order_relaxed);
  pool.keep(carried, 50);
  parallel_for(100, n, [&](std::size_t v) {
    std::uint32_t d = 10 + v % 100;
    dist[v].store(d, std::memory_order_relaxed);
    pool.insert(static_cast<VertexId>(v), d + 7);
    pool.insert(static_cast<VertexId>(v), d);
  });
  dist[0].store(3, std::memory_order_relaxed);
  pool.insert(0, 3);
  std::vector<std::uint64_t> valid;
  for (VertexId v = 0; v < n; ++v) {
    valid.push_back(pack_entry(v, dist[v].load(std::memory_order_relaxed)));
  }
  valid = sorted(valid);
  EXPECT_EQ(pool.collect(), 3u);  // L from the bag
  EXPECT_EQ(sorted(pool.entries()), valid);

  std::vector<std::uint64_t> taken = pool.take_upto(50);
  for (std::uint64_t e : taken) EXPECT_LE(entry_dist(e), 50u);
  for (std::uint64_t e : pool.entries()) EXPECT_GT(entry_dist(e), 50u);
  EXPECT_EQ(taken.size(), 100u + 41 * 9);  // all of d = 50 is taken
  std::vector<std::uint64_t> both = taken;
  both.insert(both.end(), pool.entries().begin(), pool.entries().end());
  EXPECT_EQ(sorted(both), valid);

  // The kept entries carry into the next collect: L now comes from them,
  // below the bag's new spill; a carried vertex improved since is dropped.
  dist[199].store(5, std::memory_order_relaxed);  // was 109
  dist[0].store(500, std::memory_order_relaxed);
  pool.insert(0, 500);
  EXPECT_EQ(pool.collect(), 51u);
  EXPECT_EQ(pool.entries().size(), 59u * 9);  // 199 out, the source back in
  for (std::uint64_t e : pool.entries()) EXPECT_NE(entry_vertex(e), 199u);
  EXPECT_EQ(pool.take_upto(1000).size(), 59u * 9);
  EXPECT_EQ(pool.collect(), PendingPool::kUnreached);
  EXPECT_TRUE(pool.empty());
}

// The insert salt is per bag, reset when the bag is built: at one worker a
// run lays out its bags, and so does its work, the same way whatever ran
// before it in the process. Each repeat runs after the other kernel's bags.
TEST(HashBagSalt, RepeatsDoTheSameWorkAtOneWorker) {
  Scheduler::reset(1);
  Graph road = gen::road_grid(150, 150, 0.8, 4);
  Graph road_t = road.transpose();
  auto weighted = gen::add_weights(gen::road_grid(100, 100, 0.8, 3), 1000, 3);
  Graph social = gen::rmat(12, 40000, 5);
  Graph social_t = social.transpose();
  Graph social_sym = social.symmetrize();
  using Totals = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;
  auto totals = [](const RunTelemetry& t) {
    return Totals{t.rounds.size(), t.edges_scanned, t.vertices_visited};
  };
  std::vector<Totals> bfs, sssp, scc, kcore;
  for (int rep = 0; rep < 3; ++rep) {
    bfs.push_back(totals(pasgal_bfs(road, road_t, {}).telemetry));
    sssp.push_back(totals(stepping_sssp(weighted, {}).telemetry));
    scc.push_back(totals(pasgal_scc(social, social_t, {}).telemetry));
    kcore.push_back(totals(pasgal_kcore(social_sym, {}).telemetry));
  }
  for (int rep = 1; rep < 3; ++rep) {
    EXPECT_EQ(bfs[rep], bfs[0]) << "pasgal_bfs repeat " << rep;
    EXPECT_EQ(sssp[rep], sssp[0]) << "stepping_sssp repeat " << rep;
    EXPECT_EQ(scc[rep], scc[0]) << "pasgal_scc repeat " << rep;
    EXPECT_EQ(kcore[rep], kcore[0]) << "pasgal_kcore repeat " << rep;
  }
}

}  // namespace
}  // namespace pasgal
