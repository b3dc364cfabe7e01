// Tests for the process-level GraphRegistry: canonical-identity keying,
// one-mapping-per-file sharing, weak ownership (mappings die with their
// last Graph unless pinned), pin/evict lifetime, and the counters the
// daemon's `stats` verb reports. Concurrency cases (two threads racing to
// open the same file) run under the sanitizer preset via the registry_*
// ctest pattern in bench/check.sh.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "algorithms/cc/cc.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "pasgal/error.h"

namespace pasgal {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Each test starts from an empty table and zeroed counters; the
    // registry is process-global, so leftovers from another test would
    // turn expected misses into hits.
    GraphRegistry::instance().clear();
  }
  void TearDown() override {
    GraphRegistry::instance().clear();
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_registry_test");
  }
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_registry_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  std::string write_graph(const std::string& name, std::size_t n = 64) {
    std::string path = temp_path(name);
    Graph g = gen::rectangle_grid(n, 4);
    write_pgr(g, path);
    return path;
  }
};

TEST_F(RegistryTest, SecondOpenSharesTheMapping) {
  std::string path = write_graph("shared.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  Graph g2 = read_pgr(path, PgrOpen::kMmap);
  // Pointer identity, not just equal contents: both Graphs must hold the
  // very same GraphStorage, hence the same MappedFile.
  EXPECT_EQ(g1.storage().get(), g2.storage().get());

  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // bytes_mapped counts the mapping once, not once per open.
  EXPECT_EQ(stats.bytes_mapped, g1.storage()->bytes_mapped());
}

TEST_F(RegistryTest, RelativeAndAbsolutePathsDedupe) {
  std::string path = write_graph("alias.pgr");
  auto dir = std::filesystem::path(path).parent_path();
  std::string relative =
      (std::filesystem::relative(dir, std::filesystem::current_path()) /
       "alias.pgr")
          .string();
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  Graph g2 = read_pgr(relative, PgrOpen::kMmap);
  EXPECT_EQ(g1.storage().get(), g2.storage().get())
      << "identity is st_dev/st_ino, not the spelling of the path";
}

TEST_F(RegistryTest, SymlinkDedupes) {
  std::string path = write_graph("target.pgr");
  std::string link = temp_path("link.pgr");
  std::error_code ec;
  std::filesystem::create_symlink(path, link, ec);
  if (ec) GTEST_SKIP() << "symlinks unavailable: " << ec.message();
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  Graph g2 = read_pgr(link, PgrOpen::kMmap);
  EXPECT_EQ(g1.storage().get(), g2.storage().get());
}

TEST_F(RegistryTest, ExpiredEntryReopensAsMiss) {
  std::string path = write_graph("expiring.pgr");
  { Graph g = read_pgr(path, PgrOpen::kMmap); }
  // The registry holds only a weak_ptr: once the last Graph dies the
  // mapping is gone and the next open must map afresh.
  Graph g = read_pgr(path, PgrOpen::kMmap);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.bytes_mapped, 2 * g.storage()->bytes_mapped());
}

TEST_F(RegistryTest, PinKeepsTheMappingAlive) {
  std::string path = write_graph("pinned.pgr");
  const GraphStorage* raw = nullptr;
  {
    Graph g = read_pgr(path, PgrOpen::kMmap);
    raw = g.storage().get();
    ASSERT_TRUE(GraphRegistry::instance().pin(path));
  }
  // All Graphs are gone, but the pin holds a strong reference: the next
  // open is a hit on the same storage object.
  Graph g = read_pgr(path, PgrOpen::kMmap);
  EXPECT_EQ(g.storage().get(), raw);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.pinned_entries, 1u);

  ASSERT_TRUE(GraphRegistry::instance().unpin(path));
  EXPECT_EQ(GraphRegistry::instance().stats().pinned_entries, 0u);
}

TEST_F(RegistryTest, PinFailsForUnknownOrExpiredEntries) {
  EXPECT_FALSE(GraphRegistry::instance().pin(temp_path("never-opened.pgr")));
  std::string path = write_graph("gone.pgr");
  { Graph g = read_pgr(path, PgrOpen::kMmap); }
  EXPECT_FALSE(GraphRegistry::instance().pin(path))
      << "pin cannot resurrect an expired weak_ptr";
}

TEST_F(RegistryTest, EvictWhilePinnedDropsTheTableEntry) {
  std::string path = write_graph("evicted.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  ASSERT_TRUE(GraphRegistry::instance().pin(path));
  EXPECT_TRUE(GraphRegistry::instance().evict(path));
  EXPECT_EQ(GraphRegistry::instance().stats().entries, 0u);
  // g1 still works: eviction forgets the entry, it does not unmap the
  // storage out from under live holders.
  EXPECT_GT(g1.num_vertices(), 0u);
  // But a reopen no longer finds it — fresh mapping, distinct pointer.
  Graph g2 = read_pgr(path, PgrOpen::kMmap);
  EXPECT_NE(g1.storage().get(), g2.storage().get());
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(RegistryTest, EvictUnknownPathIsFalse) {
  EXPECT_FALSE(GraphRegistry::instance().evict(temp_path("absent.pgr")));
  EXPECT_EQ(GraphRegistry::instance().stats().evictions, 0u);
}

TEST_F(RegistryTest, EvictExpiredPrunesOnlyDeadEntries) {
  std::string live_path = write_graph("live.pgr");
  std::string dead_path = write_graph("dead.pgr", 32);
  Graph live = read_pgr(live_path, PgrOpen::kMmap);
  { Graph dead = read_pgr(dead_path, PgrOpen::kMmap); }
  EXPECT_EQ(GraphRegistry::instance().stats().entries, 2u);
  EXPECT_EQ(GraphRegistry::instance().evict_expired(), 1u);
  EXPECT_EQ(GraphRegistry::instance().stats().entries, 1u);
  // The surviving entry is still a hit.
  Graph again = read_pgr(live_path, PgrOpen::kMmap);
  EXPECT_EQ(again.storage().get(), live.storage().get());
}

TEST_F(RegistryTest, RewrittenFileGetsAFreshMapping) {
  std::string path = write_graph("rewritten.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  std::size_t n1 = g1.num_vertices();
  // Rewrite the same path with a different graph (different size, so the
  // identity key — which includes st_size and mtime — must change even on
  // filesystems with coarse timestamps).
  write_pgr(gen::chain(200), path);
  Graph g2 = read_pgr(path, PgrOpen::kMmap);
  EXPECT_NE(g1.storage().get(), g2.storage().get());
  EXPECT_EQ(g1.num_vertices(), n1) << "old holder keeps its old mapping";
  EXPECT_EQ(g2.num_vertices(), 200u);
  EXPECT_EQ(GraphRegistry::instance().stats().hits, 0u);
}

TEST_F(RegistryTest, CopyModeBypassesTheRegistry) {
  std::string path = write_graph("copied.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kCopy);
  Graph g2 = read_pgr(path, PgrOpen::kCopy);
  EXPECT_NE(g1.storage().get(), g2.storage().get())
      << "kCopy promises a private heap graph decoupled from the file";
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(RegistryTest, CompressedWarmOpenSkipsDecode) {
  // A v2 file's targets decode into a heap array on the cold mmap open; the
  // buffer is memoized on the shared storage, so a warm open pays no decode
  // and maps no new bytes.
  std::string path = temp_path("compressed.pgr");
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  write_pgr(gen::rectangle_grid(64, 64), path, wopts);
  PgrOpenStats cold, warm;
  Graph g1 = read_pgr(path, PgrOpen::kMmap, false, &cold);
  std::uint64_t mapped = GraphRegistry::instance().stats().bytes_mapped;
  Graph g2 = read_pgr(path, PgrOpen::kMmap, false, &warm);
  EXPECT_EQ(g1.storage().get(), g2.storage().get());
  EXPECT_TRUE(cold.compressed);
  EXPECT_TRUE(warm.compressed);
  EXPECT_GT(cold.decode_wall_ns, 0u);
  EXPECT_EQ(warm.decode_wall_ns, 0u);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bytes_mapped, mapped);
}

TEST_F(RegistryTest, SharedMappingSharesTheTransposeCache) {
  std::string path = write_graph("transposed.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kMmap);
  Graph g2 = read_pgr(path, PgrOpen::kMmap);
  // Transpose memoization lives on the storage handle, so sharing the
  // storage shares the memo: build it through one Graph, observe it
  // through the other.
  Graph t1 = g1.transpose();
  Graph t2 = g2.transpose();
  EXPECT_EQ(t1.storage().get(), t2.storage().get());
}

TEST_F(RegistryTest, DistinctFilesGetDistinctEntries) {
  std::string a = write_graph("a.pgr", 48);
  std::string b = write_graph("b.pgr", 80);
  Graph ga = read_pgr(a, PgrOpen::kMmap);
  Graph gb = read_pgr(b, PgrOpen::kMmap);
  EXPECT_NE(ga.storage().get(), gb.storage().get());
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes_mapped,
            ga.storage()->bytes_mapped() + gb.storage()->bytes_mapped());
}

TEST_F(RegistryTest, WeightedOpensShareWithUnweightedOpens) {
  // A weighted .pgr opened via read_pgr (topology only) and via
  // read_weighted_pgr must still share one mapping: both routes go through
  // open_pgr and the registry keys on the file, not the reader.
  std::string path = temp_path("weighted.pgr");
  WeightedGraph<std::uint32_t> wg = gen::add_weights(gen::rectangle_grid(32, 4), 10);
  write_pgr(wg, path);
  Graph g = read_pgr(path, PgrOpen::kMmap);
  WeightedGraph<std::uint32_t> w = read_weighted_pgr(path, PgrOpen::kMmap);
  EXPECT_EQ(g.storage().get(), w.unweighted().storage().get());
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(RegistryTest, ConcurrentOpensProduceOneMapping) {
  std::string path = write_graph("raced.pgr", 128);
  constexpr int kThreads = 8;
  std::vector<Graph> graphs(kThreads);
  {
    // All threads race read_pgr on the same cold path. Exactly one may
    // run the opener; the rest must block on the entry lock and share.
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i]() { graphs[i] = read_pgr(path, PgrOpen::kMmap); });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(graphs[i].storage().get(), graphs[0].storage().get());
  }
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.bytes_mapped, graphs[0].storage()->bytes_mapped())
      << "a racing open must not double-count the mapping";
}

TEST_F(RegistryTest, ValidatedHitStillChecksContents) {
  // validate=true on a hit re-runs checksums + CSR validation against the
  // cached mapping — a hit must not silently skip the deep checks the
  // caller asked for.
  std::string path = write_graph("validated.pgr");
  Graph g1 = read_pgr(path, PgrOpen::kMmap, /*validate=*/true);
  Graph g2 = read_pgr(path, PgrOpen::kMmap, /*validate=*/true);
  EXPECT_EQ(g1.storage().get(), g2.storage().get());
  EXPECT_EQ(GraphRegistry::instance().stats().hits, 1u);
}

TEST_F(RegistryTest, RetainKeepsAliveButEvictable) {
  std::string path = write_graph("retained.pgr");
  const GraphStorage* raw = nullptr;
  std::uint64_t bytes = 0;
  {
    Graph g = read_pgr(path, PgrOpen::kMmap);
    raw = g.storage().get();
    bytes = g.storage()->bytes_mapped();
    ASSERT_TRUE(GraphRegistry::instance().retain(path));
  }
  // Like pin: the mapping survives the last Graph, the next open is a hit.
  {
    Graph g = read_pgr(path, PgrOpen::kMmap);
    EXPECT_EQ(g.storage().get(), raw);
  }
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.retained_entries, 1u);
  EXPECT_EQ(stats.pinned_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, bytes);
  EXPECT_NE(stats.lru_last_use_ns, 0u);

  // Unlike pin: memory pressure may take it.
  EXPECT_EQ(GraphRegistry::instance().evict_lru(1), bytes);
  stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.retained_entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  Graph again = read_pgr(path, PgrOpen::kMmap);
  EXPECT_EQ(GraphRegistry::instance().stats().misses, 2u)
      << "after LRU eviction the reopen maps afresh";
}

TEST_F(RegistryTest, MemoizedViewsCountTowardResidentBytes) {
  // A cc on a file without transpose sections memoizes two heap views on
  // the shared storage: the built transpose and the symmetric view. The
  // entry's resident bytes must include them, and eviction releases them.
  std::string path = write_graph("views.pgr");
  std::uint64_t mapped = 0, views = 0;
  {
    Graph g = read_pgr(path, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(path));
    mapped = g.storage()->bytes_mapped();
    EXPECT_EQ(GraphRegistry::instance().stats().resident_bytes, mapped);
    Graph sym = g.symmetrize();
    (void)connected_components(sym, {});
    Graph gt = g.transpose();
    for (const Graph* view : {&gt, &sym}) {
      views += (view->num_vertices() + 1) * sizeof(EdgeId) +
               view->num_edges() * sizeof(VertexId);
    }
  }
  ASSERT_GT(views, 0u);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.resident_bytes, mapped + views);
  std::vector<GraphRegistry::EntryInfo> entries =
      GraphRegistry::instance().entry_stats();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].bytes, mapped + views);

  EXPECT_EQ(GraphRegistry::instance().evict_lru(1), mapped + views);
  EXPECT_EQ(GraphRegistry::instance().stats().resident_bytes, 0u);
}

TEST_F(RegistryTest, EvictLruNeverTouchesPinnedEntries) {
  std::string pinned = write_graph("lru_pinned.pgr", 96);
  std::string retained = write_graph("lru_retained.pgr", 96);
  std::uint64_t retained_bytes = 0;
  {
    Graph a = read_pgr(pinned, PgrOpen::kMmap);
    Graph b = read_pgr(retained, PgrOpen::kMmap);
    retained_bytes = b.storage()->bytes_mapped();
    ASSERT_TRUE(GraphRegistry::instance().pin(pinned));
    ASSERT_TRUE(GraphRegistry::instance().retain(retained));
  }
  // Ask for far more than exists: only the retained entry may go.
  EXPECT_EQ(GraphRegistry::instance().evict_lru(std::uint64_t(1) << 40),
            retained_bytes);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.pinned_entries, 1u);
  EXPECT_EQ(stats.retained_entries, 0u);
  // The pinned mapping is still warm.
  Graph g = read_pgr(pinned, PgrOpen::kMmap);
  EXPECT_EQ(GraphRegistry::instance().stats().hits, 1u);
}

TEST_F(RegistryTest, EvictLruDropsOldestFirstAndStopsAtTheTarget) {
  std::string older = write_graph("lru_old.pgr", 96);
  std::string newer = write_graph("lru_new.pgr", 96);
  {
    Graph a = read_pgr(older, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(older));
    Graph b = read_pgr(newer, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(newer));
  }
  // One byte needed: one eviction suffices, and it must be the older entry.
  EXPECT_GT(GraphRegistry::instance().evict_lru(1), 0u);
  std::vector<GraphRegistry::EntryInfo> entries =
      GraphRegistry::instance().entry_stats();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, newer);
  EXPECT_TRUE(entries[0].retained);
  EXPECT_TRUE(entries[0].live);
}

TEST_F(RegistryTest, EvictLruBreaksTimestampTiesByInsertionOrder) {
  // Two graphs registered within one steady_clock tick have equal
  // last_use_ns; the comparator used to sort on the timestamp alone, so
  // which one got evicted depended on std::sort's whim over equal keys.
  // The insertion sequence number makes the victim deterministic: oldest
  // registration first.
  std::string first = write_graph("tie_a.pgr", 96);
  std::string second = write_graph("tie_b.pgr", 96);
  {
    Graph a = read_pgr(first, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(first));
    Graph b = read_pgr(second, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(second));
  }
  // Force the exact tie the wall clock only sometimes produces.
  ASSERT_TRUE(GraphRegistry::instance().set_last_use_for_testing(first, 777));
  ASSERT_TRUE(GraphRegistry::instance().set_last_use_for_testing(second, 777));
  EXPECT_GT(GraphRegistry::instance().evict_lru(1), 0u);
  std::vector<GraphRegistry::EntryInfo> entries =
      GraphRegistry::instance().entry_stats();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, second)
      << "equal timestamps must evict the earlier registration";

  // And the tie-break only applies on equal timestamps: make the later
  // registration older and it becomes the victim.
  GraphRegistry::instance().clear();
  {
    Graph a = read_pgr(first, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(first));
    Graph b = read_pgr(second, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(second));
  }
  ASSERT_TRUE(GraphRegistry::instance().set_last_use_for_testing(first, 900));
  ASSERT_TRUE(GraphRegistry::instance().set_last_use_for_testing(second, 100));
  EXPECT_GT(GraphRegistry::instance().evict_lru(1), 0u);
  entries = GraphRegistry::instance().entry_stats();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, first);
}

TEST_F(RegistryTest, ReopenRefreshesLruOrder) {
  std::string first = write_graph("lru_ref_a.pgr", 96);
  std::string second = write_graph("lru_ref_b.pgr", 96);
  {
    Graph a = read_pgr(first, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(first));
    Graph b = read_pgr(second, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(second));
    // Touch the first again: a registry hit updates last-use, so the
    // SECOND entry is now the LRU victim.
    Graph a2 = read_pgr(first, PgrOpen::kMmap);
  }
  EXPECT_GT(GraphRegistry::instance().evict_lru(1), 0u);
  std::vector<GraphRegistry::EntryInfo> entries =
      GraphRegistry::instance().entry_stats();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, first);
}

TEST_F(RegistryTest, UnpinDropsARetainToo) {
  std::string path = write_graph("retain_unpin.pgr");
  {
    Graph g = read_pgr(path, PgrOpen::kMmap);
    ASSERT_TRUE(GraphRegistry::instance().retain(path));
  }
  ASSERT_TRUE(GraphRegistry::instance().unpin(path));
  // Strong reference gone, no Graphs left: the storage expired.
  EXPECT_FALSE(GraphRegistry::instance().retain(path));
  EXPECT_EQ(GraphRegistry::instance().stats().retained_entries, 0u);
}

TEST_F(RegistryTest, MissPathSweepsTombstonesAutomatically) {
  std::string dead = write_graph("sweep_dead.pgr", 48);
  std::string live = write_graph("sweep_live.pgr", 48);
  { Graph g = read_pgr(dead, PgrOpen::kMmap); }
  EXPECT_EQ(GraphRegistry::instance().stats().entries, 1u);
  // No explicit evict_expired(): the next cold open sweeps the tombstone.
  Graph g = read_pgr(live, PgrOpen::kMmap);
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(RegistryTest, StatsSeparatePinnedAndResidentBytes) {
  std::string a = write_graph("bytes_a.pgr", 64);
  std::string b = write_graph("bytes_b.pgr", 64);
  Graph ga = read_pgr(a, PgrOpen::kMmap);
  Graph gb = read_pgr(b, PgrOpen::kMmap);
  ASSERT_TRUE(GraphRegistry::instance().pin(a));
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.pinned_entries, 1u);
  EXPECT_EQ(stats.pinned_bytes, ga.storage()->bytes_mapped());
  EXPECT_EQ(stats.resident_bytes,
            ga.storage()->bytes_mapped() + gb.storage()->bytes_mapped())
      << "resident counts every live mapping, pinned or not";
  EXPECT_EQ(stats.lru_last_use_ns, 0u)
      << "a weak (unretained) live entry is not an LRU candidate";
}

TEST_F(RegistryTest, ClearResetsCountersAndTable) {
  std::string path = write_graph("cleared.pgr");
  Graph g = read_pgr(path, PgrOpen::kMmap);
  GraphRegistry::instance().clear();
  GraphRegistry::Stats stats = GraphRegistry::instance().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_mapped, 0u);
  // The cleared entry is forgotten, not unmapped.
  EXPECT_GT(g.num_edges(), 0u);
}

}  // namespace
}  // namespace pasgal
