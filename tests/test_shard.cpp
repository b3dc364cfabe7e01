// Shard-at-a-time execution (DESIGN.md §5i): ShardPlan geometry, the
// MappedWindow residency counters, byte-identical sharded vs in-core
// algorithm output in both window modes (v1 raw, v2 decoding), the typed
// guards around whole-graph access on windowed opens, cancellation at shard
// sweep boundaries, and the windowed footprint pricing.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/pagerank/pagerank.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "parlay/hash_rng.h"
#include "pasgal/cancel.h"
#include "pasgal/edge_map.h"
#include "pasgal/telemetry.h"

namespace pasgal {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_shard_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_shard_test");
  }
};

Graph random_graph(std::size_t n, std::size_t m, std::uint64_t seed) {
  std::vector<Edge> edges(m);
  Random rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    edges[i] = Edge{static_cast<VertexId>(rng.ith_rand(2 * i) % n),
                    static_cast<VertexId>(rng.ith_rand(2 * i + 1) % n)};
  }
  return Graph::from_edges(n, edges);
}

// --- ShardPlan geometry -----------------------------------------------------

TEST_F(ShardTest, PlanCoversAllVerticesContiguously) {
  Graph g = random_graph(5000, 60000, 1);
  ShardPlan plan = ShardPlan::build(g.offsets(), sizeof(VertexId),
                                    16 << 10, /*align=*/64);
  ASSERT_GT(plan.size(), 1u);
  EXPECT_EQ(plan[0].v_begin, 0u);
  EXPECT_EQ(plan[0].e_begin, 0u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ShardRange& r = plan[i];
    EXPECT_LT(r.v_begin, r.v_end);
    EXPECT_EQ(r.e_begin, g.offsets()[r.v_begin]);
    EXPECT_EQ(r.e_end, g.offsets()[r.v_end]);
    if (i > 0) {
      EXPECT_EQ(r.v_begin, plan[i - 1].v_end);
      EXPECT_EQ(r.e_begin, plan[i - 1].e_end);
      // Interior boundaries snap to the alignment block.
      EXPECT_EQ(r.v_begin % 64, 0u);
    }
  }
  EXPECT_EQ(plan[plan.size() - 1].v_end, g.num_vertices());
  EXPECT_EQ(plan[plan.size() - 1].e_end, g.num_edges());
}

TEST_F(ShardTest, PlanRespectsWindowBudget) {
  Graph g = random_graph(5000, 60000, 2);
  const std::uint64_t window = 16 << 10;
  ShardPlan plan = ShardPlan::build(g.offsets(), sizeof(VertexId), window, 64);
  StorageEdgeId max_edges = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    StorageEdgeId edges = plan[i].e_end - plan[i].e_begin;
    max_edges = std::max(max_edges, edges);
    // A multi-block shard stays within the budget; only a single block
    // heavier than the whole window may exceed it.
    if (plan[i].v_end - plan[i].v_begin > 64) {
      EXPECT_LE(edges * sizeof(VertexId), window);
    }
  }
  EXPECT_EQ(plan.max_shard_edges(), max_edges);
  EXPECT_EQ(plan.window_bytes(), window);
}

TEST_F(ShardTest, PlanHubBlockGetsItsOwnShard) {
  // One vertex with 1000 edges, window budget of 16 edges: the hub's block
  // must become a (oversized) shard instead of an error.
  std::vector<Edge> edges;
  for (int i = 0; i < 1000; ++i) {
    edges.push_back(Edge{0, static_cast<VertexId>(i % 64)});
  }
  Graph g = Graph::from_edges(64, edges);
  ShardPlan plan = ShardPlan::build(g.offsets(), sizeof(VertexId),
                                    16 * sizeof(VertexId), 4);
  ASSERT_GE(plan.size(), 1u);
  EXPECT_EQ(plan[0].v_begin, 0u);
  EXPECT_EQ(plan[0].e_end - plan[0].e_begin, 1000u);
}

TEST_F(ShardTest, ShardOfFindsEveryVertex) {
  Graph g = random_graph(3000, 40000, 3);
  ShardPlan plan = ShardPlan::build(g.offsets(), sizeof(VertexId), 8 << 10, 32);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::size_t s = plan.shard_of(v);
    ASSERT_LT(s, plan.size());
    EXPECT_GE(v, plan[s].v_begin);
    EXPECT_LT(v, plan[s].v_end);
  }
}

// --- sharded open + window counters ----------------------------------------

TEST_F(ShardTest, ShardedOpenRawKeepsFullSpans) {
  Graph g = random_graph(4000, 50000, 4);
  auto path = temp_path("raw.pgr");
  write_pgr(g, path);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  EXPECT_FALSE(sharded.windowed());  // raw mode: pointers cover everything
  ASSERT_NE(sharded.storage(), nullptr);
  ASSERT_NE(sharded.storage()->shard_window(), nullptr);
  EXPECT_GT(sharded.storage()->shard_plan()->size(), 1u);
  EXPECT_EQ(sharded, g);  // raw sharded open is still the same graph
}

TEST_F(ShardTest, ShardedOpenCompressedIsWindowed) {
  Graph g = random_graph(4000, 50000, 5);
  auto path = temp_path("v2.pgr");
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  write_pgr(g, path, wopts);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  EXPECT_TRUE(sharded.windowed());
  EXPECT_EQ(sharded.num_vertices(), g.num_vertices());
  EXPECT_EQ(sharded.num_edges(), g.num_edges());
  // Decoding-mode shards snap to the 1024-vertex chunk grid.
  const ShardPlan& plan = *sharded.storage()->shard_plan();
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].v_begin % 1024, 0u);
  }
}

TEST_F(ShardTest, WindowCountsSweepsAndFaults) {
  Graph g = random_graph(4000, 50000, 6);
  auto path = temp_path("cnt.pgr");
  write_pgr(g, path);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  MappedWindow& w = *sharded.storage()->shard_window();
  ASSERT_GE(w.plan().size(), 3u);
  // Open-time validation swept the shards; metrics start from zero.
  w.reset_counters();
  EXPECT_EQ(w.sweeps(), 0u);
  EXPECT_EQ(w.faults(), 0u);
  w.activate(0);
  w.activate(1);  // fresh shards: sweeps, no faults
  EXPECT_EQ(w.sweeps(), 2u);
  EXPECT_EQ(w.faults(), 0u);
  w.activate(0);  // re-activation of a dropped shard: a refault burst
  EXPECT_EQ(w.sweeps(), 3u);
  EXPECT_EQ(w.faults(), 1u);
  w.activate(0);  // already active: no transition, no counts
  EXPECT_EQ(w.sweeps(), 3u);
  EXPECT_EQ(w.faults(), 1u);
  w.release();
  w.activate(0);  // released then re-activated: sweep + fault
  EXPECT_EQ(w.sweeps(), 4u);
  EXPECT_EQ(w.faults(), 2u);
  w.release();
  w.release();  // idempotent
}

TEST_F(ShardTest, ShardedOpenBypassesRegistry) {
  Graph g = random_graph(2000, 20000, 7);
  auto path = temp_path("reg.pgr");
  write_pgr(g, path);
  GraphRegistry::Stats before = GraphRegistry::instance().stats();
  PgrShardSpec spec;
  spec.window_bytes = 8 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  GraphRegistry::Stats after = GraphRegistry::instance().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
}

TEST_F(ShardTest, AutoShardStaysInCoreWhenItFits) {
  Graph g = random_graph(1000, 8000, 8);
  auto path = temp_path("auto.pgr");
  write_pgr(g, path);
  PgrShardSpec spec;
  spec.auto_shard = true;
  Graph opened = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  // Small graph, default ceiling: a plain in-core open, no window attached.
  EXPECT_FALSE(opened.windowed());
  EXPECT_EQ(opened.storage()->shard_window(), nullptr);
  EXPECT_EQ(opened, g);
}

// --- byte-identical traversal ----------------------------------------------

TEST_F(ShardTest, GbbsBfsIdenticalShardedRaw) {
  Graph g = random_graph(6000, 80000, 9);
  auto path = temp_path("bfs_raw.pgr");
  PgrWriteOptions wopts;
  wopts.include_transpose = true;
  write_pgr(g, path, wopts);
  Graph in_core = read_pgr(path);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  auto want = gbbs_bfs(in_core, in_core.transpose(), {}).output;
  auto got = gbbs_bfs(sharded, sharded.transpose(), {}).output;
  EXPECT_EQ(want, got);
}

TEST_F(ShardTest, GbbsBfsIdenticalShardedCompressed) {
  Graph g = random_graph(6000, 80000, 10);
  auto path = temp_path("bfs_v2.pgr");
  PgrWriteOptions wopts;
  wopts.include_transpose = true;
  wopts.compress_targets = true;
  write_pgr(g, path, wopts);
  Graph in_core = read_pgr(path);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  ASSERT_TRUE(sharded.windowed());
  auto want = gbbs_bfs(in_core, in_core.transpose(), {}).output;
  auto got = gbbs_bfs(sharded, sharded.transpose(), {}).output;
  EXPECT_EQ(want, got);
}

TEST_F(ShardTest, GapbsBfsIdenticalShardedRawAndCompressed) {
  // Both of gapbs's directions run through edge_map, so its bottom-up
  // rounds sweep gt's shard plan like gbbs's dense rounds.
  Graph g = random_graph(6000, 80000, 11);
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    auto path = temp_path(compress ? "gapbs_v2.pgr" : "gapbs_raw.pgr");
    PgrWriteOptions wopts;
    wopts.include_transpose = true;
    wopts.compress_targets = compress;
    write_pgr(g, path, wopts);
    Graph in_core = read_pgr(path);
    PgrShardSpec spec;
    spec.window_bytes = 16 << 10;
    Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
    ASSERT_GE(sharded.storage()->shard_plan()->size(), 3u);
    for (VertexId source : {VertexId{0}, VertexId{4321}}) {
      auto want = gbbs_bfs(in_core, in_core.transpose(), {.source = source});
      auto got = gapbs_bfs(sharded, sharded.transpose(), {.source = source});
      EXPECT_EQ(want.output, got.output) << "source " << source;
      bool pulled = false;
      for (const RoundTrace& r : got.telemetry.rounds) {
        pulled = pulled || r.kind == RoundKind::kDense;
      }
      EXPECT_TRUE(pulled) << "no bottom-up round exercised the shard sweep";
    }
  }
}

TEST_F(ShardTest, EmBellmanFordIdenticalShardedCompressed) {
  Graph g = random_graph(4000, 50000, 12);
  WeightedGraph<std::uint32_t> wg = gen::add_weights(g, 50);
  auto path = temp_path("em.pgr");
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  write_pgr(wg, path, wopts);
  WeightedGraph<std::uint32_t> in_core = read_weighted_pgr(path);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  WeightedGraph<std::uint32_t> sharded =
      read_weighted_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  ASSERT_TRUE(sharded.unweighted().windowed());
  // Ground truth from Dijkstra on the in-core open; the edge_map Bellman-
  // Ford must converge to the same distances through the window.
  auto want = dijkstra(in_core, {}).output;
  auto got = em_bellman_ford(sharded, {}).output;
  EXPECT_EQ(want, got);
}

// --- typed guards on windowed opens ----------------------------------------

TEST_F(ShardTest, WindowedTransposeIsTypedUsageError) {
  Graph g = random_graph(3000, 30000, 13);
  auto path = temp_path("guard.pgr");
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  write_pgr(g, path, wopts);  // no transpose sections
  PgrShardSpec spec;
  spec.window_bytes = 8 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  try {
    Graph gt = sharded.transpose();
    FAIL() << "transpose on a windowed open must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
    EXPECT_NE(std::string(e.what()).find("windowed"), std::string::npos);
  }
}

TEST_F(ShardTest, ShardSpecConflictsAreTypedUsageErrors) {
  Graph g = random_graph(500, 4000, 14);
  auto path = temp_path("conflict.pgr");
  write_pgr(g, path);
  PgrShardSpec spec;
  spec.window_bytes = 8 << 10;
  try {
    read_pgr(path, PgrOpen::kCopy, false, nullptr, spec);
    FAIL() << "kCopy + shard spec must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
  try {
    read_pgr(path, PgrOpen::kMmap, /*validate=*/true, nullptr, spec);
    FAIL() << "validate + shard spec must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
}

// --- cancellation at shard sweep boundaries ---------------------------------

TEST_F(ShardTest, CancelMidSweepUnwindsAtShardBoundaryAndWindowIsReusable) {
  Graph g = random_graph(6000, 80000, 15);
  auto path = temp_path("cancel.pgr");
  PgrWriteOptions wopts;
  wopts.include_transpose = true;
  write_pgr(g, path, wopts);
  PgrShardSpec spec;
  spec.window_bytes = 16 << 10;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  ASSERT_GE(sharded.storage()->shard_plan()->size(), 3u);

  // Cancel from inside the first processed shard: the edge_map entry check
  // has already passed, so the unwind happens at the next shard boundary.
  CancelToken token;
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  VertexSubset frontier = VertexSubset::sparse(g.num_vertices(), all);
  AlgoOptions opt;
  opt.cancel = &token;
  auto update = [&](VertexId, VertexId) {
    token.cancel();
    return false;
  };
  auto cond = [](VertexId) { return true; };
  try {
    edge_map_sparse(sharded, frontier, update, cond, opt);
    FAIL() << "cancelled sweep must throw kTimeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
    EXPECT_NE(std::string(e.what()).find("shard sweep boundary"),
              std::string::npos);
  }

  // The unwind released the window; the same storage must run a full,
  // correct traversal afterwards.
  MappedWindow& w = *sharded.storage()->shard_window();
  w.reset_counters();
  auto got = gbbs_bfs(sharded, sharded.transpose(), {}).output;
  Graph in_core = read_pgr(path);
  EXPECT_EQ(got, gbbs_bfs(in_core, in_core.transpose(), {}).output);
  EXPECT_GT(w.sweeps(), 0u);
}

// --- footprint pricing ------------------------------------------------------

TEST_F(ShardTest, WindowedResidentBytesPriceWindowNotFile) {
  Graph g = random_graph(8000, 120000, 16);
  auto path = temp_path("price.pgr");
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  write_pgr(g, path, wopts);
  const std::uint64_t window = 16 << 10;
  PgrShardSpec spec;
  spec.window_bytes = window;
  Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  std::uint64_t resident = sharded.storage()->resident_bytes();
  std::uint64_t file_bytes = std::filesystem::file_size(path);
  // Offsets + window + decode buffer — far below the whole file, and no
  // less than the offsets array alone.
  EXPECT_LT(resident, file_bytes);
  EXPECT_GE(resident, (g.num_vertices() + 1) * sizeof(EdgeId));
}

TEST_F(ShardTest, CheckWindowedFootprintScalesWithWindow) {
  // A graph whose offsets alone fit easily: the windowed check must accept
  // a small window for huge m where the in-core check would reject.
  Status ok = GraphStorage::check_windowed_footprint(
      /*n=*/1000, /*window_bytes=*/1 << 20, /*extra_bytes=*/1 << 20, "t.pgr");
  EXPECT_TRUE(ok.ok());
}

// --- metrics schema ---------------------------------------------------------

// --- whole-graph algorithm families on sharded opens ------------------------

TEST_F(ShardTest, WholeGraphFamiliesAreTypedUsageErrorsOnShardedOpens) {
  // Every catalog row whose guard keeps g in core walks the CSR at random,
  // so both sharded flavors (raw advisory window and compressed decode
  // window) must refuse with the typed kUsage error from ensure_in_core —
  // never fault past the window. Walking the catalog means an entry point
  // that lost its admit() fails here.
  Graph g = random_graph(3000, 30000, 16);
  WeightedGraph<std::uint32_t> wg = gen::add_weights(g, 50);
  std::vector<VertexId> batch = {0, 1};
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    auto path = temp_path(compress ? "fam_v2.pgr" : "fam_raw.pgr");
    auto wpath = temp_path(compress ? "fam_w_v2.pgr" : "fam_w_raw.pgr");
    PgrWriteOptions wopts;
    wopts.include_transpose = true;
    wopts.compress_targets = compress;
    write_pgr(g, path, wopts);
    wopts.include_transpose = false;
    write_pgr(wg, wpath, wopts);
    PgrShardSpec spec;
    spec.window_bytes = 8 << 10;
    Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
    Graph sharded_t = sharded.transpose();
    WeightedGraph<std::uint32_t> sharded_w =
        read_weighted_pgr(wpath, PgrOpen::kMmap, false, nullptr, spec);
    std::size_t checked = 0;
    for (const AlgoSpec& row : algo_catalog()) {
      if (row.guard.in_core != InCore::kGraph &&
          row.guard.in_core != InCore::kBoth) {
        continue;
      }
      std::string what = std::string(row.family) + "/" + row.name;
      AlgoArgs args;
      args.g = row.input == AlgoInput::kWeighted ? &sharded_w.unweighted()
                                                 : &sharded;
      args.gt = &sharded_t;
      args.wg = &sharded_w;
      if (row.sources == AlgoSources::kBatch) args.sources = batch;
      try {
        row.run(args, AlgoOptions{});
        ADD_FAILURE() << what << " on a sharded open must throw";
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kUsage) << what;
        EXPECT_NE(std::string(e.what()).find("windowed"), std::string::npos)
            << what;
      }
      ++checked;
    }
    EXPECT_GT(checked, 0u);
    try {
      sharded.symmetrize();
      ADD_FAILURE() << "symmetrize on a sharded open must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kUsage);
    }
  }
}

TEST_F(ShardTest, PagerankIdenticalShardedRawAndCompressed) {
  // The dense pull walks the transpose's shard plan one contiguous
  // destination range at a time, and every destination's in-edges arrive
  // whole, so the sums — and therefore the ranks — must be byte-identical
  // to the in-core run, not merely close.
  Graph g = random_graph(6000, 80000, 17);
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    auto path = temp_path(compress ? "pr_v2.pgr" : "pr_raw.pgr");
    PgrWriteOptions wopts;
    wopts.include_transpose = true;
    wopts.compress_targets = compress;
    write_pgr(g, path, wopts);
    Graph in_core = read_pgr(path);
    PgrShardSpec spec;
    spec.window_bytes = 16 << 10;
    Graph sharded = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
    PagerankResult want =
        pasgal_pagerank(in_core, in_core.transpose(), {}).output;
    PagerankResult got =
        pasgal_pagerank(sharded, sharded.transpose(), {}).output;
    EXPECT_EQ(want.iterations, got.iterations);
    EXPECT_EQ(want.delta, got.delta);
    ASSERT_EQ(want.rank.size(), got.rank.size());
    for (std::size_t v = 0; v < want.rank.size(); ++v) {
      ASSERT_EQ(want.rank[v], got.rank[v]) << "vertex " << v;
    }
  }
}

TEST_F(ShardTest, ShardMetricsSectionValidates) {
  MetricsDoc doc("bfs", "gbbs", "g.pgr", 100, 1000);
  doc.set_shard(8, 1 << 20, 25, 9);
  doc.add_trial(0.5, {});
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());
  EXPECT_TRUE(validate_metrics(parsed).ok());
  const json::Value* shard = parsed.find("shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->find("shards")->number, 8);
  EXPECT_EQ(shard->find("window_bytes")->number, 1 << 20);
  EXPECT_EQ(shard->find("shard_sweeps")->number, 25);
  EXPECT_EQ(shard->find("window_faults")->number, 9);
}

TEST_F(ShardTest, ShardMetricsRejectsFaultsAboveSweeps) {
  MetricsDoc doc("bfs", "gbbs", "g.pgr", 100, 1000);
  doc.set_shard(8, 1 << 20, /*shard_sweeps=*/3, /*window_faults=*/7);
  doc.add_trial(0.5, {});
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());
  EXPECT_FALSE(validate_metrics(parsed).ok());
}

}  // namespace
}  // namespace pasgal
