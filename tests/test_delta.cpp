// Tests for the delta-overlay update subsystem (graphs/delta.h) and the
// incremental repair algorithms (algorithms/incremental.h).
//
// Overlay equivalence for every catalog row (overlay and `.plog` replay
// against an independent rebuild, across worker counts) lives in the
// catalog harness (test_catalog); this suite keeps toposort, which has no
// catalog row, plus the apply semantics, the snapshot merge, and repair.
//
// The `.plog` crash-safety section mirrors test_graph_io_fuzz.cpp's
// byte-surgery style: truncate the log at every byte boundary and assert
// replay yields a typed kFormat error or a consistent prefix — never UB.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/incremental.h"
#include "algorithms/toposort/toposort.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "graphs/storage.h"
#include "pasgal/cancel.h"
#include "pasgal/error.h"
#include "update_model.h"

namespace pasgal {
namespace {

// A toposort's levels, or its cycle error's message: overlay and rebuild
// must agree either way (on a cyclic graph, on how many vertices are stuck).
template <typename Toposort>
std::pair<std::vector<std::uint32_t>, std::string> topo_outcome(
    Toposort toposort, const Graph& g) {
  try {
    return {toposort(g, {}).output, ""};
  } catch (const Error& e) {
    return {{}, e.what()};
  }
}

// --- toposort through the overlay --------------------------------------------

// Toposort has no catalog row, so the equivalence harness (test_catalog)
// does not reach it: both toposorts run on the overlay at 1/4/8 workers
// against an independent rebuild, and materialize_effective (the compaction
// path) must agree with that rebuild edge for edge.
void check_toposort_overlay(Graph g, std::uint64_t seed,
                            bool acyclic = false) {
  UpdateModel model(g, seed, acyclic);
  for (int round = 0; round < 3; ++round) {
    apply_updates(g, model.make_batch(150));
    Graph ref = model.rebuild();
    auto ref_topo = topo_outcome(seq_toposort, ref);
    if (acyclic) {
      EXPECT_TRUE(ref_topo.second.empty()) << ref_topo.second;
    }
    for (int workers : {1, 4, 8}) {
      Scheduler::reset(workers);
      std::string at = "round " + std::to_string(round) + ", " +
                       std::to_string(workers) + " workers";
      EXPECT_EQ(topo_outcome(seq_toposort, g), ref_topo)
          << "seq toposort diverged: " << at;
      EXPECT_EQ(topo_outcome(pasgal_toposort, g), ref_topo)
          << "pasgal toposort diverged: " << at;
      Scheduler::reset(1);
    }
    EXPECT_EQ(materialize_effective(g).to_edges(), ref.to_edges());
  }
}

TEST(Delta, ToposortOverlayMatchesRebuild) {
  check_toposort_overlay(gen::rmat(10, 6000, 3), /*seed=*/7);
  check_toposort_overlay(gen::rectangle_grid(48, 4), /*seed=*/11);
  check_toposort_overlay(forward_edges(gen::rmat(10, 6000, 5)), /*seed=*/13,
                         /*acyclic=*/true);
}

TEST(Delta, SymmetricKernelsRefuseAnOverlay) {
  // A kSymmetric kernel called directly on an overlaid graph fails typed;
  // through symmetrize() (the catalog's path) the overlay is folded in.
  Graph g = gen::rectangle_grid(16, 4);
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}});
  try {
    connected_components(g, {});
    FAIL() << "connected_components read an overlaid graph";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
  EXPECT_EQ(connected_components(g.symmetrize(), {}).output.label,
            connected_components(materialize_effective(g).symmetrize(), {})
                .output.label);
}

// --- apply semantics ---------------------------------------------------------

TEST(Delta, ApplyValidatesAgainstTheEffectiveGraph) {
  Graph g = gen::rectangle_grid(16, 4);  // n = 64
  Graph pristine = materialize_effective(g);

  // Out-of-range endpoints.
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, 0, 64}}),
      Error);
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, kInvalidVertex, 0}}),
      Error);
  // Deleting an absent edge / inserting a present one.
  try {
    apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 63}});
    FAIL() << "deleted an absent edge";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
  VertexId nbr = g.neighbors(0)[0];
  try {
    apply_updates(g,
                  std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, nbr}});
    FAIL() << "inserted a present edge";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
  // A rejected batch publishes nothing: the overlay is still absent.
  EXPECT_FALSE(g.has_delta());
  EXPECT_EQ(g.to_edges(), pristine.to_edges());

  // A batch that fails mid-way (valid insert, then invalid delete) must not
  // publish the partial prefix either.
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, 0, 63},
                           {EdgeUpdate::Op::kDelete, 1, 62}}),
      Error);
  EXPECT_FALSE(g.has_delta());
}

TEST(Delta, InsertThenDeleteNetsOut) {
  Graph g = gen::rectangle_grid(16, 4);
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}});
  ApplyStats st = apply_updates(
      g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 63}});
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.deletes, 0u);
  EXPECT_EQ(st.batches, 2u);

  // Deleting a base edge then re-inserting it cancels the delete and
  // restores every base copy.
  VertexId nbr = g.neighbors(5)[0];
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 5, nbr}});
  st = apply_updates(g,
                     std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 5, nbr}});
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.deletes, 0u);
  Graph ref = gen::rectangle_grid(16, 4);
  EXPECT_EQ(materialize_effective(g).to_edges(), ref.to_edges());
}

TEST(Delta, WeightedGraphsRejectUnweightedPatches) {
  // The guard keys off storage-carried weights (the weighted `.pgr` path),
  // so build a storage-backed weighted chain directly.
  Graph shape = gen::chain(8, /*directed=*/true);
  std::vector<StorageEdgeId> offsets;
  std::vector<StorageVertexId> targets;
  for (VertexId v = 0; v < shape.num_vertices(); ++v) {
    offsets.push_back(shape.edge_begin(v));
    for (VertexId t : shape.neighbors(v)) targets.push_back(t);
  }
  offsets.push_back(shape.num_edges());
  std::vector<StorageWeight> weights(targets.size(), 1);
  Graph g(GraphStorage::owned(std::move(offsets), std::move(targets),
                              std::move(weights)));
  try {
    apply_updates(g,
                  std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 7}});
    FAIL() << "weighted graph accepted an unweighted patch";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
}

TEST(Delta, SnapshotScanMergesInAscendingOrder) {
  // 0 -> {2, 5, 9}; delete 5, insert 1 and 7: scan must yield 1,2,7,9 with
  // kInvalidEdge marking the overlay entries.
  Graph g = Graph::from_edges(
      10, std::vector<Edge>{{0, 2}, {0, 5}, {0, 9}});
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 5},
                                           {EdgeUpdate::Op::kInsert, 0, 1},
                                           {EdgeUpdate::Op::kInsert, 0, 7}});
  std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot();
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->touches(0));
  EXPECT_FALSE(d->touches(3));
  EXPECT_EQ(d->effective_degree(0, g.out_degree(0)), 4u);
  Adjacency adj = g.adjacency();
  EXPECT_EQ(adj.degree(0), 4u);
  std::vector<VertexId> seen;
  std::vector<bool> overlay;
  adj.scan(0, [&](VertexId t, EdgeId e) {
    seen.push_back(t);
    overlay.push_back(e == kInvalidEdge);
  });
  EXPECT_EQ(seen, (std::vector<VertexId>{1, 2, 7, 9}));
  EXPECT_EQ(overlay, (std::vector<bool>{true, false, true, false}));
  // A cursor resumes the same merge one neighbour at a time.
  std::vector<VertexId> walked;
  Adjacency::Cursor c = adj.cursor(0);
  for (VertexId t = 0; adj.next(c, t);) walked.push_back(t);
  EXPECT_EQ(walked, seen);

  // The flipped side sees the same ops in-edge-wise.
  ASSERT_NE(d->flipped(), nullptr);
  EXPECT_TRUE(d->flipped()->touches(1));
  EXPECT_TRUE(d->flipped()->touches(5));
  EXPECT_TRUE(d->flipped()->touches(7));
  EXPECT_FALSE(d->flipped()->touches(0));
}

TEST(Delta, DegreeCountsEverySuppressedMultigraphCopy) {
  // 0 -> {1, 1, 2}: deleting (0,1) suppresses both base copies, so degree
  // must report what scan visits, on the flipped side too, and the folded
  // graph must hold exactly the surviving edge.
  Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {0, 1}, {0, 2}});
  Graph gt = g.transpose();
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 1}});
  auto visits = [](const Adjacency& adj, VertexId v) {
    EdgeId n = 0;
    adj.scan(v, [&](VertexId) { ++n; });
    return n;
  };
  Adjacency out = g.adjacency();
  EXPECT_EQ(visits(out, 0), 1u);
  EXPECT_EQ(out.degree(0), 1u);
  Adjacency in = gt.adjacency();
  EXPECT_EQ(visits(in, 1), 0u);
  EXPECT_EQ(in.degree(1), 0u);
  EXPECT_EQ(in.degree(2), 1u);
  Graph folded = materialize_effective(g);
  EXPECT_EQ(folded.num_edges(), 1u);
  EXPECT_EQ(std::vector<VertexId>(folded.neighbors(0).begin(),
                                  folded.neighbors(0).end()),
            std::vector<VertexId>{2});

  // A second batch that leaves vertex 0 untouched keeps its count.
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 1, 2}});
  EXPECT_EQ(g.adjacency().degree(0), 1u);
  EXPECT_EQ(gt.adjacency().degree(1), 0u);
}

// --- update log (`.plog`) ----------------------------------------------------

class DeltaLogTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_delta_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_delta_test");
  }

  std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void dump(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static std::vector<std::vector<EdgeUpdate>> sample_batches() {
    return {{{EdgeUpdate::Op::kInsert, 0, 5}, {EdgeUpdate::Op::kInsert, 1, 6}},
            {{EdgeUpdate::Op::kDelete, 0, 5}},
            {{EdgeUpdate::Op::kInsert, 2, 7},
             {EdgeUpdate::Op::kDelete, 1, 6},
             {EdgeUpdate::Op::kInsert, 3, 8}}};
  }
};

TEST_F(DeltaLogTest, WriteReadRoundTrip) {
  std::string path = temp_path("round.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  EXPECT_EQ(read_update_log(path), batches);

  // Appends extend the frame sequence; a fresh append target gets a header.
  append_update_batch(path, batches[0]);
  auto got = read_update_log(path);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], batches[0]);

  std::string fresh = temp_path("fresh.plog");
  append_update_batch(fresh, batches[1]);
  got = read_update_log(fresh);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], batches[1]);
}

TEST_F(DeltaLogTest, ReplayMatchesManualApplies) {
  Graph logged = gen::rectangle_grid(16, 4);
  Graph manual = gen::rectangle_grid(16, 4);
  std::vector<std::vector<EdgeUpdate>> batches = {
      {{EdgeUpdate::Op::kInsert, 0, 63}, {EdgeUpdate::Op::kInsert, 1, 62}},
      {{EdgeUpdate::Op::kDelete, 0, 63}}};
  std::string path = temp_path("replay.plog");
  write_update_log(path, batches);

  ApplyStats st = replay_update_log(logged, path);
  for (const auto& b : batches) apply_updates(manual, b);
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.deletes, 0u);
  EXPECT_EQ(materialize_effective(logged).to_edges(),
            materialize_effective(manual).to_edges());
}

TEST_F(DeltaLogTest, GraphDeltaAppendsOnlyAcceptedBatches) {
  std::string path = temp_path("accepted.plog");
  GraphDelta delta(gen::rectangle_grid(16, 4), path);
  delta.apply(std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}});
  EXPECT_THROW(
      delta.apply(std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}}),
      Error);
  // The rejected duplicate insert never reached the log: replay succeeds.
  Graph replayed = gen::rectangle_grid(16, 4);
  ApplyStats st = replay_update_log(replayed, path);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.inserts, 1u);
}

// Satellite: crash-safety. A crashed append tears the trailing frame at an
// arbitrary byte; replay must yield the consistent prefix (or a typed
// kFormat for a torn header) — never UB, never a mangled batch.
TEST_F(DeltaLogTest, TruncationAtEveryByteBoundaryIsPrefixOrTypedError) {
  std::string path = temp_path("torn.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  std::vector<char> full = slurp(path);
  ASSERT_GT(full.size(), 16u);

  std::string torn = temp_path("torn_cut.plog");
  for (std::size_t len = 0; len < full.size(); ++len) {
    dump(torn, std::vector<char>(full.begin(), full.begin() + len));
    try {
      std::vector<std::vector<EdgeUpdate>> got = read_update_log(torn);
      ASSERT_LE(got.size(), batches.size()) << "cut at byte " << len;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], batches[i])
            << "cut at byte " << len << " mangled batch " << i;
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat)
          << "cut at byte " << len << ": " << e.what();
    }
  }
}

TEST_F(DeltaLogTest, CorruptionInACompleteFrameIsATypedFormatError) {
  std::string path = temp_path("corrupt.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  std::vector<char> full = slurp(path);
  std::string mut = temp_path("corrupt_mut.plog");

  // Flip one payload byte of the FIRST frame (offset 16 header + 16 frame
  // header): checksum mismatch, not a silent wrong edge.
  {
    std::vector<char> bytes = full;
    bytes[16 + 16 + 4] ^= 0x01;
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "corrupted payload replayed";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // Break the frame magic.
  {
    std::vector<char> bytes = full;
    bytes[16] ^= 0xFF;
    dump(mut, bytes);
    EXPECT_THROW(read_update_log(mut), Error);
  }
  // Wrong file magic / version.
  {
    std::vector<char> bytes = full;
    bytes[0] = 'X';
    dump(mut, bytes);
    EXPECT_THROW(read_update_log(mut), Error);
  }
  {
    std::vector<char> bytes = full;
    bytes[8] = 9;  // version
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "future version accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // An unknown op with a *correct* checksum is still rejected.
  {
    std::vector<char> bytes = full;
    std::uint32_t bad_op = 7;
    std::memcpy(bytes.data() + 16 + 16, &bad_op, 4);
    std::uint32_t count;
    std::memcpy(&count, bytes.data() + 16 + 4, 4);
    std::uint64_t rehash = hash_bytes(bytes.data() + 16 + 16,
                                      static_cast<std::size_t>(count) * 12);
    std::memcpy(bytes.data() + 16 + 8, &rehash, 8);
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "unknown op replayed";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // Missing file is kIo, not kFormat.
  try {
    read_update_log(temp_path("nope.plog"));
    FAIL() << "missing log opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

// --- incremental repair ------------------------------------------------------

TEST(Incremental, BfsRepairIsExactAndResettlesFewerOnSmallChurn) {
  Graph g = gen::rmat(11, 16000, 5);  // n = 2048
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/23);

  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, {.source = source}).output;
  for (int round = 0; round < 4; ++round) {
    std::vector<EdgeUpdate> batch = model.make_batch(15);  // < 1% churn
    apply_updates(g, batch);
    std::vector<std::uint32_t> expect =
        gbbs_bfs(g, gt, {.source = source}).output;
    IncrementalStats st =
        incremental_bfs(g, gt, batch, dist, {.source = source});
    EXPECT_EQ(dist, expect) << "repair diverged in round " << round;
    EXPECT_EQ(st.full_settled, g.num_vertices());
    if (!st.fallback) {
      EXPECT_LT(st.resettled, st.full_settled)
          << "repair must settle strictly fewer vertices than a full "
             "recompute on small churn";
    }
  }
}

TEST(Incremental, BfsDeleteCascadeRepairsACorridor) {
  // A directed chain is the worst case: deleting one edge unreaches the
  // whole suffix. The repair must invalidate exactly that suffix.
  Graph g = gen::chain(64, /*directed=*/true);
  Graph gt = g.transpose();
  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, {}).output;
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kDelete, 31, 32}};
  apply_updates(g, batch);
  IncrementalOptions opt;
  opt.churn_threshold = 1.0;  // never fall back; exercise the cascade
  IncrementalStats st = incremental_bfs(g, gt, batch, dist, {}, opt);
  EXPECT_FALSE(st.fallback);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, {}).output);
  for (VertexId v = 32; v < 64; ++v) EXPECT_EQ(dist[v], kInfDist);

  // Re-inserting the edge repairs the corridor back via the insert seeds.
  std::vector<EdgeUpdate> fix{{EdgeUpdate::Op::kInsert, 31, 32}};
  apply_updates(g, fix);
  st = incremental_bfs(g, gt, fix, dist, {}, opt);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, {}).output);
  EXPECT_EQ(dist[63], 63u);
}

TEST(Incremental, BfsChurnFallbackIsStillExact) {
  Graph g = gen::rmat(9, 4000, 13);
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/31);
  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, {.source = source}).output;
  std::vector<EdgeUpdate> batch = model.make_batch(200);
  apply_updates(g, batch);
  IncrementalOptions opt;
  opt.churn_threshold = 0.0;  // force the fallback path
  IncrementalStats st =
      incremental_bfs(g, gt, batch, dist, {.source = source}, opt);
  EXPECT_TRUE(st.fallback);
  EXPECT_EQ(st.resettled, st.full_settled);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, {.source = source}).output);
}

TEST(Incremental, BfsRepairHonoursAnExpiredToken) {
  // The insert seeds a repair frontier, so the repair reaches its
  // edge_map round boundary, where the caller's token is checked.
  Graph g = gen::chain(64, /*directed=*/true);
  Graph gt = g.transpose();
  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, {}).output;
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kInsert, 0, 40}};
  apply_updates(g, batch);
  CancelToken token;
  token.set_deadline_ms(0);
  IncrementalOptions inc;
  inc.churn_threshold = 1.0;  // never fall back; exercise the repair
  try {
    incremental_bfs(g, gt, batch, dist, {.cancel = &token}, inc);
    FAIL() << "expired token must unwind the repair";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
  }
}

TEST(Incremental, CcInsertOnlyUnionsLabels) {
  // Three directed chains and three isolated vertices; inserts merge
  // components without any traversal.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}};
  Graph g = Graph::from_edges(12, edges);
  ConnectivityResult base = connected_components(g.symmetrize(), {}).output;
  EXPECT_EQ(base.num_components, 6u);
  std::vector<VertexId> label = base.label;

  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kInsert, 2, 3},
                                {EdgeUpdate::Op::kInsert, 9, 10}};
  apply_updates(g, batch);
  IncrementalStats st = incremental_cc(g, batch, label);
  EXPECT_FALSE(st.fallback);
  ConnectivityResult expect = connected_components(g.symmetrize(), {}).output;
  EXPECT_EQ(label, expect.label);
  EXPECT_EQ(count_distinct_labels(label), 4u);
}

TEST(Incremental, CcDeleteFallsBackToFullRecompute) {
  Graph g = gen::rectangle_grid(24, 4);
  ConnectivityResult base = connected_components(g.symmetrize(), {}).output;
  std::vector<VertexId> label = base.label;

  VertexId nbr = g.neighbors(10)[0];
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kDelete, 10, nbr},
                                {EdgeUpdate::Op::kInsert, 0, 95}};
  apply_updates(g, batch);
  IncrementalStats st = incremental_cc(g, batch, label);
  EXPECT_TRUE(st.fallback);
  ConnectivityResult expect = connected_components(g.symmetrize(), {}).output;
  EXPECT_EQ(label, expect.label);
}

TEST(Incremental, RepairIsDeterministicAcrossWorkerCounts) {
  Graph g = gen::rmat(10, 6000, 17);
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/41);
  std::vector<EdgeUpdate> batch = model.make_batch(40);

  std::vector<std::uint32_t> base_dist =
      gbbs_bfs(g, gt, {.source = source}).output;
  apply_updates(g, batch);
  std::vector<std::vector<std::uint32_t>> repaired;
  for (int workers : {1, 4, 8}) {
    Scheduler::reset(workers);
    std::vector<std::uint32_t> dist = base_dist;
    incremental_bfs(g, gt, batch, dist, {.source = source});
    repaired.push_back(std::move(dist));
    Scheduler::reset(1);
  }
  EXPECT_EQ(repaired[0], repaired[1]);
  EXPECT_EQ(repaired[0], repaired[2]);
  EXPECT_EQ(repaired[0], gbbs_bfs(g, gt, {.source = source}).output);
}

}  // namespace
}  // namespace pasgal
