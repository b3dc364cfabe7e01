// Round-trip tests for the .adj (PBBS) and .bin (GBBS) graph formats.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "pasgal/error.h"
#include "parlay/hash_rng.h"
#include "parlay/scheduler.h"

namespace pasgal {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_io_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_io_test");
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

TEST_F(GraphIoTest, AdjRoundTrip) {
  Graph g = random_graph(200, 1500, 1);
  auto path = temp_path("g.adj");
  write_adj(g, path);
  EXPECT_EQ(read_adj(path), g);
}

TEST_F(GraphIoTest, AdjEmptyGraph) {
  Graph g = Graph::from_edges(0, {});
  auto path = temp_path("empty.adj");
  write_adj(g, path);
  Graph back = read_adj(path);
  EXPECT_EQ(back.num_vertices(), 0u);
  EXPECT_EQ(back.num_edges(), 0u);
}

TEST_F(GraphIoTest, AdjIsolatedVertices) {
  Graph g = Graph::from_edges(10, std::vector<Edge>{{3, 7}});
  auto path = temp_path("iso.adj");
  write_adj(g, path);
  EXPECT_EQ(read_adj(path), g);
}

TEST_F(GraphIoTest, BinRoundTrip) {
  Graph g = random_graph(500, 4000, 2);
  auto path = temp_path("g.bin");
  write_bin(g, path);
  EXPECT_EQ(read_bin(path), g);
}

TEST_F(GraphIoTest, BinHeaderContents) {
  Graph g = random_graph(100, 700, 3);
  auto path = temp_path("hdr.bin");
  write_bin(g, path);
  std::ifstream in(path, std::ios::binary);
  std::uint64_t n = 0, m = 0, bytes = 0;
  in.read(reinterpret_cast<char*>(&n), 8);
  in.read(reinterpret_cast<char*>(&m), 8);
  in.read(reinterpret_cast<char*>(&bytes), 8);
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(m, 700u);
  EXPECT_EQ(bytes, 24 + 101 * 8 + 700 * 4);
  EXPECT_EQ(std::filesystem::file_size(path), bytes);
}

TEST_F(GraphIoTest, WeightedAdjRoundTrip) {
  std::vector<WeightedEdge<std::uint32_t>> edges;
  Random rng(4);
  for (std::size_t i = 0; i < 900; ++i) {
    edges.push_back({static_cast<VertexId>(rng.ith_rand(3 * i) % 80),
                     static_cast<VertexId>(rng.ith_rand(3 * i + 1) % 80),
                     static_cast<std::uint32_t>(rng.ith_rand(3 * i + 2) % 100 + 1)});
  }
  auto g = WeightedGraph<std::uint32_t>::from_edges(80, edges);
  auto path = temp_path("g.wadj");
  write_adj(g, path);
  auto back = read_weighted_adj(path);
  EXPECT_EQ(back.unweighted(), g.unweighted());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.edge_weight(e), g.edge_weight(e));
  }
}

TEST_F(GraphIoTest, WeightedBinRoundTrip) {
  std::vector<WeightedEdge<std::uint32_t>> edges;
  Random rng(8);
  for (std::size_t i = 0; i < 1200; ++i) {
    edges.push_back({static_cast<VertexId>(rng.ith_rand(3 * i) % 90),
                     static_cast<VertexId>(rng.ith_rand(3 * i + 1) % 90),
                     static_cast<std::uint32_t>(rng.ith_rand(3 * i + 2))});
  }
  auto g = WeightedGraph<std::uint32_t>::from_edges(90, edges);
  auto path = temp_path("g.wbin");
  write_bin(g, path);
  auto back = read_weighted_bin(path);
  EXPECT_EQ(back.unweighted(), g.unweighted());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.edge_weight(e), g.edge_weight(e));
  }
}

// The unweighted readers accept either variant of their format and return
// the topology; the weighted readers refuse an unweighted file.
TEST_F(GraphIoTest, WeightedAdjAndBinReadAsTopology) {
  Graph topo = random_graph(70, 600, 5);
  std::vector<std::uint32_t> weights(topo.num_edges());
  for (std::size_t e = 0; e < weights.size(); ++e) {
    weights[e] = static_cast<std::uint32_t>(e % 13 + 1);
  }
  WeightedGraph<std::uint32_t> g(topo, weights);
  auto adj = temp_path("w.adj");
  auto bin = temp_path("w.bin");
  write_adj(g, adj);
  write_bin(g, bin);
  EXPECT_EQ(read_adj(adj), topo);
  EXPECT_EQ(read_bin(bin), topo);
  EXPECT_TRUE(has_weights(adj));
  EXPECT_TRUE(has_weights(bin));
}

TEST_F(GraphIoTest, WeightedReadersRejectUnweightedFiles) {
  Graph g = random_graph(50, 300, 6);
  auto adj = temp_path("u.adj");
  auto bin = temp_path("u.bin");
  write_adj(g, adj);
  write_bin(g, bin);
  EXPECT_FALSE(has_weights(adj));
  EXPECT_FALSE(has_weights(bin));
  try {
    read_weighted_adj(adj);
    ADD_FAILURE() << "unweighted .adj accepted by the weighted reader";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat) << e.what();
  }
  try {
    read_weighted_bin(bin);
    ADD_FAILURE() << "unweighted .bin accepted by the weighted reader";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat) << e.what();
  }
}

TEST_F(GraphIoTest, WeightedBinRejectsTruncated) {
  auto path = temp_path("trunc.wbin");
  std::ofstream(path, std::ios::binary) << "short";
  EXPECT_THROW(read_weighted_bin(path), std::runtime_error);
}

TEST_F(GraphIoTest, RejectsWrongHeader) {
  auto path = temp_path("bogus.adj");
  std::ofstream(path) << "NotAGraph\n3\n0\n";
  EXPECT_THROW(read_adj(path), std::runtime_error);
}

TEST_F(GraphIoTest, RejectsMissingFile) {
  EXPECT_THROW(read_adj(temp_path("does_not_exist.adj")), std::runtime_error);
  EXPECT_THROW(read_bin(temp_path("does_not_exist.bin")), std::runtime_error);
}

TEST_F(GraphIoTest, RejectsTruncatedAdj) {
  auto path = temp_path("trunc.adj");
  std::ofstream(path) << "AdjacencyGraph\n5\n10\n0\n1\n";  // missing data
  EXPECT_THROW(read_adj(path), std::runtime_error);
}

// --- .pgr (mmap-able native format) -----------------------------------------

TEST_F(GraphIoTest, PgrRoundTripMmapAndCopy) {
  Graph g = random_graph(300, 2500, 5);
  auto path = temp_path("g.pgr");
  write_pgr(g, path);
  EXPECT_EQ(read_pgr(path, PgrOpen::kMmap), g);
  EXPECT_EQ(read_pgr(path, PgrOpen::kCopy), g);
  EXPECT_EQ(read_pgr(path, PgrOpen::kMmap, /*validate=*/true), g);
}

TEST_F(GraphIoTest, PgrRoundTripWeighted) {
  std::vector<WeightedEdge<std::uint32_t>> edges;
  Random rng(6);
  for (std::size_t i = 0; i < 1100; ++i) {
    edges.push_back({static_cast<VertexId>(rng.ith_rand(3 * i) % 70),
                     static_cast<VertexId>(rng.ith_rand(3 * i + 1) % 70),
                     static_cast<std::uint32_t>(rng.ith_rand(3 * i + 2))});
  }
  auto g = WeightedGraph<std::uint32_t>::from_edges(70, edges);
  auto path = temp_path("g.wpgr.pgr");
  write_pgr(g, path);
  for (auto mode : {PgrOpen::kMmap, PgrOpen::kCopy}) {
    auto back = read_weighted_pgr(path, mode);
    EXPECT_EQ(back.unweighted(), g.unweighted());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(back.edge_weight(e), g.edge_weight(e));
    }
  }
}

TEST_F(GraphIoTest, PgrEmptyAndSingleVertexGraphs) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    Graph g = Graph::from_edges(n, {});
    auto path = temp_path("tiny" + std::to_string(n) + ".pgr");
    write_pgr(g, path);
    Graph back = read_pgr(path);
    EXPECT_EQ(back.num_vertices(), n);
    EXPECT_EQ(back.num_edges(), 0u);
    EXPECT_EQ(back, g);
  }
}

TEST_F(GraphIoTest, PgrEmbeddedTransposeMatchesRebuilt) {
  Graph g = random_graph(250, 2000, 7);
  auto path = temp_path("t.pgr");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  write_pgr(g, path, opts);
  for (auto mode : {PgrOpen::kMmap, PgrOpen::kCopy}) {
    Graph back = read_pgr(path, mode, /*validate=*/true);
    // The embedded transpose sections pre-populate the cache; it must be
    // exactly what transpose() would have computed.
    EXPECT_EQ(back.transpose(), g.transpose());
  }
}

TEST_F(GraphIoTest, PgrProbeReportsHeader) {
  Graph g = random_graph(120, 900, 9);
  auto path = temp_path("p.pgr");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  opts.symmetric = false;
  write_pgr(g, path, opts);
  PgrInfo info = probe_pgr(path);
  EXPECT_EQ(info.n, 120u);
  EXPECT_EQ(info.m, g.num_edges());
  EXPECT_FALSE(info.weighted);
  EXPECT_FALSE(info.symmetric);
  EXPECT_TRUE(info.has_transpose);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
}

TEST_F(GraphIoTest, PgrWeightedFileReadAsUnweighted) {
  // read_pgr on a weighted file ignores the weights section.
  std::vector<WeightedEdge<std::uint32_t>> edges{{0, 1, 5}, {1, 2, 7}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  auto path = temp_path("w.pgr");
  write_pgr(g, path);
  EXPECT_EQ(read_pgr(path), g.unweighted());
}

TEST_F(GraphIoTest, PgrUnweightedFileRejectedByWeightedReader) {
  Graph g = random_graph(50, 200, 10);
  auto path = temp_path("uw.pgr");
  write_pgr(g, path);
  EXPECT_THROW(read_weighted_pgr(path), Error);
}

TEST_F(GraphIoTest, PgrMissingFile) {
  EXPECT_THROW(read_pgr(temp_path("does_not_exist.pgr")), Error);
  EXPECT_THROW(probe_pgr(temp_path("does_not_exist.pgr")), Error);
}

// --- .pgr version 2 (compressed targets) -------------------------------------

TEST_F(GraphIoTest, PgrCompressedRoundTrip) {
  Graph g = random_graph(300, 2500, 5);
  auto path = temp_path("c.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  write_pgr(g, path, opts);
  PgrOpenStats stats;
  EXPECT_EQ(read_pgr(path, PgrOpen::kMmap, /*validate=*/false, &stats), g);
  EXPECT_TRUE(stats.compressed);
  EXPECT_GT(stats.encoded_target_bytes, 0u);
  EXPECT_LT(stats.encoded_target_bytes, g.num_edges() * sizeof(VertexId));
  EXPECT_GT(stats.decode_wall_ns, 0u);
  EXPECT_EQ(read_pgr(path, PgrOpen::kCopy), g);
  EXPECT_EQ(read_pgr(path, PgrOpen::kMmap, /*validate=*/true), g);
}

TEST_F(GraphIoTest, PgrCompressedWeightedWithTranspose) {
  std::vector<WeightedEdge<std::uint32_t>> edges;
  Random rng(12);
  for (std::size_t i = 0; i < 1100; ++i) {
    edges.push_back({static_cast<VertexId>(rng.ith_rand(3 * i) % 70),
                     static_cast<VertexId>(rng.ith_rand(3 * i + 1) % 70),
                     static_cast<std::uint32_t>(rng.ith_rand(3 * i + 2))});
  }
  auto g = WeightedGraph<std::uint32_t>::from_edges(70, edges);
  auto path = temp_path("cwt.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  opts.include_transpose = true;
  write_pgr(g, path, opts);
  for (auto mode : {PgrOpen::kMmap, PgrOpen::kCopy}) {
    auto back = read_weighted_pgr(path, mode);
    EXPECT_EQ(back.unweighted(), g.unweighted());
    // Weights and the embedded transpose stay raw sections alongside the
    // compressed targets.
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(back.edge_weight(e), g.edge_weight(e));
    }
    EXPECT_EQ(back.unweighted().transpose(), g.unweighted().transpose());
  }
}

TEST_F(GraphIoTest, PgrCompressedEmptyAndIsolatedVertices) {
  PgrWriteOptions opts;
  opts.compress_targets = true;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2000}}) {
    Graph g = Graph::from_edges(n, {});
    auto path = temp_path("ctiny" + std::to_string(n) + ".pgr");
    write_pgr(g, path, opts);
    EXPECT_EQ(read_pgr(path), g);
  }
  Graph iso = Graph::from_edges(10, std::vector<Edge>{{3, 7}});
  auto path = temp_path("ciso.pgr");
  write_pgr(iso, path, opts);
  EXPECT_EQ(read_pgr(path), iso);
}

TEST_F(GraphIoTest, PgrCompressedSpansMultipleChunks) {
  // More than 1024 vertices so the encoded section has several chunks, each
  // decoded by a separate task.
  Graph g = random_graph(5000, 40000, 13);
  auto path = temp_path("cchunks.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  write_pgr(g, path, opts);
  EXPECT_EQ(read_pgr(path), g);
  EXPECT_EQ(read_pgr(path, PgrOpen::kCopy), g);
}

TEST_F(GraphIoTest, PgrCompressedProbeReportsEncoding) {
  Graph g = random_graph(400, 3000, 14);
  auto raw_path = temp_path("raw.pgr");
  auto comp_path = temp_path("comp.pgr");
  write_pgr(g, raw_path);
  PgrWriteOptions opts;
  opts.compress_targets = true;
  write_pgr(g, comp_path, opts);

  PgrInfo raw = probe_pgr(raw_path);
  EXPECT_EQ(raw.version, kPgrVersion);
  EXPECT_FALSE(raw.compressed);
  EXPECT_EQ(raw.encoded_target_bytes, g.num_edges() * sizeof(VertexId));

  PgrInfo comp = probe_pgr(comp_path);
  EXPECT_EQ(comp.version, kPgrVersionCompressed);
  EXPECT_TRUE(comp.compressed);
  EXPECT_EQ(comp.n, raw.n);
  EXPECT_EQ(comp.m, raw.m);
  EXPECT_LT(comp.encoded_target_bytes, raw.encoded_target_bytes);
  EXPECT_LT(comp.file_bytes, raw.file_bytes);
  EXPECT_EQ(comp.file_bytes, std::filesystem::file_size(comp_path));
}

TEST_F(GraphIoTest, PgrUncompressedWriteStaysVersion1) {
  // check.sh byte-compares uncompressed round-trips against pre-existing v1
  // files, so the default write path must keep emitting version 1 exactly.
  Graph g = random_graph(100, 800, 15);
  auto path = temp_path("v1.pgr");
  write_pgr(g, path);
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  std::uint32_t version = 0;
  in.read(magic, 8);
  in.read(reinterpret_cast<char*>(&version), 4);
  EXPECT_EQ(version, kPgrVersion);
  PgrOpenStats stats;
  read_pgr(path, PgrOpen::kMmap, false, &stats);
  EXPECT_FALSE(stats.compressed);
  EXPECT_EQ(stats.decode_wall_ns, 0u);
}

TEST_F(GraphIoTest, PgrCompressedDeterministicAcrossWorkerCounts) {
  // Chunk encoding is per-chunk-deterministic; the assembled file must not
  // depend on how many workers happened to run the encoding tabulate.
  Graph g = random_graph(3000, 20000, 16);
  auto p1 = temp_path("det1.pgr");
  auto p4 = temp_path("det4.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  Scheduler::reset(1);
  write_pgr(g, p1, opts);
  Scheduler::reset(4);
  write_pgr(g, p4, opts);
  Scheduler::reset(1);
  std::ifstream a(p1, std::ios::binary), b(p4, std::ios::binary);
  std::vector<char> ba{std::istreambuf_iterator<char>(a),
                       std::istreambuf_iterator<char>()};
  std::vector<char> bb{std::istreambuf_iterator<char>(b),
                       std::istreambuf_iterator<char>()};
  EXPECT_EQ(ba, bb);
}

}  // namespace
}  // namespace pasgal
