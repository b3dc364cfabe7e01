// Corrupted-input corpus for the graph readers: every malformed file must be
// rejected with a typed pasgal::Error in the right category — never a crash,
// a hang, or a silently wrong graph. Mirrors the loader hardening GBBS ships
// for the same reason: downstream algorithms do unchecked offsets[]/targets[]
// indexing, so the reader is the trust boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <vector>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "graphs/storage.h"
#include "pasgal/error.h"
#include "pasgal/resource.h"

namespace pasgal {
namespace {

class GraphIoFuzzTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_fuzz_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_fuzz_test");
  }

  void write_text(const std::string& path, const std::string& content) {
    std::ofstream(path) << content;
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

  // A small valid .bin to corrupt: 4-cycle, offsets [0,1,2,3,4].
  std::string make_valid_bin(const std::string& name) {
    std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    Graph g = Graph::from_edges(4, edges);
    auto path = temp_path(name);
    write_bin(g, path);
    return path;
  }

  // A small valid .pgr to corrupt: the same 4-cycle, by default with
  // transpose sections so every section kind in the format is present.
  std::string make_valid_pgr(const std::string& name,
                             bool include_transpose = true) {
    std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    Graph g = Graph::from_edges(4, edges);
    auto path = temp_path(name);
    PgrWriteOptions opts;
    opts.include_transpose = include_transpose;
    write_pgr(g, path, opts);
    return path;
  }

  // A minimal version-2 file: one edge 0->1 in a 4-vertex graph. The encoded
  // targets section is a single chunk whose payload is exactly one varint
  // byte (zigzag(+1) = 0x02), so byte-level tampering is surgical.
  std::string make_tiny_compressed_pgr(const std::string& name) {
    Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}});
    auto path = temp_path(name);
    PgrWriteOptions opts;
    opts.compress_targets = true;
    write_pgr(g, path, opts);
    return path;
  }

  // A version-2 file big enough to span two chunks (n = 2000 > 1024), with
  // one extra edge so chunk 0's payload is not a multiple of 64 bytes and
  // real zero padding exists between the chunks.
  std::string make_chunked_compressed_pgr(const std::string& name) {
    std::vector<Edge> edges = {{0, 2}};
    for (VertexId v = 0; v + 1 < 2000; ++v) edges.push_back({v, v + 1});
    Graph g = Graph::from_edges(2000, edges);
    auto path = temp_path(name);
    PgrWriteOptions opts;
    opts.compress_targets = true;
    write_pgr(g, path, opts);
    return path;
  }

  // File offset of the targets section (section table slot 1).
  std::size_t targets_off(const std::vector<char>& bytes) {
    return static_cast<std::size_t>(peek<std::uint64_t>(bytes, 40 + 24));
  }

  template <typename T>
  T peek(const std::vector<char>& bytes, std::size_t at) {
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof(T));
    return v;
  }

  template <typename T>
  void poke(std::vector<char>& bytes, std::size_t at, T v) {
    std::memcpy(bytes.data() + at, &v, sizeof(T));
  }

  // Recomputes the stored checksum for one section table entry, so content
  // tampering can be made checksum-consistent (to prove the later validation
  // layers catch what checksums alone would also have caught).
  void reseal_pgr_section(std::vector<char>& bytes, int section) {
    std::size_t at = 40 + static_cast<std::size_t>(section) * 24;
    auto off = peek<std::uint64_t>(bytes, at);
    auto len = peek<std::uint64_t>(bytes, at + 8);
    poke(bytes, at + 16, hash_bytes(bytes.data() + off, len));
  }

  void expect_rejected(const std::function<void()>& fn, ErrorCategory want) {
    try {
      fn();
      ADD_FAILURE() << "corrupt input was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), want) << e.what();
      EXPECT_FALSE(std::string(e.what()).empty());
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception escaped the reader: " << e.what();
    }
  }
};

// --- .adj (text) corpus ------------------------------------------------------

TEST_F(GraphIoFuzzTest, AdjTruncatedOffsets) {
  auto path = temp_path("trunc_off.adj");
  write_text(path, "AdjacencyGraph\n5\n10\n0\n1\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, AdjTruncatedTargets) {
  auto path = temp_path("trunc_tgt.adj");
  write_text(path, "AdjacencyGraph\n2\n3\n0\n1\n0\n1\n");  // 3 targets claimed, 2 present
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, AdjHeaderClaimsHugeN) {
  auto path = temp_path("huge_n.adj");
  // n = 2^60: the offsets array alone would need 2^63 bytes. Must be
  // rejected by the memory ceiling before any allocation is attempted.
  write_text(path, "AdjacencyGraph\n1152921504606846976\n4\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kResource);
}

TEST_F(GraphIoFuzzTest, AdjHeaderClaimsHugeM) {
  auto path = temp_path("huge_m.adj");
  write_text(path, "AdjacencyGraph\n4\n1152921504606846976\n0\n0\n0\n0\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kResource);
}

TEST_F(GraphIoFuzzTest, AdjNonMonotoneOffsets) {
  auto path = temp_path("nonmono.adj");
  // offsets[1] = 3 > offsets[2] = 1.
  write_text(path, "AdjacencyGraph\n3\n4\n0\n3\n1\n0\n1\n2\n0\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, AdjFirstOffsetNonZero) {
  auto path = temp_path("off0.adj");
  write_text(path, "AdjacencyGraph\n2\n2\n1\n2\n0\n1\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, AdjOutOfBoundsTarget) {
  auto path = temp_path("oob.adj");
  // Target 99 in a 3-vertex graph.
  write_text(path, "AdjacencyGraph\n3\n3\n0\n1\n2\n1\n99\n0\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, AdjTrailingGarbage) {
  auto path = temp_path("trailing.adj");
  write_text(path, "AdjacencyGraph\n2\n2\n0\n1\n1\n0\nEXTRA\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, AdjNonNumericField) {
  auto path = temp_path("nonnum.adj");
  write_text(path, "AdjacencyGraph\n2\n2\nzero\n1\n1\n0\n");
  expect_rejected([&] { read_adj(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, WeightedAdjTruncatedWeights) {
  auto path = temp_path("trunc_w.adj");
  write_text(path, "WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n5\n");
  expect_rejected([&] { read_weighted_adj(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, MissingFileIsIoError) {
  expect_rejected([&] { read_adj(temp_path("nope.adj")); },
                  ErrorCategory::kIo);
  expect_rejected([&] { read_bin(temp_path("nope.bin")); },
                  ErrorCategory::kIo);
}

// --- .bin (binary) corpus ----------------------------------------------------

TEST_F(GraphIoFuzzTest, BinTruncatedHeader) {
  auto path = temp_path("short.bin");
  std::ofstream(path, std::ios::binary) << "short";
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kFormat);
  expect_rejected([&] { read_weighted_bin(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, BinHeaderClaimsHugeN) {
  auto path = temp_path("huge_n.bin");
  std::uint64_t n = std::uint64_t{1} << 60, m = 4, size = 64;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(&n), 8);
  out.write(reinterpret_cast<const char*>(&m), 8);
  out.write(reinterpret_cast<const char*>(&size), 8);
  out.close();
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kResource);
  expect_rejected([&] { read_weighted_bin(path); }, ErrorCategory::kResource);
}

TEST_F(GraphIoFuzzTest, BinSizeFieldMismatch) {
  auto path = make_valid_bin("sizefield.bin");
  auto bytes = slurp(path);
  bytes[16] ^= 0x01;  // size_bytes field
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, BinTruncatedBody) {
  auto path = make_valid_bin("truncbody.bin");
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 10);
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, BinTrailingGarbage) {
  auto path = make_valid_bin("trailing.bin");
  auto bytes = slurp(path);
  bytes.push_back('x');
  bytes.push_back('y');
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, BinNonMonotoneOffsets) {
  auto path = make_valid_bin("nonmono.bin");
  auto bytes = slurp(path);
  // offsets[1] lives at byte 24 + 8; bump it above offsets[2] = 2.
  std::uint64_t bad = 3;
  std::memcpy(bytes.data() + 32, &bad, 8);
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, BinOutOfBoundsTarget) {
  auto path = make_valid_bin("oob.bin");
  auto bytes = slurp(path);
  // targets start at 24 + 5*8 = 64; poison target[0].
  std::uint32_t bad = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 64, &bad, 4);
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, BinOffsetsEndMismatch) {
  auto path = make_valid_bin("endoff.bin");
  auto bytes = slurp(path);
  // offsets[n] (byte 24 + 4*8 = 56) must equal m = 4.
  std::uint64_t bad = 2;
  std::memcpy(bytes.data() + 56, &bad, 8);
  dump(path, bytes);
  expect_rejected([&] { read_bin(path); }, ErrorCategory::kValidation);
}

// --- in-memory validation ----------------------------------------------------

TEST_F(GraphIoFuzzTest, ValidateCatchesHandBuiltCorruption) {
  // Well-formed.
  Graph ok(std::vector<EdgeId>{0, 1, 2}, std::vector<VertexId>{1, 0});
  EXPECT_TRUE(ok.validate().ok());

  // Non-monotone offsets.
  Graph bad1(std::vector<EdgeId>{0, 2, 1}, std::vector<VertexId>{1, 0});
  Status s1 = bad1.validate();
  ASSERT_FALSE(s1.ok());
  EXPECT_EQ(s1.category(), ErrorCategory::kValidation);

  // offsets[n] != m.
  Graph bad2(std::vector<EdgeId>{0, 1, 3}, std::vector<VertexId>{1, 0});
  ASSERT_FALSE(bad2.validate().ok());

  // Target out of bounds.
  Graph bad3(std::vector<EdgeId>{0, 1, 2}, std::vector<VertexId>{1, 7});
  Status s3 = bad3.validate();
  ASSERT_FALSE(s3.ok());
  EXPECT_NE(s3.message().find("edge 1"), std::string::npos);

  // Weight array shorter than the edge count.
  WeightedGraph<std::uint32_t> wbad(std::vector<EdgeId>{0, 1, 2},
                                    std::vector<VertexId>{1, 0},
                                    std::vector<std::uint32_t>{5});
  Status sw = wbad.validate();
  ASSERT_FALSE(sw.ok());
  EXPECT_EQ(sw.category(), ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, MemoryLimitIsFinite) {
  // The ceiling must resolve to something real on this machine so the
  // huge-header corpus above is actually enforced.
  EXPECT_GT(memory_limit_bytes(), 0u);
  EXPECT_LT(memory_limit_bytes(), std::uint64_t{1} << 50);
}

// --- .pgr (mmap-able native format) corpus -----------------------------------
//
// Header layout under attack: [0,8) magic, [8,12) version, [12,16) flags,
// [16,24) n, [24,32) m, [32,40) section count, [40,160) section table of
// 5 x {off, bytes, checksum} u64 triples, [160,192) reserved zeros.

TEST_F(GraphIoFuzzTest, PgrTruncatedHeader) {
  auto path = make_valid_pgr("hdr.pgr");
  auto bytes = slurp(path);
  bytes.resize(100);  // below the 192-byte fixed header
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
  expect_rejected([&] { probe_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrBadMagic) {
  auto path = make_valid_pgr("magic.pgr");
  auto bytes = slurp(path);
  bytes[0] = 'X';
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrUnsupportedVersion) {
  auto path = make_valid_pgr("ver.pgr");
  auto bytes = slurp(path);
  poke<std::uint32_t>(bytes, 8, kPgrVersion + 7);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrUnknownFlagBits) {
  auto path = make_valid_pgr("flags.pgr");
  auto bytes = slurp(path);
  poke<std::uint32_t>(bytes, 12, peek<std::uint32_t>(bytes, 12) | (1u << 7));
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrTruncationAtEverySectionBoundary) {
  auto path = make_valid_pgr("trunc.pgr");
  auto whole = slurp(path);
  for (int i = 0; i < 5; ++i) {
    std::size_t at = 40 + static_cast<std::size_t>(i) * 24;
    auto off = peek<std::uint64_t>(whole, at);
    auto len = peek<std::uint64_t>(whole, at + 8);
    if (len == 0) continue;  // weights: absent in an unweighted file
    // Cut exactly at the section start and one byte short of its end.
    for (std::uint64_t cut : {off, off + len - 1}) {
      auto bytes = whole;
      bytes.resize(cut);
      dump(path, bytes);
      expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
      expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                      ErrorCategory::kFormat);
    }
  }
}

TEST_F(GraphIoFuzzTest, PgrTrailingGarbage) {
  auto path = make_valid_pgr("tail.pgr");
  auto bytes = slurp(path);
  bytes.insert(bytes.end(), 17, 'Z');
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrHeaderClaimsVsFileSizeMismatch) {
  // Bumping m makes the canonical layout (and total size) disagree with the
  // actual file: the section table cross-check must reject it.
  auto path = make_valid_pgr("claims.pgr");
  auto bytes = slurp(path);
  poke<std::uint64_t>(bytes, 24, peek<std::uint64_t>(bytes, 24) + 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrSectionTableTampered) {
  auto path = make_valid_pgr("table.pgr");
  auto bytes = slurp(path);
  poke<std::uint64_t>(bytes, 40, peek<std::uint64_t>(bytes, 40) + 64);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrHugeClaimsAreResourceErrors) {
  auto path = make_valid_pgr("huge.pgr");
  auto bytes = slurp(path);
  poke<std::uint64_t>(bytes, 16, std::uint64_t{1} << 60);  // n
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kResource);

  bytes = slurp(path);
  poke<std::uint64_t>(bytes, 24, std::uint64_t{1} << 60);  // m
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kResource);
}

TEST_F(GraphIoFuzzTest, PgrVertexCountOver32Bits) {
  auto path = make_valid_pgr("wide.pgr");
  auto bytes = slurp(path);
  poke<std::uint64_t>(bytes, 16, std::uint64_t{1} << 32);
  dump(path, bytes);
  // kValidation (id space) on large-memory hosts; the footprint ceiling can
  // legitimately fire first (kResource) on smaller ones — either way the
  // reader must refuse before touching section data.
  try {
    read_pgr(path);
    ADD_FAILURE() << "n >= 2^32 was accepted";
  } catch (const Error& e) {
    EXPECT_TRUE(e.category() == ErrorCategory::kValidation ||
                e.category() == ErrorCategory::kResource)
        << e.what();
  }
}

TEST_F(GraphIoFuzzTest, PgrChecksumCorruptionCaughtByDeepModes) {
  auto path = make_valid_pgr("sum.pgr");
  auto whole = slurp(path);
  std::size_t targets_off =
      static_cast<std::size_t>(peek<std::uint64_t>(whole, 40 + 24));
  auto bytes = whole;
  bytes[targets_off] = static_cast<char>(bytes[targets_off] ^ 0x5A);
  dump(path, bytes);
  // Copy mode and mmap --validate both run the checksum pass.
  expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                  ErrorCategory::kFormat);
  expect_rejected([&] { read_pgr(path, PgrOpen::kMmap, /*validate=*/true); },
                  ErrorCategory::kFormat);
  // Plain mmap open is O(1) by design and trusts section contents (the .pgr
  // is a cache produced by our own writers); it must still open.
  Graph g = read_pgr(path, PgrOpen::kMmap);
  EXPECT_EQ(g.num_vertices(), 4u);
}

TEST_F(GraphIoFuzzTest, PgrNonMonotoneOffsetsCaughtBehindValidChecksum) {
  // Corrupt the CSR content *and* reseal the checksum: the structural
  // validator behind the checksum layer must still reject it.
  auto path = make_valid_pgr("mono.pgr");
  auto bytes = slurp(path);
  std::size_t offsets_off =
      static_cast<std::size_t>(peek<std::uint64_t>(bytes, 40));
  poke<std::uint64_t>(bytes, offsets_off + 8, 3);  // offsets[1] = 3
  poke<std::uint64_t>(bytes, offsets_off + 16, 1);  // offsets[2] = 1 (< 3)
  reseal_pgr_section(bytes, 0);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                  ErrorCategory::kValidation);
  expect_rejected([&] { read_pgr(path, PgrOpen::kMmap, /*validate=*/true); },
                  ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, PgrCorruptTransposeSectionRejected) {
  auto path = make_valid_pgr("tpose.pgr");
  auto bytes = slurp(path);
  std::size_t t_targets_off =
      static_cast<std::size_t>(peek<std::uint64_t>(bytes, 40 + 4 * 24));
  poke<std::uint32_t>(bytes, t_targets_off, 1000u);  // target out of range
  reseal_pgr_section(bytes, 4);
  dump(path, bytes);
  // Transpose sections are validated whenever they are materialized eagerly.
  expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                  ErrorCategory::kValidation);
  expect_rejected([&] { read_pgr(path, PgrOpen::kMmap, /*validate=*/true); },
                  ErrorCategory::kValidation);
}

// --- .pgr version 2 (compressed targets) corpus ------------------------------
//
// Compressed-section layout under attack (relative to the targets section):
// [0,8) chunk count C, [8,16) vertices-per-chunk V, [16,16+(C+1)*8) chunk
// directory of byte offsets, then 64-byte-aligned varint payloads; the last
// directory entry equals the exact section size. Every tampering below
// reseals the section checksum, so the decoder itself — not the checksum
// layer — must catch it (plain mmap opens skip checksums entirely).

TEST_F(GraphIoFuzzTest, PgrCompressedTruncatedVarintStream) {
  auto path = make_tiny_compressed_pgr("ctrunc.pgr");
  auto bytes = slurp(path);
  std::size_t sec = targets_off(bytes);
  std::size_t payload = sec + static_cast<std::size_t>(
                                  peek<std::uint64_t>(bytes, sec + 16));
  // Continuation bit on the only payload byte: the varint never terminates
  // before the chunk limit.
  bytes[payload] = static_cast<char>(bytes[payload] | 0x80);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
  expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                  ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedVarintOverflows64Bits) {
  auto path = make_chunked_compressed_pgr("coverflow.pgr");
  auto bytes = slurp(path);
  std::size_t sec = targets_off(bytes);
  std::size_t payload = sec + static_cast<std::size_t>(
                                  peek<std::uint64_t>(bytes, sec + 16));
  // 9 continuation bytes then a wide final byte: 10-byte varint whose last
  // byte carries bits past position 63.
  for (int i = 0; i < 9; ++i) bytes[payload + i] = static_cast<char>(0xFF);
  bytes[payload + 9] = 0x7F;
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedNonZeroInterChunkPadding) {
  auto path = make_chunked_compressed_pgr("cpad.pgr");
  auto bytes = slurp(path);
  std::size_t sec = targets_off(bytes);
  // Last byte before chunk 1's aligned start is padding by construction
  // (chunk 0's payload size is odd).
  std::size_t chunk1 = sec + static_cast<std::size_t>(
                                 peek<std::uint64_t>(bytes, sec + 16 + 8));
  ASSERT_EQ(bytes[chunk1 - 1], 0) << "expected zero padding to tamper with";
  bytes[chunk1 - 1] = 0x01;
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedOutOfRangeDecodedTarget) {
  auto path = make_tiny_compressed_pgr("coob.pgr");
  auto bytes = slurp(path);
  std::size_t sec = targets_off(bytes);
  std::size_t payload = sec + static_cast<std::size_t>(
                                  peek<std::uint64_t>(bytes, sec + 16));
  // zigzag(0x7E) decodes to +63: vertex 0's target becomes 63 >= n = 4. The
  // decoder must refuse even on the plain mmap path — decoded targets feed
  // unchecked indexing downstream.
  bytes[payload] = 0x7E;
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kValidation);
  expect_rejected([&] { read_pgr(path, PgrOpen::kCopy); },
                  ErrorCategory::kValidation);
  // And the negative direction: zigzag(0x7F) decodes to -64.
  bytes = slurp(path);
  bytes[payload] = 0x7F;
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, PgrCompressedChunkHeaderTampered) {
  // Chunk count disagreeing with ceil(n / V).
  auto path = make_tiny_compressed_pgr("cchunks.pgr");
  auto bytes = slurp(path);
  std::size_t sec = targets_off(bytes);
  poke<std::uint64_t>(bytes, sec, peek<std::uint64_t>(bytes, sec) + 1);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);

  // Zero vertices-per-chunk.
  bytes = slurp(path);
  poke<std::uint64_t>(bytes, sec + 8, 0);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedDirectoryTampered) {
  auto path = make_chunked_compressed_pgr("cdir.pgr");
  auto whole = slurp(path);
  std::size_t sec = targets_off(whole);
  // Misaligned first chunk.
  auto bytes = whole;
  poke<std::uint64_t>(bytes, sec + 16,
                      peek<std::uint64_t>(bytes, sec + 16) + 1);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);

  // Non-monotone interior entry (chunk 1 start beyond the section end).
  bytes = whole;
  poke<std::uint64_t>(bytes, sec + 16 + 8, std::uint64_t{1} << 32);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);

  // Last entry no longer equal to the section size.
  bytes = whole;
  std::size_t last = sec + 16 + 2 * 8;
  poke<std::uint64_t>(bytes, last, peek<std::uint64_t>(bytes, last) - 1);
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedSectionSizeClaims) {
  // The encoded section's size comes from the table rather than the (n, m)
  // arithmetic, so it is attacker-controlled: oversized claims must be
  // bounded by the file size, and m > 0 with an empty section must fail.
  auto path = make_tiny_compressed_pgr("csize.pgr");
  auto bytes = slurp(path);
  poke<std::uint64_t>(bytes, 40 + 24 + 8, std::uint64_t{1} << 40);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);

  bytes = slurp(path);
  poke<std::uint64_t>(bytes, 40 + 24 + 8, 0);
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

TEST_F(GraphIoFuzzTest, PgrCompressedFlagOnVersion1Rejected) {
  // Bit 3 (compressed) is only defined from version 2 on; a v1 header
  // carrying it must be treated as unknown flags.
  auto path = make_valid_pgr("cflag.pgr");
  auto bytes = slurp(path);
  poke<std::uint32_t>(bytes, 12, peek<std::uint32_t>(bytes, 12) | (1u << 3));
  dump(path, bytes);
  expect_rejected([&] { read_pgr(path); }, ErrorCategory::kFormat);
}

// --- lazy validation of trusted-by-default mmap opens ------------------------

TEST_F(GraphIoFuzzTest, BfsOnUnvalidatedOutOfRangeTargetsThrowsTyped) {
  // Plain mmap opens of a v1 file skip per-element checks by design, so a
  // poisoned target (behind a resealed checksum) gets as far as the
  // algorithm layer. The frontier machinery must then catch it via the
  // lazy ensure_validated() choke point — a typed kValidation error, never
  // out-of-bounds indexing.
  auto path = make_valid_pgr("lazyoob.pgr");
  auto bytes = slurp(path);
  std::size_t off = targets_off(bytes);
  poke<std::uint32_t>(bytes, off, 1000u);  // target 1000 in a 4-vertex graph
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  Graph g = read_pgr(path);  // mmap open itself stays O(1) and succeeds
  ASSERT_NE(g.storage(), nullptr);
  EXPECT_FALSE(g.storage()->validated());
  Graph gt = g.transpose();  // embedded sections: no rebuild, no crash
  expect_rejected([&] { gbbs_bfs(g, gt, {}); }, ErrorCategory::kValidation);
  expect_rejected([&] { gapbs_bfs(g, gt, {}); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, CcAndKcoreOnUnvalidatedOutOfRangeTargetsThrowTyped) {
  // Regression: the cc and kcore kernels walk the CSR with manual loops
  // rather than through the frontier machinery, so they used to index a
  // poisoned target straight out of bounds instead of hitting the lazy
  // ensure_validated() choke point. All of them must reject like BFS does.
  auto path = make_valid_pgr("lazyoob_cc.pgr");
  auto bytes = slurp(path);
  std::size_t off = targets_off(bytes);
  poke<std::uint32_t>(bytes, off, 1000u);  // target 1000 in a 4-vertex graph
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  Graph g = read_pgr(path);
  ASSERT_NE(g.storage(), nullptr);
  EXPECT_FALSE(g.storage()->validated());
  expect_rejected([&] { connected_components(g, {}); },
                  ErrorCategory::kValidation);
  expect_rejected([&] { label_prop_cc(g, {}); }, ErrorCategory::kValidation);
  expect_rejected([&] { ldd_cc(g, {}); }, ErrorCategory::kValidation);
  expect_rejected([&] { seq_kcore(g, {}); }, ErrorCategory::kValidation);
  expect_rejected([&] { pasgal_kcore(g, {}); }, ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, DerivedViewsOnUnvalidatedTargetsThrowTyped) {
  // Without embedded transpose sections, transpose() and symmetrize() build
  // from the forward CSR and index per-target counters: they must hit the
  // lazy ensure_validated() choke point before writing out of bounds.
  auto path = make_valid_pgr("lazyoob_build.pgr", /*include_transpose=*/false);
  auto bytes = slurp(path);
  std::size_t off = targets_off(bytes);
  poke<std::uint32_t>(bytes, off, 1000u);  // target 1000 in a 4-vertex graph
  reseal_pgr_section(bytes, 1);
  dump(path, bytes);
  Graph g = read_pgr(path);
  ASSERT_EQ(g.storage()->transpose_cache(), nullptr);
  EXPECT_FALSE(g.storage()->validated());
  expect_rejected([&] { g.transpose(); }, ErrorCategory::kValidation);
  expect_rejected([&] { g.symmetrize(); }, ErrorCategory::kValidation);

  // An embedded transpose section is an input to symmetrize() as well: a
  // poisoned one is rejected, not merged.
  auto tpath = make_valid_pgr("lazyoob_tsection.pgr");
  bytes = slurp(tpath);
  std::size_t t_targets_off =
      static_cast<std::size_t>(peek<std::uint64_t>(bytes, 40 + 4 * 24));
  poke<std::uint32_t>(bytes, t_targets_off, 1000u);
  reseal_pgr_section(bytes, 4);
  dump(tpath, bytes);
  Graph gt_poisoned = read_pgr(tpath);
  expect_rejected([&] { gt_poisoned.symmetrize(); },
                  ErrorCategory::kValidation);
}

TEST_F(GraphIoFuzzTest, UnsortedTransposeSectionIsNotMergedAsIs) {
  // symmetrize() merges sorted in-lists. A transpose section whose rows are
  // in range but unsorted is rebuilt from the forward CSR instead of being
  // merged into a view with unsorted, duplicated rows.
  std::vector<Edge> edges = {{0, 1}, {2, 1}, {3, 1}};
  Graph g = Graph::from_edges(4, edges);
  auto path = temp_path("unsorted_t.pgr");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  write_pgr(g, path, opts);
  auto bytes = slurp(path);
  // Only vertex 1 has in-edges, so the section is exactly its row [0, 2, 3].
  std::size_t t_targets_off =
      static_cast<std::size_t>(peek<std::uint64_t>(bytes, 40 + 4 * 24));
  poke<std::uint32_t>(bytes, t_targets_off, 3u);
  poke<std::uint32_t>(bytes, t_targets_off + 8, 0u);
  reseal_pgr_section(bytes, 4);
  dump(path, bytes);
  Graph mapped = read_pgr(path);
  EXPECT_FALSE(mapped.transpose().adjacency_sorted());
  std::vector<Edge> both = {{0, 1}, {1, 0}, {2, 1}, {1, 2}, {3, 1}, {1, 3}};
  EXPECT_EQ(mapped.symmetrize(), Graph::from_edges(4, both));
}

TEST_F(GraphIoFuzzTest, EnsureValidatedAcceptsAndMemoizesCleanGraphs) {
  auto path = make_valid_pgr("lazyok.pgr");
  Graph g = read_pgr(path);
  ASSERT_NE(g.storage(), nullptr);
  EXPECT_FALSE(g.storage()->validated());
  g.ensure_validated();
  EXPECT_TRUE(g.storage()->validated());
  Graph gt = g.transpose();
  EXPECT_EQ(gbbs_bfs(g, gt, {}).output, seq_bfs(g, {}).output);
}

}  // namespace
}  // namespace pasgal
