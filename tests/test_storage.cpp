// Tests for the GraphStorage layer: heap vs mmap backends, the allocation
// ceiling, content checksums, and transpose memoization — the machinery
// behind graph.h rather than the file formats themselves (test_graph_io
// covers those).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "graphs/graph_io.h"
#include "graphs/storage.h"
#include "pasgal/error.h"

namespace pasgal {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_storage_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_storage_test");
  }
};

// --- hash_bytes --------------------------------------------------------------

TEST_F(StorageTest, HashBytesIsDeterministic) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(hash_bytes(data, sizeof(data)), hash_bytes(data, sizeof(data)));
  EXPECT_NE(hash_bytes(data, sizeof(data)), 0u);
}

TEST_F(StorageTest, HashBytesSeesEveryByte) {
  // Flipping any single byte must change the digest (for a 64-bit mixing
  // hash a collision here would be astronomically unlikely — and more to the
  // point, would mean a lane is being skipped).
  std::vector<char> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 7 + 1);
  }
  std::uint64_t base = hash_bytes(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto corrupt = data;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_NE(hash_bytes(corrupt.data(), corrupt.size()), base)
        << "byte " << i << " does not affect the digest";
  }
}

TEST_F(StorageTest, HashBytesHandlesTailLengths) {
  // Lengths around the 8-byte lane size exercise the tail path.
  std::vector<std::uint64_t> seen;
  const char data[32] = "0123456789abcdef0123456789abcde";
  for (std::size_t len = 0; len <= 17; ++len) {
    std::uint64_t h = hash_bytes(data, len);
    for (std::uint64_t prev : seen) EXPECT_NE(h, prev);
    seen.push_back(h);
  }
  EXPECT_NE(hash_bytes(data, 8, /*seed=*/1), hash_bytes(data, 8, /*seed=*/2));
}

// --- backends & ceiling ------------------------------------------------------

TEST_F(StorageTest, OwnedBackendExposesArrays) {
  auto s = GraphStorage::owned({0, 2, 3}, {1, 0, 0});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->backend(), GraphStorage::Backend::kHeap);
  EXPECT_EQ(s->bytes_mapped(), 0u);
  ASSERT_EQ(s->offsets().size(), 3u);
  EXPECT_EQ(s->offsets()[1], 2u);
  ASSERT_EQ(s->targets().size(), 3u);
  EXPECT_TRUE(s->weights().empty());
}

TEST_F(StorageTest, AllocateRejectsAbsurdClaims) {
  EXPECT_THROW(
      GraphStorage::allocate(std::uint64_t{1} << 60, 10, false, "test"),
      Error);
  EXPECT_THROW(
      GraphStorage::allocate(10, std::uint64_t{1} << 60, true, "test"),
      Error);
  EXPECT_FALSE(GraphStorage::check_footprint(std::uint64_t{1} << 60, 0, false,
                                             "test")
                   .ok());
  EXPECT_TRUE(GraphStorage::check_footprint(100, 1000, true, "test").ok());
}

TEST_F(StorageTest, MmapBackedGraphEqualsHeapBacked) {
  Graph g = gen::rmat(10, 8000, 31);
  auto path = temp_path("eq.pgr");
  write_pgr(g, path);
  Graph mapped = read_pgr(path, PgrOpen::kMmap);
  ASSERT_NE(mapped.storage(), nullptr);
  EXPECT_EQ(mapped.storage()->backend(), GraphStorage::Backend::kMmap);
  EXPECT_EQ(mapped.storage()->bytes_mapped(),
            std::filesystem::file_size(path));
  EXPECT_EQ(mapped, g);  // content equality across backends

  Graph copied = read_pgr(path, PgrOpen::kCopy);
  EXPECT_EQ(copied.storage()->backend(), GraphStorage::Backend::kHeap);
  EXPECT_EQ(copied, g);
}

TEST_F(StorageTest, MmapAndHeapGiveIdenticalBfsDistances) {
  Graph g = gen::rmat(10, 9000, 33);
  auto path = temp_path("bfs.pgr");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  write_pgr(g, path, opts);
  Graph mapped = read_pgr(path, PgrOpen::kMmap);
  Graph gt = g.transpose();
  Graph mt = mapped.transpose();
  EXPECT_EQ(pasgal_bfs(mapped, mt, {}).output, pasgal_bfs(g, gt, {}).output);
}

TEST_F(StorageTest, GraphCopiesShareStorage) {
  Graph g = gen::rmat(8, 1000, 35);
  Graph copy = g;
  EXPECT_EQ(copy.storage().get(), g.storage().get());
  EXPECT_EQ(copy.targets().data(), g.targets().data());
}

// --- hybrid backend (mmap file + decoded heap targets) -----------------------

TEST_F(StorageTest, CompressedOpenUsesHybridBackend) {
  Graph g = gen::rmat(10, 8000, 41);
  auto path = temp_path("hybrid.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  write_pgr(g, path, opts);
  Graph mapped = read_pgr(path, PgrOpen::kMmap);
  ASSERT_NE(mapped.storage(), nullptr);
  // Offsets stay zero-copy views into the mapping; decoded targets live on
  // the heap, outside the mapped byte range.
  EXPECT_EQ(mapped.storage()->backend(), GraphStorage::Backend::kMmap);
  EXPECT_EQ(mapped.storage()->bytes_mapped(),
            std::filesystem::file_size(path));
  const char* map_begin = static_cast<const char*>(
      static_cast<const void*>(mapped.offsets().data()));
  const char* tgt = static_cast<const char*>(
      static_cast<const void*>(mapped.targets().data()));
  std::uint64_t span = mapped.storage()->bytes_mapped();
  bool inside = tgt >= map_begin - 192 && tgt < map_begin + span;
  EXPECT_FALSE(inside) << "decoded targets should not alias the mapping";
  EXPECT_EQ(mapped, g);
}

TEST_F(StorageTest, CompressedOpenIsPreValidated) {
  // A successful decode proves the full CSR contract, so algorithms must
  // not pay a second validation pass.
  Graph g = gen::rmat(9, 4000, 43);
  auto path = temp_path("preval.pgr");
  PgrWriteOptions opts;
  opts.compress_targets = true;
  write_pgr(g, path, opts);
  Graph mapped = read_pgr(path, PgrOpen::kMmap);
  ASSERT_NE(mapped.storage(), nullptr);
  EXPECT_TRUE(mapped.storage()->validated());
}

TEST_F(StorageTest, ValidatedFlagPerBackend) {
  // In-process builders are trusted; raw mmap opens are not until a deep
  // pass (or ensure_validated) runs.
  Graph built = gen::rmat(8, 1000, 45);
  ASSERT_NE(built.storage(), nullptr);
  EXPECT_TRUE(built.storage()->validated());

  auto path = temp_path("flag.pgr");
  write_pgr(built, path);
  Graph lazy = read_pgr(path, PgrOpen::kMmap);
  EXPECT_FALSE(lazy.storage()->validated());
  Graph deep = read_pgr(path, PgrOpen::kMmap, /*validate=*/true);
  EXPECT_TRUE(deep.storage()->validated());
  Graph copied = read_pgr(path, PgrOpen::kCopy);
  EXPECT_TRUE(copied.storage()->validated());

  lazy.ensure_validated();
  EXPECT_TRUE(lazy.storage()->validated());
}

// --- transpose memoization ---------------------------------------------------

TEST_F(StorageTest, TransposeIsMemoizedPerStorage) {
  Graph g = gen::rmat(9, 4000, 37);
  Graph t1 = g.transpose();
  Graph t2 = g.transpose();
  ASSERT_NE(t1.storage(), nullptr);
  EXPECT_EQ(t1.storage().get(), t2.storage().get());
  EXPECT_EQ(t1.targets().data(), t2.targets().data());
  // Copies share the handle, hence the cache.
  Graph copy = g;
  EXPECT_EQ(copy.transpose().storage().get(), t1.storage().get());
  // And the cache is correct.
  EXPECT_EQ(t1.transpose(), g);
}

TEST_F(StorageTest, EmbeddedTransposePrePopulatesCache) {
  Graph g = gen::rmat(9, 5000, 39);
  auto path = temp_path("cache.pgr");
  PgrWriteOptions opts;
  opts.include_transpose = true;
  write_pgr(g, path, opts);
  Graph mapped = read_pgr(path, PgrOpen::kMmap);
  Graph t = mapped.transpose();
  // The transpose came from the file's sections, not a rebuild: it is
  // mmap-backed and shares the same mapping byte count.
  ASSERT_NE(t.storage(), nullptr);
  EXPECT_EQ(t.storage()->backend(), GraphStorage::Backend::kMmap);
  EXPECT_EQ(t.storage()->bytes_mapped(), mapped.storage()->bytes_mapped());
  EXPECT_EQ(t, g.transpose());
}

TEST_F(StorageTest, SetTransposeCacheIsFirstWins) {
  auto s = GraphStorage::owned({0, 1}, {0});
  auto a = GraphStorage::owned({0, 1}, {0});
  auto b = GraphStorage::owned({0, 1}, {0});
  EXPECT_EQ(s->transpose_cache(), nullptr);
  EXPECT_EQ(s->set_transpose_cache(a).get(), a.get());
  // Second publish loses; everyone converges on the first result.
  EXPECT_EQ(s->set_transpose_cache(b).get(), a.get());
  EXPECT_EQ(s->transpose_cache().get(), a.get());
}

// --- MappedFile --------------------------------------------------------------

TEST_F(StorageTest, MappedFileReadsWholeFile) {
  auto path = temp_path("raw.bin");
  std::string payload = "mapped file payload: 0123456789";
  std::ofstream(path, std::ios::binary) << payload;
  MappedFile map = MappedFile::open(path);
  ASSERT_TRUE(map.valid());
  ASSERT_EQ(map.size(), payload.size());
  EXPECT_EQ(std::memcmp(map.data(), payload.data(), payload.size()), 0);
}

TEST_F(StorageTest, MappedFileMissingFileThrows) {
  EXPECT_THROW(MappedFile::open(temp_path("nope.bin")), Error);
}

}  // namespace
}  // namespace pasgal
