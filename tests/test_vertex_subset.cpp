// Tests for the VertexSubset frontier representation.
#include <gtest/gtest.h>

#include "graphs/generators.h"
#include "pasgal/vertex_subset.h"

namespace pasgal {
namespace {

TEST(VertexSubset, EmptySubset) {
  auto s = VertexSubset::empty(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.universe_size(), 10u);
  EXPECT_FALSE(s.contains(3));
}

TEST(VertexSubset, SingleVertex) {
  auto s = VertexSubset::single(100, 42);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(42));
  EXPECT_FALSE(s.contains(41));
}

TEST(VertexSubset, SparseToDenseRoundTrip) {
  auto s = VertexSubset::sparse(50, {3, 7, 11, 49});
  EXPECT_FALSE(s.is_dense());
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 4u);
  for (VertexId v : {3, 7, 11, 49}) EXPECT_TRUE(s.contains(static_cast<VertexId>(v)));
  EXPECT_FALSE(s.contains(4));
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{3, 7, 11, 49}));
}

TEST(VertexSubset, DenseConstruction) {
  std::vector<std::uint8_t> mask(20, 0);
  mask[2] = mask[4] = mask[19] = 1;
  auto s = VertexSubset::dense(std::move(mask));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.is_dense());
  s.to_sparse();
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{2, 4, 19}));
}

TEST(VertexSubset, ConversionIsIdempotent) {
  auto s = VertexSubset::sparse(30, {1, 2});
  s.to_sparse();  // no-op
  EXPECT_EQ(s.size(), 2u);
  s.to_dense();
  s.to_dense();  // no-op
  EXPECT_EQ(s.size(), 2u);
}

TEST(VertexSubset, OutDegreeSumMatchesBothRepresentations) {
  Graph g = gen::rmat(10, 8000, 3);
  auto verts = std::vector<VertexId>{0, 5, 100, 500, 1000};
  EdgeId expected = 0;
  for (VertexId v : verts) expected += g.out_degree(v);
  auto sparse = VertexSubset::sparse(g.num_vertices(), verts);
  EXPECT_EQ(sparse.out_degree_sum(g), expected);
  sparse.to_dense();
  EXPECT_EQ(sparse.out_degree_sum(g), expected);
}

TEST(VertexSubset, SparseContainsUsesSortedOrder) {
  // sparse() sorts unsorted input so contains() can binary-search; the
  // exposed vertex list must come back in ascending order.
  auto s = VertexSubset::sparse(100, {42, 7, 99, 0, 13});
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{0, 7, 13, 42, 99}));
  for (VertexId v : {0, 7, 13, 42, 99}) EXPECT_TRUE(s.contains(v));
  for (VertexId v : {1, 6, 8, 43, 98}) EXPECT_FALSE(s.contains(v));
}

TEST(VertexSubset, SparseContainsAgreesWithDense) {
  Random rng(21);
  std::vector<VertexId> verts;
  for (std::size_t i = 0; i < 200; ++i) {
    verts.push_back(static_cast<VertexId>(rng.ith_rand(i) % 5000));
  }
  auto sparse = VertexSubset::sparse(5000, verts);
  auto dense = VertexSubset::sparse(5000, verts);
  dense.to_dense();
  for (VertexId v = 0; v < 5000; ++v) {
    EXPECT_EQ(sparse.contains(v), dense.contains(v)) << "vertex " << v;
  }
}

// --- duplicate handling ------------------------------------------------------
// Hash-bag extractions are multisets (several neighbors can insert the same
// vertex in one round). sparse() must deduplicate, or size() and
// out_degree_sum() overstate — and to_dense() then disagrees with the
// sparse representation about the frontier's cardinality, skewing
// edge_map's sparse/dense direction decision.

TEST(VertexSubset, SparseDeduplicatesMultisetInput) {
  auto s = VertexSubset::sparse(50, {7, 3, 7, 7, 11, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{3, 7, 11}));
}

TEST(VertexSubset, SparseDeduplicatesSortedInput) {
  // Already-sorted input skips the sort; dedup must still run.
  auto s = VertexSubset::sparse(10, {1, 1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{1, 2, 3}));
}

TEST(VertexSubset, SparseSortsLongMultisetInParallel) {
  // A label-correcting round's frontier: unsorted, full of duplicates, and
  // past kSortBase, so sparse() takes the parallel merge sort.
  Scheduler::reset(4);
  constexpr std::size_t kUniverse = 50000;
  std::vector<VertexId> input;
  for (std::size_t i = 0; i < 4 * kUniverse; ++i) {
    input.push_back(static_cast<VertexId>((i * 7919) % kUniverse / 3 * 3));
  }
  ASSERT_GT(input.size(), internal::kSortBase);
  std::vector<VertexId> want = input;
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  auto s = VertexSubset::sparse(kUniverse, std::move(input));
  EXPECT_EQ(s.sparse_vertices(), want);
  EXPECT_EQ(s.size(), want.size());
  Scheduler::reset(1);
}

TEST(VertexSubset, DuplicateHeavyFrontierSameSizeInBothRepresentations) {
  std::vector<VertexId> dups;
  for (int round = 0; round < 4; ++round) {
    for (VertexId v : {2, 9, 9, 17, 2, 30}) dups.push_back(v);
  }
  auto s = VertexSubset::sparse(40, dups);
  std::size_t sparse_size = s.size();
  EXPECT_EQ(sparse_size, 4u);
  s.to_dense();
  EXPECT_EQ(s.size(), sparse_size)
      << "to_dense must not change the frontier's cardinality";
  s.to_sparse();
  EXPECT_EQ(s.size(), sparse_size);
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{2, 9, 17, 30}));
}

TEST(VertexSubset, OutDegreeSumCountsDuplicatesOnce) {
  Graph g = gen::rmat(10, 8000, 3);
  std::vector<VertexId> verts{0, 5, 100, 5, 500, 100, 1000, 0, 0};
  EdgeId expected = 0;
  for (VertexId v : {0, 5, 100, 500, 1000}) expected += g.out_degree(v);
  auto s = VertexSubset::sparse(g.num_vertices(), verts);
  EXPECT_EQ(s.out_degree_sum(g), expected);
  s.to_dense();
  EXPECT_EQ(s.out_degree_sum(g), expected)
      << "the density signal must agree across representations";
}

TEST(VertexSubset, ContainsOutOfUniverseIsFalse) {
  // Stray ids (unvalidated graph targets, kInvalidVertex sentinels) must
  // read as absent rather than indexing past the mask / list.
  auto dense = VertexSubset::sparse(20, {3, 7});
  dense.to_dense();
  auto sparse = VertexSubset::sparse(20, {3, 7});
  for (VertexId v : {VertexId{20}, VertexId{1000}, kInvalidVertex}) {
    EXPECT_FALSE(dense.contains(v));
    EXPECT_FALSE(sparse.contains(v));
  }
  EXPECT_FALSE(VertexSubset::empty(0).contains(0));
}

TEST(VertexSubset, SparseRejectsOutOfUniverseIds) {
  // Every member must be < n: an out-of-universe id would ride the sorted
  // invariant into to_dense()'s unchecked mask write. sparse() validates on
  // the sorted maximum, so the stray id is caught wherever it appears.
  try {
    VertexSubset::sparse(10, {3, 10});
    FAIL() << "sparse() accepted vertex 10 in a universe of 10";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
    EXPECT_NE(std::string(e.what()).find("10"), std::string::npos);
  }
  EXPECT_THROW(VertexSubset::sparse(5, {kInvalidVertex}), Error);
  EXPECT_THROW(VertexSubset::sparse(0, {0}), Error);
  EXPECT_THROW(VertexSubset::sparse(10, {99, 1}), Error)
      << "unsorted input must be validated after the sort";
  EXPECT_THROW(VertexSubset::single(7, 7), Error);
  // The boundary ids themselves are fine.
  EXPECT_NO_THROW(VertexSubset::sparse(10, {0, 9}));
}

TEST(VertexSubset, DenseTrustedCountSkipsRecount) {
  std::vector<std::uint8_t> mask(30, 0);
  mask[1] = mask[8] = mask[29] = 1;
  auto s = VertexSubset::dense(std::move(mask), 3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(8));
  s.to_sparse();
  EXPECT_EQ(s.sparse_vertices(), (std::vector<VertexId>{1, 8, 29}));
  EXPECT_EQ(s.size(), 3u);
}

TEST(VertexSubset, LargeSubsetCount) {
  Scheduler::reset(4);
  std::vector<std::uint8_t> mask(100000);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 1;
  auto s = VertexSubset::dense(std::move(mask));
  EXPECT_EQ(s.size(), 33334u);
  Scheduler::reset(1);
}

}  // namespace
}  // namespace pasgal
