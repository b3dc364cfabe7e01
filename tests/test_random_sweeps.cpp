// Randomized differential sweep: for a grid of (generator, seed) inputs,
// every parallel algorithm must agree with its sequential reference. This is
// the library's broadest property net — each case exercises the full
// pipeline (generator -> CSR -> algorithm -> normalization).
#include <gtest/gtest.h>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int workers;
};

class RandomSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam().workers); }
  void TearDown() override { Scheduler::reset(1); }

  // A different random digraph per seed: size, density and shape all vary.
  Graph make_digraph() const {
    std::uint64_t s = GetParam().seed;
    std::size_t n = 200 + hash64(s) % 1800;
    std::size_t m = n + hash64(s + 1) % (6 * n);
    switch (hash64(s + 2) % 3) {
      case 0:
        return gen::random_graph(n, m, s);
      case 1:
        return gen::rmat(11, m, s);
      default:
        return gen::road_grid(10 + hash64(s + 3) % 30, 10 + hash64(s + 4) % 50,
                              0.5 + (hash64(s + 5) % 40) / 100.0, s);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep,
                         ::testing::Values(SweepCase{1, 1}, SweepCase{2, 1},
                                           SweepCase{3, 4}, SweepCase{4, 1},
                                           SweepCase{5, 4}, SweepCase{6, 1},
                                           SweepCase{7, 4}, SweepCase{8, 1},
                                           SweepCase{9, 4}, SweepCase{10, 1},
                                           SweepCase{11, 4}, SweepCase{12, 4}));

TEST_P(RandomSweep, BfsAgreement) {
  Graph g = make_digraph();
  Graph gt = g.transpose();
  VertexId src = static_cast<VertexId>(hash64(GetParam().seed + 10) % g.num_vertices());
  auto expected = seq_bfs(g, {.source = src}).output;
  EXPECT_EQ(pasgal_bfs(g, gt, {.source = src}).output, expected);
  EXPECT_EQ(gbbs_bfs(g, gt, {.source = src}).output, expected);
  EXPECT_EQ(gapbs_bfs(g, gt, {.source = src}).output, expected);
}

TEST_P(RandomSweep, SccAgreement) {
  Graph g = make_digraph();
  Graph gt = g.transpose();
  auto expected = normalize_scc_labels(tarjan_scc(g, {}).output);
  EXPECT_EQ(normalize_scc_labels(pasgal_scc(g, gt, {}).output), expected);
  EXPECT_EQ(normalize_scc_labels(gbbs_scc(g, gt, {}).output), expected);
  EXPECT_EQ(normalize_scc_labels(multistep_scc(g, gt, {}).output), expected);
}

TEST_P(RandomSweep, BccAgreement) {
  Graph g = make_digraph().symmetrize();
  auto expected =
      normalize_bcc_labels(hopcroft_tarjan_bcc(g, {}).output.edge_label);
  EXPECT_EQ(normalize_bcc_labels(fast_bcc(g, {}).output.edge_label), expected);
  EXPECT_EQ(normalize_bcc_labels(gbbs_bcc(g, {}).output.edge_label), expected);
  EXPECT_EQ(normalize_bcc_labels(tarjan_vishkin_bcc(g, {}).output.edge_label),
            expected);
}

TEST_P(RandomSweep, SsspAgreement) {
  auto g = gen::add_weights(make_digraph(), 100, GetParam().seed + 20);
  VertexId src = static_cast<VertexId>(hash64(GetParam().seed + 21) % g.num_vertices());
  auto expected = dijkstra(g, {.source = src}).output;
  EXPECT_EQ(stepping_sssp(g, {.source = src}).output, expected);
  EXPECT_EQ(stepping_sssp(
                g, {.source = src, .sssp_delta_mode = true, .sssp_delta = 64})
                .output,
            expected);
  EXPECT_EQ(bellman_ford(g, {.source = src}).output, expected);
}

TEST_P(RandomSweep, KcoreAndCcAgreement) {
  Graph g = make_digraph().symmetrize();
  EXPECT_EQ(pasgal_kcore(g, {}).output, seq_kcore(g, {}).output);
  EXPECT_EQ(label_prop_cc(g, {}).output,
            connected_components(g, {}).output.label);
}

}  // namespace
}  // namespace pasgal
