// Composed runs: variants that run other variants inside their own run
// (fast/gbbs BCC over connected_components, batch_sssp over stepping_sssp)
// record the inner runs into the outer run's tracer, and run_traced resets a
// caller-owned tracer once per outermost run. The totals are pinned at 1
// worker on fixed graphs, so a nested run that resets or drops the outer
// tracer changes them.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "algorithms/bcc/bcc.h"
#include "algorithms/cc/cc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"
#include "parlay/scheduler.h"

namespace pasgal {
namespace {

// A run's totals: rounds, edges scanned, vertices visited.
using Work = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;

Work work(const RunTelemetry& t) {
  return {t.rounds.size(), t.edges_scanned, t.vertices_visited};
}

class ComposedRuns : public ::testing::Test {
 protected:
  void SetUp() override { Scheduler::reset(1); }

  Graph g = gen::road_grid(30, 30, 0.8, 3).symmetrize();
  // A tree: every vertex settles once along its only path, so the stepping
  // runs' work does not depend on hash-bag extraction order.
  WeightedGraph<std::uint32_t> tree =
      gen::add_weights(gen::binary_tree(4095), 100, 5);
  std::vector<VertexId> sources = {0, 5, 17, 99};
};

TEST_F(ComposedRuns, BccIncludesItsConnectedComponentsRun) {
  RunTelemetry cc = connected_components(g, {}).telemetry;
  ASSERT_EQ(cc.rounds.size(), 1u);
  for (auto bcc : {fast_bcc, gbbs_bcc}) {
    RunTelemetry t = bcc(g, {}).telemetry;
    // The spanning-forest connected_components run is the first round.
    ASSERT_FALSE(t.rounds.empty());
    EXPECT_EQ(t.rounds[0].frontier, cc.rounds[0].frontier);
    EXPECT_EQ(t.rounds[0].edges, cc.rounds[0].edges);
    EXPECT_GT(t.edges_scanned, cc.edges_scanned);
  }
  EXPECT_EQ(work(fast_bcc(g, {}).telemetry), Work(6, 10380, 1800));
  EXPECT_EQ(work(gbbs_bcc(g, {}).telemetry), Work(65, 13860, 2700));
}

TEST_F(ComposedRuns, BatchSsspSumsItsSourcesSteppingRuns) {
  Work batch = work(batch_sssp(tree, {.sources = sources}).telemetry);
  Work sum;
  for (VertexId s : sources) {
    Work one = work(stepping_sssp(tree, {.source = s}).telemetry);
    std::get<0>(sum) += std::get<0>(one);
    std::get<1>(sum) += std::get<1>(one);
    std::get<2>(sum) += std::get<2>(one);
  }
  EXPECT_EQ(batch, sum);
  EXPECT_EQ(batch, Work(14, 32752, 16380));
}

TEST_F(ComposedRuns, SharedTracerResetsOncePerOuterRun) {
  Tracer shared;
  auto rounds = [](const RunTelemetry& t) {
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> out;
    for (const RoundTrace& r : t.rounds) {
      out.emplace_back(r.frontier, r.edges, r.visits);
    }
    return out;
  };
  RunTelemetry a = fast_bcc(g, {.tracer = &shared}).telemetry;
  RunTelemetry b = fast_bcc(g, {.tracer = &shared}).telemetry;
  EXPECT_EQ(rounds(a), rounds(b));
  EXPECT_EQ(shared.rounds(), b.rounds.size());

  BatchOptions opt{.sources = sources, .algo = {.tracer = &shared}};
  RunTelemetry c = batch_sssp(tree, opt).telemetry;
  RunTelemetry d = batch_sssp(tree, opt).telemetry;
  EXPECT_EQ(rounds(c), rounds(d));
  EXPECT_EQ(shared.rounds(), d.rounds.size());
}

}  // namespace
}  // namespace pasgal
