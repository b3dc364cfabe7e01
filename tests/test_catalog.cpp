// Catalog agreement: on small generated graphs every catalog row that takes
// one source or none agrees with its family's oracle row (algo_oracle)
// through answer_mismatch, and the comparator rejects planted wrong answers:
// a changed distance, a split component, a moved PageRank rank.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <string_view>

#include "algorithms/catalog.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

struct Case {
  const char* name;
  std::function<Graph()> build;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

const Case kCases[] = {
    {"rmat", [] { return gen::rmat(10, 8000, 7); }},
    {"road_grid", [] { return gen::road_grid(24, 24, 0.85, 3); }},
    {"chain", [] { return gen::chain(1500); }},
    {"bubbles", [] { return gen::bubbles(20, 12); }},
};

AlgoRun run_row(const AlgoSpec& row, const Graph& g,
                const WeightedGraph<std::uint32_t>& wg, bool summarize = true) {
  PreparedInput in(row, g, &wg);
  in.args.summarize = summarize;
  AlgoOptions opt;
  opt.source = 1;
  return row.run(in.args, opt);
}

AlgoAnswer answer_of(std::string_view family, std::string_view name,
                     const Graph& g) {
  auto wg = gen::add_weights(g, 1000, 42);
  return run_row(algo_spec(family, name), g, wg).answer;
}

class CatalogAgreement : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Graphs, CatalogAgreement, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

TEST_P(CatalogAgreement, EveryRowMatchesItsOracle) {
  Graph g = GetParam().build();
  auto wg = gen::add_weights(g, 1000, 42);
  int checked = 0;
  for (const AlgoSpec& row : algo_catalog()) {
    if (row.sources == AlgoSources::kBatch) continue;
    const AlgoSpec& oracle = algo_oracle(row.family);
    if (&row == &oracle) continue;
    AlgoAnswer want = run_row(oracle, g, wg).answer;
    AlgoAnswer got = run_row(row, g, wg).answer;
    ASSERT_FALSE(want.values.empty()) << row.family;
    EXPECT_EQ(answer_mismatch(row.family, want, got), "")
        << row.family << "/" << row.name << " vs " << oracle.name;
    ++checked;
  }
  EXPECT_EQ(checked, 18);  // 26 single/whole-graph rows less 8 oracles
}

TEST(CatalogAnswer, OnlySummarizedRunsCarryAnAnswer) {
  Graph g = gen::chain(100);
  auto wg = gen::add_weights(g, 1000, 42);
  AlgoRun quiet = run_row(algo_spec("bfs", "gbbs"), g, wg, false);
  EXPECT_TRUE(quiet.answer.values.empty());
  EXPECT_TRUE(quiet.summary.empty());
  AlgoRun loud = run_row(algo_spec("bfs", "gbbs"), g, wg);
  EXPECT_EQ(loud.answer.values.size(), 100u);
}

TEST(CatalogAnswer, RejectsAChangedDistance) {
  Graph g = gen::road_grid(24, 24, 0.85, 3);
  for (const char* family : {"bfs", "sssp"}) {
    AlgoAnswer want = answer_of(family, "seq", g);
    AlgoAnswer got = want;
    EXPECT_EQ(answer_mismatch(family, want, got), "");
    got.values[17] += 1;
    EXPECT_NE(answer_mismatch(family, want, got), "") << family;
  }
  AlgoAnswer core = answer_of("kcore", "seq", g);
  AlgoAnswer bumped = core;
  bumped.values.back() += 1;
  EXPECT_NE(answer_mismatch("kcore", core, bumped), "");
  AlgoAnswer tri = answer_of("tc", "seq", gen::rmat(10, 8000, 7));
  AlgoAnswer more = tri;
  more.values[0] += 1;
  EXPECT_NE(answer_mismatch("tc", tri, more), "");
}

TEST(CatalogAnswer, ComparesPartitionsNotLabelIds) {
  Graph g = gen::chain(50);  // one component, one SCC, 49 BCCs
  for (const char* family : {"cc", "scc", "bcc"}) {
    AlgoAnswer want = answer_of(family, algo_oracle(family).name, g);
    AlgoAnswer renamed = want;
    for (auto& label : renamed.values) label += 1000;
    EXPECT_EQ(answer_mismatch(family, want, renamed), "") << family;
  }
  // Split the chain's one component: its last vertex gets a fresh label.
  AlgoAnswer cc = answer_of("cc", "uf", g);
  AlgoAnswer split = cc;
  split.values.back() = 12345;
  EXPECT_NE(answer_mismatch("cc", cc, split), "");
  // Merge two of the chain's bridges into one biconnected component.
  AlgoAnswer bcc = answer_of("bcc", "seq", g);
  AlgoAnswer merged = bcc;
  merged.values[0] = merged.values[2];
  EXPECT_NE(answer_mismatch("bcc", bcc, merged), "");
  // A cycle is one SCC; give one vertex its own.
  AlgoAnswer scc = answer_of("scc", "seq", gen::cycle(30));
  AlgoAnswer apart = scc;
  apart.values[4] = 999;
  EXPECT_NE(answer_mismatch("scc", scc, apart), "");
}

TEST(CatalogAnswer, PagerankAgreesWithinL1OneInABillion) {
  AlgoAnswer want = answer_of("pagerank", "seq", gen::rmat(10, 8000, 7));
  ASSERT_FALSE(want.rank.empty());
  AlgoAnswer near = want;
  near.rank[3] += 1e-12;
  EXPECT_EQ(answer_mismatch("pagerank", want, near), "");
  AlgoAnswer moved = want;
  moved.rank[3] += 2e-9;
  EXPECT_NE(answer_mismatch("pagerank", want, moved), "");
  AlgoAnswer longer = want;
  longer.values[0] += 1;
  EXPECT_NE(answer_mismatch("pagerank", want, longer), "");
}

}  // namespace
}  // namespace pasgal
