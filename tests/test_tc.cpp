// Triangle counting: both kernels against a brute-force triple loop, known
// closed-form counts, a skewed star+clique graph, marker-row hygiene across
// back-to-back graphs, reproducible work counters across worker counts, and
// the dag/count phase split in the metrics document.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algorithms/tc/tc.h"
#include "graphs/generators.h"
#include "pasgal/error.h"

namespace pasgal {
namespace {

class TcTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, TcTest, ::testing::Values(1, 4));

// O(n^3) reference: count unordered vertex triples that are pairwise
// adjacent in the symmetrized graph.
std::uint64_t brute_force_tc(const Graph& g) {
  std::size_t n = g.num_vertices();
  std::vector<std::set<VertexId>> adj(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u != v) adj[u].insert(v);
    }
  }
  std::uint64_t count = 0;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b : adj[a]) {
      if (b <= a) continue;
      for (VertexId c : adj[b]) {
        if (c <= b) continue;
        if (adj[a].count(c)) ++count;
      }
    }
  }
  return count;
}

std::vector<std::pair<std::string, Graph>> tc_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("edgeless", Graph::from_edges(5, {}));
  cases.emplace_back("triangle", gen::cycle(3).symmetrize());
  cases.emplace_back("square", gen::cycle(4).symmetrize());
  cases.emplace_back("chain", gen::chain(100));
  cases.emplace_back("star", gen::star(60));
  cases.emplace_back("tree", gen::binary_tree(255));
  cases.emplace_back("grid", gen::rectangle_grid(12, 15));
  cases.emplace_back("k4", gen::complete(4).symmetrize());
  cases.emplace_back("clique", gen::complete(16).symmetrize());
  cases.emplace_back("rmat", gen::rmat(9, 8000, 3).symmetrize());
  cases.emplace_back("random", gen::random_graph(400, 3000, 5).symmetrize());
  cases.emplace_back("knn", gen::knn_graph(500, 4, 7).symmetrize());
  // pasgal_tc marks DAG lists in one 64-bit-word row per worker: cliques
  // whose ids end just before, on and just after a word boundary, and an n
  // that leaves the last word partly used. A bit left set by one source or
  // one graph miscounts a later one, since the cases run back to back.
  cases.emplace_back("clique63", gen::complete(63).symmetrize());
  cases.emplace_back("clique64", gen::complete(64).symmetrize());
  cases.emplace_back("clique65", gen::complete(65).symmetrize());
  cases.emplace_back("random_n203",
                     gen::random_graph(203, 1500, 11).symmetrize());
  return cases;
}

TEST_P(TcTest, MatchesBruteForce) {
  for (const auto& [name, g] : tc_graphs()) {
    std::uint64_t expected = brute_force_tc(g);
    EXPECT_EQ(seq_tc(g, {}).output, expected) << name;
    EXPECT_EQ(pasgal_tc(g, {}).output, expected) << name;
  }
}

TEST_P(TcTest, KnownCounts) {
  // Triangle-free families count zero; K_n counts n-choose-3.
  EXPECT_EQ(pasgal_tc(gen::cycle(3).symmetrize(), {}).output, 1u);
  EXPECT_EQ(pasgal_tc(gen::complete(4).symmetrize(), {}).output, 4u);
  // C(10,3) triangles.
  EXPECT_EQ(pasgal_tc(gen::complete(10).symmetrize(), {}).output, 120u);
  EXPECT_EQ(pasgal_tc(gen::rectangle_grid(10, 10), {}).output, 0u);
  EXPECT_EQ(pasgal_tc(gen::binary_tree(127), {}).output, 0u);
  EXPECT_EQ(pasgal_tc(gen::star(30), {}).output, 0u);
}

TEST_P(TcTest, SkewedHubAndClique) {
  // A clique whose every vertex also touches a huge star center: the
  // center's degree dwarfs the clique's, so it ranks last and every clique
  // vertex's DAG list ends in it, while the leaves' lists hold only the
  // center. Triangles: C(k,3) inside the clique plus C(k,2) through the
  // center.
  constexpr VertexId k = 12;
  constexpr VertexId leaves = 400;
  std::vector<Edge> e;
  for (VertexId i = 0; i < k; ++i) {
    for (VertexId j = i + 1; j < k; ++j) e.push_back({i, j});
  }
  VertexId center = k;
  for (VertexId i = 0; i < k; ++i) e.push_back({i, center});
  for (VertexId l = 0; l < leaves; ++l) {
    e.push_back({center, static_cast<VertexId>(k + 1 + l)});
  }
  Graph g = Graph::from_edges(k + 1 + leaves, e).symmetrize();
  std::uint64_t expected = 220u + 66u;  // C(12,3) + C(12,2)
  EXPECT_EQ(brute_force_tc(g), expected);
  EXPECT_EQ(seq_tc(g, {}).output, expected);
  EXPECT_EQ(pasgal_tc(g, {}).output, expected);
}

TEST_P(TcTest, SelfLoopsIgnored) {
  std::vector<Edge> e = {{0, 1}, {1, 2}, {0, 2}, {0, 0}, {2, 2}};
  Graph g = Graph::from_edges(3, e).symmetrize();
  EXPECT_EQ(seq_tc(g, {}).output, 1u);
  EXPECT_EQ(pasgal_tc(g, {}).output, 1u);
}

TEST(TcCancel, ExpiredDeadlineUnwinds) {
  // Enough DAG sources for several 1<<16 blocks? Not needed: the token is
  // checked before the first block too, so any graph unwinds immediately.
  Graph g = gen::rmat(10, 20000, 3).symmetrize();
  CancelToken token;
  token.set_deadline_ms(0);
  try {
    pasgal_tc(g, {.cancel = &token});
    FAIL() << "expired deadline did not cancel the run";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
  }
}

TEST(TcContract, ModernEntryPointsRecordTriangleRounds) {
  Graph g = gen::rmat(9, 8000, 5).symmetrize();
  AlgoOptions opt;
  Tracer tracer;
  opt.tracer = &tracer;
  RunReport<std::uint64_t> par = pasgal_tc(g, opt);
  RunReport<std::uint64_t> seq = seq_tc(g, opt);
  EXPECT_EQ(par.output, seq.output);
  EXPECT_EQ(par.output, brute_force_tc(g));
}

TEST(TcWork, CountersRepeatAcrossWorkersAndRuns) {
  // Work counters are a function of the graph alone: each source reads its
  // own DAG list once and each DAG neighbour's list once, whatever worker
  // runs it, and the 2^16-source blocks fix the round count.
  Graph g = gen::rmat(12, 40000).symmetrize();
  RunReport<std::uint64_t> ref = pasgal_tc(g, {});
  EXPECT_EQ(ref.output, seq_tc(g));
  EXPECT_GT(ref.telemetry.edges_scanned, 0u);
  for (int workers : {1, 2, 4}) {
    Scheduler::reset(workers);
    for (int rep = 0; rep < 3; ++rep) {
      RunReport<std::uint64_t> r = pasgal_tc(g, {});
      EXPECT_EQ(r.output, ref.output) << workers << " workers";
      EXPECT_EQ(r.telemetry.edges_scanned, ref.telemetry.edges_scanned)
          << workers << " workers";
      EXPECT_EQ(r.telemetry.rounds.size(), ref.telemetry.rounds.size())
          << workers << " workers";
    }
  }
  Scheduler::reset(1);
}

TEST(TcPhases, DagAndCountSplitTheTrial) {
  Graph g = gen::rmat(11, 20000, 9).symmetrize();
  RunReport<std::uint64_t> r = pasgal_tc(g, {});
  MetricsDoc doc("tc", "pasgal", "rmat:11:20000:9", g.num_vertices(),
                 g.num_edges());
  doc.set_param("triangles", r.output);
  doc.add_trial(r.seconds, r.telemetry);
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());
  Status valid = validate_metrics(parsed);
  ASSERT_TRUE(valid.ok()) << valid.to_string();
  const json::Value& trial = parsed.find("trials")->array.at(0);
  const json::Value* phases = trial.find("telemetry")->find("phases");
  ASSERT_NE(phases, nullptr);
  std::vector<std::string> names;
  double sum_ns = 0;
  for (const json::Value& p : phases->array) {
    names.push_back(p.find("name")->str);
    sum_ns += p.find("ns")->number;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"dag", "count"}));
  EXPECT_LE(sum_ns / 1e9, trial.find("seconds")->number);
}

}  // namespace
}  // namespace pasgal
