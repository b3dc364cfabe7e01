// Telemetry subsystem: round traces, scheduler counter deltas, JSON
// round-trip, and the metrics-document schema contract.
#include <gtest/gtest.h>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"
#include "parlay/parallel.h"
#include "pasgal/telemetry.h"

namespace pasgal {
namespace {

class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override { Scheduler::reset(4); }
  void TearDown() override { Scheduler::reset(1); }
};

// --- round traces -----------------------------------------------------------

TEST_F(Telemetry, RoundTraceRecordsDeltasAndCumulatives) {
  Tracer t;
  t.add_edges(10);
  t.add_visits(3);
  t.end_round(5, RoundKind::kSparse);
  t.add_edges(7);
  t.end_round(2, RoundKind::kDense);
  RunTelemetry agg = t.aggregate();
  ASSERT_EQ(agg.rounds.size(), 2u);
  EXPECT_EQ(agg.rounds[0].index, 0u);
  EXPECT_EQ(agg.rounds[0].frontier, 5u);
  EXPECT_EQ(agg.rounds[0].kind, RoundKind::kSparse);
  EXPECT_EQ(agg.rounds[0].edges, 10u);
  EXPECT_EQ(agg.rounds[0].visits, 3u);
  EXPECT_EQ(agg.rounds[0].cum_edges, 10u);
  EXPECT_EQ(agg.rounds[1].kind, RoundKind::kDense);
  EXPECT_EQ(agg.rounds[1].edges, 7u);
  EXPECT_EQ(agg.rounds[1].cum_edges, 17u);
  EXPECT_EQ(agg.rounds[1].cum_visits, 3u);
  EXPECT_EQ(agg.edges_scanned, 17u);
  EXPECT_EQ(agg.max_frontier, 5u);
}

TEST_F(Telemetry, PendingKindConsumedByEndRound) {
  Tracer t;
  t.set_round_kind(RoundKind::kDense);
  t.end_round(1);
  t.end_round(1);  // pending kind was consumed: defaults back to sparse
  RunTelemetry agg = t.aggregate();
  ASSERT_EQ(agg.rounds.size(), 2u);
  EXPECT_EQ(agg.rounds[0].kind, RoundKind::kDense);
  EXPECT_EQ(agg.rounds[1].kind, RoundKind::kSparse);
}

TEST_F(Telemetry, LegacyInterfaceStillWorks) {
  Tracer t;
  t.add_edges(4);
  t.add_visits(2);
  t.end_round(9);
  EXPECT_EQ(t.edges_scanned(), 4u);
  EXPECT_EQ(t.vertices_visited(), 2u);
  EXPECT_EQ(t.rounds(), 1u);
  EXPECT_EQ(t.max_frontier(), 9u);
  t.reset();
  EXPECT_EQ(t.edges_scanned(), 0u);
  EXPECT_EQ(t.rounds(), 0u);
}

TEST_F(Telemetry, ParallelHotCountersAreExact) {
  Tracer t;
  parallel_for(0, 50000, [&](std::size_t) {
    t.add_edges(1);
    t.add_visits(2);
  });
  EXPECT_EQ(t.edges_scanned(), 50000u);
  EXPECT_EQ(t.vertices_visited(), 100000u);
}

TEST_F(Telemetry, DepthHistogramBucketsByLog2) {
  Tracer t;
  t.add_local_depth(0);   // bucket 0
  t.add_local_depth(1);   // bucket 1
  t.add_local_depth(2);   // bucket 2
  t.add_local_depth(3);   // bucket 2
  t.add_local_depth(4);   // bucket 3
  RunTelemetry agg = t.aggregate();
  EXPECT_EQ(agg.vgc_depth_hist[0], 1u);
  EXPECT_EQ(agg.vgc_depth_hist[1], 1u);
  EXPECT_EQ(agg.vgc_depth_hist[2], 2u);
  EXPECT_EQ(agg.vgc_depth_hist[3], 1u);
  std::uint64_t total = 0;
  for (auto c : agg.vgc_depth_hist) total += c;
  EXPECT_EQ(total, 5u);
}

TEST_F(Telemetry, PhasesNestSequentially) {
  Tracer t;
  t.phase_begin("a");
  t.phase_begin("b");  // auto-closes "a"
  t.phase_end();
  RunTelemetry agg = t.aggregate();
  ASSERT_EQ(agg.phases.size(), 2u);
  EXPECT_EQ(agg.phases[0].name, "a");
  EXPECT_EQ(agg.phases[1].name, "b");
}

// --- scheduler counters -----------------------------------------------------

TEST_F(Telemetry, SchedulerCountersNonzeroWhenParallel) {
  Tracer t;  // snapshots the epoch at construction
  // Whether a steal happens is timing-dependent (idle workers sleep), so
  // repeat a chunky workload until one is observed; each task spins long
  // enough for the thieves to wake up.
  WorkerCounters total;
  for (int attempt = 0; attempt < 200 && total.steals == 0; ++attempt) {
    std::atomic<std::uint64_t> sink{0};
    parallel_for(
        0, 256,
        [&](std::size_t i) {
          volatile std::uint64_t x = i;
          for (int k = 0; k < 20000; ++k) x += k;
          sink.fetch_add(x, std::memory_order_relaxed);
        },
        1);
    total = t.aggregate().scheduler.total();
  }
  RunTelemetry agg = t.aggregate();
  EXPECT_EQ(agg.scheduler.per_worker.size(), 4u);
  EXPECT_GT(total.steals, 0u);
  EXPECT_GT(total.tasks, 0u);
  EXPECT_GT(total.busy_ns, 0u);
}

TEST(TelemetrySingleThread, SchedulerCountersZeroWhenSequential) {
  Scheduler::reset(1);
  Tracer t;
  std::uint64_t sink = 0;
  parallel_for(0, 1 << 14, [&](std::size_t i) { sink += i; });
  RunTelemetry agg = t.aggregate();
  WorkerCounters total = agg.scheduler.total();
  EXPECT_EQ(agg.scheduler.per_worker.size(), 1u);
  EXPECT_EQ(total.steals, 0u);
  EXPECT_EQ(total.busy_ns, 0u);
  EXPECT_GT(sink, 0u);
}

// --- end-to-end: traced BFS -------------------------------------------------

TEST_F(Telemetry, TracedBfsMatchesSequentialAndRecordsStructure) {
  Graph g = gen::rmat(11, 20000, 5);
  Graph gt = g.transpose();
  auto expected = seq_bfs(g, {}).output;

  AlgoOptions opt;
  opt.source = 0;
  RunReport<std::vector<std::uint32_t>> report = pasgal_bfs(g, gt, opt);
  EXPECT_EQ(report.output, expected);
  EXPECT_GT(report.seconds, 0.0);

  const RunTelemetry& tel = report.telemetry;
  EXPECT_GT(tel.rounds.size(), 0u);
  EXPECT_GT(tel.edges_scanned, 0u);
  EXPECT_GT(tel.hashbag.inserts, 0u);
  EXPECT_GT(tel.hashbag.extracts, 0u);
  EXPECT_GE(tel.hashbag.peak_extract, 1u);

  // Cumulative counters are monotone and end at the totals.
  std::uint64_t prev_ce = 0, prev_cv = 0;
  for (std::size_t i = 0; i < tel.rounds.size(); ++i) {
    const RoundTrace& r = tel.rounds[i];
    EXPECT_EQ(r.index, i);
    EXPECT_GE(r.cum_edges, prev_ce);
    EXPECT_GE(r.cum_visits, prev_cv);
    prev_ce = r.cum_edges;
    prev_cv = r.cum_visits;
  }
  EXPECT_LE(prev_ce, tel.edges_scanned);
  EXPECT_LE(prev_cv, tel.vertices_visited);
}

TEST_F(Telemetry, VgcRunRecordsLocalRoundsAndDepths) {
  // A long chain with small tau forces VGC local searches.
  Graph g = gen::chain(4000, true);
  Graph gt = g.transpose();
  AlgoOptions opt;
  opt.vgc.tau = 64;
  RunReport<std::vector<std::uint32_t>> report = pasgal_bfs(g, gt, opt);
  const RunTelemetry& tel = report.telemetry;
  bool any_local = false;
  for (const RoundTrace& r : tel.rounds) {
    if (r.kind == RoundKind::kLocal) any_local = true;
  }
  EXPECT_TRUE(any_local);
  std::uint64_t searches = 0;
  for (auto c : tel.vgc_depth_hist) searches += c;
  EXPECT_GT(searches, 0u);
}

TEST_F(Telemetry, ExternalTracerSeesTheRun) {
  Graph g = gen::rectangle_grid(30, 30);
  Tracer tracer;
  AlgoOptions opt;
  opt.tracer = &tracer;
  RunReport<std::vector<std::uint32_t>> report = pasgal_bfs(g, g, opt);
  EXPECT_EQ(tracer.rounds(), report.telemetry.rounds.size());
  EXPECT_EQ(tracer.edges_scanned(), report.telemetry.edges_scanned);
}

// --- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  json::Value v;
  ASSERT_TRUE(json::parse("{\"a\": [1, 2.5, -3], \"b\": {\"c\": true, "
                          "\"d\": null}, \"e\": \"x\\n\\\"y\\u0041\"}",
                          v)
                  .ok());
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].number, -3.0);
  const json::Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->boolean);
  EXPECT_EQ(b->find("d")->kind, json::Value::Kind::kNull);
  EXPECT_EQ(v.find("e")->str, "x\n\"yA");
  EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::parse("", v).ok());
  EXPECT_FALSE(json::parse("{", v).ok());
  EXPECT_FALSE(json::parse("{\"a\": }", v).ok());
  EXPECT_FALSE(json::parse("[1, 2,]", v).ok());
  EXPECT_FALSE(json::parse("\"unterminated", v).ok());
  EXPECT_FALSE(json::parse("{} trailing", v).ok());
  EXPECT_FALSE(json::parse("nul", v).ok());
}

TEST(Json, EscapeRoundTripsThroughParser) {
  std::string nasty = "tab\there \"quotes\" back\\slash\nnewline \x01ctl";
  json::Value v;
  ASSERT_TRUE(json::parse("\"" + json::escape(nasty) + "\"", v).ok());
  EXPECT_EQ(v.str, nasty);
}

// --- metrics document schema ------------------------------------------------

MetricsDoc sample_doc(int trials) {
  Graph g = gen::rectangle_grid(20, 20);
  MetricsDoc doc("bfs", "pasgal", "grid:20:20", g.num_vertices(),
                 g.num_edges());
  doc.set_param("source", std::uint64_t{0});
  doc.set_param("note", std::string("unit-test"));
  AlgoOptions opt;
  for (int i = 0; i < trials; ++i) {
    RunReport<std::vector<std::uint32_t>> report = pasgal_bfs(g, g, opt);
    doc.add_trial(report.seconds, report.telemetry);
  }
  return doc;
}

TEST_F(Telemetry, MetricsDocPassesSchemaValidation) {
  MetricsDoc doc = sample_doc(2);
  EXPECT_EQ(doc.num_trials(), 2u);
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());
  Status valid = validate_metrics(parsed);
  EXPECT_TRUE(valid.ok()) << valid.message();

  EXPECT_EQ(parsed.find("schema")->str, kMetricsSchema);
  EXPECT_EQ(parsed.find("version")->number, kMetricsVersion);
  EXPECT_EQ(parsed.find("graph")->find("n")->number, 400.0);
  ASSERT_EQ(parsed.find("trials")->array.size(), 2u);

  // Round-count consistency in every trial: totals.rounds covers the
  // serialized trace plus anything the size cap dropped.
  for (const json::Value& trial : parsed.find("trials")->array) {
    const json::Value* tel = trial.find("telemetry");
    ASSERT_NE(tel, nullptr);
    EXPECT_EQ(tel->find("totals")->find("rounds")->number,
              static_cast<double>(tel->find("rounds")->array.size()) +
                  tel->find("rounds_omitted")->number);
  }
}

TEST_F(Telemetry, LongTracesAreCappedWithOmittedCount) {
  Tracer t;
  for (int i = 0; i < 3000; ++i) t.end_round(1);
  RunTelemetry agg = t.aggregate();
  EXPECT_EQ(agg.rounds.size(), 3000u);  // in memory: full trace
  json::Value v;
  ASSERT_TRUE(json::parse(to_json(agg), v).ok());
  EXPECT_EQ(v.find("rounds")->array.size(), kMaxSerializedRounds);
  EXPECT_EQ(v.find("rounds_omitted")->number,
            3000.0 - static_cast<double>(kMaxSerializedRounds));

  MetricsDoc doc("bfs", "seq", "chain:3000", 3000, 2999);
  doc.add_trial(0.1, agg);
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());
  Status valid = validate_metrics(parsed);
  EXPECT_TRUE(valid.ok()) << valid.message();
}

TEST_F(Telemetry, SchemaValidationCatchesCorruption) {
  MetricsDoc doc = sample_doc(1);
  json::Value parsed;
  ASSERT_TRUE(json::parse(doc.to_json(), parsed).ok());

  json::Value no_version = parsed;
  for (auto& [k, v] : no_version.object) {
    if (k == "version") v.number = 999;
  }
  EXPECT_FALSE(validate_metrics(no_version).ok());

  json::Value wrong_rounds = parsed;
  json::Value* tel = nullptr;
  for (auto& [k, v] : wrong_rounds.object) {
    if (k == "trials") {
      for (auto& [tk, tv] : v.array[0].object) {
        if (tk == "telemetry") tel = &tv;
      }
    }
  }
  ASSERT_NE(tel, nullptr);
  for (auto& [k, v] : tel->object) {
    if (k == "rounds") v.array.push_back(v.array.empty() ? json::Value{}
                                                         : v.array.back());
  }
  EXPECT_FALSE(validate_metrics(wrong_rounds).ok());

  EXPECT_FALSE(validate_metrics(json::Value{}).ok());
}

TEST_F(Telemetry, WriteMetricsJsonRoundTrips) {
  MetricsDoc doc = sample_doc(1);
  std::string path = ::testing::TempDir() + "pasgal_metrics_test.json";
  ASSERT_TRUE(write_metrics_json(path, doc).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  json::Value parsed;
  ASSERT_TRUE(json::parse(text, parsed).ok());
  EXPECT_TRUE(validate_metrics(parsed).ok());
}

}  // namespace
}  // namespace pasgal
