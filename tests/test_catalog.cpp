// The equivalence harness: every algo_catalog() row, batch forms included,
// on every storage backend at every worker count, against its family's
// oracle row (algo_oracle) through answer_mismatch.
//  * Cases: a generator call × seed (the seed also picks the weights and
//    the update batches), one parameterized test each.
//  * Backends: heap; `.pgr` mmap, copy and v2 opens with and without
//    transpose sections; raw and v2 sharded opens through a small window
//    (cases marked `sharded`, asserting >= 3 shards); an apply_updates
//    overlay and a `.plog` replay of the same batches onto a fresh open,
//    both checked against the oracle on an independent from_edges rebuild.
//  * Workers: 1/2/4/8, rotated over (case, backend) so every backend meets
//    every count across the case list.
// Whether a row must refuse a backend is derived from its in_core bit and
// input (must_refuse); a refusal must be a typed kUsage error. Work counters
// are not compared: hash-bag users' counters still vary between repeats.
// A failure names its case, e.g. "rmat_10_6000_3 seed=7 backend=overlay
// workers=2 row=bfs/gapbs"; --gtest_filter='*/rmat_10_6000_3' reruns it.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/catalog.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "parlay/hash_rng.h"
#include "update_model.h"

namespace pasgal {
namespace {

// --- cases -----------------------------------------------------------------

struct Case {
  std::string name;  // the generator call, spelled as a gtest name
  std::uint64_t seed;  // seeds the weights and the update batches
  std::function<Graph()> build;
  // Also run the sharded backends: n spans three 1024-vertex chunks.
  bool sharded = false;
  std::size_t index = 0;  // position in the case list
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// A different random digraph per seed: size, density and shape all vary.
Graph sweep_digraph(std::uint64_t s) {
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

const std::vector<Case>& cases() {
  static const std::vector<Case> list = [] {
    auto random = [](std::size_t n, std::size_t m, std::uint64_t seed) {
      return Case{"random_graph_" + std::to_string(n) + "_" +
                      std::to_string(m) + "_" + std::to_string(seed),
                  seed, [=] { return gen::random_graph(n, m, seed); }, true};
    };
    std::vector<Case> out = {
        random(6000, 80000, 9),
        random(6000, 80000, 10),
        random(6000, 80000, 11),
        random(4000, 50000, 12),
        random(3000, 30000, 16),
        random(6000, 80000, 17),
        {"rmat_10_6000_3", 7, [] { return gen::rmat(10, 6000, 3); }},
        {"rectangle_grid_48_4", 11, [] { return gen::rectangle_grid(48, 4); }},
        {"forward_edges_rmat_10_6000_5", 13,
         [] { return forward_edges(gen::rmat(10, 6000, 5)); }},
        {"road_grid_25_40_0_75_11", 11,
         [] { return gen::road_grid(25, 40, 0.75, 11); }},
        {"random_graph_1500_6000_13", 13,
         [] { return gen::random_graph(1500, 6000, 13); }},
        {"random_graph_800_2500_17", 17,
         [] { return gen::random_graph(800, 2500, 17); }},
        {"rectangle_grid_20_40", 19, [] { return gen::rectangle_grid(20, 40); }},
        {"rmat_10_8000_23", 23, [] { return gen::rmat(10, 8000, 23); }},
        {"sampled_edges_rectangle_grid_30_30_0_5_29", 29,
         [] { return gen::sampled_edges(gen::rectangle_grid(30, 30), 0.5, 29); }},
        {"rmat_10_8000_7", 7, [] { return gen::rmat(10, 8000, 7); }},
        {"road_grid_24_24_0_85_3", 3,
         [] { return gen::road_grid(24, 24, 0.85, 3); }},
        {"chain_1500", 1, [] { return gen::chain(1500); }},
        {"bubbles_20_12", 1, [] { return gen::bubbles(20, 12); }},
    };
    for (std::uint64_t s = 1; s <= 12; ++s) {
      out.push_back({"sweep_" + std::to_string(s), s,
                     [s] { return sweep_digraph(s); }});
    }
    for (std::size_t i = 0; i < out.size(); ++i) out[i].index = i;
    return out;
  }();
  return list;
}

// --- backends --------------------------------------------------------------

enum class Kind { kHeap, kFile, kOverlay, kLog };

struct Backend {
  const char* name;
  Kind kind;
  PgrOpen mode = PgrOpen::kMmap;
  bool transpose = false;  // embed transpose sections
  bool compress = false;   // v2 delta-varint targets
  bool sharded = false;    // open through a kShardWindow-byte window

  bool overlaid() const { return kind == Kind::kOverlay || kind == Kind::kLog; }
};

const Backend kBackends[] = {
    {"heap", Kind::kHeap},
    {"mmap", Kind::kFile},
    {"mmap-transpose", Kind::kFile, PgrOpen::kMmap, true},
    {"copy", Kind::kFile, PgrOpen::kCopy},
    {"v2", Kind::kFile, PgrOpen::kMmap, false, true},
    {"v2-transpose", Kind::kFile, PgrOpen::kMmap, true, true},
    // A windowed open cannot build a transpose, so both embed it.
    {"sharded-raw", Kind::kFile, PgrOpen::kMmap, true, false, true},
    {"sharded-v2", Kind::kFile, PgrOpen::kMmap, true, true, true},
    {"overlay", Kind::kOverlay},
    {"plog", Kind::kLog},
};

// Smaller than any 1024-vertex chunk's edges: every chunk is its own shard.
constexpr std::uint64_t kShardWindow = 4 << 10;
constexpr int kWorkers[] = {1, 2, 4, 8};
constexpr std::uint32_t kMaxWeight = 100;
constexpr std::size_t kUpdatesPerBatch = 150;

int workers_for(const Case& c, std::size_t backend) {
  return kWorkers[(c.index + backend) % std::size(kWorkers)];
}

// Whether `row` must refuse `b`, from the row's fields alone:
//  * sharded opens refuse every in_core row (Graph::ensure_in_core), and the
//    symmetrize() a kSymmetric input needs reads the whole edge set;
//  * apply_updates refuses weighted graphs, so no overlay reaches a
//    kWeighted row.
bool must_refuse(const AlgoSpec& row, const Backend& b) {
  if (b.sharded) {
    return row.in_core || row.input == AlgoInput::kSymmetric;
  }
  return b.overlaid() && row.input == AlgoInput::kWeighted;
}

// What one backend hands the rows: the topology every unweighted row reads
// and the weighted form kWeighted rows read, or the error building that
// form raised instead.
struct Opened {
  Graph g;
  WeightedGraph<std::uint32_t> wg;
  std::exception_ptr weighted_refusal;
};

// Opens `heap` on backend `b`; `stem` prefixes the files it writes.
Opened open_backend(const Backend& b, const Opened& heap,
                    const std::vector<std::vector<EdgeUpdate>>& updates,
                    const std::string& stem) {
  std::string path = stem + ".pgr";
  std::string wpath = stem + ".w.pgr";
  if (b.kind == Kind::kHeap) return heap;
  if (b.kind == Kind::kFile) {
    PgrWriteOptions wopts;
    wopts.include_transpose = b.transpose;
    wopts.compress_targets = b.compress;
    write_pgr(heap.g, path, wopts);
    wopts.include_transpose = false;
    write_pgr(heap.wg, wpath, wopts);
    PgrShardSpec shard;
    if (b.sharded) shard.window_bytes = kShardWindow;
    return {read_pgr(path, b.mode, false, nullptr, shard),
            read_weighted_pgr(wpath, b.mode, false, nullptr, shard),
            nullptr};
  }
  std::string log = stem + ".plog";
  auto attach = [&](const Graph& g) {
    if (b.kind == Kind::kLog) {
      replay_update_log(g, log);
    } else {
      for (const auto& batch : updates) apply_updates(g, batch);
    }
  };
  // Both overlays get a storage of their own, off every other backend.
  Opened o;
  if (b.kind == Kind::kLog) {
    write_update_log(log, updates);
    write_pgr(heap.g, path);
    o.g = read_pgr(path, PgrOpen::kCopy);
  } else {
    o.g = Graph::from_edges(heap.g.num_vertices(), heap.g.to_edges());
    o.g.transpose();  // cached before the apply, so the flipped side lands
  }
  attach(o.g);
  write_pgr(heap.wg, wpath);
  try {
    o.wg = read_weighted_pgr(wpath, PgrOpen::kCopy);
    attach(o.wg.unweighted());
  } catch (...) {
    o.weighted_refusal = std::current_exception();
  }
  return o;
}

AlgoRun run_row(const AlgoSpec& row, const Opened& o, VertexId source,
                std::span<const VertexId> batch = {}) {
  if (row.input == AlgoInput::kWeighted && o.weighted_refusal) {
    std::rethrow_exception(o.weighted_refusal);
  }
  PreparedInput in(row, o.g, &o.wg);
  in.args.summarize = true;
  in.args.sources = batch;
  AlgoOptions opt;
  opt.source = source;
  return row.run(in.args, opt);
}

// The oracle answers on one reference graph, each family and form run once.
class Oracle {
 public:
  Oracle(Opened ref, VertexId source, std::span<const VertexId> batch)
      : ref_(std::move(ref)), source_(source), batch_(batch) {}

  // The single-source (or whole-graph) answer, or the batch's per-source
  // answers concatenated in source order.
  const AlgoAnswer& want(std::string_view family, bool batch) {
    auto [it, fresh] = memo_.try_emplace({std::string(family), batch});
    if (!fresh) return it->second;
    const AlgoSpec& oracle = algo_oracle(family);
    if (!batch) return it->second = run_row(oracle, ref_, source_).answer;
    for (VertexId s : batch_) {
      AlgoAnswer one = run_row(oracle, ref_, s).answer;
      it->second.values.insert(it->second.values.end(), one.values.begin(),
                               one.values.end());
    }
    return it->second;
  }

 private:
  Opened ref_;
  VertexId source_;
  std::span<const VertexId> batch_;
  std::map<std::pair<std::string, bool>, AlgoAnswer> memo_;
};

// Four distinct sources led by `source`.
std::vector<VertexId> batch_of(VertexId source) {
  std::vector<VertexId> batch = {source};
  for (VertexId v = 0; batch.size() < 4; ++v) {
    if (v != source) batch.push_back(v);
  }
  return batch;
}

// Runs one row (its batch form when `batch` is non-empty) on one backend:
// it must refuse with a typed kUsage error exactly when must_refuse says
// so, and otherwise agree with the oracle. bfs rows on a sharded open must
// also take a bottom-up round, so gt's shard sweep is exercised.
void check_row(const AlgoSpec& row, const Backend& b, const Opened& o,
               Oracle& oracle, VertexId source,
               std::span<const VertexId> batch, const std::string& at) {
  std::string what = at + " row=" + row.family + "/" + row.name +
                     (batch.empty() ? "" : " batch");
  bool refuse = must_refuse(row, b);
  AlgoRun run;
  try {
    run = run_row(row, o, source, batch);
  } catch (const Error& e) {
    EXPECT_TRUE(refuse) << what << ": " << e.what();
    EXPECT_EQ(e.category(), ErrorCategory::kUsage) << what << ": " << e.what();
    return;
  }
  if (refuse) {
    ADD_FAILURE() << what << ": ran, but its in_core/input refuse this backend";
    return;
  }
  EXPECT_EQ(answer_mismatch(row.family, oracle.want(row.family, !batch.empty()),
                            run.answer),
            "")
      << what;
  if (b.sharded && std::string_view(row.family) == "bfs") {
    EXPECT_TRUE(std::any_of(
        run.telemetry.rounds.begin(), run.telemetry.rounds.end(),
        [](const RoundTrace& r) { return r.kind == RoundKind::kDense; }))
        << what << ": no bottom-up round swept the shard window";
  }
}

class Equivalence : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override {
    Scheduler::reset(1);
    std::filesystem::remove_all(dir());
  }
  static std::filesystem::path dir() {
    return std::filesystem::temp_directory_path() / "pasgal_equivalence";
  }
};

INSTANTIATE_TEST_SUITE_P(Cases, Equivalence, ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param.name; });

TEST_P(Equivalence, EveryRowMatchesItsOracle) {
  const Case& c = GetParam();
  std::filesystem::create_directories(dir());
  Graph g = c.build();
  Opened heap{g, gen::add_weights(g, kMaxWeight, c.seed), nullptr};
  VertexId source = max_degree_vertex(g);
  std::vector<VertexId> batch = batch_of(source);
  UpdateModel model(g, c.seed);
  std::vector<std::vector<EdgeUpdate>> updates = {
      model.make_batch(kUpdatesPerBatch), model.make_batch(kUpdatesPerBatch)};
  Oracle from_heap(heap, source, batch);
  Oracle from_rebuild({model.rebuild(), {}, nullptr}, source, batch);

  for (std::size_t i = 0; i < std::size(kBackends); ++i) {
    const Backend& b = kBackends[i];
    if (b.sharded && !c.sharded) continue;
    int workers = workers_for(c, i);
    Scheduler::reset(workers);
    std::string at = c.name + " seed=" + std::to_string(c.seed) +
                     " backend=" + b.name +
                     " workers=" + std::to_string(workers);
    Opened o = open_backend(b, heap, updates, (dir() / b.name).string());
    if (b.sharded) {
      ASSERT_GE(o.g.storage()->shard_plan()->size(), 3u) << at;
    }
    Oracle& oracle = b.overlaid() ? from_rebuild : from_heap;
    for (const AlgoSpec& row : algo_catalog()) {
      if (row.sources != AlgoSources::kBatch) {
        check_row(row, b, o, oracle, source, {}, at);
      }
      if (row.takes_batch()) {
        check_row(row, b, o, oracle, source, batch, at);
      }
    }
  }
}

TEST(EquivalenceSchedule, EveryBackendMeetsEveryWorkerCount) {
  for (std::size_t i = 0; i < std::size(kBackends); ++i) {
    std::set<int> seen;
    for (const Case& c : cases()) {
      if (!kBackends[i].sharded || c.sharded) seen.insert(workers_for(c, i));
    }
    EXPECT_EQ(seen.size(), std::size(kWorkers)) << kBackends[i].name;
  }
}

// --- the comparator --------------------------------------------------------

AlgoAnswer answer_of(std::string_view family, std::string_view name,
                     const Graph& g) {
  Opened o{g, gen::add_weights(g, 1000, 42), nullptr};
  return run_row(algo_spec(family, name), o, 1).answer;
}

TEST(CatalogAnswer, OnlySummarizedRunsCarryAnAnswer) {
  Graph g = gen::chain(100);
  const AlgoSpec& row = algo_spec("bfs", "ms");
  std::vector<VertexId> batch = {3, 7};
  PreparedInput in(row, g, nullptr);
  in.args.sources = batch;
  AlgoRun quiet = row.run(in.args, {});
  EXPECT_TRUE(quiet.answer.values.empty());
  EXPECT_TRUE(quiet.summary.empty());
  Opened o{g, {}, nullptr};
  EXPECT_EQ(run_row(algo_spec("bfs", "gbbs"), o, 1).answer.values.size(),
            100u);
  // A batch answers every source, concatenated in source order.
  AlgoAnswer loud = run_row(row, o, 1, batch).answer;
  ASSERT_EQ(loud.values.size(), 200u);
  EXPECT_EQ(loud.values[3], 0u);
  EXPECT_EQ(loud.values[100 + 7], 0u);
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
