// The paper's tables A2-A4 and Figure 2, plus the same tables for SSSP, CC,
// k-core, PageRank and TC, from one loop over the algorithm catalog: each
// suite graph is built once, and every row that takes one source or none
// (bfs/ms takes only batches; bench_qps measures it) runs on it through
// AlgoSpec::run and is checked against its family's algo_oracle row. Per
// family: times, rounds and the cost-model speedup at P=96 (DESIGN.md §4);
// bfs/scc/bcc add a Figure 2 panel at P=192, bcc its auxiliary-graph sizes.
// Metrics land in BENCH_tables.json; any mismatch makes the exit status 1.
#include <cstdio>
#include <limits>
#include <string_view>

#include "algorithms/catalog.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

// How a family's tables read: its name in titles, the paper table it
// reproduces, one column header per catalog row (catalog order, batch-only
// rows left out, the algo_oracle row's header starred), and whether Figure 2
// has a panel for it.
struct FamilyView {
  const char* family;
  const char* name;
  const char* paper_table;
  std::vector<std::string> columns;
  bool fig2;
};

const FamilyView kViews[] = {
    {"bfs", "BFS", "Table A4: ", {"PASGAL", "GBBS", "GAPBS", "Queue*"}, true},
    {"sssp", "SSSP", "",
     {"rho-step", "delta-step", "BellmanFord", "EM-BF", "Dijkstra*"}, false},
    {"scc", "SCC", "Table A3: ", {"PASGAL", "GBBS", "Multistep", "Tarjan*"},
     true},
    {"bcc", "BCC", "Table A2: ",
     {"PASGAL", "GBBS", "Tarjan-Vishkin", "Hopcroft-Tarjan*"}, true},
    {"cc", "Connected components", "", {"UnionFind*", "LabelProp", "LDD"},
     false},
    {"kcore", "k-core decomposition", "", {"PASGAL", "Seq*"}, false},
    {"pagerank", "PageRank", "", {"PASGAL", "Seq*"}, false},
    {"tc", "Triangle counting", "", {"PASGAL", "Seq*"}, false},
};

// The runs the suite leaves out, each with its reason; a null `name` covers
// the whole family.
struct Skip {
  const char* family;
  const char* name;
  bool (*applies)(const GraphSpec&);
  const char* reason;
};

const Skip kSkips[] = {
    {"scc", nullptr, [](const GraphSpec& s) { return !s.directed; },
     "SCC does not apply to undirected graphs (as in the paper)"},
    {"sssp", nullptr, [](const GraphSpec& s) { return s.name == "CHAIN"; },
     "Bellman-Ford needs O(n) rounds on a weighted chain"},
    {"cc", "lp",
     [](const GraphSpec& s) { return s.cls != "Social" && s.cls != "Web"; },
     "label propagation is O(diameter * m) on a high-diameter class"},
};

const char* skip_reason(const AlgoSpec& row, const GraphSpec& spec) {
  for (const Skip& s : kSkips) {
    if (row.family == std::string_view(s.family) &&
        (s.name == nullptr || row.name == std::string_view(s.name)) &&
        s.applies(spec)) {
      return s.reason;
    }
  }
  return nullptr;
}

// SSSP's generated weights and delta-stepping's bucket width.
constexpr std::uint32_t kMaxWeight = 1000;
constexpr std::uint64_t kWeightSeed = 42;
constexpr std::uint64_t kSsspDelta = 256;

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

// The rows of `family` the bench runs: all but the batch-only ones.
std::vector<const AlgoSpec*> family_rows(std::string_view family) {
  std::vector<const AlgoSpec*> rows;
  for (const AlgoSpec& row : algo_catalog()) {
    if (row.family == family && row.sources != AlgoSources::kBatch) {
      rows.push_back(&row);
    }
  }
  return rows;
}

// The oracle's column header, unstarred.
std::string oracle_name(const FamilyView& view) {
  for (const std::string& c : view.columns) {
    if (c.back() == '*') return c.substr(0, c.size() - 1);
  }
  return {};
}

// One family's tables; all but `times` leave the oracle's column out.
struct FamilyTables {
  Table times, rounds, p96, p192;
};

}  // namespace

int main() {
  std::vector<FamilyTables> tables;
  for (const FamilyView& view : kViews) {
    if (family_rows(view.family).size() != view.columns.size()) {
      std::fprintf(stderr, "bench_tables: %s rows and columns differ\n",
                   view.family);
      return 1;
    }
    std::vector<std::string> parallel;
    for (const std::string& c : view.columns) {
      if (c.back() != '*') parallel.push_back(c);
    }
    tables.push_back({Table(view.columns), Table(parallel), Table(parallel),
                      Table(parallel)});
  }
  Table aux_nodes({"PASGAL(skeleton n)", "TV(aux nodes m/2)"});
  BenchJson metrics("tables");
  int mismatches = 0;

  for (const GraphSpec& spec : graph_suite()) {
    Graph g = spec.build();
    auto wg = gen::add_weights(g, kMaxWeight, kWeightSeed);
    VertexId source = max_degree_vertex(g);
    std::printf("graph %s: n=%zu m=%zu, source=%u\n", spec.name.c_str(),
                g.num_vertices(), g.num_edges(), source);

    // Runs `row` on this graph and records its metrics document.
    auto run = [&](const AlgoSpec& row) {
      const bool delta = row.family == std::string_view("sssp") &&
                         row.name == std::string_view("delta");
      PreparedInput in(row, g, &wg);
      in.args.summarize = true;
      AlgoOptions opt;
      if (row.takes_one()) opt.source = source;
      if (delta) opt.sssp_delta = kSsspDelta;
      AlgoRun r = row.run(in.args, opt);
      MetricsDoc doc(row.family, row.name, spec.name,
                     in.args.g->num_vertices(), in.args.g->num_edges());
      if (row.takes_one()) doc.set_param("source", std::uint64_t{source});
      if (delta) doc.set_param("delta", kSsspDelta);
      for (const auto& [name, value] : r.params) doc.set_param(name, value);
      doc.add_trial(r.seconds, r.telemetry);
      metrics.add(doc);
      return r;
    };

    for (std::size_t f = 0; f < std::size(kViews); ++f) {
      const FamilyView& view = kViews[f];
      const AlgoSpec& oracle = algo_oracle(view.family);
      if (const char* why = skip_reason(oracle, spec)) {
        std::printf("skip %s on %s: %s\n", view.family, spec.name.c_str(),
                    why);
        continue;
      }

      AlgoRun want = run(oracle);
      Projection proj = calibrate(want.seconds, want.telemetry);
      double want_ns = want.seconds * 1e9;
      std::vector<double> times, rounds, p96, p192;
      for (const AlgoSpec* r : family_rows(view.family)) {
        const AlgoSpec& row = *r;
        if (&row == &oracle) {
          times.push_back(want.seconds);
          continue;
        }
        if (const char* why = skip_reason(row, spec)) {
          std::printf("skip %s/%s on %s: %s\n", row.family, row.name,
                      spec.name.c_str(), why);
          for (auto* cells : {&times, &rounds, &p96, &p192}) {
            cells->push_back(std::numeric_limits<double>::quiet_NaN());
          }
          continue;
        }
        AlgoRun got = run(row);
        std::string diff = answer_mismatch(row.family, want.answer,
                                           got.answer);
        if (!diff.empty()) {
          std::fprintf(stderr, "MISMATCH %s/%s vs %s on %s: %s\n",
                       row.family, row.name, oracle.name,
                       spec.name.c_str(), diff.c_str());
          ++mismatches;
        }
        times.push_back(got.seconds);
        rounds.push_back(double(got.telemetry.rounds.size()));
        p96.push_back(proj.speedup_at(96, got.telemetry, want_ns));
        p192.push_back(proj.speedup_at(192, got.telemetry, want_ns));
      }
      tables[f].times.add_row(spec.cls, spec.name, times);
      tables[f].rounds.add_row(spec.cls, spec.name, rounds);
      tables[f].p96.add_row(spec.cls, spec.name, p96);
      tables[f].p192.add_row(spec.cls, spec.name, p192);
      // FAST-BCC's skeleton has at most n vertices; Tarjan-Vishkin
      // materializes one auxiliary node per undirected edge.
      if (view.family == std::string_view("bcc")) {
        Graph sym = g.symmetrize();  // memoized: the graph bcc ran on
        aux_nodes.add_row(spec.cls, spec.name,
                          {double(sym.num_vertices()),
                           double(sym.num_edges() / 2)});
      }
    }
    std::fflush(stdout);
  }

  const std::string workers = std::to_string(num_workers()) +
                              (num_workers() == 1 ? " worker" : " workers");
  for (std::size_t f = 0; f < std::size(kViews); ++f) {
    const FamilyView& view = kViews[f];
    std::string name = view.name;
    tables[f].times.print(std::string(view.paper_table) + name +
                              " running time (this machine, " + workers + ")",
                          "seconds");
    tables[f].rounds.print(name + " global synchronizations (rounds)",
                           "count");
    tables[f].p96.print(name + " projected speedup over " + oracle_name(view) +
                            " at P=96 (cost model, DESIGN.md §4)",
                        "speedup; <1 means slower than sequential");
    if (view.family == std::string_view("bcc")) {
      aux_nodes.print(
          "BCC auxiliary-graph size (the paper's o.o.m. column for TV)",
          "node count; TV is O(m), FAST-BCC is O(n)");
    }
  }
  for (std::size_t f = 0; f < std::size(kViews); ++f) {
    const FamilyView& view = kViews[f];
    if (!view.fig2) continue;
    tables[f].p192.print(std::string("Figure 2 / ") + view.name +
                             ": projected speedup over " + oracle_name(view) +
                             " at P=192",
                         "speedup (log-scale bars in the paper); <1 = "
                         "slower than seq");
  }
  return metrics.write() && mismatches == 0 ? 0 : 1;
}
