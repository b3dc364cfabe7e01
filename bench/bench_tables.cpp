// The paper's tables A2-A4 and Figure 2, plus the same tables for SSSP, CC,
// k-core, PageRank and TC, from one loop over the algorithm catalog: each
// suite graph is built once, and every row that takes one source or none
// (bfs/ms takes only batches; bench_qps measures it) runs on it through
// AlgoSpec::run and is checked against its family's algo_oracle row. Per
// family: times, rounds and the cost-model speedup at P=96 (DESIGN.md §4);
// bfs/scc/bcc add a Figure 2 panel at P=192, scc the Figure 1 scaling over
// P=1..192 (one table per parallel row), bcc its auxiliary-graph sizes.
// Table 1 gives each suite graph's statistics. The sweeps rerun one row per
// value of one AlgoOptions field (kSweeps), each run checked like the rest.
// Metrics land in BENCH_tables.json; any mismatch makes the exit status 1.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

#include "algorithms/catalog.h"
#include "graphs/graph_stats.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

// How a family's tables read: its name in titles, the paper table it
// reproduces, one column header per catalog row (catalog order, batch-only
// rows left out, the algo_oracle row's header starred), and which of the
// paper's figures plot it: Figure 2 has a panel for it, Figure 1 sweeps it.
struct FamilyView {
  const char* family;
  const char* name;
  const char* paper_table;
  std::vector<std::string> columns;
  bool fig2;
  bool fig1 = false;
};

const FamilyView kViews[] = {
    {"bfs", "BFS", "Table A4: ", {"PASGAL", "GBBS", "GAPBS", "Queue*"}, true},
    {"sssp", "SSSP", "",
     {"rho-step", "delta-step", "BellmanFord", "Dijkstra*"}, false},
    {"scc", "SCC", "Table A3: ", {"PASGAL", "GBBS", "Multistep", "Tarjan*"},
     true, true},
    {"bcc", "BCC", "Table A2: ",
     {"PASGAL", "GBBS", "Tarjan-Vishkin", "Hopcroft-Tarjan*"}, true},
    {"cc", "Connected components", "", {"UnionFind*", "LabelProp"}, false},
    {"kcore", "k-core decomposition", "", {"PASGAL", "Seq*"}, false},
    {"pagerank", "PageRank", "", {"PASGAL", "Seq*"}, false},
    {"tc", "Triangle counting", "", {"PASGAL", "Seq*"}, false},
};

// Figure 1's processor counts.
constexpr int kProcs[] = {1, 2, 4, 8, 16, 32, 48, 96, 192};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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

// The paper's two tunable-design claims: tau is "a tunable parameter" (§2.1;
// tau=1 is the no-VGC configuration), and direction optimization matters on
// low-diameter graphs only (§2.2). Each sweep runs its row on each of its
// graphs once per value of one AlgoOptions field, named as titles print it;
// its tables have a row per graph and a column per value.
struct Sweep {
  const char* family;
  const char* name;
  std::vector<std::string> graphs;
  const char* field;
  void (*set)(AlgoOptions&, std::uint32_t);
  std::vector<std::uint32_t> values;
};

void set_tau(AlgoOptions& opt, std::uint32_t tau) { opt.vgc.tau = tau; }
void set_dense(AlgoOptions& opt, std::uint32_t on) { opt.use_dense = on != 0; }

const std::vector<std::uint32_t> kTaus = {1, 4, 16, 64, 256, 512, 1024, 4096};
const Sweep kSweeps[] = {
    {"bfs", "pasgal", {"ROAD-NA", "REC"}, "vgc.tau", set_tau, kTaus},
    {"scc", "pasgal", {"ROAD-NA", "REC"}, "vgc.tau", set_tau, kTaus},
    {"kcore", "pasgal", {"SOC-LJ", "ROAD-NA", "BBL"}, "vgc.tau", set_tau,
     {1, 512}},
    {"bfs", "pasgal", {"SOC-LJ", "ROAD-NA"}, "use_dense", set_dense, {1, 0}},
};

struct SweepTables {
  Table times, rounds, edges;
};

// One Table 1 line: n, m' and D' of the graph as built (N/A when the suite
// builds it undirected), m and D of its symmetrized form. The transpose and
// the symmetrized graph are memoized: the runs that follow reuse them.
std::string graph_stats_line(const GraphSpec& spec, const Graph& g) {
  std::string m_dir = "N/A", d_dir = "N/A";
  if (spec.directed) {
    m_dir = std::to_string(g.num_edges());
    d_dir = std::to_string(diameter_lower_bound(g, g.transpose()));
  }
  Graph sym = g.symmetrize();
  std::string d_sym = std::to_string(diameter_lower_bound(sym, sym));
  char line[160];
  std::snprintf(line, sizeof line,
                "%-10s %-10s %-22s %10zu %10s %10zu %8s %8s\n",
                spec.cls.c_str(), spec.name.c_str(),
                spec.paper_analogue.c_str(), g.num_vertices(), m_dir.c_str(),
                sym.num_edges(), d_dir.c_str(), d_sym.c_str());
  return line;
}

// SSSP's generated weights and delta-stepping's step width.
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

// The column headers of the rows that run in parallel (all but the oracle).
std::vector<std::string> parallel_columns(const FamilyView& view) {
  std::vector<std::string> parallel;
  for (const std::string& c : view.columns) {
    if (c.back() != '*') parallel.push_back(c);
  }
  return parallel;
}

// One family's tables; all but `times` leave the oracle's column out.
// `scaling` holds Figure 1's tables, one per parallel column (empty unless
// the view has fig1): a row per graph, a column per kProcs entry.
struct FamilyTables {
  Table times, rounds, p96, p192;
  std::vector<Table> scaling;
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
    std::vector<std::string> parallel = parallel_columns(view);
    std::vector<std::string> ps;
    for (int p : kProcs) ps.push_back("P=" + std::to_string(p));
    tables.push_back({Table(view.columns), Table(parallel), Table(parallel),
                      Table(parallel),
                      std::vector<Table>(view.fig1 ? parallel.size() : 0,
                                         Table(ps))});
  }
  std::vector<SweepTables> sweep_tables;
  for (const Sweep& sweep : kSweeps) {
    std::vector<std::string> columns;
    for (std::uint32_t v : sweep.values) {
      columns.push_back(std::string(sweep.field) + "=" + std::to_string(v));
    }
    sweep_tables.push_back({Table(columns), Table(columns), Table(columns)});
  }
  Table aux_nodes({"PASGAL(skeleton n)", "TV(aux nodes m/2)"});
  std::string graph_stats;
  BenchJson metrics("tables");
  int mismatches = 0;

  for (const GraphSpec& spec : graph_suite()) {
    Graph g = spec.build();
    auto wg = gen::add_weights(g, kMaxWeight, kWeightSeed);
    VertexId source = max_degree_vertex(g);
    std::printf("graph %s: n=%zu m=%zu, source=%u\n", spec.name.c_str(),
                g.num_vertices(), g.num_edges(), source);
    graph_stats += graph_stats_line(spec, g);

    // Runs `row` (at `value` of `sweep`, if given) and records its metrics.
    auto run = [&](const AlgoSpec& row, const Sweep* sweep = nullptr,
                   std::uint32_t value = 0) {
      const bool delta = row.family == std::string_view("sssp") &&
                         row.name == std::string_view("delta");
      PreparedInput in(row, g, &wg);
      in.args.summarize = true;
      AlgoOptions opt;
      if (row.takes_one()) opt.source = source;
      if (delta) opt.sssp_delta = kSsspDelta;
      if (sweep) sweep->set(opt, value);
      AlgoRun r = row.run(in.args, opt);
      MetricsDoc doc(row.family, row.name, spec.name,
                     in.args.g->num_vertices(), in.args.g->num_edges());
      if (row.takes_one()) doc.set_param("source", std::uint64_t{source});
      if (delta) doc.set_param("delta", kSsspDelta);
      if (sweep) doc.set_param(sweep->field, std::uint64_t{value});
      for (const auto& [name, value] : r.params) doc.set_param(name, value);
      doc.add_trial(r.seconds, r.telemetry);
      metrics.add(doc);
      return r;
    };
    // Reports and counts a run of `row` (with the sweep setting `knob`, if
    // any) whose answer differs from the oracle's.
    auto check = [&](const AlgoSpec& row, const AlgoRun& want,
                     const AlgoRun& got, const std::string& knob = "") {
      std::string diff = answer_mismatch(row.family, want.answer, got.answer);
      if (diff.empty()) return;
      std::fprintf(stderr, "MISMATCH %s/%s%s vs %s on %s: %s\n", row.family,
                   row.name, knob.c_str(), algo_oracle(row.family).name,
                   spec.name.c_str(), diff.c_str());
      ++mismatches;
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
      std::vector<std::vector<double>> scaling;
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
            cells->push_back(kNaN);
          }
          scaling.emplace_back(std::size(kProcs), kNaN);
          continue;
        }
        AlgoRun got = run(row);
        check(row, want, got);
        times.push_back(got.seconds);
        rounds.push_back(double(got.telemetry.rounds.size()));
        p96.push_back(proj.speedup_at(96, got.telemetry, want_ns));
        p192.push_back(proj.speedup_at(192, got.telemetry, want_ns));
        std::vector<double>& cells = scaling.emplace_back();
        for (int p : kProcs) {
          cells.push_back(proj.speedup_at(p, got.telemetry, want_ns));
        }
      }
      tables[f].times.add_row(spec.cls, spec.name, times);
      tables[f].rounds.add_row(spec.cls, spec.name, rounds);
      tables[f].p96.add_row(spec.cls, spec.name, p96);
      tables[f].p192.add_row(spec.cls, spec.name, p192);
      for (std::size_t c = 0; c < tables[f].scaling.size(); ++c) {
        tables[f].scaling[c].add_row(spec.cls, spec.name, scaling[c]);
      }
      for (std::size_t s = 0; s < std::size(kSweeps); ++s) {
        const Sweep& sweep = kSweeps[s];
        if (sweep.family != std::string_view(view.family) ||
            std::ranges::find(sweep.graphs, spec.name) == sweep.graphs.end()) {
          continue;
        }
        const AlgoSpec& row = algo_spec(sweep.family, sweep.name);
        std::vector<double> secs, syncs, edges;
        for (std::uint32_t value : sweep.values) {
          AlgoRun got = run(row, &sweep, value);
          check(row, want, got,
                std::string(" ") + sweep.field + "=" + std::to_string(value));
          secs.push_back(got.seconds);
          syncs.push_back(double(got.telemetry.rounds.size()));
          edges.push_back(double(got.telemetry.edges_scanned));
        }
        sweep_tables[s].times.add_row(spec.cls, spec.name, secs);
        sweep_tables[s].rounds.add_row(spec.cls, spec.name, syncs);
        sweep_tables[s].edges.add_row(spec.cls, spec.name, edges);
      }
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

  std::printf("\n=== Table 1: graph statistics ===\n(D' and D are lower "
              "bounds from sampled BFS double sweeps, as in the paper)\n"
              "%-10s %-10s %-22s %10s %10s %10s %8s %8s\n%s",
              "Class", "Graph", "Analogue", "n", "m'", "m", "D'", "D",
              graph_stats.c_str());

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
    std::vector<std::string> parallel = parallel_columns(view);
    for (std::size_t c = 0; c < tables[f].scaling.size(); ++c) {
      tables[f].scaling[c].print(
          std::string("Figure 1 / ") + view.name + " " + parallel[c] +
              ": projected speedup over " + oracle_name(view) +
              " at P=1..192",
          "speedup (one curve per graph in the paper); <1 = slower than "
          "seq");
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
  for (std::size_t s = 0; s < std::size(kSweeps); ++s) {
    const Sweep& sweep = kSweeps[s];
    std::string title = std::string("Sweep / ") + sweep.family + "/" +
                        sweep.name + " " + sweep.field + ": ";
    sweep_tables[s].times.print(title + "seconds, " + workers, "seconds");
    sweep_tables[s].rounds.print(title + "rounds", "count");
    sweep_tables[s].edges.print(title + "edges scanned", "count");
  }
  return metrics.write() && mismatches == 0 ? 0 : 1;
}
