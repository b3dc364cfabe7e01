// The algorithm catalog: one AlgoSpec row per variant of the eight families
// the drivers (apps/) and the pasgal_serve daemon expose.
//
// A row says what the variant is called, what input it runs on, whether it
// takes a source vertex or a source batch, whether the daemon serves it,
// whether it reads whole-graph adjacency (so a sharded open refuses it; see
// admit), and a type-erased `run` returning what a driver prints and a
// metrics document records. Everything that used to spell the variant list
// out reads it from here instead: the drivers' `-a` choices and defaults, the
// daemon's algo= vocabulary and defaults, the metrics schema's family
// whitelist, and the rows a sharded refusal suggests instead.
//
// Row order is behaviour: the first row of a family is its default, and
// every "expected a|b|c" list prints the family's names in table order.
//
// Adding a variant: write its entry point in its own .cpp (the body calls
// `admit(algo_spec("family", "name"), g, ...)`, then runs inside
// run_traced; see pasgal/options.h), read adjacency through
// Graph::adjacency() so it runs on overlaid graphs, and add one row to
// kCatalog in catalog.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/incremental.h"
#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

// The graph(s) a variant runs on, prepared by the caller from one open.
enum class AlgoInput : std::uint8_t {
  kGraph,      // the graph as loaded
  kTranspose,  // the graph plus its transpose
  kSymmetric,  // the symmetrized graph (undirected families)
  kWeighted,   // the weighted graph (the file's weights or generated ones)
};

// Which source vertices a variant takes.
enum class AlgoSources : std::uint8_t {
  kNone,        // whole-graph family
  kOne,         // one source (AlgoOptions::source)
  kOneOrBatch,  // one source, or a batch (AlgoArgs::sources)
  kBatch,       // a batch only
};

// The prepared input of one run. Which graph pointers are set follows the
// row's AlgoInput: `g` always (the symmetrized graph for kSymmetric, the
// topology for kWeighted), `gt` for kTranspose, `wg` for kWeighted.
struct AlgoArgs {
  const Graph* g = nullptr;
  const Graph* gt = nullptr;
  const WeightedGraph<std::uint32_t>* wg = nullptr;
  // Non-empty: run the batch form (rows whose sources allow a batch).
  std::span<const VertexId> sources;
  // Fill AlgoRun::summary and AlgoRun::answer (drivers print the summary,
  // cross-checks compare answers; the daemon skips the work).
  bool summarize = false;
};

// A run's result in the form answer_mismatch compares. `values` holds the
// output vector as the variant returned it (bfs/sssp distances, kcore
// coreness, scc/cc vertex labels, bcc edge labels), or tc's {triangles} or
// pagerank's {iterations}; `rank` holds pagerank's ranks.
struct AlgoAnswer {
  std::vector<std::uint64_t> values;
  std::vector<double> rank;
};

// What one run reports.
struct AlgoRun {
  double seconds = 0;
  RunTelemetry telemetry;
  // The family's result params for the metrics document (pagerank
  // "iterations", tc "triangles").
  std::vector<std::pair<std::string, std::uint64_t>> params;
  // The driver's result line(s), without a trailing newline; a batch gives
  // one "batch source <s>: ..." line per source.
  std::string summary;
  // Set with `summary`; a batch's is its per-source answers concatenated in
  // source order.
  AlgoAnswer answer;
};

struct AlgoSpec {
  const char* family;
  const char* name;
  AlgoInput input;
  AlgoSources sources;
  bool served;   // the daemon answers this variant
  bool in_core;  // reads whole-graph adjacency: sharded opens refuse it
  AlgoRun (*run)(const AlgoArgs& args, const AlgoOptions& opt);

  bool takes_one() const {
    return sources == AlgoSources::kOne || sources == AlgoSources::kOneOrBatch;
  }
  bool takes_batch() const {
    return sources == AlgoSources::kOneOrBatch ||
           sources == AlgoSources::kBatch;
  }
};

// The input one run of `row` reads, prepared from the opened graph `g` and,
// for kWeighted rows, its weighted form `wg`: `args.g` is `g` (its
// symmetrized view for kSymmetric), `args.gt` its transpose for kTranspose,
// and `args.wg` is `wg`. Both views are memoized on g's storage handle;
// symmetrize() needs the whole edge set in core, so on a windowed open it
// throws the typed kUsage error instead of faulting past the window. `args`
// may point into this object, so it is neither copied nor moved; `g` and `wg`
// must outlive it.
class PreparedInput {
 public:
  PreparedInput(const AlgoSpec& row, const Graph& g,
                const WeightedGraph<std::uint32_t>* wg);
  PreparedInput(const PreparedInput&) = delete;
  PreparedInput& operator=(const PreparedInput&) = delete;

  AlgoArgs args;

 private:
  Graph derived_;
};

// Compares two answers of `family`'s rows as strictly as the family allows:
// distances, coreness and triangle counts must be equal; scc/cc and bcc
// labels must name the same partition (normalize_scc_labels,
// normalize_bcc_labels); pagerank must take the same number of iterations
// and its ranks must be within L1 1e-9. Returns "" when they agree, else the
// first difference.
std::string answer_mismatch(std::string_view family, const AlgoAnswer& want,
                            const AlgoAnswer& got);

// Every row, families grouped, in table order.
std::span<const AlgoSpec> algo_catalog();

// The row `family`/`name`; a missing row throws std::logic_error (entry
// points and drivers only name rows that exist).
const AlgoSpec& algo_spec(std::string_view family, std::string_view name);

// The row every other row of `family` is checked against: its seq row, or
// its first row when it has none (cc: union-find).
const AlgoSpec& algo_oracle(std::string_view family);

// The row names of `family` in table order (a driver's `-a` choices; the
// first is the default).
std::vector<std::string> algo_names(std::string_view family);

// True when `family` has a catalog row (the metrics schema's whitelist).
bool is_algo_family(std::string_view family);

// Every entry point's storage check. Lazily validates the graphs (see
// Graph::ensure_validated); an in_core row then refuses a sharded g or gt,
// naming the row as family/name and suggesting the family's rows that do run
// sharded. The one overlay refusal is derived from the row's input: a
// kSymmetric kernel needs every edge in both directions (bcc labels edges by
// id), so it refuses an overlaid g. Through the catalog it gets symmetrize(),
// which folds the overlay into a fresh graph. Every failure is a typed kUsage
// Error. Overlays need no column: kernels read Graph::adjacency().
void admit(const AlgoSpec& row, const Graph& g, const Graph* gt = nullptr);

// Result lines shared with the drivers' incremental --updates modes.
std::string bfs_summary(std::span<const std::uint32_t> dist);
std::string cc_summary(std::span<const VertexId> label);

// Metrics sections every driver document and daemon response shares.
// record_shard: the open's shard plan and window counters (summed over the
// forward and transpose windows); absent for in-core opens. record_delta:
// the overlay attached to `g` and the repair scope of an incremental run
// (zero for a static overlay); absent when `g` has no overlay.
void record_shard(MetricsDoc& doc, const Graph& g);
void record_delta(MetricsDoc& doc, const Graph& g,
                  const IncrementalStats& repair = {});

}  // namespace pasgal
