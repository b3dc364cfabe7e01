// Shared command-line plumbing for the per-algorithm driver apps, mirroring
// the upstream PASGAL repository's layout (one executable per algorithm,
// fed by a graph file in .adj or .bin format, or a generator spec).
//
// Flag parsing lives in the library (pasgal/cli.h) so all drivers declare
// options once via cli::OptionSet; the variant list lives in the algorithm
// catalog (algorithms/catalog.h). This header keeps the driver-only pieces:
// graph loading from specs, stdout stat lines, metrics emission, the shared
// one-shot open/repeat/metrics run (run_driver), the --shard-mb parse the
// daemon shares, and the run_app() wrapper that maps
// typed pasgal::Error failures onto the uniform exit codes documented in
// README.md:
//   0 ok / 1 internal error / 2 usage / 3 bad input / 4 resource limit.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "algorithms/catalog.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "pasgal/cli.h"
#include "pasgal/error.h"
#include "pasgal/resource.h"
#include "pasgal/telemetry.h"

namespace pasgal::apps {

// Re-exported so existing driver/test code keeps compiling against
// pasgal::apps::*; new code should include pasgal/cli.h directly.
using cli::CommonOptions;
using cli::FlagParser;
using cli::OptionSet;
using cli::parse_flag_int;
using cli::parse_int;

namespace internal {

using cli::Spec;
using cli::split_spec;

// Generators allocate an edge array before building the CSR; reject specs
// whose edge count alone would blow the memory ceiling (same guard the file
// readers apply to header-claimed sizes).
inline void guard_generated(std::uint64_t n, std::uint64_t m,
                            const std::string& spec) {
  unsigned __int128 need = static_cast<unsigned __int128>(m) * sizeof(Edge) +
                           (static_cast<unsigned __int128>(n) + 1) *
                               (sizeof(EdgeId) + sizeof(VertexId));
  constexpr std::uint64_t kMax = static_cast<std::uint64_t>(-1);
  std::uint64_t need64 = need > kMax ? kMax : static_cast<std::uint64_t>(need);
  check_allocation(need64, "generated graph '" + spec + "'").throw_if_error();
}

inline bool ends_with(const std::string& s, const char* suffix) {
  std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// Applies the per-run resource knobs before any load: the --mem-limit-mb
// ceiling override (kUsage if PASGAL_MEM_LIMIT_MB is also set — one knob,
// two owners) runs first so the shard spec and every footprint check see
// the effective ceiling.
inline void apply_mem_limit(const CommonOptions& common) {
  if (common.mem_limit_mb > 0) {
    set_memory_limit_mb(static_cast<unsigned long long>(common.mem_limit_mb));
  }
}

// Parses a --shard-mb value (drivers and the daemon): "auto", or a window
// size in MiB.
inline PgrShardSpec parse_shard_mb(const std::string& text) {
  PgrShardSpec out;
  if (text == "auto") {
    out.auto_shard = true;
    return out;
  }
  long long mb = cli::parse_int(
      text, "flag --shard-mb", 1,
      static_cast<long long>(::pasgal::internal::kMaxMemLimitMb),
      ErrorCategory::kUsage);
  out.window_bytes = static_cast<std::uint64_t>(mb) << 20;
  return out;
}

// Parses --shard-mb into a PgrShardSpec, rejecting the combinations that
// cannot honor the bounded-residency contract.
inline PgrShardSpec shard_spec(const std::string& spec,
                               const CommonOptions& common) {
  if (common.shard_mb.empty()) return {};
  if (!ends_with(spec, ".pgr")) {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb requires a .pgr input (got '" + spec +
                    "'): sharded execution windows a mapped file");
  }
  if (common.load_mode == "copy") {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb conflicts with --load copy: sharding windows "
                "the mapped file; a heap copy has no window");
  }
  if (common.validate) {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb conflicts with --validate: checksumming every "
                "section byte defeats the bounded residency window (sharded "
                "opens range-check shard-at-a-time instead)");
  }
  return parse_shard_mb(common.shard_mb);
}

}  // namespace internal

// Graph sources:
//   path ending in .adj / .bin        -> load from file (validated on read)
//   path ending in .pgr               -> mmap zero-copy by default
//                                        (see load_graph_timed for --load)
//   "rmat:<log2n>:<m>[:seed]"         -> RMAT generator
//   "grid:<rows>:<cols>"              -> undirected rectangle grid
//   "road:<rows>:<cols>[:two_way_pct]"-> directed road grid
//   "knn:<n>:<k>[:seed]"              -> k-NN graph
//   "chain:<n>[:directed]"            -> path graph
// Malformed specs (non-numeric, missing, or out-of-range fields) are
// reported as usage errors; corrupt files surface the reader's typed error.
inline Graph load_graph(const std::string& spec) {
  auto ends_with = [&](const char* suffix) {
    return internal::ends_with(spec, suffix);
  };
  if (ends_with(".adj")) return read_adj(spec);
  if (ends_with(".bin")) return read_bin(spec);
  if (ends_with(".pgr")) return read_pgr(spec);

  internal::Spec s = internal::split_spec(spec);
  if (s.kind == "rmat") {
    s.expect_at_most(3);
    long long log2n = s.required(1, "log2n", 1, 31);
    long long m = s.required(2, "m", 0, 1LL << 40);
    long long seed = s.optional(3, "seed", 0, (1LL << 62), 1);
    internal::guard_generated(std::uint64_t{1} << log2n,
                              static_cast<std::uint64_t>(m), spec);
    return gen::rmat(static_cast<int>(log2n), static_cast<std::size_t>(m),
                     static_cast<std::uint64_t>(seed));
  }
  if (s.kind == "grid") {
    s.expect_at_most(2);
    long long rows = s.required(1, "rows", 1, 1LL << 31);
    long long cols = s.required(2, "cols", 1, 1LL << 31);
    unsigned __int128 n =
        static_cast<unsigned __int128>(rows) * static_cast<unsigned __int128>(cols);
    if (n > (std::uint64_t{1} << 32)) {
      throw Error(ErrorCategory::kUsage,
                  "spec '" + spec + "': rows*cols exceeds the 32-bit "
                  "vertex-id space");
    }
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              4 * static_cast<std::uint64_t>(n), spec);
    return gen::rectangle_grid(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols));
  }
  if (s.kind == "road") {
    s.expect_at_most(3);
    long long rows = s.required(1, "rows", 1, 1LL << 31);
    long long cols = s.required(2, "cols", 1, 1LL << 31);
    long long pct = s.optional(3, "two_way_pct", 0, 100, 85);
    unsigned __int128 n =
        static_cast<unsigned __int128>(rows) * static_cast<unsigned __int128>(cols);
    if (n > (std::uint64_t{1} << 32)) {
      throw Error(ErrorCategory::kUsage,
                  "spec '" + spec + "': rows*cols exceeds the 32-bit "
                  "vertex-id space");
    }
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              4 * static_cast<std::uint64_t>(n), spec);
    return gen::road_grid(static_cast<std::size_t>(rows),
                          static_cast<std::size_t>(cols),
                          static_cast<double>(pct) / 100.0);
  }
  if (s.kind == "knn") {
    s.expect_at_most(3);
    long long n = s.required(1, "n", 1, 1LL << 32);
    long long k = s.required(2, "k", 1, 1024);
    long long seed = s.optional(3, "seed", 0, (1LL << 62), 1);
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(n) *
                                  static_cast<std::uint64_t>(k),
                              spec);
    return gen::knn_graph(static_cast<std::size_t>(n), static_cast<int>(k),
                          static_cast<std::uint64_t>(seed));
  }
  if (s.kind == "chain") {
    s.expect_at_most(2);
    long long n = s.required(1, "n", 1, 1LL << 32);
    long long directed = s.optional(2, "directed", 0, 1, 0);
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              2 * static_cast<std::uint64_t>(n), spec);
    return gen::chain(static_cast<std::size_t>(n), directed != 0);
  }
  throw Error(ErrorCategory::kUsage,
              "unknown graph spec '" + spec +
                  "': expected a .adj/.bin path or rmat:<log2n>:<m>[:seed] | "
                  "grid:<r>:<c> | road:<r>:<c>[:pct] | knn:<n>:<k>[:seed] | "
                  "chain:<n>[:1]");
}

// A loaded graph plus how it was materialized, for telemetry: drivers record
// the load mode, mapped bytes, and load wall time so the zero-copy claim is
// checkable from the metrics document alone.
struct LoadedGraph {
  Graph graph;  // weighted loads: the topology of `weighted`
  WeightedGraph<std::uint32_t> weighted;  // weighted loads only
  std::string mode;  // "adj" | "bin" | "pgr-mmap" | "pgr-copy" | "generated"
  // Weighted loads: the weights came from the file's weights section
  // ("file") or were generated in-process ("generated"). Empty otherwise.
  std::string weights_origin;
  // Bytes mapped by the load: the file size for a mmap open, 0 for heap
  // loads.
  std::uint64_t bytes_mapped = 0;
  double seconds = 0;
  // Compressed .pgr accounting (PgrOpenStats): encoded on-disk size of the
  // targets section and the decode wall time this open paid.
  bool compressed = false;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decode_wall_ns = 0;
};

// `weighted_file`: the file is the weighted variant of its format; its
// weights are read alongside the topology (see load_weighted_graph_timed).
// `--validate` re-checks a generated graph with the same CSR check the file
// readers always run, turns on the .pgr checksum + validate_csr pass, and
// prints a confirmation so runs on trusted pipelines can prove integrity.
inline LoadedGraph load_graph_timed(const std::string& spec,
                                    const CommonOptions& common,
                                    bool weighted_file = false) {
  internal::apply_mem_limit(common);
  PgrShardSpec shard = internal::shard_spec(spec, common);
  auto t0 = std::chrono::steady_clock::now();
  LoadedGraph out;
  bool adj = internal::ends_with(spec, ".adj");
  out.mode = adj                                 ? "adj"
             : internal::ends_with(spec, ".bin") ? "bin"
                                                 : "generated";
  if (internal::ends_with(spec, ".pgr")) {
    PgrOpen mode =
        common.load_mode == "copy" ? PgrOpen::kCopy : PgrOpen::kMmap;
    PgrOpenStats stats;
    if (weighted_file) {
      out.weighted =
          read_weighted_pgr(spec, mode, common.validate, &stats, shard);
    } else {
      out.graph = read_pgr(spec, mode, common.validate, &stats, shard);
    }
    out.compressed = stats.compressed;
    out.encoded_bytes = stats.encoded_target_bytes;
    out.decode_wall_ns = stats.decode_wall_ns;
    out.mode = mode == PgrOpen::kCopy ? "pgr-copy" : "pgr-mmap";
  } else if (weighted_file) {
    out.weighted = adj ? read_weighted_adj(spec) : read_weighted_bin(spec);
  } else {
    out.graph = load_graph(spec);
    if (common.validate) out.graph.validate().throw_if_error();
  }
  if (weighted_file) {
    out.graph = out.weighted.unweighted();
    out.weights_origin = "file";
  }
  if (common.validate) {
    std::printf("validate: ok (n=%zu m=%zu)\n", out.graph.num_vertices(),
                out.graph.num_edges());
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (out.graph.storage() != nullptr) {
    out.bytes_mapped = out.graph.storage()->bytes_mapped();
  }
  return out;
}

// Weighted load for the sssp driver: a weighted `.adj`, `.bin` or `.pgr`
// supplies its own weights (a `.pgr` maps them zero-copy alongside the
// topology); everything else loads the topology and attaches deterministic
// generated weights. Passing -w with a weighted file is a usage error — the
// flag could not take effect.
inline LoadedGraph load_weighted_graph_timed(
    const std::string& spec, const CommonOptions& common,
    std::uint32_t max_weight, bool max_weight_given) {
  internal::apply_mem_limit(common);
  if (has_weights(spec)) {
    if (max_weight_given) {
      throw Error(ErrorCategory::kUsage,
                  "-w conflicts with '" + spec +
                      "': the file carries weights; drop -w to use them, or "
                      "convert the graph without --weights");
    }
    return load_graph_timed(spec, common, /*weighted_file=*/true);
  }
  LoadedGraph base = load_graph_timed(spec, common);
  if (base.graph.windowed()) {
    // add_weights hashes every (u,v) pair, i.e. reads the whole adjacency —
    // exactly what a windowed open withholds.
    throw Error(ErrorCategory::kUsage,
                "'" + spec +
                    "' has no weights section, and generating weights reads "
                    "every edge target — impossible through a sharded "
                    "compressed open; convert with --weights to embed them");
  }
  base.weighted = gen::add_weights(base.graph, max_weight);
  base.graph = base.weighted.unweighted();
  base.weights_origin = "generated";
  return base;
}

// Compression trio (schema-checked to travel together): emitted only for
// compressed .pgr loads. The ratio compares the raw targets array the file
// would have carried uncompressed against the encoded section actually on
// disk; decode_wall_ns is the decode time the open paid.
inline void record_compression(MetricsDoc& doc, std::uint64_t num_edges,
                               std::uint64_t encoded_bytes,
                               std::uint64_t decode_wall_ns) {
  std::uint64_t raw_bytes = num_edges * sizeof(VertexId);
  doc.set_param("encoded_bytes", encoded_bytes);
  doc.set_param("compression_ratio",
                encoded_bytes == 0
                    ? 1.0
                    : static_cast<double>(raw_bytes) /
                          static_cast<double>(encoded_bytes));
  doc.set_param("decode_wall_ns", decode_wall_ns);
}

inline void record_load(MetricsDoc& doc, const LoadedGraph& loaded) {
  doc.set_param("load_mode", loaded.mode);
  doc.set_param("load_bytes_mapped", loaded.bytes_mapped);
  doc.set_param("load_wall_ns",
                static_cast<std::uint64_t>(loaded.seconds * 1e9));
  if (!loaded.weights_origin.empty()) {
    doc.set_param("weights", loaded.weights_origin);
  }
  if (loaded.compressed) {
    record_compression(doc, loaded.graph.num_edges(), loaded.encoded_bytes,
                       loaded.decode_wall_ns);
  }
}

// --- driver scaffolding ------------------------------------------------------

inline void print_stats(const char* algo, double seconds,
                        const Tracer& stats) {
  std::printf("%s: %.4f s | rounds %llu | edges scanned %llu | "
              "vertices visited %llu | max frontier %llu\n",
              algo, seconds, (unsigned long long)stats.rounds(),
              (unsigned long long)stats.edges_scanned(),
              (unsigned long long)stats.vertices_visited(),
              (unsigned long long)stats.max_frontier());
}

// Emits the collected metrics document when --json-metrics was given. The
// process peak RSS is stamped at emission time (the latest point we see), so
// heap-vs-mmap load comparisons are readable straight from the document.
inline void finish_metrics(const CommonOptions& common, MetricsDoc& doc) {
  if (common.json_metrics.empty()) return;
  doc.set_param("peak_rss_bytes", peak_rss_bytes());
  write_metrics_json(common.json_metrics, doc).throw_if_error();
  std::printf("metrics: wrote %s (%zu trials)\n", common.json_metrics.c_str(),
              doc.num_trials());
}

// --- the shared driver loop --------------------------------------------------

// What a family driver hands run_driver(): the -a choice and tuning flags,
// plus hooks for the few steps a driver does its own way.
struct Driver {
  explicit Driver(const char* family_name)
      : family(family_name), algo(algo_names(family_name).front()) {}

  const char* family;
  std::string algo;               // the -a choice: a catalog row of `family`
  AlgoOptions aopt;               // tuning flags; `source` for sourced rows
  std::vector<VertexId> sources;  // --sources batch; empty for single runs
  // Weighted rows: -w, the range of generated weights (and whether given).
  std::uint32_t max_weight = 100;
  bool max_weight_given = false;
  // Driver flags for the metrics params.
  std::function<void(MetricsDoc&)> record_flags;
  // Runs after the input is prepared, before the graph line (pagerank
  // --updates replays its log here).
  std::function<void(const Graph& loaded)> after_open;
  // Replaces the repeat loop (the incremental --updates modes): records its
  // own trials and returns the repair scope for the "delta" section.
  std::function<IncrementalStats(const Graph& loaded, const AlgoArgs& in,
                                 MetricsDoc& doc, const AlgoOptions& opt)>
      trials;
};

// The open/repeat/metrics run every driver shares: open the input once,
// prepare the row's input, print the graph and load lines, run the row
// `repeats` times (a stat line each, the result line after the first), and
// write the metrics document.
inline int run_driver(const std::string& spec, const CommonOptions& common,
                      const Driver& d) {
  const AlgoSpec& row = algo_spec(d.family, d.algo);
  const bool batch = !d.sources.empty();
  const bool sourced = row.takes_one() && !batch;
  const bool weighted = row.input == AlgoInput::kWeighted;
  LoadedGraph loaded =
      weighted ? load_weighted_graph_timed(spec, common, d.max_weight,
                                           d.max_weight_given)
               : load_graph_timed(spec, common);
  if (sourced && d.aopt.source >= loaded.graph.num_vertices()) {
    throw Error(ErrorCategory::kUsage,
                "source vertex " + std::to_string(d.aopt.source) +
                    " out of range (graph has " +
                    std::to_string(loaded.graph.num_vertices()) +
                    " vertices)");
  }
  PreparedInput prepared(row, loaded.graph, &loaded.weighted);
  AlgoArgs& in = prepared.args;
  in.sources = d.sources;
  if (d.after_open) d.after_open(loaded.graph);

  const Graph& g = *in.g;
  std::string what =
      batch ? "batch of " + std::to_string(d.sources.size()) + " sources, "
      : sourced ? "source=" + std::to_string(d.aopt.source) + ", "
                : "";
  std::string weights =
      weighted ? "weights=" + loaded.weights_origin + ", " : "";
  std::printf("graph%s: n=%zu m=%zu, %salgorithm=%s, %sworkers=%d\n",
              row.input == AlgoInput::kSymmetric ? " (symmetrized)" : "",
              g.num_vertices(), g.num_edges(), what.c_str(), d.algo.c_str(),
              weights.c_str(), num_workers());
  std::printf("load: %s in %.4f s (%llu bytes mapped)\n", loaded.mode.c_str(),
              loaded.seconds, (unsigned long long)loaded.bytes_mapped);

  Tracer tracer;
  AlgoOptions aopt = d.aopt;
  aopt.tracer = &tracer;
  MetricsDoc doc(d.family, d.algo, spec, g.num_vertices(), g.num_edges());
  if (sourced) doc.set_param("source", static_cast<std::uint64_t>(aopt.source));
  if (d.record_flags) d.record_flags(doc);

  IncrementalStats repair;
  if (d.trials) {
    repair = d.trials(loaded.graph, in, doc, aopt);
  } else {
    double best_batch_seconds = 0;  // fastest batch trial, for set_batch
    for (long long r = 0; r < common.repeats; ++r) {
      in.summarize = r == 0;
      AlgoRun run = row.run(in, aopt);
      print_stats(d.algo.c_str(), run.seconds, tracer);
      if (batch) {
        std::printf("batch: %zu sources in %.4f s (%.1f queries/s)\n",
                    d.sources.size(), run.seconds,
                    run.seconds > 0 ? static_cast<double>(d.sources.size()) /
                                          run.seconds
                                    : 0);
        if (r == 0 || run.seconds < best_batch_seconds) {
          best_batch_seconds = run.seconds;
        }
      }
      doc.add_trial(run.seconds, run.telemetry);
      if (r == 0) {
        for (const auto& [name, value] : run.params) {
          doc.set_param(name, value);
        }
        std::printf("%s\n", run.summary.c_str());
      }
    }
    if (batch) doc.set_batch(d.sources, best_batch_seconds);
  }
  record_load(doc, loaded);
  record_shard(doc, loaded.graph);
  record_delta(doc, loaded.graph, repair);
  finish_metrics(common, doc);
  return 0;
}

// The incremental --updates loop (bfs, cc): applies each batch of the log to
// `g` as a delta overlay, repairs in place through `repair(batch, opt)` (the
// driver's `aopt` with a per-batch tracer), and records one traced trial per
// batch. Repeats don't apply: a batch folds into the overlay exactly once.
// Returns the summed repair scope.
template <typename Repair>
IncrementalStats replay_repairs(const std::string& log_path, const Graph& g,
                                const AlgoOptions& aopt, MetricsDoc& doc,
                                const char* fallback_note, Repair&& repair) {
  IncrementalStats total;
  std::vector<std::vector<EdgeUpdate>> log = read_update_log(log_path);
  for (std::size_t b = 0; b < log.size(); ++b) {
    apply_updates(g, log[b]);
    Tracer tracer;
    AlgoOptions opt = aopt;
    opt.tracer = &tracer;
    auto t0 = std::chrono::steady_clock::now();
    IncrementalStats st = repair(std::span<const EdgeUpdate>(log[b]), opt);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    total.resettled += st.resettled;
    total.full_settled += st.full_settled;
    total.fallback = total.fallback || st.fallback;
    std::printf("update batch %zu: %zu ops, resettled %llu of %llu vertices "
                "in %.4f s%s\n",
                b + 1, log[b].size(), (unsigned long long)st.resettled,
                (unsigned long long)st.full_settled, secs,
                st.fallback ? fallback_note : "");
    doc.add_trial(secs, tracer.aggregate());
  }
  return total;
}

// Uniform error-to-exit-code mapping for the app drivers. The body either
// returns an exit code or throws; every throw is reported on stderr with its
// category so scripts can match on "error [category] ...".
template <typename Body>
int run_app(Body&& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::fprintf(stderr, "error %s\n", e.what());
    return exit_code(e.category());
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "error [resource] allocation failed (set PASGAL_MEM_LIMIT_MB "
                 "to reject oversized inputs earlier)\n");
    return exit_code(ErrorCategory::kResource);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error [internal] %s\n", e.what());
    return 1;
  }
}

// A driver's main() after its flag declarations: prints usage without a
// graph argument (exit 2), else parses argv and runs `body` under run_app.
template <typename Body>
int parse_and_run(int argc, char** argv, const cli::OptionSet& opts,
                  Body&& body) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <graph> %s\n", argv[0],
                 opts.usage().c_str());
    return 2;
  }
  return run_app([&]() {
    opts.parse(argc, argv, 2);
    return body();
  });
}

}  // namespace pasgal::apps
