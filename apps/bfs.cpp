// BFS driver (mirrors the upstream PASGAL per-algorithm executables).
//
//   bfs <graph> [-s source | --sources <v0,v1,...|@file>]
//       [-a pasgal|gbbs|gapbs|seq|ms] [-t tau] [-r repeats]
//       [--updates <log.plog>] [--serve N] [--validate]
//       [--json-metrics <path>]
//
// `--sources` switches to batched mode: the bit-parallel ms_bfs kernel
// advances every listed source (max 64) through one shared sweep, prints a
// per-source summary, and the metrics document gains a "batch" section.
//
// `--updates` switches to incremental mode: a baseline gbbs (edge_map) run
// settles the pristine graph, then each batch in the update log is applied
// as a delta overlay and the distances are repaired in place
// (algorithms/incremental.h) — re-settling only the affected vertices. The
// metrics document gains a "delta" section reporting the repair scope.
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "algorithms/bfs/bfs.h"
#include "common.h"

using namespace pasgal;

namespace {

// The overlay-aware edge_map kernel the --updates repair maintains.
constexpr const char* kRepairAlgo = "gbbs";

// The first bfs row that runs a source batch: --sources without -a.
std::string batch_algo() {
  for (const AlgoSpec& row : algo_catalog()) {
    if (row.family == std::string_view("bfs") && row.takes_batch()) {
      return row.name;
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  apps::Driver d("bfs");
  bool algo_given = false;
  long long source = 0;
  bool source_given = false;
  std::string sources_text;
  std::string updates_path;
  long long tau = 512;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.integer("-s", &source, 0, 0xFFFFFFFFLL, "source", &source_given)
      .choice("-a", &d.algo, algo_names(d.family), &algo_given)
      .text("--sources", &sources_text, "v0,v1,...|@file")
      .text("--updates", &updates_path, "updates.plog")
      .integer("-t", &tau, 1, 0xFFFFFFFFLL, "tau");
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    if (!sources_text.empty()) {
      if (source_given) {
        throw Error(ErrorCategory::kUsage,
                    "-s conflicts with --sources: give one source or a batch");
      }
      if (!algo_given) d.algo = batch_algo();
      if (!algo_spec(d.family, d.algo).takes_batch()) {
        throw Error(ErrorCategory::kUsage,
                    "--sources runs the bit-parallel ms kernel; -a " + d.algo +
                        " has no batch mode");
      }
      d.sources = cli::parse_sources(sources_text);
    } else if (!algo_spec(d.family, d.algo).takes_one()) {
      throw Error(ErrorCategory::kUsage,
                  "-a " + d.algo +
                      " needs a batch: give the sources via --sources");
    }
    d.aopt.source = static_cast<VertexId>(source);
    d.aopt.vgc.tau = static_cast<std::uint32_t>(tau);
    d.record_flags = [&](MetricsDoc& doc) {
      doc.set_param("tau", static_cast<std::uint64_t>(tau));
    };

    if (!updates_path.empty()) {
      if (!sources_text.empty()) {
        throw Error(ErrorCategory::kUsage,
                    "--updates conflicts with --sources (incremental repair "
                    "maintains one distance vector)");
      }
      if (common.serve != 0) {
        throw Error(ErrorCategory::kUsage,
                    "--updates is stateful (each batch applies once); it "
                    "conflicts with --serve");
      }
      if (algo_given && d.algo != kRepairAlgo) {
        throw Error(ErrorCategory::kUsage,
                    "--updates repairs through the overlay-aware edge_map "
                    "kernel; only -a gbbs applies");
      }
      d.algo = kRepairAlgo;
      // Baseline settle on the pristine graph, then batch-by-batch apply +
      // in-place repair.
      d.trials = [&](const Graph& g, const AlgoArgs& in, MetricsDoc& doc,
                     const AlgoOptions& aopt) {
        RunReport<std::vector<std::uint32_t>> base = gbbs_bfs(g, *in.gt, aopt);
        apps::print_stats(kRepairAlgo, base.seconds, *aopt.tracer);
        doc.add_trial(base.seconds, base.telemetry);
        std::vector<std::uint32_t> dist = std::move(base.output);
        IncrementalStats repair = apps::replay_repairs(
            updates_path, g, aopt, doc, " (churn fallback: full recompute)",
            [&](std::span<const EdgeUpdate> batch, const AlgoOptions& o) {
              return incremental_bfs(g, *in.gt, batch, dist, o);
            });
        std::printf("after updates: %s\n", bfs_summary(dist).c_str());
        return repair;
      };
    }
    return apps::run_driver(argv[1], common, d);
  });
}
