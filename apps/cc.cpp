// Connected-components driver (mirrors the upstream PASGAL per-algorithm
// executables). The input graph is symmetrized automatically so all three
// variants agree: label propagation only pushes labels along out-edges, so
// on a directed input it would not match union-find connectivity.
//
//   cc <graph> [-a uf|lp|ldd] [--updates <log.plog>] [-r repeats] [--serve N]
//      [--validate] [--json-metrics <path>]
//
// `--updates` switches to incremental mode (-a uf only): baseline labels
// from the pristine graph, then each batch in the update log is applied as
// a delta overlay and the labels are repaired in place
// (algorithms/incremental.h — union-find over labels for insert-only
// batches, full recompute once a delete splits is possible). The metrics
// document gains a "delta" section.
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "algorithms/cc/cc.h"
#include "common.h"

using namespace pasgal;

namespace {

// The union-find labelling the --updates repair maintains.
constexpr const char* kRepairAlgo = "uf";

}  // namespace

int main(int argc, char** argv) {
  apps::Driver d("cc");
  bool algo_given = false;
  std::string updates_path;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.choice("-a", &d.algo, algo_names(d.family), &algo_given)
      .text("--updates", &updates_path, "updates.plog");
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    if (!updates_path.empty()) {
      if (common.serve != 0) {
        throw Error(ErrorCategory::kUsage,
                    "--updates is stateful (each batch applies once); it "
                    "conflicts with --serve");
      }
      if (algo_given && d.algo != kRepairAlgo) {
        throw Error(ErrorCategory::kUsage,
                    "--updates repairs union-find labels; only -a uf applies");
      }
      d.algo = kRepairAlgo;
      // Baseline labels from the pristine symmetrized view, then
      // batch-by-batch apply + in-place label repair on the directed base
      // (incremental_cc symmetrizes through the overlay itself).
      d.trials = [&](const Graph& g, const AlgoArgs& in, MetricsDoc& doc,
                     const AlgoOptions& aopt) {
        RunReport<ConnectivityResult> base = connected_components(*in.g, aopt);
        apps::print_stats(kRepairAlgo, base.seconds, *aopt.tracer);
        doc.add_trial(base.seconds, base.telemetry);
        std::vector<VertexId> label = std::move(base.output.label);
        IncrementalStats repair = apps::replay_repairs(
            updates_path, g, aopt, doc, " (delete fallback: full recompute)",
            [&](std::span<const EdgeUpdate> batch, const AlgoOptions& o) {
              return incremental_cc(g, batch, label, o);
            });
        std::printf("after updates: %s\n", cc_summary(label).c_str());
        return repair;
      };
    }
    return apps::run_driver(argv[1], common, d);
  });
}
