// PageRank driver (mirrors the upstream PASGAL per-algorithm executables).
// The pull accumulation runs over the transpose, so a .pgr input needs
// transpose sections (graph_convert --transpose) unless it is a generated
// spec; the pasgal variant works on sharded opens (the dense pull walks the
// transpose's shard plan), seq is in-core only.
//
//   pagerank <graph> [-a pasgal|seq] [-i max_iterations] [--epsilon eps]
//            [--damping d] [--updates <log.plog>] [-r repeats] [--serve N]
//            [--validate] [--json-metrics <path>]
//
// The result line prints with %.17g (round-trip precision) so the identity
// gates in bench/check.sh can diff ranks byte-for-byte across load modes,
// worker counts, and sharded vs in-core runs.
//
// `--updates` replays an update log onto the graph as a delta overlay
// before ranking: both kernels gather through the overlay in the same
// ascending order a rebuilt CSR would use, so the %.17g result line is
// byte-identical to running on the folded graph. The metrics document
// gains a "delta" section.
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "common.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("pagerank");
  long long iterations = 100;
  double epsilon = 1e-7;
  double damping = 0.85;
  std::string updates_path;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.choice("-a", &d.algo, algo_names(d.family))
      .integer("-i", &iterations, 1, 1000000, "max_iterations")
      .real("--epsilon", &epsilon, 0.0, 1.0, "eps")
      .real("--damping", &damping, 0.0, 1.0, "d")
      .text("--updates", &updates_path, "updates.plog");
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    d.aopt.pagerank_iterations = static_cast<std::uint32_t>(iterations);
    d.aopt.pagerank_epsilon = epsilon;
    d.aopt.pagerank_damping = damping;
    d.record_flags = [&](MetricsDoc& doc) {
      doc.set_param("max_iterations", static_cast<std::uint64_t>(iterations));
      doc.set_param("epsilon", epsilon);
      doc.set_param("damping", damping);
    };
    if (!updates_path.empty()) {
      if (common.serve != 0) {
        throw Error(ErrorCategory::kUsage,
                    "--updates is stateful (the log replays once); it "
                    "conflicts with --serve");
      }
      d.after_open = [&](const Graph& g) {
        ApplyStats st = replay_update_log(g, updates_path);
        std::printf("replayed %s: %llu pending inserts, %llu pending "
                    "deletes (%llu batches)\n",
                    updates_path.c_str(), (unsigned long long)st.inserts,
                    (unsigned long long)st.deletes,
                    (unsigned long long)st.batches);
      };
    }
    return apps::run_driver(argv[1], common, d);
  });
}
