// SCC driver (mirrors the upstream PASGAL per-algorithm executables).
//
//   scc <graph> [-a pasgal|gbbs|multistep|seq] [-t tau] [-r repeats]
//       [--serve N] [--validate] [--json-metrics <path>]
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "common.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("scc");
  long long tau = 512;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.choice("-a", &d.algo, algo_names(d.family))
      .integer("-t", &tau, 1, 0xFFFFFFFFLL, "tau");
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    d.aopt.vgc.tau = static_cast<std::uint32_t>(tau);
    d.record_flags = [&](MetricsDoc& doc) {
      doc.set_param("tau", static_cast<std::uint64_t>(tau));
    };
    return apps::run_driver(argv[1], common, d);
  });
}
