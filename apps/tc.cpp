// Triangle-counting driver (mirrors the upstream PASGAL per-algorithm
// executables). The input graph is symmetrized automatically (triangles are
// defined on the undirected graph); both variants need whole-graph adjacency
// access, so sharded opens fail with a typed usage error.
//
//   tc <graph> [-a pasgal|seq] [-r repeats] [--serve N]
//      [--validate] [--json-metrics <path>]
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "common.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("tc");
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.choice("-a", &d.algo, algo_names(d.family));
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    return apps::run_driver(argv[1], common, d);
  });
}
