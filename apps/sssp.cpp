// SSSP driver (mirrors the upstream PASGAL per-algorithm executables).
// A weighted `.pgr` input supplies its own weights section (zero-copy with
// the topology); other inputs get deterministic generated weights (uniform
// in [1, max_weight]). -w only applies to generated weights and is rejected
// alongside a weighted file.
//
//   sssp <graph> [-s source | --sources <v0,v1,...|@file>]
//        [-a rho|delta|em|seq] [-w max_weight] [-d delta]
//        [-t tau] [-r repeats] [--validate] [--json-metrics <path>]
//
// `--sources` switches to batched landmark mode: the stepping framework runs
// once per listed source (max 64) under one shared tracer, and the metrics
// document gains a "batch" section. Only the stepping variants batch; -a em
// and -a seq are per-query baselines.
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include "common.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("sssp");
  long long source = 0;
  bool source_given = false;
  std::string sources_text;
  long long max_weight = 100;
  long long delta = 32;
  long long tau = 512;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.integer("-s", &source, 0, 0xFFFFFFFFLL, "source", &source_given)
      .choice("-a", &d.algo, algo_names(d.family))
      .text("--sources", &sources_text, "v0,v1,...|@file")
      .integer("-w", &max_weight, 1, 0xFFFFFFFFLL, "max_weight",
               &d.max_weight_given)
      .integer("-d", &delta, 1, 1LL << 40, "delta")
      .integer("-t", &tau, 1, 0xFFFFFFFFLL, "tau");
  common.declare(opts);
  return apps::parse_and_run(argc, argv, opts, [&]() {
    if (!sources_text.empty()) {
      if (source_given) {
        throw Error(ErrorCategory::kUsage,
                    "-s conflicts with --sources: give one source or a batch");
      }
      if (!algo_spec(d.family, d.algo).takes_batch()) {
        throw Error(ErrorCategory::kUsage,
                    "--sources batches the stepping framework; -a " + d.algo +
                        " has no batch mode (use rho or delta)");
      }
      d.sources = cli::parse_sources(sources_text);
    }
    d.aopt.source = static_cast<VertexId>(source);
    d.aopt.vgc.tau = static_cast<std::uint32_t>(tau);
    d.aopt.sssp_delta = static_cast<std::uint64_t>(delta);
    d.max_weight = static_cast<std::uint32_t>(max_weight);
    d.record_flags = [&](MetricsDoc& doc) {
      doc.set_param("max_weight", static_cast<std::uint64_t>(max_weight));
      doc.set_param("delta", static_cast<std::uint64_t>(delta));
      doc.set_param("tau", static_cast<std::uint64_t>(tau));
    };
    return apps::run_driver(argv[1], common, d);
  });
}
