// Generator utility: write a generated graph to .adj, .bin, or .pgr.
//
//   graph_gen <spec> <output.{adj,bin,pgr}> [--transpose] [--compress]
//             [--validate] [--json-metrics <path>]
//
// --transpose embeds the reverse CSR as extra .pgr sections so readers get a
// pre-populated transpose cache; --compress delta-varint encodes the .pgr
// targets section (version-2 file). Both are rejected for other formats.
//
// The metrics document records one trial covering generation + write (no
// rounds — generation has no frontier structure).
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include <chrono>

#include "common.h"

using namespace pasgal;

int main(int argc, char** argv) {
  bool with_transpose = false;
  bool compress = false;
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.flag("--transpose", &with_transpose).flag("--compress", &compress);
  common.declare(opts);
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <spec> <output.{adj,bin,pgr}> %s\n",
                 argv[0], opts.usage().c_str());
    return 2;
  }
  return apps::run_app([&]() {
    opts.parse(argc, argv, 3);
    std::string out = argv[2];
    auto ends_with = [&](const char* suffix) {
      return apps::internal::ends_with(out, suffix);
    };
    if (!ends_with(".adj") && !ends_with(".bin") && !ends_with(".pgr")) {
      throw Error(ErrorCategory::kUsage,
                  "output path '" + out + "' must end in .adj, .bin, or .pgr");
    }
    if (with_transpose && !ends_with(".pgr")) {
      throw Error(ErrorCategory::kUsage,
                  "--transpose requires a .pgr output (other formats have no "
                  "transpose sections)");
    }
    if (compress && !ends_with(".pgr")) {
      throw Error(ErrorCategory::kUsage,
                  "--compress requires a .pgr output");
    }
    Tracer tracer;
    auto start = std::chrono::steady_clock::now();
    Graph g = apps::load_graph_timed(argv[1], common).graph;
    if (ends_with(".bin")) {
      write_bin(g, out);
    } else if (ends_with(".pgr")) {
      PgrWriteOptions wopts;
      wopts.include_transpose = with_transpose;
      wopts.compress_targets = compress;
      write_pgr(g, out, wopts);
    } else {
      write_adj(g, out);
    }
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf("wrote %s: n=%zu m=%zu\n", out.c_str(), g.num_vertices(),
                g.num_edges());

    MetricsDoc doc("graph_gen", "gen", argv[1], g.num_vertices(),
                   g.num_edges());
    doc.set_param("output", out);
    doc.add_trial(seconds, tracer.aggregate());
    apps::finish_metrics(common, doc);
    return 0;
  });
}
