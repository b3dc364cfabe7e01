// Format converter: read a graph from any supported source and rewrite it
// in another format. The primary workflow is producing mmap-able `.pgr`
// files once, so every later driver/bench run opens them zero-copy:
//
//   graph_convert <input.{adj,bin,pgr}|spec> <output.{adj,bin,pgr}>
//                 [--transpose] [--symmetric] [--compress]
//                 [--weights <max_weight>]
//                 [--load mmap|copy] [--validate] [--json-metrics <path>]
//
// --transpose embeds the reverse CSR as extra .pgr sections (drivers and
// benches then skip rebuilding gt entirely); --symmetric records the
// caller-asserted symmetry flag in the .pgr header. Both are rejected for
// non-.pgr outputs. --weights attaches deterministic weights (uniform in
// [1, max_weight]) and writes the weighted variant of the output format,
// so sssp runs consume the file's weights section instead of regenerating.
// A weighted input keeps its weights and writes the weighted variant too;
// --weights (which would replace them) and --apply-updates (updates are
// unweighted) are usage errors on it.
// --validate applies the full checksum + validate_csr pass to .pgr inputs
// and re-validates the graph before writing. --compress writes a version-2
// .pgr whose targets section is delta-varint encoded (offsets, weights, and
// transpose stay raw so they remain zero-copy on open); the measured
// compression ratio is printed after the write.
//
// Dynamic-update tooling (graphs/delta.h):
//   --gen-updates N:SEED[:B] with a .plog output generates N random valid
//     edge updates (inserts of absent edges, deletes of present ones) in B
//     batches (default 4) and writes them as an update log. Deterministic
//     for a fixed input + spec.
//   --apply-updates <log.plog> replays the log onto the loaded graph as a
//     delta overlay, folds it (materialize_effective), and writes the folded
//     graph — the from-scratch rebuild reference the overlay equivalence
//     gate diffs against.
//
// Exit codes: 0 ok / 1 internal / 2 usage / 3 bad input / 4 resource.
#include <chrono>
#include <random>
#include <set>

#include "common.h"
#include "graphs/delta.h"

using namespace pasgal;

namespace {

// Random valid update stream: tracks the evolving effective edge set the
// same way apply_updates validates it (sequentially, within and across
// batches), so every generated op is accepted on replay.
std::vector<std::vector<EdgeUpdate>> gen_update_batches(const Graph& g,
                                                        std::uint64_t count,
                                                        std::uint64_t seed,
                                                        std::uint64_t nbatches) {
  std::size_t n = g.num_vertices();
  if (n == 0) {
    throw Error(ErrorCategory::kUsage,
                "--gen-updates: the input graph has no vertices");
  }
  auto key = [](VertexId u, VertexId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::set<std::uint64_t> present;
  for (std::size_t u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      present.insert(key(static_cast<VertexId>(u), v));
    }
  }
  // Unique keys, not raw adjacency: one delete suppresses every multigraph
  // copy of an edge, so a second delete of the same pair would be invalid.
  std::vector<std::uint64_t> edges(present.begin(), present.end());

  std::mt19937_64 rng(seed);
  std::vector<std::vector<EdgeUpdate>> batches(nbatches);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<EdgeUpdate>& batch = batches[i * nbatches / count];
    bool do_delete = !edges.empty() && (rng() & 1) != 0;
    if (!do_delete) {
      // Rejection-sample an absent edge; a near-complete graph may defeat
      // this, so fall back to a delete rather than spinning.
      bool found = false;
      for (int attempt = 0; attempt < 64 && !found; ++attempt) {
        VertexId u = static_cast<VertexId>(rng() % n);
        VertexId v = static_cast<VertexId>(rng() % n);
        if (present.count(key(u, v)) != 0) continue;
        present.insert(key(u, v));
        edges.push_back(key(u, v));
        batch.push_back({EdgeUpdate::Op::kInsert, u, v});
        found = true;
      }
      if (found) continue;
      if (edges.empty()) {
        throw Error(ErrorCategory::kUsage,
                    "--gen-updates: graph too dense to sample absent edges "
                    "and no edges left to delete");
      }
      do_delete = true;
    }
    std::size_t pick = rng() % edges.size();
    std::uint64_t k = edges[pick];
    edges[pick] = edges.back();
    edges.pop_back();
    present.erase(k);
    batch.push_back({EdgeUpdate::Op::kDelete,
                     static_cast<VertexId>(k >> 32),
                     static_cast<VertexId>(k & 0xFFFFFFFFu)});
  }
  // Drop empty batches (count < nbatches): the log format allows them, but
  // an empty batch is an invalid apply_updates call on replay.
  std::vector<std::vector<EdgeUpdate>> out;
  for (auto& b : batches) {
    if (!b.empty()) out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_transpose = false;
  bool symmetric = false;
  bool compress = false;
  long long weights_max = 0;  // 0: unweighted output
  std::string gen_updates;          // N:SEED[:B]
  std::string apply_updates_path;   // .plog to replay + fold
  cli::OptionSet opts;
  cli::CommonOptions common;
  opts.flag("--transpose", &with_transpose)
      .flag("--symmetric", &symmetric)
      .flag("--compress", &compress)
      .integer("--weights", &weights_max, 1, 0xFFFFFFFFLL, "max_weight")
      .text("--gen-updates", &gen_updates, "N:SEED[:B]")
      .text("--apply-updates", &apply_updates_path, "updates.plog");
  common.declare(opts);
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <input> <output.{adj,bin,pgr}> %s\n",
                 argv[0], opts.usage().c_str());
    return 2;
  }
  return apps::run_app([&]() {
    opts.parse(argc, argv, 3);
    std::string out = argv[2];
    auto out_ends_with = [&](const char* suffix) {
      return apps::internal::ends_with(out, suffix);
    };
    if (!out_ends_with(".adj") && !out_ends_with(".bin") &&
        !out_ends_with(".pgr") && !out_ends_with(".plog")) {
      throw Error(ErrorCategory::kUsage,
                  "output path '" + out +
                      "' must end in .adj, .bin, .pgr, or .plog");
    }
    if (out_ends_with(".plog") != !gen_updates.empty()) {
      throw Error(ErrorCategory::kUsage,
                  "--gen-updates and a .plog output go together (the spec "
                  "generates an update log, nothing else)");
    }
    if (!gen_updates.empty() &&
        (with_transpose || symmetric || compress || weights_max > 0 ||
         !apply_updates_path.empty())) {
      throw Error(ErrorCategory::kUsage,
                  "--gen-updates writes only an update log; it conflicts "
                  "with --transpose/--symmetric/--compress/--weights/"
                  "--apply-updates");
    }
    if (!apply_updates_path.empty() && weights_max > 0) {
      throw Error(ErrorCategory::kUsage,
                  "--apply-updates conflicts with --weights (graph updates "
                  "are unweighted)");
    }
    if ((with_transpose || symmetric) && !out_ends_with(".pgr")) {
      throw Error(ErrorCategory::kUsage,
                  "--transpose/--symmetric only apply to .pgr outputs");
    }
    if (compress && !out_ends_with(".pgr")) {
      throw Error(ErrorCategory::kUsage,
                  "--compress only applies to .pgr outputs");
    }

    bool file_weights = has_weights(argv[1]);
    if (file_weights && (weights_max > 0 || !apply_updates_path.empty())) {
      throw Error(ErrorCategory::kUsage,
                  std::string("'") + argv[1] +
                      "' carries weights: --weights would replace them, and "
                      "--apply-updates cannot patch them (updates are "
                      "unweighted)");
    }

    apps::LoadedGraph loaded =
        apps::load_graph_timed(argv[1], common, file_weights);
    Graph& g = loaded.graph;
    std::printf("load: %s in %.4f s (n=%zu m=%zu, %llu bytes mapped)\n",
                loaded.mode.c_str(), loaded.seconds, g.num_vertices(),
                g.num_edges(), (unsigned long long)loaded.bytes_mapped);

    if (!gen_updates.empty()) {
      // N:SEED[:B] — update count, RNG seed, batch count.
      std::size_t c1 = gen_updates.find(':');
      if (c1 == std::string::npos) {
        throw Error(ErrorCategory::kUsage,
                    "--gen-updates expects N:SEED[:B], got '" + gen_updates +
                        "'");
      }
      std::size_t c2 = gen_updates.find(':', c1 + 1);
      std::uint64_t count = static_cast<std::uint64_t>(cli::parse_int(
          gen_updates.substr(0, c1), "gen-updates count", 1, 1LL << 32,
          ErrorCategory::kUsage));
      std::uint64_t seed = static_cast<std::uint64_t>(cli::parse_int(
          gen_updates.substr(c1 + 1, c2 == std::string::npos
                                         ? std::string::npos
                                         : c2 - c1 - 1),
          "gen-updates seed", 0, (1LL << 62), ErrorCategory::kUsage));
      std::uint64_t nbatches =
          c2 == std::string::npos
              ? 4
              : static_cast<std::uint64_t>(cli::parse_int(
                    gen_updates.substr(c2 + 1), "gen-updates batches", 1,
                    1LL << 20, ErrorCategory::kUsage));
      if (nbatches > count) nbatches = count;
      std::vector<std::vector<EdgeUpdate>> batches =
          gen_update_batches(g, count, seed, nbatches);
      write_update_log(out, batches);
      std::uint64_t ins = 0, del = 0;
      for (const auto& b : batches) {
        for (const EdgeUpdate& u : b) {
          (u.op == EdgeUpdate::Op::kInsert ? ins : del) += 1;
        }
      }
      std::printf("wrote %s: %llu updates (%llu inserts, %llu deletes) in "
                  "%zu batches\n",
                  out.c_str(), (unsigned long long)(ins + del),
                  (unsigned long long)ins, (unsigned long long)del,
                  batches.size());
      MetricsDoc doc("graph_convert", "gen-updates", argv[1],
                     g.num_vertices(), g.num_edges());
      doc.set_param("output", out);
      doc.set_param("updates", ins + del);
      doc.set_param("seed", seed);
      apps::record_load(doc, loaded);
      Tracer tracer;
      doc.add_trial(loaded.seconds, tracer.aggregate());
      apps::finish_metrics(common, doc);
      return 0;
    }

    std::uint64_t replayed_ins = 0, replayed_del = 0, replayed_batches = 0;
    if (!apply_updates_path.empty()) {
      ApplyStats st = replay_update_log(g, apply_updates_path);
      replayed_ins = st.inserts;
      replayed_del = st.deletes;
      replayed_batches = st.batches;
      std::printf("replayed %s: %llu pending inserts, %llu pending deletes "
                  "(%llu batches); folding into the output\n",
                  apply_updates_path.c_str(), (unsigned long long)st.inserts,
                  (unsigned long long)st.deletes,
                  (unsigned long long)st.batches);
      // Fold the overlay now: the writers below stream the base CSR spans.
      g = materialize_effective(g);
    }

    auto start = std::chrono::steady_clock::now();
    PgrWriteOptions wopts;
    wopts.include_transpose = with_transpose;
    wopts.symmetric = symmetric;
    wopts.compress_targets = compress;
    auto write = [&](const auto& graph) {
      if (out_ends_with(".pgr")) {
        write_pgr(graph, out, wopts);
      } else if (out_ends_with(".bin")) {
        write_bin(graph, out);
      } else {
        write_adj(graph, out);
      }
    };
    if (file_weights) {
      write(loaded.weighted);
    } else if (weights_max > 0) {
      write(gen::add_weights(g, static_cast<std::uint32_t>(weights_max)));
    } else {
      write(g);
    }
    double write_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf("wrote %s in %.4f s%s\n", out.c_str(), write_seconds,
                with_transpose ? " (with transpose sections)" : "");
    std::uint64_t out_encoded = 0;
    if (compress) {
      PgrInfo info = probe_pgr(out);
      out_encoded = info.encoded_target_bytes;
      std::uint64_t raw = g.num_edges() * sizeof(VertexId);
      std::printf("compressed targets: %llu -> %llu bytes (%.2fx)\n",
                  (unsigned long long)raw, (unsigned long long)out_encoded,
                  out_encoded == 0 ? 1.0
                                   : static_cast<double>(raw) /
                                         static_cast<double>(out_encoded));
    }

    MetricsDoc doc("graph_convert", "convert", argv[1], g.num_vertices(),
                   g.num_edges());
    doc.set_param("output", out);
    doc.set_param("with_transpose", static_cast<std::uint64_t>(with_transpose));
    doc.set_param("compress", static_cast<std::uint64_t>(compress));
    doc.set_param("weights_max", static_cast<std::uint64_t>(weights_max));
    if (replayed_batches != 0) {
      doc.set_delta(replayed_ins, replayed_del, replayed_batches, 0, 0, false);
    }
    apps::record_load(doc, loaded);
    Tracer tracer;
    doc.add_trial(loaded.seconds + write_seconds, tracer.aggregate());
    apps::finish_metrics(common, doc);
    return 0;
  });
}
