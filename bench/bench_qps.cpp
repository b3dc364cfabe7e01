// Batched-query throughput: one bit-parallel ms_bfs sweep over k sources
// versus k independent single-source pasgal_bfs runs — the serving-arc
// question in queries/sec rather than per-traversal latency. Every batch run
// also cross-checks its per-source distances against the singles, so the
// numbers come with the equivalence proof attached. Results land in
// BENCH_qps.json (each batch document carries the "batch" section).
//
//   bench_qps                              — suite subset, batch of 64
//   bench_qps <graph.pgr> [k]              — one graph, batch of k
//   bench_qps <graph.pgr> [k] --min-speedup F
//       gate mode for bench/check.sh: the batch and the sequential singles
//       run kGateRuns times, alternating, and the exit code is 1 unless the
//       median per-run speedup of every measured batch reaches F (one
//       wall-clock sample is at the mercy of a busy host).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "parlay/hash_rng.h"
#include "pasgal/cli.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

std::vector<VertexId> pick_sources(std::size_t n, std::size_t k) {
  std::vector<VertexId> sources;
  std::unordered_set<VertexId> seen;
  Random rng(7);
  for (std::uint64_t i = 0; sources.size() < k; ++i) {
    VertexId v = static_cast<VertexId>(rng.ith_rand(i, n));
    if (seen.insert(v).second) sources.push_back(v);
  }
  return sources;
}

constexpr int kGateRuns = 5;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::size_t h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : (xs[h - 1] + xs[h]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  std::size_t k = 64;
  double min_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (graph_path.empty()) {
      graph_path = argv[i];
    } else {
      k = static_cast<std::size_t>(
          cli::parse_int(argv[i], "batch size", 1,
                         static_cast<long long>(kMaxBatchSources),
                         ErrorCategory::kUsage));
    }
  }

  Table table({"Batch(s)", "Singles(s)", "QPS-batch", "QPS-single", "Speedup"});
  BenchJson metrics("qps");
  bool gate_ok = true;

  auto run_one = [&](const std::string& cls, const std::string& name,
                     Graph g) -> bool {
    if (g.num_vertices() < k) {
      std::fprintf(stderr, "%s: graph too small for a batch of %zu\n",
                   name.c_str(), k);
      return false;
    }
    Graph gt = g.transpose();
    std::vector<VertexId> sources = pick_sources(g.num_vertices(), k);

    BatchOptions bopt;
    bopt.sources = sources;
    AlgoOptions sopt;
    MetricsDoc batch_doc("bfs", "ms", name, g.num_vertices(), g.num_edges());
    MetricsDoc singles_doc("bfs", "pasgal-singles", name, g.num_vertices(),
                           g.num_edges());
    singles_doc.set_param("batch_size", static_cast<std::uint64_t>(k));
    const int runs = min_speedup > 0 ? kGateRuns : 1;
    std::vector<double> batch_runs, singles_runs, speedup_runs;
    for (int r = 0; r < runs; ++r) {
      BatchReport<std::vector<std::uint32_t>> batch = ms_bfs(g, gt, bopt);
      batch_doc.add_trial(batch.seconds, batch.telemetry);
      double singles_seconds = 0;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        sopt.source = sources[i];
        RunReport<std::vector<std::uint32_t>> single = pasgal_bfs(g, gt, sopt);
        singles_seconds += single.seconds;
        singles_doc.add_trial(single.seconds, single.telemetry);
        if (single.output != batch.per_source[i].output) {
          std::fprintf(stderr,
                       "QPS MISMATCH on %s: batch distances for source %u "
                       "differ from the single-source run\n",
                       name.c_str(), sources[i]);
          return false;
        }
      }
      batch_runs.push_back(batch.seconds);
      singles_runs.push_back(singles_seconds);
      speedup_runs.push_back(
          batch.seconds > 0 ? singles_seconds / batch.seconds : 0);
    }
    double batch_seconds = median(batch_runs);
    double singles_seconds = median(singles_runs);
    double speedup = median(speedup_runs);
    batch_doc.set_batch(sources, batch_seconds);
    metrics.add(batch_doc);
    metrics.add(singles_doc);

    double kd = static_cast<double>(k);
    double qps_batch = batch_seconds > 0 ? kd / batch_seconds : 0;
    double qps_single = singles_seconds > 0 ? kd / singles_seconds : 0;
    table.add_row(cls, name,
                  {batch_seconds, singles_seconds, qps_batch, qps_single,
                   speedup});
    if (min_speedup > 0 && speedup < min_speedup) {
      std::fprintf(stderr,
                   "QPS GATE FAIL on %s: batch of %zu reached %.2fx the "
                   "sequential singles (median of %d runs; need >= %.2fx)\n",
                   name.c_str(), k, speedup, runs, min_speedup);
      gate_ok = false;
    }
    return true;
  };

  bool ok = true;
  if (!graph_path.empty()) {
    ok = run_one("File", graph_path, read_pgr(graph_path));
  } else {
    // Low-diameter classes are the serving-arc sweet spot (few shared rounds
    // amortize the whole batch); the road lattice keeps the claim honest on
    // a high-diameter regime.
    for (const auto& spec : graph_suite()) {
      if (spec.name != "SOC-LJ" && spec.name != "WEB-SD" &&
          spec.name != "ROAD-NA") {
        continue;
      }
      ok = run_one(spec.cls, spec.name, spec.build()) && ok;
    }
  }

  table.print("Batched MS-BFS throughput vs sequential single-source runs",
              "seconds / queries per second");
  if (!metrics.write() || !ok) return 1;
  if (min_speedup > 0) {
    if (!gate_ok) return 1;
    std::printf("qps gate: ok (>= %.2fx on every graph)\n", min_speedup);
  }
  return 0;
}
