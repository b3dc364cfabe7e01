// Unified run context for the algorithm entry points.
//
// Every algorithm variant has exactly one signature,
//
//   RunReport<T> variant(const Graph& g, [const Graph& gt,] const AlgoOptions&)
//
// declared in its family header and defined in its own .cpp. The body checks
// the variant's catalog guard (admit, algorithms/catalog.h), then runs inside
// run_traced() below, reading its knobs from the AlgoOptions. `AlgoOptions`
// carries the union of all per-family tuning knobs (each family reads only
// its own), the source vertex, and an optional caller-owned Tracer;
// `RunReport` bundles the output with the run's wall time and aggregated
// telemetry. Callers name only the fields they set:
//
//   pasgal_bfs(g, gt, {.source = s}).output
//
// Batched multi-source queries use the same shape one level up:
// `BatchOptions` (a source list plus the shared AlgoOptions) in,
// `BatchReport<T>` (per-source RunReport slices plus batch-level wall time
// and telemetry) out. See ms_bfs (bfs.h) and batch_sssp (sssp.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/cancel.h"
#include "pasgal/telemetry.h"
#include "pasgal/vgc.h"

namespace pasgal {

struct AlgoOptions {
  // Source vertex for single-source algorithms (BFS, SSSP, PPSP start).
  VertexId source = 0;

  // VGC knobs (BFS, SSSP, SCC, k-core, toposort).
  VgcParams vgc = {};

  // Direction optimization (BFS, SCC): dense rounds when frontier work
  // exceeds m/dense_threshold_den.
  EdgeId dense_threshold_den = 20;
  bool use_dense = true;

  // Stepping SSSP: rho-stepping by default, delta-stepping if
  // sssp_delta_mode is set.
  bool sssp_delta_mode = false;
  std::uint64_t sssp_delta = 32;
  std::size_t sssp_rho = 8192;

  // SCC pivot batching (scc_beta/scc_seed also drive the ldd cc variant).
  double scc_beta = 2.0;
  std::uint64_t scc_seed = 42;
  std::size_t multistep_cutoff = 1000;

  // PageRank power iteration: round cap, L1 convergence threshold, damping.
  std::uint32_t pagerank_iterations = 100;
  double pagerank_epsilon = 1e-7;
  double pagerank_damping = 0.85;

  // When non-null the run records into this tracer (reset at run start) and
  // the caller can keep it for later inspection; when null a run-local
  // tracer is used and survives only as RunReport::telemetry. A variant that
  // runs another inside its own run passes its tracer here; see run_traced.
  Tracer* tracer = nullptr;

  // Cooperative cancellation/deadline token (see pasgal/cancel.h). Checked
  // by the parallel BFS variants and the stepping SSSP framework at every
  // round/step boundary; an expired token unwinds the run with a typed
  // kTimeout Error and leaves the worker pool healthy. Sequential baselines
  // ignore it (they run no rounds to check between).
  const CancelToken* cancel = nullptr;
};

// Output of one algorithm run under the modern API.
template <typename T>
struct RunReport {
  T output;
  double seconds = 0;
  RunTelemetry telemetry;
};

// --- batched multi-source queries -------------------------------------------
//
// A serving workload is dominated by many small queries on one pinned graph;
// the batch surface amortizes them. The bit-parallel kernels advance one
// source per bit of a machine word, so a batch holds at most 64 sources.

inline constexpr std::size_t kMaxBatchSources = 64;  // one source per bit

// One batched query: up to kMaxBatchSources distinct sources advanced
// together. Tuning knobs, the shared CancelToken, and the optional
// caller-owned tracer ride in `algo` (its single-source `source` field is
// ignored — the batch is the source set).
struct BatchOptions {
  std::vector<VertexId> sources;
  AlgoOptions algo = {};
};

// Output of one batched run: one RunReport slice per source, in the order
// the sources were given, plus batch-level wall time and telemetry. A
// bit-parallel batch advances every source through one shared frontier
// sweep, so a slice's `seconds` is the amortized share (batch wall / batch
// size) — the per-query cost a serving system actually pays — and its
// telemetry is empty; the shared sweep's rounds live in the batch-level
// `telemetry`. Per-source wrappers (batch_sssp) fill real per-slice walls.
template <typename T>
struct BatchReport {
  std::vector<RunReport<T>> per_source;
  double seconds = 0;
  RunTelemetry telemetry;

  std::size_t batch_size() const { return per_source.size(); }
  double qps() const {
    return seconds > 0 ? static_cast<double>(per_source.size()) / seconds : 0;
  }
};

// Validates a batch source list against a graph with `n` vertices:
// non-empty, at most kMaxBatchSources entries, duplicate-free, every vertex
// < n. Throws a typed kUsage Error naming the offending entry — the shared
// contract for the drivers' --sources flag, the server's sources= key, and
// the batch entry points themselves (implemented in algorithms/catalog.cpp).
void check_batch_sources(std::span<const VertexId> sources, std::size_t n);

// Shared harness for the entry points: route recording through the caller's
// tracer (or a run-local one), time the body, aggregate at the end. The body
// always gets a non-null tracer. A run nested inside another (opt.tracer is
// the outer run's tracer) records into the outer run: only the outermost run
// resets the tracer and fills RunReport::telemetry.
template <typename F>
auto run_traced(const AlgoOptions& opt, F&& body)
    -> RunReport<decltype(body(static_cast<Tracer*>(nullptr)))> {
  std::optional<Tracer> local;
  Tracer* tracer = opt.tracer != nullptr ? opt.tracer : &local.emplace();
  Tracer::Run run(*tracer);
  auto start = std::chrono::steady_clock::now();
  RunReport<decltype(body(static_cast<Tracer*>(nullptr)))> report{
      body(tracer), 0.0, {}};
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (run.outermost()) report.telemetry = tracer->aggregate();
  return report;
}

}  // namespace pasgal
