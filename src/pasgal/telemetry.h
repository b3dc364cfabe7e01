// Run telemetry subsystem: per-round tracing, scheduler counters, and
// versioned JSON metrics (DESIGN.md "Telemetry").
//
// The paper's whole argument is about *round structure* — VGC trades global
// synchronizations for local-search work, hash bags change frontier
// collection cost — so every run records a structured trace of rounds
// (frontier size, edges scanned, sparse/dense/local direction, wall time),
// VGC local-search depth histograms, hash-bag occupancy/spill events, and
// scheduler-level steal/busy/idle counters.
//
// Hot-path discipline: all recording goes through per-worker, cache-line
// padded slots (wait-free, no shared atomics); aggregation into a
// `RunTelemetry` happens once at run end. Round boundaries and phase marks
// are recorded only by the round master (the thread driving the outer loop).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "parlay/scheduler.h"
#include "pasgal/error.h"

namespace pasgal {

// How a round processed its frontier:
//   sparse — per-vertex push over a sparse frontier (tau = 1)
//   dense  — direction-optimized pull over all eligible vertices
//   local  — VGC local searches (tau > 1) rooted at the frontier
enum class RoundKind : std::uint8_t { kSparse, kDense, kLocal };

inline const char* round_kind_name(RoundKind k) {
  switch (k) {
    case RoundKind::kSparse: return "sparse";
    case RoundKind::kDense: return "dense";
    case RoundKind::kLocal: return "local";
  }
  return "unknown";
}

// One global synchronization. `edges`/`visits` are the deltas between this
// round boundary and the previous one; `cum_*` are cumulative at the
// boundary, so consumers can check monotonicity without re-summing.
struct RoundTrace {
  std::uint64_t index = 0;
  std::uint64_t frontier = 0;
  RoundKind kind = RoundKind::kSparse;
  std::uint64_t edges = 0;
  std::uint64_t visits = 0;
  std::uint64_t cum_edges = 0;
  std::uint64_t cum_visits = 0;
  std::uint64_t wall_ns = 0;
  // Per-round convergence residual (PageRank's L1 delta). Negative = absent;
  // only emitted to JSON when set, and required for every pagerank round.
  double delta = -1.0;
};

// Hash-bag frontier behaviour over a run (summed over all bags a run
// attaches the tracer to).
struct HashBagTelemetry {
  std::uint64_t inserts = 0;
  std::uint64_t block_advances = 0;  // spill/resize events (block saturation)
  std::uint64_t extracts = 0;
  std::uint64_t peak_extract = 0;  // largest single extract_all result
};

struct SchedulerTelemetry {
  std::vector<WorkerCounters> per_worker;  // deltas over the run
  WorkerCounters total() const {
    WorkerCounters t;
    for (const WorkerCounters& w : per_worker) {
      t.steals += w.steals;
      t.tasks += w.tasks;
      t.busy_ns += w.busy_ns;
      t.idle_ns += w.idle_ns;
    }
    return t;
  }
};

struct PhaseTiming {
  std::string name;
  std::uint64_t ns = 0;
};

// log2 buckets of VGC local-search expansion counts: bucket i counts
// searches that expanded [2^(i-1), 2^i) vertices (bucket 0: exactly 0).
inline constexpr int kDepthHistBuckets = 24;

// Serialization cap on the per-round trace: adversarial inputs (a 500k-vertex
// chain under a level-synchronous algorithm) produce one round per vertex,
// which would make metrics files gigabytes. to_json() emits the first
// kMaxSerializedRounds rounds plus a "rounds_omitted" count; aggregate
// totals always cover the whole run.
inline constexpr std::size_t kMaxSerializedRounds = 1024;

// Everything a run recorded, aggregated. Plain data — serializable via
// to_json() below.
struct RunTelemetry {
  std::uint64_t edges_scanned = 0;
  std::uint64_t vertices_visited = 0;
  std::uint64_t max_frontier = 0;
  std::vector<RoundTrace> rounds;
  std::array<std::uint64_t, kDepthHistBuckets> vgc_depth_hist{};
  HashBagTelemetry hashbag;
  SchedulerTelemetry scheduler;
  std::vector<PhaseTiming> phases;
};

// The per-run recorder. Construct (or reset) immediately before a run: the
// constructor snapshots the scheduler's counters so aggregate() can report
// the run's own steal/busy/idle deltas.
class Tracer {
 public:
  Tracer();
  void reset();

  // --- hot-path counters (callable from any worker; wait-free) -------------
  void add_edges(std::uint64_t k) { slot().edges += k; }
  void add_visits(std::uint64_t k) { slot().visits += k; }
  void add_local_depth(std::uint64_t expanded) {
    ++slot().depth_hist[depth_bucket(expanded)];
  }
  void add_bag_insert() { ++slot().bag_inserts; }
  void add_bag_advance() { ++slot().bag_advances; }
  void note_bag_extract(std::uint64_t size) {
    Slot& s = slot();
    ++s.bag_extracts;
    if (size > s.bag_peak) s.bag_peak = size;
  }

  // --- round boundaries (round master only) --------------------------------
  // A direction chooser (edge_map) may set the upcoming round's kind before
  // the round master ends it; an explicit kind overrides the pending one.
  void set_round_kind(RoundKind k) { pending_kind_ = k; }
  // Iterative kernels (PageRank) attach the round's convergence residual
  // before ending it; end_round consumes and clears the pending value.
  void set_round_delta(double d) { pending_delta_ = d; }
  void end_round(std::uint64_t frontier_size);
  void end_round(std::uint64_t frontier_size, RoundKind kind);

  // --- phase wall-clock breakdown (round master only; non-reentrant) -------
  void phase_begin(const char* name);
  void phase_end();

  // --- counter readout ----------------------------------------------------
  std::uint64_t edges_scanned() const;
  std::uint64_t vertices_visited() const;
  std::uint64_t rounds() const {
    return static_cast<std::uint64_t>(frontier_sizes_.size());
  }
  const std::vector<std::uint64_t>& frontier_sizes() const {
    return frontier_sizes_;
  }
  std::uint64_t max_frontier() const;

  // --- aggregation (run end; not concurrency-safe with recording) ----------
  RunTelemetry aggregate() const;

  // --- run scope (run_traced; round master only) ---------------------------
  // Runs nest when a variant runs another inside its own run and hands it
  // this tracer: the inner run records into the outer one, so only the
  // outermost scope resets the tracer.
  class Run {
   public:
    explicit Run(Tracer& t) : t_(t), outermost_(t.open_runs_++ == 0) {
      if (outermost_) t_.reset();
    }
    ~Run() { --t_.open_runs_; }
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;
    bool outermost() const { return outermost_; }

   private:
    Tracer& t_;
    bool outermost_;
  };

 private:
  struct alignas(64) Slot {
    std::uint64_t edges = 0;
    std::uint64_t visits = 0;
    std::uint64_t bag_inserts = 0;
    std::uint64_t bag_advances = 0;
    std::uint64_t bag_extracts = 0;
    std::uint64_t bag_peak = 0;
    std::uint64_t depth_hist[kDepthHistBuckets] = {};
  };

  static int depth_bucket(std::uint64_t expanded);

  Slot& slot() {
    std::size_t i = static_cast<std::size_t>(worker_id());
    return slots_[i < slots_.size() ? i : 0];
  }
  void sum_hot(std::uint64_t& edges, std::uint64_t& visits) const;

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> frontier_sizes_;  // legacy view of round_trace_
  std::vector<RoundTrace> round_trace_;
  RoundKind pending_kind_ = RoundKind::kSparse;
  double pending_delta_ = -1.0;
  std::uint64_t prev_edges_ = 0;
  std::uint64_t prev_visits_ = 0;
  std::chrono::steady_clock::time_point run_start_;
  std::chrono::steady_clock::time_point last_round_;
  std::vector<WorkerCounters> sched_epoch_;
  std::vector<PhaseTiming> phases_;
  const char* open_phase_ = nullptr;
  std::chrono::steady_clock::time_point phase_start_;
  int open_runs_ = 0;  // Run scopes open on this tracer
};

// RAII phase mark; a null tracer makes it a no-op, so call sites stay
// unconditional.
class ScopedPhase {
 public:
  ScopedPhase(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_) tracer_->phase_begin(name);
  }
  ~ScopedPhase() {
    if (tracer_) tracer_->phase_end();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Tracer* tracer_;
};

// --- minimal JSON (writer + parser) -----------------------------------------
//
// The metrics files are consumed by bench/ and by external tooling; the
// schema test parses them back, so both directions live here with no third-
// party dependency. The parser handles exactly the JSON the writer emits
// (objects, arrays, strings with \-escapes, doubles, bools, null).

namespace json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // Object member lookup; nullptr if absent or not an object.
  const Value* find(const std::string& key) const;
};

// Parses a complete JSON document (trailing garbage is an error).
Status parse(const std::string& text, Value& out);

std::string escape(const std::string& s);

}  // namespace json

// --- versioned metrics document ---------------------------------------------

inline constexpr int kMetricsVersion = 1;
inline constexpr const char* kMetricsSchema = "pasgal.metrics";

// One driver invocation: graph + algorithm variant + parameters + one trial
// per repeat. Serialized by --json-metrics and consumed by bench tooling.
class MetricsDoc {
 public:
  MetricsDoc(std::string algo, std::string variant, std::string graph_spec,
             std::uint64_t n, std::uint64_t m);

  // Params are recorded as JSON values: numbers stay numbers.
  void set_param(const std::string& name, std::uint64_t value);
  void set_param(const std::string& name, double value);
  void set_param(const std::string& name, const std::string& value);

  void add_trial(double seconds, const RunTelemetry& telemetry);

  // Batched multi-source run: records the source list and the shared sweep's
  // wall time, emitted as a top-level "batch" object
  //   {"size":k,"sources":[...],"batch_seconds":s,"qps":k/s}
  // between params and trials. One document describes one batch; trials stay
  // the per-repeat batch walls. Plain uint32 (not VertexId) so this header
  // stays below graph.h in the include order.
  void set_batch(const std::vector<std::uint32_t>& sources,
                 double batch_seconds);

  // Shard-at-a-time execution: the open's shard plan (count + window budget)
  // and the window's activation counters summed over the run, emitted as a
  // top-level "shard" object
  //   {"shards":k,"window_bytes":w,"shard_sweeps":s,"window_faults":f}
  // between batch (if any) and trials. Absent for in-core runs.
  void set_shard(std::uint64_t shards, std::uint64_t window_bytes,
                 std::uint64_t shard_sweeps, std::uint64_t window_faults);

  // Update-overlay execution: the delta overlay attached to the graph at run
  // time and, for incremental repairs, the repair scope, emitted as a
  // top-level "delta" object
  //   {"inserts":i,"deletes":d,"batches":b,
  //    "resettled":r,"full_settled":n,"fallback":0|1}
  // between shard (if any) and trials. `resettled` is how many vertices the
  // incremental pass actually re-settled, `full_settled` what a from-scratch
  // recompute settles (n); a static overlay run reports 0/0/0 for the repair
  // triple. Absent when the graph has no overlay.
  void set_delta(std::uint64_t inserts, std::uint64_t deletes,
                 std::uint64_t batches, std::uint64_t resettled,
                 std::uint64_t full_settled, bool fallback);

  std::size_t num_trials() const { return trials_.size(); }
  std::string to_json() const;

 private:
  std::string algo_, variant_, graph_spec_;
  std::uint64_t n_, m_;
  int workers_;
  std::vector<std::pair<std::string, std::string>> params_;  // name -> encoded
  std::string batch_json_;  // encoded "batch" object; empty = single-source
  std::string shard_json_;  // encoded "shard" object; empty = in-core
  std::string delta_json_;  // encoded "delta" object; empty = no overlay
  struct Trial {
    double seconds;
    RunTelemetry telemetry;
  };
  std::vector<Trial> trials_;
};

// Serialization of one run's telemetry (a JSON object).
std::string to_json(const RunTelemetry& t);

// Writes doc.to_json() to `path`; kIo Status on failure.
Status write_metrics_json(const std::string& path, const MetricsDoc& doc);

// Schema check for a parsed metrics document: required keys, version field,
// per-trial round-count == totals.rounds, monotone cumulative counters,
// scheduler per_worker length == workers. Used by the schema test and the
// `metrics_check` tool.
Status validate_metrics(const json::Value& doc);

}  // namespace pasgal
