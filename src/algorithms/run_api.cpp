// Modern AlgoOptions/RunReport entry points for every algorithm family.
//
// Each wrapper checks its catalog row's storage guard (admit), assembles the
// family's parameter struct from the shared AlgoOptions, and routes the run
// through run_traced(), which owns the tracer plumbing and the
// wall-clock/telemetry bookkeeping. The positional `(..., Params, Tracer*)`
// signatures are the implementations.

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/pagerank/pagerank.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include <chrono>
#include <unordered_set>

#include "algorithms/toposort/toposort.h"
#include "pasgal/error.h"
#include "pasgal/options.h"

namespace pasgal {

// admit() lazily validates the graph(s) before the timed run: the O(1) mmap
// open path defers per-element CSR checks, and this is the single choke point
// where all modern entry points pick them up (no-op after the first call on a
// given storage handle; see Graph::ensure_validated). The row's guard then
// rejects windowed opens a kernel cannot stream and pending update overlays
// (graphs/delta.h) a kernel would silently compute past.

namespace {

PasgalBfsParams bfs_params(const AlgoOptions& opt) {
  PasgalBfsParams p;
  p.vgc = opt.vgc;
  p.vgc_engage_factor = opt.vgc_engage_factor;
  p.dense_threshold_den = opt.dense_threshold_den;
  p.use_dense = opt.use_dense;
  p.cancel = opt.cancel;
  return p;
}

SccParams scc_params(const AlgoOptions& opt) {
  SccParams p;
  p.vgc = opt.vgc;
  p.dense_threshold_den = opt.dense_threshold_den;
  p.use_dense = opt.use_dense;
  p.beta = opt.scc_beta;
  p.seed = opt.scc_seed;
  return p;
}

SteppingParams stepping_params(const AlgoOptions& opt) {
  SteppingParams p;
  p.strategy = opt.sssp_delta_mode ? SteppingParams::Strategy::kDelta
                                   : SteppingParams::Strategy::kRho;
  p.delta = opt.sssp_delta;
  p.rho = opt.sssp_rho;
  p.vgc = opt.vgc;
  p.cancel = opt.cancel;
  return p;
}

}  // namespace

// --- batch source validation -------------------------------------------------

void check_batch_sources(std::span<const VertexId> sources, std::size_t n) {
  if (sources.empty()) {
    throw Error(ErrorCategory::kUsage, "batch source list is empty");
  }
  if (sources.size() > kMaxBatchSources) {
    throw Error(ErrorCategory::kUsage,
                "batch holds " + std::to_string(sources.size()) +
                    " sources; the bit-parallel kernels carry one source per "
                    "bit, max " +
                    std::to_string(kMaxBatchSources));
  }
  std::unordered_set<VertexId> seen;
  seen.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    VertexId s = sources[i];
    if (static_cast<std::size_t>(s) >= n) {
      throw Error(ErrorCategory::kUsage,
                  "batch source " + std::to_string(s) + " (entry " +
                      std::to_string(i) + ") out of range for graph with " +
                      std::to_string(n) + " vertices");
    }
    if (!seen.insert(s).second) {
      throw Error(ErrorCategory::kUsage,
                  "duplicate batch source " + std::to_string(s) + " (entry " +
                      std::to_string(i) + ")");
    }
  }
}

// --- BFS ---------------------------------------------------------------------

RunReport<std::vector<std::uint32_t>> seq_bfs(const Graph& g,
                                              const AlgoOptions& opt) {
  admit(guard_of("bfs", "seq"), g);
  return run_traced(opt,
                    [&](Tracer* t) { return seq_bfs(g, opt.source, t); });
}

RunReport<std::vector<std::uint32_t>> gbbs_bfs(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  admit(guard_of("bfs", "gbbs"), g, &gt);
  return run_traced(opt, [&](Tracer* t) {
    return gbbs_bfs(g, gt, opt.source, t, opt.cancel);
  });
}

RunReport<std::vector<std::uint32_t>> gapbs_bfs(const Graph& g, const Graph& gt,
                                                const AlgoOptions& opt) {
  admit(guard_of("bfs", "gapbs"), g, &gt);
  GapbsParams p{opt.gapbs_alpha, opt.gapbs_beta};
  return run_traced(
      opt, [&](Tracer* t) { return gapbs_bfs(g, gt, opt.source, p, t); });
}

RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt) {
  admit(guard_of("bfs", "pasgal"), g, &gt);
  PasgalBfsParams p = bfs_params(opt);
  return run_traced(
      opt, [&](Tracer* t) { return pasgal_bfs(g, gt, opt.source, p, t); });
}

BatchReport<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt) {
  admit(guard_of("bfs", "ms"), g, &gt);
  check_batch_sources(opt.sources, g.num_vertices());
  MsBfsParams p;
  p.dense_threshold_den = opt.algo.dense_threshold_den;
  p.use_dense = opt.algo.use_dense;
  p.cancel = opt.algo.cancel;
  auto run = run_traced(
      opt.algo, [&](Tracer* t) { return ms_bfs(g, gt, opt.sources, p, t); });
  BatchReport<std::vector<std::uint32_t>> report;
  report.seconds = run.seconds;
  report.telemetry = std::move(run.telemetry);
  report.per_source.resize(run.output.size());
  // One shared sweep advanced every source; a slice's cost is its amortized
  // share of the batch wall (see BatchReport in options.h).
  double amortized = run.seconds / static_cast<double>(run.output.size());
  for (std::size_t i = 0; i < run.output.size(); ++i) {
    report.per_source[i].output = std::move(run.output[i]);
    report.per_source[i].seconds = amortized;
  }
  return report;
}

// --- SSSP --------------------------------------------------------------------

RunReport<std::vector<Dist>> dijkstra(const WeightedGraph<std::uint32_t>& g,
                                      const AlgoOptions& opt) {
  admit(guard_of("sssp", "seq"), g.unweighted());
  return run_traced(opt,
                    [&](Tracer* t) { return dijkstra(g, opt.source, t); });
}

RunReport<std::vector<Dist>> bellman_ford(const WeightedGraph<std::uint32_t>& g,
                                          const AlgoOptions& opt) {
  admit(guard_of("sssp", "bf"), g.unweighted());
  return run_traced(
      opt, [&](Tracer* t) { return bellman_ford(g, opt.source, t); });
}

RunReport<std::vector<Dist>> stepping_sssp(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt) {
  admit(guard_of("sssp", opt.sssp_delta_mode ? "delta" : "rho"),
        g.unweighted());
  SteppingParams p = stepping_params(opt);
  return run_traced(
      opt, [&](Tracer* t) { return stepping_sssp(g, opt.source, p, t); });
}

BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt) {
  // Not a catalog row of its own: the rho/delta rows run it for a batch.
  admit({InCore::kGraph, "batched SSSP", nullptr}, g.unweighted());
  check_batch_sources(opt.sources, g.num_vertices());
  SteppingParams p = stepping_params(opt.algo);
  Tracer local;
  Tracer* tracer = opt.algo.tracer != nullptr ? opt.algo.tracer : &local;
  tracer->reset();
  BatchReport<std::vector<Dist>> report;
  report.per_source.resize(opt.sources.size());
  auto batch_start = std::chrono::steady_clock::now();
  // No bit-parallel kernel for weighted distances: run the stepping framework
  // once per source under the shared tracer (rounds accumulate monotonically,
  // so the batch telemetry validates like one long run) and the shared
  // CancelToken (expiry unwinds the whole batch with kTimeout).
  for (std::size_t i = 0; i < opt.sources.size(); ++i) {
    auto start = std::chrono::steady_clock::now();
    report.per_source[i].output = stepping_sssp(g, opt.sources[i], p, tracer);
    report.per_source[i].seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - batch_start)
                       .count();
  report.telemetry = tracer->aggregate();
  return report;
}

// --- SCC ---------------------------------------------------------------------

RunReport<std::vector<SccLabel>> tarjan_scc(const Graph& g,
                                            const AlgoOptions& opt) {
  admit(guard_of("scc", "seq"), g);
  return run_traced(opt, [&](Tracer* t) { return tarjan_scc(g, t); });
}

RunReport<std::vector<SccLabel>> pasgal_scc(const Graph& g, const Graph& gt,
                                            const AlgoOptions& opt) {
  admit(guard_of("scc", "pasgal"), g, &gt);
  SccParams p = scc_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return pasgal_scc(g, gt, p, t); });
}

RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  admit(guard_of("scc", "gbbs"), g, &gt);
  SccParams p = scc_params(opt);
  return run_traced(opt, [&](Tracer* t) { return gbbs_scc(g, gt, p, t); });
}

RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  admit(guard_of("scc", "multistep"), g, &gt);
  MultistepParams p{opt.multistep_cutoff};
  return run_traced(opt,
                    [&](Tracer* t) { return multistep_scc(g, gt, p, t); });
}

// --- BCC ---------------------------------------------------------------------

RunReport<BccResult> hopcroft_tarjan_bcc(const Graph& g,
                                         const AlgoOptions& opt) {
  admit(guard_of("bcc", "seq"), g);
  return run_traced(opt, [&](Tracer* t) { return hopcroft_tarjan_bcc(g, t); });
}

RunReport<BccResult> fast_bcc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("bcc", "pasgal"), g);
  return run_traced(opt, [&](Tracer* t) { return fast_bcc(g, t); });
}

RunReport<BccResult> tarjan_vishkin_bcc(const Graph& g,
                                        const AlgoOptions& opt) {
  admit(guard_of("bcc", "tv"), g);
  return run_traced(opt, [&](Tracer* t) { return tarjan_vishkin_bcc(g, t); });
}

RunReport<BccResult> gbbs_bcc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("bcc", "gbbs"), g);
  return run_traced(opt, [&](Tracer* t) { return gbbs_bcc(g, t); });
}

// --- CC ----------------------------------------------------------------------

RunReport<ConnectivityResult> connected_components(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit(guard_of("cc", "uf"), g);
  return run_traced(opt, [&](Tracer* t) { return connected_components(g, t); });
}

RunReport<std::vector<VertexId>> label_prop_cc(const Graph& g,
                                               const AlgoOptions& opt) {
  admit(guard_of("cc", "lp"), g);
  return run_traced(opt, [&](Tracer* t) { return label_prop_cc(g, t); });
}

RunReport<std::vector<VertexId>> ldd_cc(const Graph& g,
                                        const AlgoOptions& opt) {
  admit(guard_of("cc", "ldd"), g);
  return run_traced(opt, [&](Tracer* t) {
    return ldd_cc(g, opt.scc_beta, opt.scc_seed, t);
  });
}

// --- k-core ------------------------------------------------------------------

RunReport<std::vector<std::uint32_t>> seq_kcore(const Graph& g,
                                                const AlgoOptions& opt) {
  admit(guard_of("kcore", "seq"), g);
  return run_traced(opt, [&](Tracer* t) { return seq_kcore(g, t); });
}

RunReport<std::vector<std::uint32_t>> pasgal_kcore(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit(guard_of("kcore", "pasgal"), g);
  KcoreParams p{opt.vgc};
  return run_traced(opt, [&](Tracer* t) { return pasgal_kcore(g, p, t); });
}

// --- PageRank ----------------------------------------------------------------

namespace {

PagerankParams pagerank_params(const AlgoOptions& opt) {
  PagerankParams p;
  p.max_iterations = opt.pagerank_iterations;
  p.epsilon = opt.pagerank_epsilon;
  p.damping = opt.pagerank_damping;
  p.cancel = opt.cancel;
  return p;
}

}  // namespace

RunReport<PagerankResult> seq_pagerank(const Graph& g, const Graph& gt,
                                       const AlgoOptions& opt) {
  admit(guard_of("pagerank", "seq"), g, &gt);
  PagerankParams p = pagerank_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return seq_pagerank(g, gt, p, t); });
}

RunReport<PagerankResult> pasgal_pagerank(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  admit(guard_of("pagerank", "pasgal"), g, &gt);
  PagerankParams p = pagerank_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return pasgal_pagerank(g, gt, p, t); });
}

// --- triangle counting -------------------------------------------------------

RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("tc", "seq"), g);
  return run_traced(opt, [&](Tracer* t) { return seq_tc(g, t); });
}

RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("tc", "pasgal"), g);
  TcParams p;
  p.cancel = opt.cancel;
  return run_traced(opt, [&](Tracer* t) { return pasgal_tc(g, p, t); });
}

// --- toposort ----------------------------------------------------------------
// Library-only (no driver or daemon verb), so its guards are not catalog rows.

RunReport<std::vector<std::uint32_t>> seq_toposort(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit({InCore::kGraph, "seq-toposort", "seq-toposort"}, g);
  return run_traced(opt, [&](Tracer* t) {
    std::vector<std::uint32_t> levels;
    seq_toposort(g, levels, t).throw_if_error();
    return levels;
  });
}

RunReport<std::vector<std::uint32_t>> pasgal_toposort(const Graph& g,
                                                      const AlgoOptions& opt) {
  admit({InCore::kGraph, "pasgal-toposort", "pasgal-toposort"}, g);
  ToposortParams p{opt.vgc};
  return run_traced(opt, [&](Tracer* t) {
    std::vector<std::uint32_t> levels;
    pasgal_toposort(g, levels, p, t).throw_if_error();
    return levels;
  });
}

}  // namespace pasgal
