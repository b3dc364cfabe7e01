#include "algorithms/catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/pagerank/pagerank.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include "graphs/delta.h"
#include "pasgal/error.h"

namespace pasgal {

namespace {

std::string format(const char* fmt, ...) {
  va_list args, sizing;
  va_start(args, fmt);
  va_copy(sizing, args);
  int len = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

// The output of each family as an AlgoAnswer.
AlgoAnswer answer_of(const std::vector<std::uint32_t>& v) {
  return {{v.begin(), v.end()}, {}};
}
AlgoAnswer answer_of(std::vector<std::uint64_t>&& v) {
  return {std::move(v), {}};
}
AlgoAnswer answer_of(ConnectivityResult&& c) { return answer_of(c.label); }
AlgoAnswer answer_of(BccResult&& b) {
  return answer_of(std::move(b.edge_label));
}
AlgoAnswer answer_of(PagerankResult&& r) {
  return {{r.iterations}, std::move(r.rank)};
}
AlgoAnswer answer_of(std::uint64_t triangles) { return {{triangles}, {}}; }

// A single run's report and, for drivers and cross-checks, its result line
// and answer.
template <typename T, typename Line>
AlgoRun single(RunReport<T> r, const AlgoArgs& a, Line line) {
  AlgoRun out{r.seconds, std::move(r.telemetry), {}, {}, {}};
  if (a.summarize) {
    out.summary = line(r.output);
    out.answer = answer_of(std::move(r.output));
  }
  return out;
}

// A batch's report; its result lines are "batch source <s>: <line>".
template <typename T, typename Line>
AlgoRun batch(BatchReport<T> r, const AlgoArgs& a, Line line) {
  AlgoRun out{r.seconds, std::move(r.telemetry), {}, {}, {}};
  for (std::size_t i = 0; a.summarize && i < r.per_source.size(); ++i) {
    if (i) out.summary += '\n';
    out.summary += format("batch source %u: ", a.sources[i]) +
                   line(r.per_source[i].output);
  }
  return out;
}

BatchOptions batch_options(const AlgoArgs& a, const AlgoOptions& opt) {
  return BatchOptions{{a.sources.begin(), a.sources.end()}, opt};
}

// --- result lines ----------------------------------------------------------

std::string sssp_line(const std::vector<Dist>& dist) {
  std::uint64_t reached = 0;
  Dist far = 0;
  for (Dist d : dist) {
    if (d != kInfWeightDist) {
      ++reached;
      far = std::max(far, d);
    }
  }
  return format("reached %llu vertices, weighted eccentricity %llu",
                (unsigned long long)reached, (unsigned long long)far);
}

std::string scc_line(const std::vector<SccLabel>& label) {
  std::map<SccLabel, std::size_t> sizes;
  for (SccLabel l : normalize_scc_labels(label)) ++sizes[l];
  std::size_t giant = 0;
  for (auto& [l, s] : sizes) giant = std::max(giant, s);
  return format("%zu SCCs, largest has %zu vertices", sizes.size(), giant);
}

std::string kcore_line(const std::vector<std::uint32_t>& core) {
  std::uint32_t max_core = 0;
  for (std::uint32_t c : core) max_core = std::max(max_core, c);
  return format("max coreness %u, %zu vertices in the max core", max_core,
                static_cast<std::size_t>(
                    std::count(core.begin(), core.end(), max_core)));
}

// %.17g (round-trip precision) so the identity gates can diff ranks
// byte-for-byte across backends and worker counts.
std::string pagerank_line(const PagerankResult& r) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < r.rank.size(); ++v) {
    if (r.rank[v] > r.rank[best]) best = v;
  }
  return format(
      "converged after %u rounds (delta %.17g), top vertex %zu with rank "
      "%.17g",
      r.iterations, r.delta, best, r.rank.empty() ? 0.0 : r.rank[best]);
}

// pagerank and tc also record their result in the metrics params.
AlgoRun pagerank(RunReport<PagerankResult> r, const AlgoArgs& a) {
  std::uint64_t iterations = r.output.iterations;
  AlgoRun out = single(std::move(r), a, pagerank_line);
  out.params.emplace_back("iterations", iterations);
  return out;
}

AlgoRun tc(RunReport<std::uint64_t> r, const AlgoArgs& a) {
  std::uint64_t triangles = r.output;
  AlgoRun out = single(std::move(r), a, [](std::uint64_t t) {
    return format("%llu triangles", (unsigned long long)t);
  });
  out.params.emplace_back("triangles", triangles);
  return out;
}

// bcc's line counts articulation points and bridges on the run's graph.
AlgoRun bcc(RunReport<BccResult> r, const AlgoArgs& a) {
  return single(std::move(r), a, [&](const BccResult& b) {
    return format(
        "%zu biconnected components, %zu articulation points, %zu bridges",
        b.num_bccs, articulation_points(*a.g, b).size(),
        count_bridges(*a.g, b));
  });
}

// rho and delta share the stepping framework, one source or a batch.
AlgoRun stepping(const AlgoArgs& a, AlgoOptions opt, bool delta_mode) {
  opt.sssp_delta_mode = delta_mode;
  if (a.sources.empty()) {
    return single(stepping_sssp(*a.wg, opt), a, sssp_line);
  }
  return batch(batch_sssp(*a.wg, batch_options(a, opt)), a, sssp_line);
}

// The first index where `want` and `got` differ, as "<what> <i>: want <x>,
// got <y>"; "" when they are equal.
template <typename V>
std::string first_difference(const V& want, const V& got, const char* what) {
  if (want.size() != got.size()) {
    return format("%zu values, want %zu", got.size(), want.size());
  }
  auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin());
  if (w == want.end()) return {};
  return format("%s %zu: want %llu, got %llu", what,
                static_cast<std::size_t>(w - want.begin()),
                (unsigned long long)*w, (unsigned long long)*g);
}

// The largest rank L1 distance two pagerank rows may agree within.
constexpr double kPagerankL1 = 1e-9;

// --- the table -------------------------------------------------------------

using A = const AlgoArgs&;
using O = const AlgoOptions&;
using In = AlgoInput;
using Src = AlgoSources;
constexpr bool kServed = true;
constexpr bool kDriverOnly = false;

// Columns: family, name, input, sources, served, guard {graph(s) kept in
// core, in-core label}, run.
const AlgoSpec kCatalog[] = {
    {"bfs", "pasgal", In::kTranspose, Src::kOne, kServed,
     {InCore::kBoth, "pasgal-bfs"},
     [](A a, O o) {
       return single(pasgal_bfs(*a.g, *a.gt, o), a, bfs_summary);
     }},
    {"bfs", "gbbs", In::kTranspose, Src::kOne, kServed, {},
     [](A a, O o) { return single(gbbs_bfs(*a.g, *a.gt, o), a, bfs_summary); }},
    // Both directions run through edge_map, so gapbs takes any storage.
    {"bfs", "gapbs", In::kTranspose, Src::kOne, kDriverOnly, {},
     [](A a, O o) {
       return single(gapbs_bfs(*a.g, *a.gt, o), a, bfs_summary);
     }},
    {"bfs", "seq", In::kGraph, Src::kOne, kDriverOnly,
     {InCore::kGraph, "seq-bfs"},
     [](A a, O o) { return single(seq_bfs(*a.g, o), a, bfs_summary); }},
    {"bfs", "ms", In::kTranspose, Src::kBatch, kServed,
     {InCore::kGraph, "ms-bfs"},
     [](A a, O o) {
       return batch(ms_bfs(*a.g, *a.gt, batch_options(a, o)), a, bfs_summary);
     }},

    {"sssp", "rho", In::kWeighted, Src::kOneOrBatch, kServed,
     {InCore::kGraph, "stepping SSSP (use -a em for sharded runs)"},
     [](A a, O o) { return stepping(a, o, /*delta_mode=*/false); }},
    {"sssp", "delta", In::kWeighted, Src::kOneOrBatch, kServed,
     {InCore::kGraph, "stepping SSSP (use -a em for sharded runs)"},
     [](A a, O o) { return stepping(a, o, /*delta_mode=*/true); }},
    {"sssp", "bf", In::kWeighted, Src::kOne, kDriverOnly,
     {InCore::kGraph, "bellman-ford (use -a em for sharded runs)"},
     [](A a, O o) { return single(bellman_ford(*a.wg, o), a, sssp_line); }},
    {"sssp", "em", In::kWeighted, Src::kOne, kServed, {},
     [](A a, O o) {
       return single(em_bellman_ford(*a.wg, o), a, sssp_line);
     }},
    {"sssp", "seq", In::kWeighted, Src::kOne, kDriverOnly,
     {InCore::kGraph, "dijkstra"},
     [](A a, O o) { return single(dijkstra(*a.wg, o), a, sssp_line); }},

    {"scc", "pasgal", In::kTranspose, Src::kNone, kDriverOnly,
     {InCore::kBoth, "pasgal-scc"},
     [](A a, O o) { return single(pasgal_scc(*a.g, *a.gt, o), a, scc_line); }},
    {"scc", "gbbs", In::kTranspose, Src::kNone, kDriverOnly,
     {InCore::kBoth, "gbbs-scc"},
     [](A a, O o) { return single(gbbs_scc(*a.g, *a.gt, o), a, scc_line); }},
    {"scc", "multistep", In::kTranspose, Src::kNone, kDriverOnly,
     {InCore::kBoth, "multistep-scc"},
     [](A a, O o) {
       return single(multistep_scc(*a.g, *a.gt, o), a, scc_line);
     }},
    {"scc", "seq", In::kGraph, Src::kNone, kDriverOnly,
     {InCore::kGraph, "tarjan-scc"},
     [](A a, O o) { return single(tarjan_scc(*a.g, o), a, scc_line); }},

    {"bcc", "pasgal", In::kSymmetric, Src::kNone, kDriverOnly,
     {InCore::kGraph, "fast-bcc"},
     [](A a, O o) { return bcc(fast_bcc(*a.g, o), a); }},
    {"bcc", "gbbs", In::kSymmetric, Src::kNone, kDriverOnly,
     {InCore::kGraph, "gbbs-bcc"},
     [](A a, O o) { return bcc(gbbs_bcc(*a.g, o), a); }},
    {"bcc", "tv", In::kSymmetric, Src::kNone, kDriverOnly,
     {InCore::kGraph, "tarjan-vishkin-bcc"},
     [](A a, O o) { return bcc(tarjan_vishkin_bcc(*a.g, o), a); }},
    {"bcc", "seq", In::kSymmetric, Src::kNone, kDriverOnly,
     {InCore::kGraph, "hopcroft-tarjan-bcc"},
     [](A a, O o) { return bcc(hopcroft_tarjan_bcc(*a.g, o), a); }},

    {"cc", "uf", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "connected-components"},
     [](A a, O o) {
       return single(connected_components(*a.g, o), a,
                     [](const ConnectivityResult& c) {
                       return cc_summary(c.label);
                     });
     }},
    {"cc", "lp", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "label-prop-cc"},
     [](A a, O o) { return single(label_prop_cc(*a.g, o), a, cc_summary); }},
    {"cc", "ldd", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "ldd-cc"},
     [](A a, O o) { return single(ldd_cc(*a.g, o), a, cc_summary); }},

    {"kcore", "pasgal", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "pasgal-kcore"},
     [](A a, O o) { return single(pasgal_kcore(*a.g, o), a, kcore_line); }},
    {"kcore", "seq", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "seq-kcore"},
     [](A a, O o) { return single(seq_kcore(*a.g, o), a, kcore_line); }},

    // The pasgal pull runs shard-at-a-time through gt's window (out-degrees
    // come from g's always-resident offsets), so it has no in-core guard.
    {"pagerank", "pasgal", In::kTranspose, Src::kNone, kServed, {},
     [](A a, O o) { return pagerank(pasgal_pagerank(*a.g, *a.gt, o), a); }},
    {"pagerank", "seq", In::kTranspose, Src::kNone, kServed,
     {InCore::kTranspose, "seq-pagerank (use -a pasgal for sharded runs)"},
     [](A a, O o) { return pagerank(seq_pagerank(*a.g, *a.gt, o), a); }},

    {"tc", "pasgal", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "pasgal-tc"},
     [](A a, O o) { return tc(pasgal_tc(*a.g, o), a); }},
    {"tc", "seq", In::kSymmetric, Src::kNone, kServed,
     {InCore::kGraph, "seq-tc"},
     [](A a, O o) { return tc(seq_tc(*a.g, o), a); }},
};

}  // namespace

std::span<const AlgoSpec> algo_catalog() { return kCatalog; }

const AlgoSpec& algo_spec(std::string_view family, std::string_view name) {
  for (const AlgoSpec& row : kCatalog) {
    if (row.family == family && row.name == name) return row;
  }
  throw std::logic_error("no catalog row " + std::string(family) + "/" +
                         std::string(name));
}

const AlgoSpec& algo_oracle(std::string_view family) {
  const AlgoSpec* first = nullptr;
  for (const AlgoSpec& row : kCatalog) {
    if (row.family != family) continue;
    if (row.name == std::string_view("seq")) return row;
    if (first == nullptr) first = &row;
  }
  if (first == nullptr) {
    throw std::logic_error("no catalog family " + std::string(family));
  }
  return *first;
}

std::vector<std::string> algo_names(std::string_view family) {
  std::vector<std::string> names;
  for (const AlgoSpec& row : kCatalog) {
    if (row.family == family) names.emplace_back(row.name);
  }
  return names;
}

bool is_algo_family(std::string_view family) {
  return std::any_of(std::begin(kCatalog), std::end(kCatalog),
                     [&](const AlgoSpec& row) { return row.family == family; });
}

PreparedInput::PreparedInput(const AlgoSpec& row, const Graph& g,
                             const WeightedGraph<std::uint32_t>* wg) {
  args.g = &g;
  args.wg = wg;
  if (row.input == AlgoInput::kTranspose) {
    derived_ = g.transpose();
    args.gt = &derived_;
  } else if (row.input == AlgoInput::kSymmetric) {
    derived_ = g.symmetrize();
    args.g = &derived_;
  }
}

std::string answer_mismatch(std::string_view family, const AlgoAnswer& want,
                            const AlgoAnswer& got) {
  if (family == "pagerank") {
    if (std::string d = first_difference(want.values, got.values,
                                         "iteration count");
        !d.empty()) {
      return d;
    }
    if (want.rank.size() != got.rank.size()) {
      return format("%zu ranks, want %zu", got.rank.size(),
                    want.rank.size());
    }
    double l1 = 0;
    for (std::size_t v = 0; v < want.rank.size(); ++v) {
      l1 += std::fabs(want.rank[v] - got.rank[v]);
    }
    return l1 <= kPagerankL1 ? std::string()
                             : format("rank L1 %g, want <= %g", l1,
                                      kPagerankL1);
  }
  if (family == "scc" || family == "cc") {
    return first_difference(normalize_scc_labels(want.values),
                            normalize_scc_labels(got.values), "vertex");
  }
  if (family == "bcc") {
    return first_difference(normalize_bcc_labels(want.values),
                            normalize_bcc_labels(got.values), "edge");
  }
  return first_difference(want.values, got.values,
                          family == "tc" ? "count" : "vertex");
}

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

void admit(const Guard& guard, const Graph& g, const Graph* gt) {
  g.ensure_validated();
  if (gt != nullptr) gt->ensure_validated();
  if (guard.in_core == InCore::kGraph || guard.in_core == InCore::kBoth) {
    g.ensure_in_core(guard.in_core_what);
  }
  if (guard.in_core == InCore::kTranspose || guard.in_core == InCore::kBoth) {
    gt->ensure_in_core(guard.in_core_what);
  }
}

void admit(const AlgoSpec& row, const Graph& g, const Graph* gt) {
  admit(row.guard, g, gt);
  if (row.input == AlgoInput::kSymmetric && g.has_delta()) {
    throw Error(ErrorCategory::kUsage,
                std::string(row.guard.in_core_what) +
                    " needs a symmetric graph, and this one has a pending "
                    "update overlay; compact it or pass its symmetrize()",
                g.storage()->source_path());
  }
}

std::string bfs_summary(std::span<const std::uint32_t> dist) {
  std::uint64_t reached = 0, ecc = 0;
  for (std::uint32_t d : dist) {
    if (d != kInfDist) {
      ++reached;
      ecc = std::max<std::uint64_t>(ecc, d);
    }
  }
  return format("reached %llu vertices, eccentricity %llu",
                (unsigned long long)reached, (unsigned long long)ecc);
}

std::string cc_summary(std::span<const VertexId> label) {
  std::map<VertexId, std::size_t> sizes;
  for (VertexId l : label) ++sizes[l];
  std::size_t giant = 0;
  for (auto& [l, s] : sizes) giant = std::max(giant, s);
  return format("%zu components, largest has %zu vertices", sizes.size(),
                giant);
}

void record_shard(MetricsDoc& doc, const Graph& g) {
  const StorageRef& storage = g.storage();
  if (storage == nullptr || storage->shard_window() == nullptr) return;
  const MappedWindow& w = *storage->shard_window();
  std::uint64_t sweeps = w.sweeps();
  std::uint64_t faults = w.faults();
  if (StorageRef t = storage->transpose_cache();
      t != nullptr && t->shard_window() != nullptr) {
    sweeps += t->shard_window()->sweeps();
    faults += t->shard_window()->faults();
  }
  doc.set_shard(w.plan().size(), w.plan().window_bytes(), sweeps, faults);
}

void record_delta(MetricsDoc& doc, const Graph& g,
                  const IncrementalStats& repair) {
  if (g.storage() == nullptr) return;
  std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot();
  if (d == nullptr) return;
  doc.set_delta(d->insert_count(), d->delete_count(), d->batches(),
                repair.resettled, repair.full_settled, repair.fallback);
}

}  // namespace pasgal
