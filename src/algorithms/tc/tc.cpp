#include "algorithms/tc/tc.h"

#include <algorithm>
#include <vector>

#include "algorithms/catalog.h"
#include "parlay/primitives.h"

namespace pasgal {

namespace {

// Degree-ordered rank: u precedes v iff (deg(u), u) < (deg(v), v). Ties
// break on vertex id, so the order is total and the DAG is well-defined.
inline bool rank_less(const Graph& g, VertexId u, VertexId v) {
  EdgeId du = g.out_degree(u), dv = g.out_degree(v);
  return du != dv ? du < dv : u < v;
}

// Oriented adjacency: for each u, the sorted list of neighbours v with
// rank(u) < rank(v). Sorted-by-id inputs stay sorted under filtering.
struct Dag {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> targets;

  std::span<const VertexId> list(VertexId u) const {
    return {targets.data() + offsets[u],
            static_cast<std::size_t>(offsets[u + 1] - offsets[u])};
  }
};

Dag build_dag(const Graph& g) {
  std::size_t n = g.num_vertices();
  Dag dag;
  std::vector<EdgeId> degree(n);
  parallel_for(0, n, [&](std::size_t u) {
    EdgeId kept = 0;
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      if (v != u && rank_less(g, static_cast<VertexId>(u), v)) ++kept;
    }
    degree[u] = kept;
  });
  dag.offsets.resize(n + 1);
  dag.offsets[n] = scan_indexed<EdgeId>(
      n, [&](std::size_t u) { return degree[u]; },
      [&](std::size_t u, EdgeId x) { dag.offsets[u] = x; });
  dag.targets.resize(dag.offsets[n]);
  parallel_for(0, n, [&](std::size_t u) {
    EdgeId out = dag.offsets[u];
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      if (v != u && rank_less(g, static_cast<VertexId>(u), v)) {
        dag.targets[out++] = v;
      }
    }
  });
  return dag;
}

std::uint64_t merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// One vertex's wedge closures by merge: intersect its DAG list with each
// DAG neighbour's list. `scanned` counts list elements read, for telemetry.
std::uint64_t merge_from(const Dag& dag, VertexId u, std::uint64_t& scanned) {
  std::uint64_t local = 0;
  std::span<const VertexId> lu = dag.list(u);
  for (VertexId v : lu) {
    std::span<const VertexId> lv = dag.list(v);
    scanned += lu.size() + lv.size();
    local += merge_intersect(lu, lv);
  }
  return local;
}

inline std::uint64_t bit_of(VertexId v) { return std::uint64_t{1} << (v & 63); }

// The same closures against a marked row: set one bit per vertex of u's
// list, count the set bits each neighbour's list hits, then clear exactly
// the bits that were set, so `row` is all-zero again on return. Reads
// |lu| + sum |lv| list elements instead of the merge's |lu|^2 + sum |lv|.
// A list shorter than two closes no wedge and is not read at all.
std::uint64_t mark_from(const Dag& dag, VertexId u, std::uint64_t* row,
                        std::uint64_t& scanned) {
  std::span<const VertexId> lu = dag.list(u);
  if (lu.size() < 2) return 0;
  for (VertexId v : lu) row[v >> 6] |= bit_of(v);
  std::uint64_t local = 0;
  scanned += lu.size();
  for (VertexId v : lu) {
    std::span<const VertexId> lv = dag.list(v);
    scanned += lv.size();
    for (VertexId w : lv) local += (row[w >> 6] >> (w & 63)) & 1;
  }
  for (VertexId v : lu) row[v >> 6] &= ~bit_of(v);
  return local;
}

}  // namespace

RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("tc", "seq"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    Dag dag = build_dag(g);
    std::uint64_t triangles = 0;
    std::uint64_t scanned = 0;
    for (VertexId u = 0; u < n; ++u) {
      triangles += merge_from(dag, u, scanned);
    }
    stats->add_edges(scanned);
    stats->add_visits(n);
    stats->end_round(n);
    return triangles;
  });
}

RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt) {
  admit(guard_of("tc", "pasgal"), g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    Dag dag = [&] {
      ScopedPhase phase(stats, "dag");
      return build_dag(g);
    }();
    ScopedPhase phase(stats, "count");
    // One marker row of ceil(n/64) words per worker, picked by worker_id():
    // a source runs start to finish on one worker, and one caller drives the
    // pool at a time, so no row is ever shared and plain words suffice.
    std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> rows(
        static_cast<std::size_t>(num_workers()) * words, 0);
    // Sources are processed in blocks: the block boundary is where the round
    // master checks the deadline and records a round, so a server query on a
    // huge graph still honours its deadline mid-count.
    constexpr std::size_t kBlock = 1 << 16;
    std::uint64_t triangles = 0;
    for (std::size_t lo = 0; lo < n; lo += kBlock) {
      if (opt.cancel != nullptr) {
        opt.cancel->check("tc block boundary");
      }
      std::size_t hi = std::min(n, lo + kBlock);
      triangles += reduce_indexed<std::uint64_t>(
          hi - lo, 0, std::plus<std::uint64_t>{}, [&](std::size_t rel) {
            VertexId u = static_cast<VertexId>(lo + rel);
            std::uint64_t* row =
                rows.data() + static_cast<std::size_t>(worker_id()) * words;
            std::uint64_t scanned = 0;
            std::uint64_t local = mark_from(dag, u, row, scanned);
            stats->add_edges(scanned);
            stats->add_visits(1);
            return local;
          });
      stats->end_round(hi - lo, RoundKind::kLocal);
    }
    return triangles;
  });
}

}  // namespace pasgal
