#include "algorithms/incremental.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "pasgal/edge_map.h"

namespace pasgal {

IncrementalStats incremental_bfs(const Graph& g, const Graph& gt,
                                 std::span<const EdgeUpdate> batch,
                                 std::vector<std::uint32_t>& dist,
                                 const AlgoOptions& opt,
                                 const IncrementalOptions& inc) {
  // A churn fallback recomputes inside this repair, on the same tracer.
  return run_traced(opt, [&](Tracer* t) {
    const VertexId source = opt.source;
    g.ensure_validated();
    gt.ensure_validated();
    std::size_t n = g.num_vertices();
    IncrementalStats stats;
    stats.full_settled = n;

    // Effective out- and in-edges. The cascade and seed phases below are
    // worklist-sequential: one view each serves the whole repair.
    Adjacency out = g.adjacency(), in = gt.adjacency();

    // --- delete phase: cascade invalidation over the old distances ----------
    // A candidate is a vertex that may have lost its last parent. It is
    // invalidated when no effective in-neighbor at dist-1 survives; its
    // out-neighbors one level down then become candidates in turn. Old dist
    // values stay readable throughout (invalid[] carries the staleness), so
    // the support checks are order-independent.
    std::vector<std::uint8_t> invalid(n, 0);
    std::deque<VertexId> work;
    for (const EdgeUpdate& up : batch) {
      if (up.op != EdgeUpdate::Op::kDelete) continue;
      if (dist[up.from] != kInfDist && dist[up.to] == dist[up.from] + 1) {
        work.push_back(up.to);
      }
    }
    std::vector<VertexId> invalidated;
    std::uint64_t scanned = 0, checked = 0;
    while (!work.empty()) {
      VertexId v = work.front();
      work.pop_front();
      if (invalid[v] || v == source || dist[v] == kInfDist) continue;
      ++checked;
      bool supported = !in.scan(v, [&](VertexId u) {
        ++scanned;
        // Stop (return false) as soon as one valid parent is found.
        return !(dist[u] != kInfDist && !invalid[u] && dist[u] + 1 == dist[v]);
      });
      if (supported) continue;
      invalid[v] = 1;
      invalidated.push_back(v);
      out.scan(v, [&](VertexId w) {
        ++scanned;
        if (!invalid[w] && dist[w] == dist[v] + 1) work.push_back(w);
      });
    }

    // --- seeds: settled boundary of the invalid region + insert sources ------
    std::vector<VertexId> seeds;
    for (VertexId v : invalidated) {
      in.scan(v, [&](VertexId u) {
        ++scanned;
        if (!invalid[u] && dist[u] != kInfDist) seeds.push_back(u);
      });
    }
    for (const EdgeUpdate& up : batch) {
      ++scanned;
      if (up.op == EdgeUpdate::Op::kInsert && !invalid[up.from] &&
          dist[up.from] != kInfDist) {
        seeds.push_back(up.from);
      }
    }
    // The sequential invalidation pass is one round: the batch's edges plus
    // the effective adjacency it walked, over the vertices it checked.
    t->add_edges(scanned);
    t->add_visits(checked);
    t->end_round(invalidated.size());

    if (static_cast<double>(invalidated.size() + seeds.size()) >
        inc.churn_threshold * static_cast<double>(n)) {
      AlgoOptions recompute = opt;
      recompute.tracer = t;
      dist = gbbs_bfs(g, gt, recompute).output;
      stats.resettled = n;
      stats.fallback = true;
      return stats;
    }

    // --- repair phase: unit-weight Bellman-Ford from the settled boundary ----
    // Invalidated vertices restart from infinity; every relaxation is an
    // atomic min, so the fixpoint is the exact hop distance (deletes only
    // lengthen paths of invalidated vertices, inserts only shorten paths, and
    // both kinds of correction propagate from the seeded boundary).
    std::vector<std::atomic<std::uint32_t>> adist(n);
    parallel_for(0, n, [&](std::size_t v) {
      adist[v].store(invalid[v] ? kInfDist : dist[v],
                     std::memory_order_relaxed);
    });
    std::vector<std::atomic<std::uint8_t>> changed(n);
    parallel_for(0, n, [&](std::size_t v) {
      changed[v].store(invalid[v], std::memory_order_relaxed);
    });

    VertexSubset frontier = VertexSubset::sparse(n, std::move(seeds));
    auto update = [&](VertexId u, VertexId v) {
      std::uint32_t du = adist[u].load(std::memory_order_relaxed);
      if (du == kInfDist) return false;
      std::uint32_t nd = du + 1;
      std::uint32_t cur = adist[v].load(std::memory_order_relaxed);
      while (cur > nd) {
        if (adist[v].compare_exchange_weak(cur, nd,
                                           std::memory_order_relaxed)) {
          changed[v].store(1, std::memory_order_relaxed);
          return true;
        }
      }
      return false;
    };
    auto cond = [](VertexId) { return true; };
    // Push only: repair frontiers are tiny by construction (churn-bounded),
    // and a pull with cond=true would rescan every in-list each round.
    while (!frontier.empty()) {
      std::uint64_t size = frontier.size();
      frontier = edge_map_sparse(g, frontier, update, cond, opt, t);
      t->end_round(size);
    }

    parallel_for(0, n, [&](std::size_t v) {
      dist[v] = adist[v].load(std::memory_order_relaxed);
    });
    stats.resettled = reduce_indexed<std::uint64_t>(
        n, 0, std::plus<std::uint64_t>{}, [&](std::size_t v) -> std::uint64_t {
          return changed[v].load(std::memory_order_relaxed) != 0 ? 1 : 0;
        });
    return stats;
  }).output;
}

IncrementalStats incremental_cc(const Graph& g,
                                std::span<const EdgeUpdate> batch,
                                std::vector<VertexId>& label,
                                const AlgoOptions& opt) {
  // A delete fallback recomputes inside this repair, on the same tracer.
  return run_traced(opt, [&](Tracer* t) {
    std::size_t n = g.num_vertices();
    IncrementalStats stats;
    stats.full_settled = n;

    bool has_delete =
        std::any_of(batch.begin(), batch.end(), [](const EdgeUpdate& up) {
          return up.op == EdgeUpdate::Op::kDelete;
        });
    if (has_delete) {
      // A deletion can split a component; labels alone cannot witness the
      // split. symmetrize() reads through the overlay (graph.h), so the
      // recompute runs on the effective graph.
      AlgoOptions recompute = opt;
      recompute.tracer = t;
      label = connected_components(g.symmetrize(), recompute).output.label;
      stats.resettled = n;
      stats.fallback = true;
      return stats;
    }

    // Insert-only: union the label classes the new (undirected) edges bridge.
    // Union-find over label values, linking the larger root under the
    // smaller, keeps every root the minimum vertex id of its merged class —
    // exactly the label a from-scratch connected_components run assigns.
    std::vector<VertexId> parent(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<VertexId>(i);
    auto find = [&](VertexId x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];  // path halving
        x = parent[x];
      }
      return x;
    };
    for (const EdgeUpdate& up : batch) {
      VertexId a = find(label[up.from]);
      VertexId b = find(label[up.to]);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      parent[b] = a;
    }

    std::vector<std::uint8_t> touched(n, 0);
    parallel_for(0, n, [&](std::size_t v) {
      VertexId l = label[v];
      // Walk to the root without compression: parent[] is read-only in this
      // parallel pass.
      VertexId r = l;
      while (parent[r] != r) r = parent[r];
      if (r != l) {
        label[v] = r;
        touched[v] = 1;
      }
    });
    stats.resettled = reduce_indexed<std::uint64_t>(
        n, 0, std::plus<std::uint64_t>{}, [&](std::size_t v) -> std::uint64_t {
          return touched[v] != 0 ? 1 : 0;
        });
    // One round: the batch's edges unioned, every label relabelled.
    t->add_edges(batch.size());
    t->add_visits(n);
    t->end_round(stats.resettled);
    return stats;
  }).output;
}

}  // namespace pasgal
