#include <atomic>

#include "algorithms/catalog.h"
#include "algorithms/scc/reach.h"
#include "algorithms/scc/scc.h"

namespace pasgal {

namespace {

constexpr SccLabel kUnassigned = static_cast<SccLabel>(-1);
SccLabel scc_label_of(VertexId p) { return 4 * static_cast<SccLabel>(p); }

}  // namespace

// Multistep SCC (Slota, Rajamanickam, Madduri; IPDPS'14):
//   1. trim trivial SCCs,
//   2. FW-BW from a max-degree-product pivot extracts the giant SCC,
//   3. coloring (max-label propagation, then backward reach per color root)
//      peels the remaining medium components,
//   4. sequential Tarjan cleans up the tail.
// The paper tables this as the baseline that cannot handle >32-bit edge ids
// and degrades on large-diameter inputs — the coloring propagation needs
// O(D) synchronized rounds, which our instrumentation exposes.
RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  admit(algo_spec("scc", "multistep"), g, &gt);
  return run_traced(opt, [&](Tracer* stats) -> std::vector<SccLabel> {
    std::size_t n = g.num_vertices();
    if (n == 0) return {};
    std::vector<std::atomic<SccLabel>> label(n);
    parallel_for(0, n, [&](std::size_t i) {
      label[i].store(kUnassigned, std::memory_order_relaxed);
    });
    auto live = [&](VertexId v) {
      return label[v].load(std::memory_order_relaxed) == kUnassigned;
    };
    Adjacency out = g.adjacency(), in = gt.adjacency();

    // --- 1. Trim.
    parallel_for(0, n, [&](std::size_t vi) {
      VertexId v = static_cast<VertexId>(vi);
      // A scan stops (returns false) at the first neighbour other than v.
      auto self = [&](VertexId u) { return u == v; };
      bool has_out = !out.scan(v, self);
      bool has_in = !in.scan(v, self);
      if (!has_in || !has_out) {
        label[v].store(scc_label_of(v), std::memory_order_relaxed);
      }
    });
    stats->end_round(n);

    std::vector<std::uint64_t> no_sub(n, 0);
    // Frontier-order reach, dense-capable.
    const AlgoOptions reach_opt{.vgc = {.tau = 1}};

    // --- 2. FW-BW around the heaviest pivot.
    VertexId pivot = kInvalidVertex;
    std::uint64_t best_product = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (!live(v)) continue;
      std::uint64_t prod = static_cast<std::uint64_t>(out.degree(v)) *
                           static_cast<std::uint64_t>(in.degree(v));
      if (pivot == kInvalidVertex || prod > best_product) {
        pivot = v;
        best_product = prod;
      }
    }
    if (pivot != kInvalidVertex) {
      std::vector<std::atomic<std::uint8_t>> fw(n), bw(n);
      parallel_for(0, n, [&](std::size_t i) {
        fw[i].store(0, std::memory_order_relaxed);
        bw[i].store(0, std::memory_order_relaxed);
      });
      internal::multi_reach(g, gt, {pivot}, no_sub, live, fw, reach_opt, stats);
      auto live_in_fw = [&](VertexId v) {
        return live(v) && fw[v].load(std::memory_order_relaxed);
      };
      internal::multi_reach(gt, g, {pivot}, no_sub, live_in_fw, bw, reach_opt,
                            stats);
      parallel_for(0, n, [&](std::size_t vi) {
        VertexId v = static_cast<VertexId>(vi);
        if (live(v) && fw[v].load(std::memory_order_relaxed) &&
            bw[v].load(std::memory_order_relaxed)) {
          label[v].store(scc_label_of(pivot), std::memory_order_relaxed);
        }
      });
    }

    // --- 3. Coloring rounds for the mid-sized components.
    auto live_count = [&] {
      return count_if_index(n, [&](std::size_t v) {
        return live(static_cast<VertexId>(v));
      });
    };
    std::size_t remaining = live_count();
    while (remaining > opt.multistep_cutoff) {
      std::vector<std::atomic<std::uint64_t>> color(n);
      parallel_for(0, n, [&](std::size_t v) {
        color[v].store(v, std::memory_order_relaxed);
      });
      // Max-label propagation along live edges to a fixpoint: O(D') rounds.
      std::atomic<bool> changed{true};
      while (changed.load(std::memory_order_relaxed)) {
        changed.store(false, std::memory_order_relaxed);
        parallel_for(0, n, [&](std::size_t ui) {
          VertexId u = static_cast<VertexId>(ui);
          if (!live(u)) return;
          std::uint64_t cu = color[u].load(std::memory_order_relaxed);
          out.scan(u, [&](VertexId v) {
            if (live(v) && write_max(color[v], cu)) {
              changed.store(true, std::memory_order_relaxed);
            }
          });
        });
        stats->add_edges(g.num_edges());
        stats->end_round(remaining);
      }
      // Roots keep their own color; each root's SCC = backward reach inside
      // its color class.
      std::vector<std::uint64_t> color_plain(n);
      parallel_for(0, n, [&](std::size_t v) {
        color_plain[v] = color[v].load(std::memory_order_relaxed);
      });
      auto roots = pack_indexed<VertexId>(
          n,
          [&](std::size_t v) {
            return live(static_cast<VertexId>(v)) && color_plain[v] == v;
          },
          [&](std::size_t v) { return static_cast<VertexId>(v); });
      std::vector<std::atomic<std::uint8_t>> bw(n);
      parallel_for(0, n, [&](std::size_t i) {
        bw[i].store(0, std::memory_order_relaxed);
      });
      internal::multi_reach(gt, g, roots, color_plain, live, bw, reach_opt,
                            stats);
      parallel_for(0, n, [&](std::size_t vi) {
        VertexId v = static_cast<VertexId>(vi);
        if (live(v) && bw[v].load(std::memory_order_relaxed)) {
          label[v].store(scc_label_of(static_cast<VertexId>(color_plain[v])),
                         std::memory_order_relaxed);
        }
      });
      remaining = live_count();
    }

    // --- 4. Sequential Tarjan on the induced remainder.
    if (remaining > 0) {
      auto live_vertices = pack_indexed<VertexId>(
          n, [&](std::size_t v) { return live(static_cast<VertexId>(v)); },
          [&](std::size_t v) { return static_cast<VertexId>(v); });
      std::vector<VertexId> dense_id(n, kInvalidVertex);
      parallel_for(0, live_vertices.size(), [&](std::size_t i) {
        dense_id[live_vertices[i]] = static_cast<VertexId>(i);
      });
      std::vector<Edge> sub_edges;
      for (VertexId u : live_vertices) {
        out.scan(u, [&](VertexId v) {
          if (dense_id[v] != kInvalidVertex) {
            sub_edges.push_back(Edge{dense_id[u], dense_id[v]});
          }
        });
      }
      Graph sub = Graph::from_edges(live_vertices.size(), sub_edges);
      auto sub_labels = tarjan_scc(sub, {.tracer = stats}).output;
      // Name each remainder SCC by one of its members (unique: those vertices
      // were never pivots or trim singletons).
      std::vector<VertexId> rep(live_vertices.size(), kInvalidVertex);
      for (std::size_t i = 0; i < live_vertices.size(); ++i) {
        auto scc = static_cast<std::size_t>(sub_labels[i]);
        if (rep[scc] == kInvalidVertex) rep[scc] = live_vertices[i];
      }
      for (std::size_t i = 0; i < live_vertices.size(); ++i) {
        label[live_vertices[i]].store(
            scc_label_of(rep[static_cast<std::size_t>(sub_labels[i])]),
            std::memory_order_relaxed);
      }
    }

    return tabulate(n, [&](std::size_t v) {
      return label[v].load(std::memory_order_relaxed);
    });
  });
}

}  // namespace pasgal
