#include "algorithms/toposort/toposort.h"

#include <atomic>
#include <queue>

#include "algorithms/catalog.h"
#include "parlay/sort.h"
#include "pasgal/hashbag.h"

namespace pasgal {

namespace {

Status cycle_status(std::size_t unfinished, std::size_t n) {
  return Status::Failure(
      ErrorCategory::kValidation,
      "graph is not a DAG: " + std::to_string(unfinished) + " of " +
          std::to_string(n) + " vertices are stuck on cycles");
}

}  // namespace

RunReport<std::vector<std::uint32_t>> seq_toposort(const Graph& g,
                                                   const AlgoOptions& opt) {
  admit({InCore::kGraph, "seq-toposort"}, g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    Graph gt = g.transpose();
    Adjacency out = g.adjacency(), in = gt.adjacency();
    std::vector<std::uint32_t> indeg(n), level(n, 0);
    std::queue<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      indeg[v] = static_cast<std::uint32_t>(in.degree(v));
      if (indeg[v] == 0) queue.push(v);
    }
    std::size_t done = 0;
    std::uint64_t edges = 0;
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop();
      ++done;
      out.scan(u, [&](VertexId v) {
        ++edges;
        level[v] = std::max(level[v], level[u] + 1);
        if (--indeg[v] == 0) queue.push(v);
      });
    }
    stats->add_edges(edges);
    stats->add_visits(done);
    stats->end_round(done);
    if (done != n) cycle_status(n - done, n).throw_if_error();
    return level;
  });
}

// Parallel Kahn peeling. Levels are computed as longest-path depths via
// atomic write_max; a vertex is finished (and its successors decremented)
// exactly once, when its in-degree counter hits zero — by then all
// predecessors have contributed their level, so level[v] is final.
RunReport<std::vector<std::uint32_t>> pasgal_toposort(const Graph& g,
                                                      const AlgoOptions& opt) {
  admit({InCore::kGraph, "pasgal-toposort"}, g);
  return run_traced(opt, [&](Tracer* stats) {
    std::size_t n = g.num_vertices();
    Graph gt = g.transpose();
    Adjacency out = g.adjacency(), in = gt.adjacency();
    std::vector<std::atomic<std::uint32_t>> indeg(n), level(n);
    parallel_for(0, n, [&](std::size_t v) {
      indeg[v].store(
          static_cast<std::uint32_t>(in.degree(static_cast<VertexId>(v))),
          std::memory_order_relaxed);
      level[v].store(0, std::memory_order_relaxed);
    });

    auto roots = pack_indexed<VertexId>(
        n,
        [&](std::size_t v) {
          return indeg[v].load(std::memory_order_relaxed) == 0;
        },
        [&](std::size_t v) { return static_cast<VertexId>(v); });

    std::atomic<std::uint64_t> finished{0};
    HashBag<VertexId> bag(8);
    bag.attach_tracer(stats);
    std::vector<VertexId> frontier = std::move(roots);
    while (!frontier.empty()) {
      stats->end_round(frontier.size(), opt.vgc.tau > 1
                                            ? RoundKind::kLocal
                                            : RoundKind::kSparse);
      parallel_for(
          0, frontier.size(),
          [&](std::size_t i) {
            std::vector<VertexId> stack = {frontier[i]};
            std::uint64_t processed = 0;
            std::uint64_t edges = 0;
            while (!stack.empty()) {
              VertexId u = stack.back();
              stack.pop_back();
              ++processed;
              std::uint32_t lu = level[u].load(std::memory_order_relaxed);
              out.scan(u, [&](VertexId v) {
                ++edges;
                write_max(level[v], lu + 1);
                if (indeg[v].fetch_sub(1, std::memory_order_acq_rel) - 1 == 0) {
                  if (processed < opt.vgc.tau &&
                      stack.size() < kVgcLocalStackCap) {
                    stack.push_back(v);
                  } else {
                    bag.insert(v);
                  }
                }
              });
            }
            finished.fetch_add(processed, std::memory_order_relaxed);
            stats->add_edges(edges);
            stats->add_visits(processed);
            stats->add_local_depth(processed);
          },
          1);
      frontier = bag.extract_all();
    }
    std::uint64_t done = finished.load(std::memory_order_relaxed);
    if (done != n) cycle_status(n - done, n).throw_if_error();
    return tabulate(n, [&](std::size_t v) {
      return level[v].load(std::memory_order_relaxed);
    });
  });
}

std::vector<VertexId> topological_order(std::span<const std::uint32_t> levels) {
  auto order = tabulate(levels.size(),
                        [](std::size_t i) { return static_cast<VertexId>(i); });
  sort_inplace(std::span<VertexId>(order), [&](VertexId a, VertexId b) {
    return levels[a] != levels[b] ? levels[a] < levels[b] : a < b;
  });
  return order;
}

}  // namespace pasgal
