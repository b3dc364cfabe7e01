// Vertical granularity control (VGC) — the paper's core technique (§2.1).
//
// Classic (horizontal) granularity control batches *sibling* loop iterations
// into one task. VGC instead grows each task *downward*: a task that picks a
// frontier vertex keeps exploring the graph through multiple hops, using a
// task-local stack, until it has visited at least `tau` vertices. Only the
// overflow (vertices discovered after the budget is spent) is handed to the
// next shared frontier. On sparse large-diameter graphs this
//   (1) divides the number of global synchronizations by the hops a local
//       search advances, and
//   (2) snowballs the frontier so every core has work,
// at the cost of abandoning the strict BFS order — which is harmless for
// reachability-style computations, and handled with distance re-checks in
// BFS/SSSP.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/hashbag.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct VgcParams {
  // Minimum vertices a local search processes before spilling to the shared
  // frontier. tau = 1 degenerates to the classic one-hop frontier algorithm.
  std::uint32_t tau = 512;
};

// A local search's edge budget, in units of tau: a distance search stops
// once its relax calls have scanned kVgcEngageFactor*tau edges (8192 at
// tau 512), so one hub cannot serialize a round. BFS also engages
// VGC only below this much frontier work (see pasgal_bfs). Deliberately
// NOT scaled by the worker count: the round structure should not change
// with the machine it runs on.
inline constexpr std::uint32_t kVgcEngageFactor = 16;

// Hard cap on a task-local stack (bounds per-task memory).
inline constexpr std::uint32_t kVgcLocalStackCap = 4096;

// Generic reachability-flavoured local search.
//
//   try_mark(v) -> bool : attempt to claim v (atomically); true iff this call
//                         claimed it. Called at most once per discovery.
//
// Starting from `root` (which must already be claimed), explores out-edges of
// claimed vertices through `adj`, the traversal's view of the graph. Claimed
// vertices beyond the budget are inserted into `next` for the following
// round. Returns the number of vertices expanded.
template <typename TryMark>
std::uint64_t local_search(const Adjacency& adj, VertexId root,
                           const VgcParams& p, TryMark&& try_mark,
                           HashBag<VertexId>& next, Tracer* stats = nullptr) {
  // Task-local stack; plain vector, no sharing.
  std::vector<VertexId> stack;
  stack.reserve(64);
  stack.push_back(root);
  std::uint64_t expanded = 0;
  std::uint64_t edges = 0;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    ++expanded;
    adj.scan(u, [&](VertexId v) {
      ++edges;
      if (try_mark(v)) {
        if (expanded < p.tau && stack.size() < kVgcLocalStackCap) {
          stack.push_back(v);
        } else {
          next.insert(v);
        }
      }
    });
  }
  if (stats) {
    stats->add_edges(edges);
    stats->add_visits(expanded);
    stats->add_local_depth(expanded);
  }
  return expanded;
}

// Distance-aware local search for BFS/SSSP-style algorithms. Entries carry
// the tentative distance they were enqueued with; stale entries (their
// vertex's distance has since improved) are skipped.
//
//   relax(u, d_u, emit) : relax all out-edges of u given its distance d_u;
//                         for each improved neighbour call emit(v, d_v).
//                         Returns the number of edges it scanned (0 for a
//                         stale u).
//
// The budget is tau expanded vertices or kVgcEngageFactor*tau scanned
// edges, whichever is spent first.
// Vertices improved beyond the vertex budget go to `spill(v, d_v)`; once
// the edge budget is spent the search stops and spills everything it still
// holds, so no emitted entry is lost.
//
// Unlike the reachability search, this one expands FIFO: the task explores a
// *ball* around the root rather than a DFS tendril, so the tentative
// distances it assigns are (near-)exact within the ball and the spilled
// frontier sits a bounded number of hops ahead. With a LIFO stack the task
// would label a depth-tau path with path-length distances, all of which
// later rounds must correct.
template <typename Relax, typename Spill>
std::uint64_t local_search_dist(VertexId root, std::uint32_t root_dist,
                                const VgcParams& p, Relax&& relax,
                                Spill&& spill, Tracer* stats = nullptr) {
  struct Entry {
    VertexId v;
    std::uint32_t dist;
  };
  // One queue per thread, reused by its searches (relax and spill never
  // start a search, so none runs inside another): a round's thousands of
  // short searches then allocate nothing.
  thread_local std::vector<Entry> queue;
  queue.clear();
  queue.push_back({root, root_dist});
  std::size_t head = 0;
  std::uint64_t expanded = 0;
  const std::uint64_t edge_budget =
      static_cast<std::uint64_t>(p.tau) * kVgcEngageFactor;
  std::uint64_t work = 0;
  while (head < queue.size()) {
    Entry e = queue[head++];
    ++expanded;
    auto emit = [&](VertexId v, std::uint32_t d) {
      if (expanded < p.tau && queue.size() < kVgcLocalStackCap) {
        queue.push_back({v, d});
      } else {
        spill(v, d);
      }
    };
    work += relax(e.v, e.dist, emit);
    if (work >= edge_budget) {
      for (; head < queue.size(); ++head) {
        spill(queue[head].v, queue[head].dist);
      }
    }
  }
  if (stats) {
    stats->add_edges(work);
    stats->add_visits(expanded);
    stats->add_local_depth(expanded);
  }
  return expanded;
}

}  // namespace pasgal
