// The pending pool of PASGAL's multi-frontier (§2.2), shared by the BFS and
// stepping-SSSP kernels: tentative distances plus the entries still to run.
//
// A pending entry (v, d) is the tentative distance v was queued with. It is
// valid while dist(v) is still d; an improved vertex has a fresher entry,
// so stale entries are simply dropped. Entries are keyed by absolute
// distance and never re-keyed: new spills go into one hash bag (thread-safe
// inserts from the round's tasks), and valid entries a round does not run
// wait in a plain `carry` vector. Each round `collect`s the bag into the
// carry, drops stale entries and learns L, the minimum pending distance;
// the kernel then picks a threshold and `take_upto` hands it the entries at
// or below it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graphs/graph.h"
#include "parlay/primitives.h"
#include "pasgal/hashbag.h"
#include "pasgal/telemetry.h"

namespace pasgal {

// An entry packs (d << 32 | v), so tentative distances are limited to 32
// bits. Ordering packed entries orders them by distance first.
inline std::uint64_t pack_entry(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
inline VertexId entry_vertex(std::uint64_t e) {
  return static_cast<VertexId>(e);
}
inline std::uint32_t entry_dist(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

class PendingPool {
 public:
  static constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);

  // n tentative distances, all kUnreached but the source's 0, and the one
  // pending entry (source, 0).
  PendingPool(std::size_t n, VertexId source, Tracer* stats = nullptr)
      : dist_(n), bag_(8), carry_{pack_entry(source, 0)} {
    parallel_for(0, n, [&](std::size_t i) {
      dist_[i].store(kUnreached, std::memory_order_relaxed);
    });
    dist_[source].store(0, std::memory_order_relaxed);
    bag_.attach_tracer(stats);
  }

  // The tentative distances: tasks lower them (write_min) before queuing.
  std::vector<std::atomic<std::uint32_t>>& dist() { return dist_; }

  bool is_valid(std::uint64_t e) const {
    return dist_[entry_vertex(e)].load(std::memory_order_relaxed) ==
           entry_dist(e);
  }

  // Thread-safe: queues (v, d) for a later round.
  void insert(VertexId v, std::uint32_t d) { bag_.insert(pack_entry(v, d)); }

  // Queues (v, d) for every v in `vs` straight into the carry. Not
  // thread-safe: call it between rounds.
  void keep(std::span<const VertexId> vs, std::uint32_t d) {
    std::size_t kept = carry_.size();
    carry_.resize(kept + vs.size());
    parallel_for(0, vs.size(), [&](std::size_t i) {
      carry_[kept + i] = pack_entry(vs[i], d);
    });
  }

  // Moves the bag's entries behind the carry, drops the stale ones and
  // returns L, the minimum distance left (kUnreached when empty()).
  std::uint32_t collect() {
    std::vector<std::uint64_t> all = bag_.extract_all();
    all.insert(all.end(), carry_.begin(), carry_.end());
    carry_ = filter(std::span<const std::uint64_t>(all),
                    [&](std::uint64_t e) { return is_valid(e); });
    return reduce_indexed<std::uint32_t>(
        carry_.size(), kUnreached,
        [](std::uint32_t a, std::uint32_t b) { return a < b ? a : b; },
        [&](std::size_t i) { return entry_dist(carry_[i]); });
  }

  // Returns the carried entries with d <= hi, in order; the rest stay.
  std::vector<std::uint64_t> take_upto(std::uint64_t hi) {
    std::span<const std::uint64_t> all(carry_);
    auto taken = filter(all, [&](std::uint64_t e) { return entry_dist(e) <= hi; });
    carry_ = filter(all, [&](std::uint64_t e) { return entry_dist(e) > hi; });
    return taken;
  }

  // The carried entries: after collect(), exactly the valid pending ones.
  const std::vector<std::uint64_t>& entries() const { return carry_; }
  bool empty() const { return carry_.empty(); }

 private:
  std::vector<std::atomic<std::uint32_t>> dist_;
  HashBag<std::uint64_t> bag_;
  std::vector<std::uint64_t> carry_;
};

}  // namespace pasgal
