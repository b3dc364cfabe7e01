// Delta overlay for dynamic graph updates (DESIGN.md §5k).
//
// A registered `.pgr` is immutable — the mmap'd CSR never changes. Updates
// are instead accumulated as a **DeltaSnapshot**: an immutable per-vertex
// patch set (sorted insert targets, sorted delete targets) attached to the
// graph's storage handle. Every kernel that can meet an overlay reads
// adjacency through one view, `Adjacency` below (Graph::adjacency()), which
// merges it: (base minus deletes) union inserts, in ascending target order —
// exactly the adjacency order `from_edges` produces — so their results are
// byte-identical to a from-scratch rebuild of the updated graph.
//
// Apply model: `apply_updates(g, batch)` validates a batch against the
// *effective* graph (base ⊕ current overlay), builds the next snapshot
// (persistent-data-structure style: the old snapshot is untouched, in-flight
// traversals keep reading it), and publishes it on the storage handle. The
// flipped (in-edge) snapshot is built in the same step and propagated to the
// cached transpose, so pull traversals observe the same overlay version.
//
// Update semantics (directed edges, set semantics):
//   * insert(u,v): v must not be an effective out-neighbor of u. If (u,v)
//     is a deleted base edge, the delete is cancelled; otherwise v joins
//     u's insert list.
//   * delete(u,v): v must be an effective out-neighbor. If (u,v) is an
//     overlay insert, the insert is cancelled; otherwise v joins u's delete
//     list (suppressing every base copy — multigraph duplicates collapse).
// Violations throw typed kValidation; updates on weighted or sharded
// (windowed) graphs throw kUsage.
//
// Durability: batches append to a `.plog` update log (byte format in
// DESIGN.md §5k — 16-byte header, per-batch frames with a count and an
// xxhash-style payload checksum). A torn trailing append replays as a
// consistent prefix; a corrupted complete frame is a typed kFormat error.
// Compaction (`materialize_effective` + write_pgr + rename) collapses the
// overlay into a new `.pgr` version; the registry's file-identity keying
// detects the rewrite and swaps mappings on the next open.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "graphs/graph.h"

namespace pasgal {

// One edge mutation. `op` is stored as u32 in the `.plog` records.
struct EdgeUpdate {
  enum class Op : std::uint32_t { kInsert = 0, kDelete = 1 };
  Op op = Op::kInsert;
  VertexId from = 0;
  VertexId to = 0;
  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

// Immutable per-vertex patch set: full (n+1) offset arrays over sorted
// insert/delete target arrays. O(1) per-vertex lookup with no hashing, and
// `touches(v)` — the Adjacency fast path — is two offset compares. Holds its
// flipped (in-edge) counterpart, built in the same apply step, for pull
// traversals over the cached transpose.
class DeltaSnapshot {
 public:
  std::size_t num_vertices() const { return ins_offsets_.size() - 1; }
  std::uint64_t insert_count() const { return ins_targets_.size(); }
  std::uint64_t delete_count() const { return del_targets_.size(); }
  // Batches folded into this snapshot since the overlay was first attached.
  std::uint64_t batches() const { return batches_; }

  bool touches(VertexId v) const {
    return ins_offsets_[v + 1] != ins_offsets_[v] ||
           del_offsets_[v + 1] != del_offsets_[v];
  }
  std::span<const VertexId> inserts(VertexId v) const {
    return {ins_targets_.data() + ins_offsets_[v],
            static_cast<std::size_t>(ins_offsets_[v + 1] - ins_offsets_[v])};
  }
  std::span<const VertexId> deletes(VertexId v) const {
    return {del_targets_.data() + del_offsets_[v],
            static_cast<std::size_t>(del_offsets_[v + 1] - del_offsets_[v])};
  }
  // Degree of v in the effective graph, given its base degree.
  EdgeId effective_degree(VertexId v, EdgeId base_degree) const {
    return base_degree + (ins_offsets_[v + 1] - ins_offsets_[v]) -
           (del_offsets_[v + 1] - del_offsets_[v]);
  }

  // Heap footprint of this snapshot plus its flipped side (admission
  // pricing in the server; both sides are attached together).
  std::uint64_t resident_bytes() const;

  // The in-edge-direction snapshot: op (u,v) here appears as (v,u) there.
  // Null only on a flipped snapshot itself (one level, never chained).
  const std::shared_ptr<const DeltaSnapshot>& flipped() const {
    return flipped_;
  }

  // Construction is delta.cpp's job (apply_updates / log replay); tests and
  // the builder go through this factory. The per-vertex lists must be
  // sorted, duplicate-free, and disjoint in the apply-model sense.
  static std::shared_ptr<const DeltaSnapshot> build(
      std::size_t n, std::vector<EdgeId> ins_offsets,
      std::vector<VertexId> ins_targets, std::vector<EdgeId> del_offsets,
      std::vector<VertexId> del_targets, std::uint64_t batches);

 private:
  DeltaSnapshot() = default;

  std::vector<EdgeId> ins_offsets_;    // size n+1
  std::vector<VertexId> ins_targets_;  // sorted per vertex
  std::vector<EdgeId> del_offsets_;    // size n+1
  std::vector<VertexId> del_targets_;  // sorted per vertex
  std::uint64_t batches_ = 0;
  std::shared_ptr<const DeltaSnapshot> flipped_;
};

// One graph's effective adjacency, read per vertex: the base CSR with the
// update overlay merged in. Take it once per traversal (Graph::adjacency()):
// it holds one snapshot, so a racing apply_updates cannot change the lists
// under it; the graph must outlive it. With no overlay, or on a vertex the
// overlay leaves untouched, a read is the raw CSR loop. A merged list is the
// base copies no delete suppresses, interleaved with the inserts, ascending —
// the order a rebuild stores — so kernels answer as on the rebuilt graph.
// Inserts carry kInvalidEdge. A visitor `f` takes (target) or (target,
// edge_id) and returns void or bool; false stops the scan.
class Adjacency {
 public:
  // Reads g's CSR with `overlay` merged in (null: the raw CSR), for a caller
  // that pairs a graph with a snapshot it fetched itself.
  Adjacency(const Graph& g, std::shared_ptr<const DeltaSnapshot> overlay)
      : offsets_(g.offsets().data()),
        targets_(g.targets().data()),
        delta_(std::move(overlay)) {}

  // The snapshot this view merges (null: none).
  const std::shared_ptr<const DeltaSnapshot>& overlay() const { return delta_; }

  EdgeId degree(VertexId v) const {
    EdgeId d = offsets_[v + 1] - offsets_[v];
    return delta_ == nullptr ? d : delta_->effective_degree(v, d);
  }

  // Visits v's effective out-edges in ascending target order; false when f
  // stopped the scan. A shard window passes its payload as `tgt`, holding
  // the base targets from global edge id `e_base` on.
  template <typename F>
  bool scan(VertexId v, F&& f, const VertexId* tgt = nullptr,
            EdgeId e_base = 0) const {
    if (tgt == nullptr) tgt = targets_;
    EdgeId begin = offsets_[v], end = offsets_[v + 1];
    if (delta_ == nullptr || !delta_->touches(v)) [[likely]] {
      for (EdgeId e = begin; e < end; ++e) {
        if (!call(f, tgt[e - e_base], e)) return false;
      }
      return true;
    }
    Cursor c{v, 0, 0, begin};
    return merge(c, tgt, e_base, f);
  }

  // v's effective list as one span: the base row itself when the overlay
  // leaves v untouched, else the merged list appended to the empty `buf`.
  std::span<const VertexId> row(VertexId v, std::vector<VertexId>& buf) const {
    if (delta_ == nullptr || !delta_->touches(v)) {
      return {targets_ + offsets_[v],
              static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
    }
    scan(v, [&](VertexId t) { buf.push_back(t); });
    return buf;
  }

  // A resumable position in v's effective list (Tarjan's DFS frames).
  struct Cursor {
    VertexId v;
    std::uint32_t ins;  // next overlay insert of v
    std::uint32_t del;  // next overlay delete of v
    EdgeId e;           // next base edge
  };
  Cursor cursor(VertexId v) const { return {v, 0, 0, offsets_[v]}; }

  // Moves c past the next effective out-neighbour, stored in `target`;
  // false once the list is exhausted.
  bool next(Cursor& c, VertexId& target) const {
    if (delta_ == nullptr || !delta_->touches(c.v)) [[likely]] {
      if (c.e == offsets_[c.v + 1]) return false;
      target = targets_[c.e++];
      return true;
    }
    auto take = [&](VertexId t) { target = t; return false; };
    return !merge(c, targets_, 0, take);
  }

 private:
  // Calls f(t) or f(t, e); a void visitor never stops the scan.
  template <typename F>
  static bool call(F& f, VertexId t, EdgeId e) {
    auto run = [&] {
      if constexpr (std::is_invocable_v<F&, VertexId, EdgeId>) return f(t, e);
      else return f(t);
    };
    if constexpr (std::is_void_v<decltype(run())>) return run(), true;
    else return run();
  }

  // The overlay merge of c.v's list, resumed from c. Returns false when f
  // stopped it; c then points just past the entry f stopped on. Kept out of
  // line so the raw loop above stays as small as a plain CSR loop.
  template <typename F>
  [[gnu::noinline]] bool merge(Cursor& c, const VertexId* tgt, EdgeId e_base,
                               F& f) const {
    std::span<const VertexId> ins, del;
    if (delta_ != nullptr) {
      ins = delta_->inserts(c.v);
      del = delta_->deletes(c.v);
    }
    for (EdgeId end = offsets_[c.v + 1]; c.e < end;) {
      VertexId t = tgt[c.e - e_base];
      if (c.ins < ins.size() && ins[c.ins] < t) {
        if (!call(f, ins[c.ins++], kInvalidEdge)) return false;
        continue;
      }
      while (c.del < del.size() && del[c.del] < t) ++c.del;
      EdgeId e = c.e++;
      // One delete entry suppresses every base copy of t (c.del stays put:
      // the next base element may be a duplicate of t).
      if (c.del < del.size() && del[c.del] == t) continue;
      if (!call(f, t, e)) return false;
    }
    while (c.ins < ins.size()) {
      if (!call(f, ins[c.ins++], kInvalidEdge)) return false;
    }
    return true;
  }

  const EdgeId* offsets_;
  const VertexId* targets_;
  std::shared_ptr<const DeltaSnapshot> delta_;
};

inline Adjacency Graph::adjacency() const {
  return Adjacency(*this,
                   storage_ != nullptr ? storage_->delta_snapshot() : nullptr);
}

// Result of one apply (or replay): the batch's op mix plus the pending
// overlay totals after it, for metrics and admission pricing.
struct ApplyStats {
  std::uint64_t batch_inserts = 0;  // insert ops in this batch
  std::uint64_t batch_deletes = 0;  // delete ops in this batch
  std::uint64_t inserts = 0;        // net pending overlay inserts after
  std::uint64_t deletes = 0;        // net pending overlay deletes after
  std::uint64_t batches = 0;        // batches folded into the overlay
  std::uint64_t overlay_bytes = 0;  // snapshot heap footprint (both sides)
};

// Validates `batch` against the effective graph and publishes the next
// overlay snapshot on g's storage handle (and its flipped side on the cached
// transpose). Throws kUsage (weighted / windowed / sharded graph), or
// kValidation (id out of range, insert of a present edge, delete of an
// absent edge, unsorted base adjacency).
ApplyStats apply_updates(const Graph& g, std::span<const EdgeUpdate> batch);

// Replays every batch of a `.plog` through apply_updates. Returns the stats
// of the final state (batches == number of frames replayed when the overlay
// started empty).
ApplyStats replay_update_log(const Graph& g, const std::string& path);

// Stateful convenience binding a base graph to its overlay and (optionally)
// an append-only log: each apply() validates, publishes, and — when a log
// path is set — appends the batch frame after the validation succeeded, so
// the log never records a rejected batch.
class GraphDelta {
 public:
  explicit GraphDelta(Graph base, std::string log_path = "")
      : base_(std::move(base)), log_path_(std::move(log_path)) {}

  ApplyStats apply(std::span<const EdgeUpdate> batch);

  std::shared_ptr<const DeltaSnapshot> snapshot() const {
    return base_.storage() != nullptr ? base_.storage()->delta_snapshot()
                                      : nullptr;
  }
  const Graph& base() const { return base_; }
  const std::string& log_path() const { return log_path_; }

 private:
  Graph base_;
  std::string log_path_;
};

// --- append-only update log (`.plog`) ---------------------------------------
// Byte format (all little-endian; spec in DESIGN.md §5k):
//   header  : 8-byte magic "PGRDLOG\0", u32 version (=1), u32 reserved (=0)
//   frame   : u32 magic "BATC", u32 count, u64 hash_bytes(payload),
//             payload = count × 12-byte records {u32 op, u32 from, u32 to}
// Appends are single write()s, so a crash tears at most the trailing frame.

inline constexpr std::uint32_t kPlogVersion = 1;

// Writes header + one frame per batch, truncating any existing file.
void write_update_log(const std::string& path,
                      std::span<const std::vector<EdgeUpdate>> batches);

// Appends one frame, creating the file (with header) when absent or empty.
void append_update_batch(const std::string& path,
                         std::span<const EdgeUpdate> batch);

// Reads every complete frame. A torn trailing frame (crashed append) yields
// the consistent prefix; a bad magic/version/op or a checksum mismatch on a
// complete frame throws kFormat; unreadable file throws kIo.
std::vector<std::vector<EdgeUpdate>> read_update_log(const std::string& path);

}  // namespace pasgal
