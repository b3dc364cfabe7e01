// GraphStorage: the memory behind a CSR graph, decoupled from the Graph API.
//
// A storage handle owns the offsets/targets/weights arrays either as heap
// buffers (the classic path: readers and builders fill freshly allocated
// vectors) or as views into a read-only memory-mapped `.pgr` file segment
// (RAII munmap; see graph_io.h for the on-disk format). `Graph` and
// `WeightedGraph` hold a shared handle plus `std::span` views into it, so
// every algorithm consumes the same spans regardless of backend and copies
// of a graph share one storage.
//
// The handle also memoizes the graph's transpose: the first
// `Graph::transpose()` on a given storage computes and caches the reverse
// CSR (itself a storage handle), so drivers and benches that need `gt` for
// several variants build it once. A `.pgr` file written with
// `include_transpose` carries the transpose as extra sections, and the mmap
// open path pre-populates the cache from them — reverse edges then cost no
// construction work at all. Beside it sits the memoized `Graph::symmetrize()`
// view, which is built from that transpose and dropped whenever the update
// overlay changes.
//
// Allocation discipline: every heap allocation whose size is dictated by
// untrusted input goes through `allocate()`, which checks the CSR byte
// footprint (128-bit math) against the `pasgal/resource.h` ceiling before
// any vector is materialized. This is the single guard point the file
// readers previously duplicated.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pasgal/error.h"

namespace pasgal {

// Mirrors graph.h (storage.h must not include graph.h: Graph holds a
// storage handle, so the dependency points the other way).
using StorageEdgeId = std::uint64_t;
using StorageVertexId = std::uint32_t;
using StorageWeight = std::uint32_t;

// xxhash-style 64-bit content checksum: 8-byte lanes folded with
// multiply-rotate mixing plus an avalanche finalizer. Used for the
// per-section checksums of the `.pgr` format; not cryptographic.
std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed = 0);

// Read-only mmap of a whole file (RAII: munmap on destruction; the fd is
// closed right after mapping). Move-only.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { swap(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    swap(other);
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  // Maps `path` read-only. With `sequential` (the default) the mapping gets
  // an MADV_WILLNEED hint — CSR consumers scan mostly sequentially. Sharded
  // opens pass false and get MADV_RANDOM instead: the MappedWindow issues
  // its own WILLNEED/DONTNEED per shard, and whole-file readahead would
  // defeat the bounded residency it maintains. Throws kIo on failure.
  static MappedFile open(const std::string& path, bool sequential = true);

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  void swap(MappedFile& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

// --- shard-at-a-time execution ----------------------------------------------
//
// A graph larger than the memory budget streams through a bounded window
// instead of being rejected: the CSR is partitioned into contiguous
// vertex-range shards (ShardPlan) and the traversal layer sweeps them in
// order through one MappedWindow, which bounds *residency* — the whole file
// stays mapped so pointers are valid everywhere, but only the active shard's
// pages are hinted resident (MADV_WILLNEED ahead, MADV_DONTNEED behind).

// One contiguous vertex range and the edge range its adjacency lists cover.
struct ShardRange {
  StorageVertexId v_begin = 0;
  StorageVertexId v_end = 0;  // exclusive
  StorageEdgeId e_begin = 0;
  StorageEdgeId e_end = 0;  // exclusive
};

// Contiguous vertex ranges sized so each shard's edge payload fits the
// window budget. Boundaries snap to `align`-vertex blocks (1024 for
// compressed v2, whose chunks are 1024-vertex-aligned) so a shard is always
// a whole number of decode chunks.
class ShardPlan {
 public:
  // Greedy build: grow each range block by block while the edge payload
  // ((e_end - e_begin) * bytes_per_edge) stays within window_bytes. A range
  // always covers at least one block — a hub block heavier than the budget
  // gets a shard (and a transient window) of its own size rather than an
  // error.
  static ShardPlan build(std::span<const StorageEdgeId> offsets,
                         std::uint64_t bytes_per_edge,
                         std::uint64_t window_bytes, std::uint32_t align);

  std::size_t size() const { return ranges_.size(); }
  const ShardRange& operator[](std::size_t i) const { return ranges_[i]; }
  // Index of the shard containing vertex v (binary search).
  std::size_t shard_of(StorageVertexId v) const;
  std::uint64_t window_bytes() const { return window_bytes_; }
  std::uint64_t bytes_per_edge() const { return bytes_per_edge_; }
  // Largest per-shard edge count: sizes the reusable v2 decode buffer.
  StorageEdgeId max_shard_edges() const;

 private:
  std::vector<ShardRange> ranges_;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t bytes_per_edge_ = 0;
};

// The residency window one traversal sweeps through the shards. Two modes:
//
//   * raw — targets (and weights, when present) live in the mapping;
//     activate() madvises the shard's byte range in (WILLNEED, plus
//     HUGEPAGE for multi-MB spans) and the previous shard's range out
//     (DONTNEED; file-backed MAP_PRIVATE read-only pages drop from RSS and
//     refault from page cache / disk on next touch).
//   * decoding — compressed v2 targets decode on demand into one reusable
//     heap buffer sized for the largest shard; the encoded byte range gets
//     the same madvise treatment.
//
// activate() returns the shard's targets pointer and edge base; consumers
// index uniformly with targets[e - e_base] in both modes.
class MappedWindow {
 public:
  struct ActiveShard {
    const StorageVertexId* targets = nullptr;  // index with (e - e_base)
    StorageEdgeId e_base = 0;
  };

  using DecodeFn = std::function<void(const ShardRange&, StorageVertexId*)>;
  // Byte span of a shard's encoded chunks within the mapping (for madvise).
  using EncodedRangeFn =
      std::function<std::pair<const void*, std::size_t>(const ShardRange&)>;

  static std::shared_ptr<MappedWindow> raw(
      std::shared_ptr<const ShardPlan> plan,
      const StorageVertexId* targets_base, const StorageWeight* weights_base);

  static std::shared_ptr<MappedWindow> decoding(
      std::shared_ptr<const ShardPlan> plan, DecodeFn decode,
      EncodedRangeFn encoded_range, const StorageWeight* weights_base);

  // Makes `shard` the resident one: madvises the previous shard out and this
  // one in (decoding it first in decode mode). Serialized internally; the
  // traversal layer drives shards one at a time.
  ActiveShard activate(std::size_t shard);

  // Drops the active shard's residency hint (end of a run, or an unwind at
  // a cancelled sweep boundary). Idempotent.
  void release();

  // Residency hint for an arbitrary mapped range, for bounded one-off scans
  // that walk a whole-file section outside the shard loop (e.g. the SSSP
  // weight-overflow precondition): advise each chunk in, scan it, advise it
  // out. Does not touch the active-shard state or the sweep counters.
  // Passing the enclosing section's bounds widens the advise-out range by a
  // folio-spill margin (see kFolioSpillBytes in storage.cpp) clamped to the
  // section, covering pages a neighbouring chunk's faults resurrected.
  void advise_range(const void* addr, std::size_t len, bool in,
                    const void* section_begin = nullptr,
                    const void* section_end = nullptr) const;

  const ShardPlan& plan() const { return *plan_; }

  // Telemetry: sweeps counts every activation; faults counts activations of
  // a shard that was resident before and had been dropped (each one is a
  // page-refault burst). reset_counters() zeroes both and forgets the
  // visit history — the open-time validation sweep calls it so driver
  // metrics start from the algorithm's first activation.
  std::uint64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }
  std::uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  void reset_counters();

 private:
  MappedWindow() = default;
  void advise(const void* addr, std::size_t len, int advice) const;
  void advise_shard(const ShardRange& r, bool in) const;
  // DONTNEED widened by the folio-spill margin, clamped to [sec_lo, sec_hi).
  void advise_out_wide(const void* addr, std::size_t len, const void* sec_lo,
                       const void* sec_hi) const;

  std::shared_ptr<const ShardPlan> plan_;
  const StorageVertexId* targets_base_ = nullptr;  // raw mode
  const StorageWeight* weights_base_ = nullptr;
  StorageEdgeId total_edges_ = 0;  // section extent for clamped advises
  DecodeFn decode_;               // decode mode
  EncodedRangeFn encoded_range_;  // decode mode
  const void* encoded_lo_ = nullptr;  // encoded stream bounds (decode mode)
  const void* encoded_hi_ = nullptr;
  std::vector<StorageVertexId> decode_buf_;

  mutable std::mutex mu_;
  std::ptrdiff_t active_ = -1;
  std::ptrdiff_t decoded_ = -1;  // shard currently in decode_buf_
  std::vector<bool> visited_;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> faults_{0};
};

class GraphStorage;
using StorageRef = std::shared_ptr<GraphStorage>;

// Immutable per-vertex insert/delete patch set layered over a storage's CSR
// (graphs/delta.h). Attached to the storage handle so every Graph copy and
// the cached transpose observe one consistent overlay version.
class DeltaSnapshot;

// Move-only owner of one graph's CSR memory. Always held via shared_ptr
// (StorageRef) so graphs, their copies, and cached transposes share it.
class GraphStorage {
 public:
  enum class Backend { kHeap, kMmap };

  GraphStorage(const GraphStorage&) = delete;
  GraphStorage& operator=(const GraphStorage&) = delete;

  // Heap backend from already-built arrays (builders, generators,
  // transpose/symmetrize results). No ceiling check: the arrays exist.
  static StorageRef owned(std::vector<StorageEdgeId> offsets,
                          std::vector<StorageVertexId> targets,
                          std::vector<StorageWeight> weights = {});

  // CSR byte footprint ((n+1) offsets, m targets, m weights if `weighted`)
  // checked against the memory ceiling, 128-bit math. kResource Status when
  // the claim exceeds the ceiling; `path` names the input for diagnostics.
  // Readers run this on untrusted header claims *before* cheaper format
  // plausibility checks so absurd claims always classify as kResource.
  static Status check_footprint(std::uint64_t n, std::uint64_t m,
                                bool weighted, const std::string& path);

  // Windowed variant: prices what a sharded open keeps resident — the
  // offsets array (touched in full by every traversal) plus the window
  // budget — instead of the whole file. `extra_bytes` covers mode-specific
  // residents (the v2 decode buffer, transpose offsets).
  static Status check_windowed_footprint(std::uint64_t n,
                                         std::uint64_t window_bytes,
                                         std::uint64_t extra_bytes,
                                         const std::string& path);

  // Heap backend sized from untrusted header claims: check_footprint(), then
  // allocate. Throws kResource when the claim exceeds the ceiling. The
  // readers fill the arrays through the mutable_* accessors; the storage
  // starts unvalidated, so nothing trusts it before the reader's CSR check.
  static StorageRef allocate(std::uint64_t n, std::uint64_t m, bool weighted,
                             const std::string& path);

  // Mmap backend: shares ownership of the mapping (a `.pgr` with embedded
  // transpose sections backs two storage handles with one mapping); the
  // spans point into it (the `.pgr` reader computes them from the section
  // table) and `edge_count` is m. The targets side takes one of three forms:
  //  * `targets` spans the mapped section (zero-copy);
  //  * `decoded_targets` holds the heap buffer the varint decoder produced
  //    for a compressed file. The handle owns it, so a registry-shared open
  //    reuses the decoded buffer and warm opens pay zero decode cost.
  //    Callers must have priced it through check_footprint;
  //  * both empty with edge_count > 0: window-only (sharded compressed
  //    files). There is no whole-graph targets array; shards decode on
  //    demand into the MappedWindow's reusable buffer, so consumers must go
  //    through the window (random-access algorithms are rejected upstream
  //    with a typed kUsage error).
  static StorageRef mapped(std::shared_ptr<const MappedFile> file,
                           const std::string& path,
                           std::span<const StorageEdgeId> offsets,
                           std::span<const StorageVertexId> targets,
                           std::span<const StorageWeight> weights,
                           std::uint64_t edge_count,
                           std::vector<StorageVertexId> decoded_targets = {});

  std::span<const StorageEdgeId> offsets() const { return offsets_; }
  std::span<const StorageVertexId> targets() const { return targets_; }
  std::span<const StorageWeight> weights() const { return weights_; }

  // Heap backend only (readers filling a fresh allocation). The const views
  // above stay valid: vectors never reallocate after allocate().
  std::span<StorageEdgeId> mutable_offsets() { return own_offsets_; }
  std::span<StorageVertexId> mutable_targets() { return own_targets_; }
  std::span<StorageWeight> mutable_weights() { return own_weights_; }

  Backend backend() const { return backend_; }
  // Bytes of file backing this storage (0 for heap): the mmap never copies,
  // so this is the graph's entire load-time I/O footprint.
  std::uint64_t bytes_mapped() const {
    return map_ != nullptr ? map_->size() : 0;
  }
  // Number of edges, independent of whether a whole-graph targets array
  // exists (window-only storages have none; Graph::num_edges reads this).
  std::uint64_t edge_count() const { return edge_count_; }
  // Heap bytes held beside the mapping: the decoded targets of a hybrid
  // compressed open, or a window's reusable decode buffer. Part of the
  // admission/eviction accounting (registry Stats::resident_bytes).
  std::uint64_t decode_heap_bytes() const { return decode_heap_bytes_; }
  // What this handle actually keeps resident: mapping + decode heap for
  // in-core backends; the priced windowed footprint for sharded ones (the
  // whole file is mapped but only the window is hinted resident).
  std::uint64_t resident_bytes() const {
    if (resident_override_ != 0) return resident_override_;
    return bytes_mapped() + decode_heap_bytes_;
  }
  // Heap bytes of the views memoized on this handle (a built transpose, the
  // symmetric view, and the views memoized on those in turn). An embedded
  // transpose section lives in the shared mapping and adds nothing. The
  // registry adds this to resident_bytes() for admission and eviction.
  std::uint64_t derived_heap_bytes() const;
  // True when targets exist only shard-at-a-time (see mapped()).
  bool windowed() const { return window_only_; }

  // --- sharded execution state ----------------------------------------------
  // Set by the sharded `.pgr` open; the traversal layer discovers sharding
  // through these. `resident_override` is the windowed footprint the open
  // was priced at (0 keeps the default resident_bytes()).
  void set_sharding(std::shared_ptr<const ShardPlan> plan,
                    std::shared_ptr<MappedWindow> window,
                    std::uint64_t resident_override) {
    shard_plan_ = std::move(plan);
    shard_window_ = std::move(window);
    resident_override_ = resident_override;
  }
  const std::shared_ptr<const ShardPlan>& shard_plan() const {
    return shard_plan_;
  }
  const std::shared_ptr<MappedWindow>& shard_window() const {
    return shard_window_;
  }
  // Path of the backing file, when there is one (diagnostics, telemetry).
  const std::string& source_path() const { return source_path_; }
  // The mapping behind an mmap-backed storage (null for heap backends). The
  // registry hit path re-parses the .pgr header from it, so a shared open
  // can rebuild PgrInfo / run deep validation without touching the file.
  std::shared_ptr<const MappedFile> mapped_file() const { return map_; }

  // --- deferred deep-validation flag -----------------------------------------
  // Whether the CSR behind this handle has been range-checked (targets < n,
  // offsets monotone). Heap storages built in-process are trusted; O(1) mmap
  // opens that skipped deep validation are not, and `Graph::ensure_validated`
  // checks them lazily at first algorithm use so a well-formed-header `.pgr`
  // with out-of-range targets cannot drive frontier indexing out of bounds.
  bool validated() const {
    return validated_.load(std::memory_order_acquire);
  }
  void mark_validated() const {
    validated_.store(true, std::memory_order_release);
  }

  // --- transpose memoization -------------------------------------------------
  // The cached transpose of the graph this storage backs, or null. The cache
  // is keyed by identity: two Graph copies sharing this handle share it.
  StorageRef transpose_cache() const;
  // First-wins publish (concurrent transposes both compute; one result is
  // kept). Returns the cached handle all callers should use. If this storage
  // carries a delta overlay, the flipped (in-edge) snapshot is propagated
  // onto the freshly cached transpose so pull traversals see the same
  // overlay version immediately.
  StorageRef set_transpose_cache(StorageRef t);

  // --- symmetric-view memoization --------------------------------------------
  // The cached Graph::symmetrize() result, or null. It describes the overlay
  // version it was built against; set_delta() drops it.
  StorageRef symmetric_cache() const;
  // First-wins publish of a view built against overlay snapshot
  // `built_against` (null: no overlay). A build that raced an update (the
  // overlay is no longer `built_against`) is returned to its caller but not
  // published. Returns the handle the caller should use.
  StorageRef set_symmetric_cache(
      StorageRef s, const std::shared_ptr<const DeltaSnapshot>& built_against);

  // --- delta overlay ---------------------------------------------------------
  // The pending update overlay (graphs/delta.h), or null. Readers take the
  // lock-free fast path when has_delta() is false — the common case for
  // static graphs — and fetch the shared snapshot once per traversal
  // otherwise (Graph::adjacency()). set_delta() also pushes the snapshot's flipped (in-edge) side
  // onto the cached transpose, drops the symmetric view, and accepts null to
  // clear (compaction).
  bool has_delta() const { return has_delta_.load(std::memory_order_acquire); }
  std::shared_ptr<const DeltaSnapshot> delta_snapshot() const;
  void set_delta(std::shared_ptr<const DeltaSnapshot> d);

  // One-time memo for the sorted-adjacency invariant (Graph::
  // adjacency_sorted records it): the overlay merge (Adjacency), the
  // membership checks in apply_updates and the symmetrize merge all rely on
  // sorted base lists, so the first of them verifies per-vertex sortedness
  // once.
  bool adjacency_sorted() const {
    return adjacency_sorted_.load(std::memory_order_acquire);
  }
  void mark_adjacency_sorted() const {
    adjacency_sorted_.store(true, std::memory_order_release);
  }

 private:
  GraphStorage() = default;

  Backend backend_ = Backend::kHeap;
  std::vector<StorageEdgeId> own_offsets_;
  std::vector<StorageVertexId> own_targets_;
  std::vector<StorageWeight> own_weights_;
  std::shared_ptr<const MappedFile> map_;
  std::span<const StorageEdgeId> offsets_;
  std::span<const StorageVertexId> targets_;
  std::span<const StorageWeight> weights_;
  std::string source_path_;
  std::uint64_t edge_count_ = 0;
  std::uint64_t decode_heap_bytes_ = 0;
  std::uint64_t resident_override_ = 0;
  bool window_only_ = false;
  std::shared_ptr<const ShardPlan> shard_plan_;
  std::shared_ptr<MappedWindow> shard_window_;
  mutable std::atomic<bool> validated_{false};
  mutable std::atomic<bool> adjacency_sorted_{false};

  // Heap bytes owned by this handle's own arrays.
  std::uint64_t heap_bytes() const {
    return own_offsets_.size() * sizeof(StorageEdgeId) +
           own_targets_.size() * sizeof(StorageVertexId) +
           own_weights_.size() * sizeof(StorageWeight);
  }

  // transpose_mu_ also guards symmetric_ and delta_; has_delta_ is the
  // lock-free fast path.
  mutable std::mutex transpose_mu_;
  StorageRef transpose_;
  StorageRef symmetric_;
  std::shared_ptr<const DeltaSnapshot> delta_;
  std::atomic<bool> has_delta_{false};
};

}  // namespace pasgal
