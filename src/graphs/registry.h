// GraphRegistry: process-level sharing of mmap-backed graph storage.
//
// Storage sharing in storage.h is per-StorageRef: two `read_pgr` calls on
// the same file each map it and each memoize their own transpose. A
// long-lived serving process that re-opens its graphs (several drivers in
// one binary, bench iterations, request loops) therefore pays the mapping
// and transpose cost once per open instead of once per process. The
// registry closes that gap: a process-wide table keyed by canonical file
// identity hands every opener of the same file the same GraphStorage — one
// `MappedFile`, one memoized transpose.
//
// Keying: files are identified by `st_dev`/`st_ino` from stat(2) — not the
// path string — so symlinks, `./`-prefixed and absolute spellings of one
// file all dedupe to a single entry. The key additionally includes the file
// size and mtime (nanoseconds): rewriting a graph in place produces a new
// key, so a stale mapping of the old content is never handed out (the old
// entry ages out via weak_ptr expiry / evict_expired()).
//
// Ownership: entries hold a `weak_ptr<GraphStorage>`. The registry never
// extends a graph's lifetime by itself — when the last Graph drops, the
// mapping is unmapped as before and the entry is just a tombstone. Two
// strong-reference upgrades exist for serving use:
//   * `pin()`    — the mapping survives between requests AND is protected
//                  from LRU eviction (hot graphs a server must keep);
//   * `retain()` — the mapping survives between requests but is fair game
//                  for `evict_lru()` under memory pressure (warm cache).
// `evict()` drops an entry, pinned or not.
//
// Memory pressure: every entry tracks its last use (open/pin/retain, steady
// clock) and its resident bytes: the mapping plus any decoded heap, plus the
// heap of the views memoized on its storage since (a built transpose, the
// symmetric view; see GraphStorage::derived_heap_bytes).
// `evict_lru(bytes_needed)` walks retained-but-unpinned entries
// oldest-first, dropping strong references and entries until it has
// released at least `bytes_needed` resident bytes (best effort: bytes whose
// storage is still referenced by in-flight graphs are released only when
// those graphs drop).
//
// Concurrency: a global table mutex guards the key -> entry map, and a
// per-entry mutex is held across the opener callback, so two threads racing
// to open the same file produce exactly one mapping (the loser blocks, then
// hits). Counters (hits / misses / evictions / bytes mapped once per
// distinct mapping) are atomics, surfaced through the drivers' metrics
// documents as `registry_*` params.
//
// Scope: only the `.pgr` mmap open path consults the registry (see
// graph_io.cpp). Heap loads (.adj/.bin, PgrOpen::kCopy) are excluded by
// design — kCopy's documented contract is decoupling from the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graphs/storage.h"

namespace pasgal {

class GraphRegistry {
 public:
  // Counter snapshot plus current table shape. `bytes_mapped` counts each
  // distinct mapping once, at miss time — N opens of one file add its size
  // a single time.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_mapped = 0;
    std::uint64_t entries = 0;           // live table entries (incl. expired)
    std::uint64_t pinned_entries = 0;    // pin()ned (LRU-protected) entries
    std::uint64_t pinned_bytes = 0;      // their resident bytes
    std::uint64_t retained_entries = 0;  // retain()ed (LRU-evictable) entries
    std::uint64_t resident_bytes = 0;    // resident bytes of live entries
    // Steady-clock ns of the least-recently-used *evictable* (retained,
    // unpinned, live) entry; 0 when there is none. The LRU decision and the
    // metrics documents read the same number.
    std::uint64_t lru_last_use_ns = 0;
  };

  // Per-entry snapshot for diagnostics and the server's `stats` response.
  struct EntryInfo {
    std::string path;   // the spelling this entry was last opened under
    std::uint64_t bytes = 0;
    std::uint64_t last_use_ns = 0;  // steady clock; see Stats::lru_last_use_ns
    bool pinned = false;
    bool retained = false;
    bool live = false;  // storage not yet expired
  };

  static GraphRegistry& instance();

  // Returns the cached storage for `path` if a previous open of the same
  // file (by identity, see header comment) is still alive; otherwise runs
  // `opener`, caches its result, and returns it. The per-entry lock is held
  // across `opener`, so concurrent opens of one file map it once. If the
  // file cannot be stat'ed the registry steps aside and calls `opener`
  // directly (it raises the typed kIo error the caller expects).
  StorageRef open_shared(const std::string& path,
                         const std::function<StorageRef()>& opener);

  // Upgrades the entry for `path` to a strong reference so the mapping
  // outlives the graphs using it (serving mode), and protects it from
  // evict_lru(). Returns false when there is no live entry to pin (never
  // opened, or already expired).
  bool pin(const std::string& path);

  // Like pin(), but the entry stays eligible for evict_lru(): the mapping
  // survives between requests only until memory pressure reclaims it.
  // Pinned entries stay pinned (retain never downgrades a pin).
  bool retain(const std::string& path);

  // Drops the strong reference taken by pin()/retain() without evicting the
  // entry; the storage then lives only as long as outstanding graphs.
  // Returns false when the entry does not exist.
  bool unpin(const std::string& path);

  // Removes the entry for `path`, pinned or not, and counts an eviction.
  // Outstanding graphs keep their storage alive (shared_ptr semantics);
  // the next open simply maps afresh. Returns false when there was no
  // entry to remove.
  bool evict(const std::string& path);

  // Sweeps tombstones: removes unpinned entries whose storage has expired.
  // Returns the number removed (not counted as evictions — their mappings
  // were already gone). Also runs automatically on every open_shared()
  // miss, so a serving process that cycles through many graphs never
  // accumulates an unbounded tombstone table.
  std::size_t evict_expired();

  // Memory-pressure eviction: drops retained-but-unpinned entries in
  // least-recently-used order until at least `bytes_needed` resident bytes
  // have been released (or no candidates remain). Each drop counts
  // as an eviction. Returns the bytes released. Pinned entries are never
  // touched; neither are plain weak entries (they hold no memory).
  std::uint64_t evict_lru(std::uint64_t bytes_needed);

  // Drops every entry and zeroes all counters. Test hook.
  void clear();

  // Test-only: overwrite the last-use timestamp of `path`'s entry so LRU
  // tie-breaking is exercisable without racing the steady clock. Returns
  // false when there is no entry.
  bool set_last_use_for_testing(const std::string& path, std::uint64_t ns);

  Stats stats() const;

  // Snapshot of every table entry (diagnostics; O(entries)).
  std::vector<EntryInfo> entry_stats() const;

 private:
  // stat(2) identity of an open; see the keying discussion above.
  struct FileKey {
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::uint64_t size = 0;
    std::uint64_t mtime_ns = 0;
    auto operator<=>(const FileKey&) const = default;
  };

  struct Entry {
    std::mutex mu;  // held across the opener: one mapping per race
    std::weak_ptr<GraphStorage> storage;
    StorageRef strong;   // non-null after pin()/retain(); cleared by unpin()
    bool pinned = false;  // strong && pinned => protected from evict_lru()
    std::uint64_t last_use_ns = 0;  // steady clock; open/pin/retain update it
    std::uint64_t bytes = 0;  // resident bytes of the storage as opened
    // `bytes` plus the heap of the views memoized on `live` (null: expired).
    std::uint64_t resident_bytes(const StorageRef& live) const;
    // Insertion order, for LRU tie-breaking: two entries created in the same
    // steady_clock tick have equal last_use_ns, and sorting on the timestamp
    // alone would evict one of them nondeterministically.
    std::uint64_t seq = 0;
    std::string path;  // last spelling opened; diagnostics only
  };

  GraphRegistry() = default;

  static bool file_key(const std::string& path, FileKey& out);
  std::shared_ptr<Entry> find_entry(const std::string& path);

  mutable std::mutex mu_;
  std::map<FileKey, std::shared_ptr<Entry>> table_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_mapped_{0};
  std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace pasgal
