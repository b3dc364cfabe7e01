// Graph serialization in the three formats PASGAL supports:
//  * `.adj`  — PBBS text AdjacencyGraph format:
//              "AdjacencyGraph\n<n>\n<m>\n" then n offsets, then m targets,
//              one integer per line. The weighted variant's header word is
//              "WeightedAdjacencyGraph" and it appends m weights.
//  * `.bin`  — GBBS binary CSR format: three u64 header words
//              (n, m, total size in bytes) followed by (n+1) u64 offsets and
//              m u32 targets; the weighted variant appends m u32 weights.
//              The size field tells the variants apart: 24 + (n+1)*8 + m*4
//              is unweighted, m*4 more is weighted, anything else is
//              rejected (with m = 0 the two coincide).
//  * `.pgr`  — PASGAL's versioned binary CSR, designed for zero-copy mmap
//              loading. See DESIGN.md "Graph storage & on-disk format" for
//              the byte-level layout; in brief: a 192-byte header (magic
//              "PGRGRAPH", u32 version, u32 flags for weighted / symmetric /
//              embedded transpose, u64 n / m / section count, and a fixed
//              5-slot section table of {file offset, bytes, checksum}),
//              followed by 64-byte-aligned sections in canonical order:
//              offsets, targets, weights, transpose offsets, transpose
//              targets. Checksums are xxhash-style 64-bit digests
//              (graphs/storage.h hash_bytes).
//
// Each format has one reader body and one writer body for both variants.
// The unweighted readers (read_adj, read_bin, read_pgr) accept either
// variant and return the topology; a weighted file's weights are still
// parsed and checked but not kept. The weighted readers (read_weighted_*)
// require the weighted variant and reject an unweighted file as kFormat.
// has_weights() tells the variant from the header alone.
//
// Readers treat every byte as untrusted (see DESIGN.md "Error handling"):
//  * header-claimed sizes are cross-checked against the actual file size and
//    the process memory ceiling (via GraphStorage::check_footprint) before
//    any allocation or span construction;
//  * truncation and trailing garbage are rejected as kFormat errors;
//  * the resulting CSR is run through validate_csr() (monotone offsets,
//    offsets[n] == m, targets in bounds) before being returned — except on
//    the `.pgr` mmap fast path, which by design is O(1): it verifies the
//    header/layout structurally and defers per-element checks and section
//    checksums to the opt-in `validate` flag (`.pgr` files are a cache
//    format produced by our own writers; `--validate` restores the full
//    untrusted-input treatment).
// All failures throw a typed pasgal::Error carrying the path and, where
// meaningful, the byte offset of the violation.
#pragma once

#include <cstdint>
#include <string>

#include "graphs/graph.h"

namespace pasgal {

void write_adj(const Graph& g, const std::string& path);
Graph read_adj(const std::string& path);

void write_adj(const WeightedGraph<std::uint32_t>& g, const std::string& path);
WeightedGraph<std::uint32_t> read_weighted_adj(const std::string& path);

void write_bin(const Graph& g, const std::string& path);
Graph read_bin(const std::string& path);

void write_bin(const WeightedGraph<std::uint32_t>& g, const std::string& path);
WeightedGraph<std::uint32_t> read_weighted_bin(const std::string& path);

// True when `path` names a `.adj`/`.bin`/`.pgr` file (told by its suffix)
// of the weighted variant; false for any other name. Reads the header only. kIo when the file cannot be
// opened; a header the reader would reject either throws the reader's typed
// error here or reads as unweighted (and the reader then rejects it).
bool has_weights(const std::string& path);

// --- .pgr: versioned mmap-able CSR ------------------------------------------

// Version 1: every section is the raw CSR array (zero-copy mmap).
// Version 2: identical except the targets section may be delta-varint
// compressed (GBBS-style byte codes; see DESIGN.md §5f). The writer emits
// version 1 whenever compression is off, so uncompressed outputs stay
// byte-identical across versions; the reader accepts both.
inline constexpr std::uint32_t kPgrVersion = 1;
inline constexpr std::uint32_t kPgrVersionCompressed = 2;

// How read_pgr materializes the CSR arrays.
//  * kMmap — map the file read-only and hand out spans into it: O(1) open,
//    no full-file copy, RSS bounded by pages actually touched, page cache
//    shared across concurrent runs. The Graph keeps the mapping alive.
//  * kCopy — copy the sections into heap-backed storage (through the same
//    resource-ceiling guard as read_bin) and drop the mapping: use when the
//    file may be replaced underneath a long-lived process.
enum class PgrOpen { kMmap, kCopy };

struct PgrWriteOptions {
  // Persist the reverse CSR as extra sections so the mmap open path can
  // pre-populate the transpose cache (SCC/BCC drivers skip rebuilding gt).
  bool include_transpose = false;
  // Caller-asserted symmetry (recorded in the header flags; not verified —
  // is_symmetric() is a full transpose + compare).
  bool symmetric = false;
  // Delta-varint compress the targets section (bumps the file to version 2).
  // Offsets, weights, and any embedded transpose sections stay raw so they
  // remain zero-copy on open; reading a compressed file decodes targets in
  // parallel into heap storage.
  bool compress_targets = false;
};

// Canonical section order of the on-disk format (indices into
// PgrInfo::section_bytes); pgr_section_name() names each slot.
inline constexpr int kPgrSectionCount = 5;
const char* pgr_section_name(int i);

// Header summary of a .pgr file without loading its sections.
struct PgrInfo {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint32_t version = 0;
  bool weighted = false;
  bool symmetric = false;
  bool has_transpose = false;
  bool compressed = false;
  std::uint64_t file_bytes = 0;
  // On-disk bytes of the targets section: m * sizeof(VertexId) when raw,
  // the encoded stream size when compressed.
  std::uint64_t encoded_target_bytes = 0;
  // Per-section on-disk byte sizes in canonical order (offsets, targets,
  // weights, transpose offsets, transpose targets); 0 marks an absent
  // section.
  std::uint64_t section_bytes[kPgrSectionCount] = {};
  // Number of varint chunks in a compressed (v2) targets section, read from
  // its 16-byte chunk header; 0 for raw files and empty edge sets.
  std::uint64_t chunk_count = 0;
};

/// Sharded (beyond-RAM) open: instead of keeping the whole adjacency
// resident, partition it into contiguous vertex-range shards whose edge
// payload fits `window_bytes` and let the traversal layer sweep them through
// one bounded residency window (see DESIGN.md §5i). With `auto_shard` the
// open stays in-core (plain shared mmap) whenever the full CSR footprint
// fits the memory ceiling and falls back to a ceiling/4 window only when it
// does not. A zero-initialized spec means no sharding. Only meaningful for
// mmap opens of .pgr files; combining a spec with kCopy or `validate` is a
// kUsage error (both would touch every byte, defeating the window).
struct PgrShardSpec {
  std::uint64_t window_bytes = 0;
  bool auto_shard = false;
  bool enabled() const { return window_bytes != 0 || auto_shard; }
};

// Per-open cost accounting, filled by read_pgr / read_weighted_pgr when the
// caller passes a non-null pointer. `decode_wall_ns` is 0 for uncompressed
// files and for registry warm opens of a compressed file (the decoded
// buffer is memoized on the shared storage handle).
struct PgrOpenStats {
  bool compressed = false;
  std::uint64_t encoded_target_bytes = 0;
  std::uint64_t decode_wall_ns = 0;
};

void write_pgr(const Graph& g, const std::string& path,
               const PgrWriteOptions& opts = {});
void write_pgr(const WeightedGraph<std::uint32_t>& g, const std::string& path,
               const PgrWriteOptions& opts = {});

// Opens a .pgr file. `validate` additionally verifies every section checksum
// and runs the full validate_csr pass (always on for kCopy, opt-in for
// kMmap — the O(1) promise). A file with embedded transpose sections comes
// back with the transpose cache pre-populated, sharing the same mapping.
// An enabled `shard` spec opens the graph windowed: the storage carries a
// ShardPlan + MappedWindow the traversal layer sweeps, the resident
// footprint is priced as offsets + window (+ decode buffer / transpose
// window) instead of the whole file, and the open bypasses the registry
// (each sharded consumer owns its window).
Graph read_pgr(const std::string& path, PgrOpen mode = PgrOpen::kMmap,
               bool validate = false, PgrOpenStats* stats = nullptr,
               const PgrShardSpec& shard = {});
// Requires the weighted flag; weights map zero-copy alongside the topology.
WeightedGraph<std::uint32_t> read_weighted_pgr(
    const std::string& path, PgrOpen mode = PgrOpen::kMmap,
    bool validate = false, PgrOpenStats* stats = nullptr,
    const PgrShardSpec& shard = {});

// Header-only peek: parses and structurally checks the header (magic,
// version, flags, layout vs file size) without touching section payloads
// (for a compressed file it additionally reads the targets section's
// 16-byte chunk header to report the chunk count).
PgrInfo probe_pgr(const std::string& path);

}  // namespace pasgal
