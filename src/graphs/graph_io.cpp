#include "graphs/graph_io.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>

#include "graphs/registry.h"
#include "graphs/storage.h"
#include "pasgal/fault.h"
#include "pasgal/resource.h"

namespace pasgal {

namespace {

[[noreturn]] void fail(ErrorCategory category, const std::string& path,
                       const std::string& why,
                       std::uint64_t offset = kNoOffset) {
  throw Error(category, why, path, offset);
}

std::uint64_t file_size_bytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// Plausibility floor for text formats: every offset/target/weight is at
// least one digit plus a separator, so a well-formed file must have at least
// 2 * records bytes after the header. Catches headers claiming far more
// records than the file could possibly hold without parsing them all.
void guard_text_plausibility(const std::string& path, std::uint64_t records) {
  std::uint64_t actual = file_size_bytes(path);
  if (records > actual / 2 + 1) {
    fail(ErrorCategory::kFormat, path,
         "header claims " + std::to_string(records) +
             " records but the file has only " + std::to_string(actual) +
             " bytes",
         actual);
  }
}

// Binary-format frame check: the actual file size must match the size the
// header implies. A short file is a truncation, a long one is trailing
// garbage; both are rejected.
void guard_bin_frame(const std::string& path, std::uint64_t expected) {
  std::uint64_t actual = file_size_bytes(path);
  if (actual < expected) {
    fail(ErrorCategory::kFormat, path,
         "truncated: file has " + std::to_string(actual) +
             " bytes, header-implied size is " + std::to_string(expected),
         actual);
  }
  if (actual > expected) {
    fail(ErrorCategory::kFormat, path,
         std::to_string(actual - expected) +
             " bytes of trailing garbage after the header-implied size of " +
             std::to_string(expected),
         expected);
  }
}

constexpr const char* kNoWeights =
    "file has no weights; use the unweighted reader / an unweighted driver";

// Throws a failed CSR check typed against the file; `what` prefixes the
// message (naming e.g. the transpose sections).
void fail_if(const Status& s, const std::string& path,
             const std::string& what = "") {
  if (!s.ok()) fail(s.category(), path, what + s.message());
}

// The one CSR check every reader ends with: validate_csr on the storage's
// arrays, then mark_validated so no later ensure_validated repeats it.
void check_csr(GraphStorage& s, const std::string& path,
               const std::string& what = "") {
  fail_if(validate_csr(s.offsets(), s.targets()), path, what);
  s.mark_validated();
}

// The three u64 .bin header words, as laid out on disk. The size field
// tells the variant (graph_io.h); with m = 0 the two frames coincide.
struct BinHeader {
  std::uint64_t n = 0, m = 0, size = 0;
  unsigned __int128 topology_bytes() const {
    return 3 * sizeof(std::uint64_t) +
           (static_cast<unsigned __int128>(n) + 1) * sizeof(std::uint64_t) +
           static_cast<unsigned __int128>(m) * sizeof(VertexId);
  }
  unsigned __int128 weighted_bytes() const {
    return topology_bytes() +
           static_cast<unsigned __int128>(m) * sizeof(std::uint32_t);
  }
  bool weighted() const { return size == weighted_bytes(); }
};
static_assert(sizeof(BinHeader) == 3 * sizeof(std::uint64_t));

BinHeader read_bin_header(std::istream& in, const std::string& path) {
  BinHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) fail(ErrorCategory::kFormat, path, "truncated header",
                file_size_bytes(path));
  return h;
}

// One parse of a .adj file, either variant (told by the header word).
// `want_weights` keeps the weights and rejects an unweighted file as
// kFormat; otherwise a weighted file's weights are parsed (so truncation and
// trailing garbage still show) but not stored.
StorageRef parse_adj(const std::string& path, bool want_weights) {
  std::ifstream in(path);
  if (!in) fail(ErrorCategory::kIo, path, "cannot open for reading");
  std::string header;
  in >> header;
  bool weighted = header == "WeightedAdjacencyGraph";
  if (!weighted && header != "AdjacencyGraph") {
    fail(ErrorCategory::kFormat, path,
         "expected header 'AdjacencyGraph' or 'WeightedAdjacencyGraph', "
         "got '" + header + "'");
  }
  if (want_weights && !weighted) fail(ErrorCategory::kFormat, path, kNoWeights);
  std::size_t n = 0, m = 0;
  if (!(in >> n >> m)) fail(ErrorCategory::kFormat, path, "bad n/m");
  GraphStorage::check_footprint(n, m, want_weights, path).throw_if_error();
  guard_text_plausibility(path, static_cast<std::uint64_t>(n) +
                                    (weighted ? 2 : 1) *
                                        static_cast<std::uint64_t>(m));
  StorageRef storage = GraphStorage::allocate(n, m, want_weights, path);
  auto field = [&](auto& x, const char* what, std::size_t i, std::size_t of) {
    if (!(in >> x)) {
      fail(ErrorCategory::kFormat, path,
           std::string("truncated ") + what + " (" + std::to_string(i) +
               " of " + std::to_string(of) + ")");
    }
  };
  auto offsets = storage->mutable_offsets();
  for (std::size_t v = 0; v < n; ++v) field(offsets[v], "offsets", v, n);
  offsets[n] = m;
  auto targets = storage->mutable_targets();
  for (std::size_t e = 0; e < m; ++e) field(targets[e], "targets", e, m);
  if (weighted) {
    auto weights = storage->mutable_weights();
    std::uint32_t dropped = 0;
    for (std::size_t e = 0; e < m; ++e) {
      field(want_weights ? weights[e] : dropped, "weights", e, m);
    }
  }
  if (std::string extra; in >> extra) {
    fail(ErrorCategory::kFormat, path,
         std::string("trailing garbage after the last ") +
             (weighted ? "weight" : "target") + ": '" + extra + "'");
  }
  check_csr(*storage, path);
  return storage;
}

// One parse of a .bin file, either variant (told by the size field);
// `want_weights` as for parse_adj. A weighted file read for its topology
// skips the weights: the frame check has already proved they are there.
StorageRef parse_bin(const std::string& path, bool want_weights) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(ErrorCategory::kIo, path, "cannot open for reading");
  BinHeader h = read_bin_header(in, path);
  bool weighted = h.weighted();
  bool keep = want_weights && weighted;
  // kResource before kFormat: an absurd claim is priced before the frame
  // is judged.
  GraphStorage::check_footprint(h.n, h.m, keep, path).throw_if_error();
  // Past the footprint check both frame sizes fit in 64 bits.
  if (!weighted && h.size != h.topology_bytes()) {
    fail(ErrorCategory::kFormat, path,
         "header size field says " + std::to_string(h.size) +
             " bytes but n/m imply " +
             std::to_string(static_cast<std::uint64_t>(h.topology_bytes())) +
             " (unweighted) or " +
             std::to_string(static_cast<std::uint64_t>(h.weighted_bytes())) +
             " (weighted)");
  }
  guard_bin_frame(path, h.size);
  if (want_weights && !weighted) fail(ErrorCategory::kFormat, path, kNoWeights);
  StorageRef storage = GraphStorage::allocate(h.n, h.m, keep, path);
  auto read = [&](auto span) {
    in.read(reinterpret_cast<char*>(span.data()),
            static_cast<std::streamsize>(span.size_bytes()));
  };
  read(storage->mutable_offsets());
  read(storage->mutable_targets());
  read(storage->mutable_weights());  // empty unless kept
  if (!in) fail(ErrorCategory::kFormat, path, "truncated body");
  check_csr(*storage, path);
  return storage;
}

// One write body per format; `weighted` picks the variant (a weighted
// graph with no edges has no weight data to tell it by).
void write_adj_impl(const Graph& g, bool weighted,
                    std::span<const std::uint32_t> weights,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) fail(ErrorCategory::kIo, path, "cannot open for writing");
  out << (weighted ? "WeightedAdjacencyGraph\n" : "AdjacencyGraph\n")
      << g.num_vertices() << '\n'
      << g.num_edges() << '\n';
  for (std::size_t v = 0; v < g.num_vertices(); ++v) out << g.offsets()[v] << '\n';
  for (VertexId t : g.targets()) out << t << '\n';
  for (std::uint32_t w : weights) out << w << '\n';
  if (!out) fail(ErrorCategory::kIo, path, "write error");
}

void write_bin_impl(const Graph& g, bool weighted,
                    std::span<const std::uint32_t> weights,
                    const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(ErrorCategory::kIo, path, "cannot open for writing");
  BinHeader h{g.num_vertices(), g.num_edges(), 0};
  h.size = static_cast<std::uint64_t>(weighted ? h.weighted_bytes()
                                                : h.topology_bytes());
  auto write = [&](const void* p, std::uint64_t bytes) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(bytes));
  };
  write(&h, sizeof(h));
  write(g.offsets().data(), (h.n + 1) * sizeof(EdgeId));
  write(g.targets().data(), h.m * sizeof(VertexId));
  write(weights.data(), weights.size_bytes());
  if (!out) fail(ErrorCategory::kIo, path, "write error");
}

}  // namespace

void write_adj(const Graph& g, const std::string& path) {
  write_adj_impl(g, /*weighted=*/false, {}, path);
}

void write_adj(const WeightedGraph<std::uint32_t>& g, const std::string& path) {
  write_adj_impl(g.unweighted(), /*weighted=*/true, g.weights(), path);
}

Graph read_adj(const std::string& path) {
  return Graph(parse_adj(path, /*want_weights=*/false));
}

WeightedGraph<std::uint32_t> read_weighted_adj(const std::string& path) {
  return WeightedGraph<std::uint32_t>(parse_adj(path, /*want_weights=*/true));
}

void write_bin(const Graph& g, const std::string& path) {
  write_bin_impl(g, /*weighted=*/false, {}, path);
}

void write_bin(const WeightedGraph<std::uint32_t>& g, const std::string& path) {
  write_bin_impl(g.unweighted(), /*weighted=*/true, g.weights(), path);
}

Graph read_bin(const std::string& path) {
  return Graph(parse_bin(path, /*want_weights=*/false));
}

WeightedGraph<std::uint32_t> read_weighted_bin(const std::string& path) {
  return WeightedGraph<std::uint32_t>(parse_bin(path, /*want_weights=*/true));
}

// --- .pgr -------------------------------------------------------------------
//
// Byte layout (all fields little-endian, as written by this host):
//   [  0,   8)  magic "PGRGRAPH"
//   [  8,  12)  u32 version (1 raw, 2 when the targets section is compressed)
//   [ 12,  16)  u32 flags: bit0 weighted, bit1 symmetric, bit2 has_transpose,
//               bit3 compressed targets (version 2 only)
//   [ 16,  24)  u64 n
//   [ 24,  32)  u64 m
//   [ 32,  40)  u64 number of non-empty sections
//   [ 40, 160)  5 section-table entries of {u64 file offset, u64 bytes,
//               u64 checksum}, canonical order: offsets, targets, weights,
//               transpose offsets, transpose targets. Absent sections are
//               all-zero entries.
//   [160, 192)  reserved, must be zero
// Sections follow, each starting on a 64-byte boundary (zero padding in the
// gaps), in canonical order, with no trailing bytes after the last section.
// In version 1 the layout is fully determined by (n, m, flags); the reader
// recomputes it and rejects any file whose table or size disagrees — so
// seeking past the header is safe without trusting the table. In version 2
// the compressed targets section has a content-dependent size, so its byte
// count comes from the section table; every other entry is still recomputed,
// and the total (including the table's claim for targets) must equal the
// file size exactly.
//
// Compressed targets section (version 2, flag bit3; DESIGN.md §5f):
//   [ 0,  8)  u64 chunk count C (= ceil(n / V))
//   [ 8, 16)  u64 vertices per chunk V (>= 1)
//   [16, 16 + (C+1)*8)  u64 stream_off[0..C], byte offsets relative to the
//             section start. stream_off[c] for c < C is the 64-byte-aligned
//             start of chunk c's varint stream; stream_off[C] is the exact
//             end of the last chunk's payload (== section byte count).
// Chunk c encodes the adjacency lists of vertices [c*V, min(n, (c+1)*V)) as
// GBBS-style delta varints: per vertex, the first target is delta'd against
// the source vertex id and each subsequent target against the previous one;
// deltas are zigzag-mapped and LEB128-encoded (7 bits per byte, high bit =
// continuation). Bytes between a chunk's payload end (implicit — the decoder
// knows every degree from the offsets section) and the next chunk's aligned
// start must be zero.

namespace {

constexpr char kPgrMagic[8] = {'P', 'G', 'R', 'G', 'R', 'A', 'P', 'H'};
constexpr std::uint64_t kPgrHeaderBytes = 192;
constexpr std::uint64_t kPgrAlign = 64;
constexpr std::uint32_t kPgrFlagWeighted = 1u << 0;
constexpr std::uint32_t kPgrFlagSymmetric = 1u << 1;
constexpr std::uint32_t kPgrFlagTranspose = 1u << 2;
constexpr std::uint32_t kPgrFlagCompressed = 1u << 3;
constexpr std::uint32_t kPgrKnownFlags =
    kPgrFlagWeighted | kPgrFlagSymmetric | kPgrFlagTranspose;
constexpr std::uint32_t kPgrKnownFlagsV2 = kPgrKnownFlags | kPgrFlagCompressed;
// Writer's chunking granularity. Any V >= 1 is readable; 1024 keeps chunks
// around a few KB on typical degree distributions (good decode parallelism,
// ~32 bytes of alignment padding amortized per chunk).
constexpr std::uint64_t kPgrVerticesPerChunk = 1024;
constexpr int kPgrSections = 5;
constexpr const char* kPgrSectionName[kPgrSections] = {
    "offsets", "targets", "weights", "transpose offsets", "transpose targets"};

struct PgrSection {
  std::uint64_t off = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

struct PgrHeader {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t section_count = 0;
  PgrSection sec[kPgrSections];

  bool weighted() const { return flags & kPgrFlagWeighted; }
  bool symmetric() const { return flags & kPgrFlagSymmetric; }
  bool has_transpose() const { return flags & kPgrFlagTranspose; }
  bool compressed() const { return flags & kPgrFlagCompressed; }
};

struct PgrLayout {
  std::uint64_t off[kPgrSections] = {};
  std::uint64_t bytes[kPgrSections] = {};
  std::uint64_t total = 0;
  std::uint64_t section_count = 0;
};

std::uint64_t align_up(std::uint64_t x, std::uint64_t a) {
  return (x + a - 1) / a * a;
}

// Canonical section placement for (n, m, flags). Callers must have passed
// the footprint check first so the size arithmetic cannot overflow. When the
// targets section is compressed its size is content-dependent: the caller
// supplies it (from the encoder on write, from the — bounded — section table
// on read; the file-size cross-check in check_pgr_layout keeps a lying table
// from surviving).
PgrLayout pgr_layout(std::uint64_t n, std::uint64_t m, bool weighted,
                     bool has_transpose, bool compressed = false,
                     std::uint64_t encoded_target_bytes = 0) {
  PgrLayout layout;
  const std::uint64_t sizes[kPgrSections] = {
      (n + 1) * sizeof(EdgeId),
      compressed ? encoded_target_bytes : m * sizeof(VertexId),
      weighted ? m * sizeof(std::uint32_t) : 0,
      has_transpose ? (n + 1) * sizeof(EdgeId) : 0,
      has_transpose ? m * sizeof(VertexId) : 0,
  };
  std::uint64_t pos = kPgrHeaderBytes;
  for (int i = 0; i < kPgrSections; ++i) {
    layout.bytes[i] = sizes[i];
    if (sizes[i] == 0) continue;
    pos = align_up(pos, kPgrAlign);
    layout.off[i] = pos;
    pos += sizes[i];
    ++layout.section_count;
  }
  layout.total = pos;
  return layout;
}

template <typename T>
void put(std::span<char> buf, std::size_t at, T value) {
  std::memcpy(buf.data() + at, &value, sizeof(T));
}

// --- compressed targets codec ------------------------------------------------

std::uint64_t zigzag_encode(std::int64_t d) {
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}

std::int64_t zigzag_decode(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
}

void append_varint(std::vector<char>& buf, std::uint64_t x) {
  do {
    unsigned char b = x & 0x7F;
    x >>= 7;
    if (x != 0) b |= 0x80;
    buf.push_back(static_cast<char>(b));
  } while (x != 0);
}

// Encodes the full targets section payload (chunk directory + per-chunk
// varint streams) for `n` vertices. Empty when m == 0 (the section is then
// absent, like an empty raw targets section).
std::vector<char> encode_targets_section(std::span<const EdgeId> offsets,
                                         std::span<const VertexId> targets,
                                         std::uint64_t n) {
  if (targets.empty()) return {};
  const std::uint64_t V = kPgrVerticesPerChunk;
  const std::uint64_t C = (n + V - 1) / V;
  // Phase 1: encode every chunk independently (the output bytes do not
  // depend on the worker count, so compressed files are deterministic).
  auto chunks = tabulate(C, [&](std::size_t c) {
    std::vector<char> buf;
    std::uint64_t lo = c * V;
    std::uint64_t hi = std::min<std::uint64_t>(n, lo + V);
    for (std::uint64_t v = lo; v < hi; ++v) {
      std::int64_t prev = static_cast<std::int64_t>(v);
      for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
        std::int64_t t = static_cast<std::int64_t>(targets[e]);
        append_varint(buf, zigzag_encode(t - prev));
        prev = t;
      }
    }
    return buf;
  });
  // Phase 2: lay the chunks out 64-byte aligned after the directory; the
  // last chunk's end is exact (stream_off[C] == section bytes), so the
  // section carries no trailing padding of ambiguous meaning.
  std::uint64_t dir_bytes = 16 + (C + 1) * 8;
  std::vector<std::uint64_t> stream(C + 1);
  std::uint64_t pos = align_up(dir_bytes, kPgrAlign);
  for (std::uint64_t c = 0; c < C; ++c) {
    stream[c] = pos;
    pos += chunks[c].size();
    if (c + 1 < C) pos = align_up(pos, kPgrAlign);
  }
  stream[C] = pos;
  std::vector<char> out(pos, 0);
  put(std::span<char>(out), 0, C);
  put(std::span<char>(out), 8, V);
  for (std::uint64_t c = 0; c <= C; ++c) {
    put(std::span<char>(out), 16 + c * 8, stream[c]);
  }
  parallel_for(
      0, C,
      [&](std::size_t c) {
        if (!chunks[c].empty()) {
          std::memcpy(out.data() + stream[c], chunks[c].data(),
                      chunks[c].size());
        }
      },
      1);
  return out;
}

template <typename T>
T get(const std::byte* base, std::size_t at) {
  T value;
  std::memcpy(&value, base + at, sizeof(T));
  return value;
}

Error bad_stream(const std::string& why, const std::string& path) {
  return Error(ErrorCategory::kFormat, "compressed targets: " + why, path);
}

// Validated view of a compressed targets section's chunk directory: C chunks
// of V vertices each, stream_off[c] giving a chunk's byte offset within the
// section. check_chunk_directory enforces the canonical shape (C matches
// ceil(n / V), chunk starts aligned and monotone, stream_off[C] exactly the
// section end) so everything downstream can index chunks without
// re-checking.
struct PgrChunkDir {
  const std::byte* sec = nullptr;
  std::uint64_t C = 0;
  std::uint64_t V = 1;
  std::uint64_t stream_off(std::uint64_t c) const {
    return get<std::uint64_t>(sec, 16 + c * 8);
  }
};

//
// Every decode, whole-section or per shard, starts here, so the "decode"
// failpoint sits at this one site.
PgrChunkDir check_chunk_directory(std::span<const std::byte> sec,
                                  std::uint64_t n, const std::string& path) {
  if (fault::should_fail("decode")) {
    throw Error(ErrorCategory::kFormat, "injected fault: decode", path);
  }
  auto bad = [&](const std::string& why) { return bad_stream(why, path); };
  const std::uint64_t sec_bytes = sec.size();
  if (sec_bytes < 16) throw bad("section too small for its chunk header");
  PgrChunkDir dir;
  dir.sec = sec.data();
  dir.C = get<std::uint64_t>(dir.sec, 0);
  dir.V = get<std::uint64_t>(dir.sec, 8);
  if (dir.V == 0) throw bad("vertices-per-chunk is zero");
  if (dir.C != (n + dir.V - 1) / dir.V) {
    throw bad("chunk count " + std::to_string(dir.C) +
              " does not match ceil(n / " + std::to_string(dir.V) + ")");
  }
  // C <= n here (V >= 1 and n <= 2^32), so the directory size fits in u64.
  const std::uint64_t dir_bytes = 16 + (dir.C + 1) * 8;
  if (dir_bytes > sec_bytes) throw bad("chunk directory overruns the section");
  if (dir.stream_off(0) != align_up(dir_bytes, kPgrAlign)) {
    throw bad("first chunk is not 64-byte aligned after the directory");
  }
  if (dir.stream_off(dir.C) != sec_bytes) {
    throw bad("last chunk offset " + std::to_string(dir.stream_off(dir.C)) +
              " does not equal the section size " + std::to_string(sec_bytes));
  }
  std::size_t dir_violations = count_if_index(dir.C, [&](std::size_t c) {
    return dir.stream_off(c) % kPgrAlign != 0 ||
           dir.stream_off(c) > dir.stream_off(c + 1);
  });
  if (dir_violations != 0) {
    throw bad("chunk directory is not aligned and monotone");
  }
  return dir;
}

// Decodes chunk `c` into out[e - e_base] for every edge of the chunk's
// vertices, validating as it goes: every varint must terminate inside its
// chunk, alignment padding must be zero, and every decoded target must lie
// in [0, n). Throws on the first violation.
void decode_chunk(const PgrChunkDir& dir, std::uint64_t c, std::uint64_t n,
                  std::span<const EdgeId> offsets, VertexId* out,
                  EdgeId e_base, const std::string& path) {
  auto bad = [&](const std::string& why) { return bad_stream(why, path); };
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(dir.sec) + dir.stream_off(c);
  const unsigned char* limit =
      reinterpret_cast<const unsigned char*>(dir.sec) + dir.stream_off(c + 1);
  std::uint64_t lo = c * dir.V;
  std::uint64_t hi = std::min<std::uint64_t>(n, lo + dir.V);
  for (std::uint64_t v = lo; v < hi; ++v) {
    std::int64_t prev = static_cast<std::int64_t>(v);
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      std::uint64_t raw = 0;
      unsigned shift = 0;
      while (true) {
        if (p == limit) {
          throw bad("truncated varint stream in chunk " + std::to_string(c));
        }
        unsigned char byte = *p++;
        if (shift >= 63 && (byte & 0x7E) != 0) {
          throw bad("varint overflows 64 bits in chunk " + std::to_string(c));
        }
        raw |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
        if (shift > 63) {
          throw bad("varint longer than 10 bytes in chunk " +
                    std::to_string(c));
        }
      }
      std::int64_t t = prev + zigzag_decode(raw);
      if (t < 0 || static_cast<std::uint64_t>(t) >= n) {
        throw Error(ErrorCategory::kValidation,
                    "compressed targets: decoded target " + std::to_string(t) +
                        " out of range [0, " + std::to_string(n) +
                        ") for vertex " + std::to_string(v),
                    path);
      }
      out[e - e_base] = static_cast<VertexId>(t);
      prev = t;
    }
  }
  // Alignment padding up to the next chunk must be zero — a nonzero byte
  // is either garbage or a payload the degrees say should not exist.
  while (p < limit) {
    if (*p++ != 0) {
      throw bad("nonzero padding after chunk " + std::to_string(c) +
                " payload");
    }
  }
}

// Decodes the chunks [c_begin, c_end) in parallel, writing each target at
// out[e - e_base]. Workers cannot throw across the scheduler, so the first
// error is captured and rethrown after the loop; later workers bail out
// early once one has failed. Used both for whole-section decodes (in-core
// opens) and per-shard decodes (the MappedWindow's decode hook).
void decode_chunk_range(const PgrChunkDir& dir, std::uint64_t c_begin,
                        std::uint64_t c_end, std::uint64_t n,
                        std::span<const EdgeId> offsets, VertexId* out,
                        EdgeId e_base, const std::string& path) {
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::unique_ptr<Error> first_err;
  parallel_for(c_begin, c_end, [&](std::size_t c) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      decode_chunk(dir, c, n, offsets, out, e_base, path);
    } catch (Error& e) {
      if (!failed.exchange(true, std::memory_order_acq_rel)) {
        std::lock_guard<std::mutex> lock(err_mu);
        first_err = std::make_unique<Error>(std::move(e));
      }
    }
  });
  if (failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(err_mu);
    throw *first_err;
  }
}


// Parses and structurally checks the fixed-size header. Section bytes are
// not touched.
PgrHeader parse_pgr_header(const std::byte* base, std::uint64_t file_size,
                           const std::string& path) {
  if (file_size < kPgrHeaderBytes) {
    fail(ErrorCategory::kFormat, path,
         "truncated header: file has " + std::to_string(file_size) +
             " bytes, the .pgr header is " + std::to_string(kPgrHeaderBytes),
         file_size);
  }
  if (std::memcmp(base, kPgrMagic, sizeof(kPgrMagic)) != 0) {
    fail(ErrorCategory::kFormat, path, "bad magic: not a .pgr file", 0);
  }
  PgrHeader h;
  h.version = get<std::uint32_t>(base, 8);
  h.flags = get<std::uint32_t>(base, 12);
  h.n = get<std::uint64_t>(base, 16);
  h.m = get<std::uint64_t>(base, 24);
  h.section_count = get<std::uint64_t>(base, 32);
  for (int i = 0; i < kPgrSections; ++i) {
    std::size_t at = 40 + static_cast<std::size_t>(i) * 24;
    h.sec[i].off = get<std::uint64_t>(base, at);
    h.sec[i].bytes = get<std::uint64_t>(base, at + 8);
    h.sec[i].checksum = get<std::uint64_t>(base, at + 16);
  }
  if (h.version != kPgrVersion && h.version != kPgrVersionCompressed) {
    fail(ErrorCategory::kFormat, path,
         "unsupported .pgr version " + std::to_string(h.version) +
             " (this build reads versions " + std::to_string(kPgrVersion) +
             " and " + std::to_string(kPgrVersionCompressed) + ")",
         8);
  }
  // The compressed-targets bit exists only in version 2; a v1 file carrying
  // it is malformed, not forward-compatible.
  std::uint32_t known =
      h.version == kPgrVersionCompressed ? kPgrKnownFlagsV2 : kPgrKnownFlags;
  if (h.flags & ~known) {
    fail(ErrorCategory::kFormat, path,
         "unknown flag bits 0x" + std::to_string(h.flags & ~known), 12);
  }
  return h;
}

// Cross-checks header claims against the memory ceiling, the vertex-id
// space, the canonical layout, and the actual file size. After this returns,
// every section [off, off+bytes) is within the file and 64-byte aligned.
void check_pgr_layout(const PgrHeader& h, std::uint64_t file_size,
                      const std::string& path, bool windowed = false) {
  // Resource check first (kResource beats kFormat for absurd claims, the
  // same order the .adj/.bin readers use). Windowed (sharded) opens price
  // their bounded resident footprint instead — the caller already ran
  // check_windowed_footprint — but the layout arithmetic still needs a
  // bound on m: every edge costs at least one stored byte, so a claim
  // beyond the file size is rejected before feeding the size computation.
  if (!windowed) {
    GraphStorage::check_footprint(h.n, h.m, h.weighted(), path)
        .throw_if_error();
  } else if (h.m > file_size) {
    fail(ErrorCategory::kFormat, path,
         "header claims " + std::to_string(h.m) +
             " edges but the file has only " + std::to_string(file_size) +
             " bytes",
         24);
  }
  if (h.n > static_cast<std::uint64_t>(kInvalidVertex)) {
    fail(ErrorCategory::kValidation, path,
         "vertex count " + std::to_string(h.n) +
             " exceeds the 32-bit vertex-id space",
         16);
  }
  // A compressed targets section has a content-dependent size, taken from
  // the table. Bound it before it feeds the layout arithmetic: it can never
  // exceed the file, and an empty edge set means no section at all.
  if (h.compressed()) {
    if (h.sec[1].bytes > file_size) {
      fail(ErrorCategory::kFormat, path,
           "compressed targets section claims " +
               std::to_string(h.sec[1].bytes) + " bytes but the file has " +
               std::to_string(file_size),
           40 + 24 + 8);
    }
    if ((h.m == 0) != (h.sec[1].bytes == 0)) {
      fail(ErrorCategory::kFormat, path,
           "compressed targets section size disagrees with m", 40 + 24 + 8);
    }
  }
  PgrLayout layout = pgr_layout(h.n, h.m, h.weighted(), h.has_transpose(),
                                h.compressed(), h.sec[1].bytes);
  if (h.section_count != layout.section_count) {
    fail(ErrorCategory::kFormat, path,
         "header lists " + std::to_string(h.section_count) +
             " sections but n/m/flags imply " +
             std::to_string(layout.section_count),
         32);
  }
  for (int i = 0; i < kPgrSections; ++i) {
    if (h.sec[i].off != layout.off[i] || h.sec[i].bytes != layout.bytes[i]) {
      fail(ErrorCategory::kFormat, path,
           std::string("section table entry for ") + kPgrSectionName[i] +
               " is [" + std::to_string(h.sec[i].off) + ", +" +
               std::to_string(h.sec[i].bytes) +
               ") but the canonical layout for n/m/flags puts it at [" +
               std::to_string(layout.off[i]) + ", +" +
               std::to_string(layout.bytes[i]) + ")",
           40 + static_cast<std::uint64_t>(i) * 24);
    }
  }
  if (file_size != layout.total) {
    fail(ErrorCategory::kFormat, path,
         file_size < layout.total
             ? "truncated: file has " + std::to_string(file_size) +
                   " bytes, the section layout needs " +
                   std::to_string(layout.total)
             : std::to_string(file_size - layout.total) +
                   " bytes of trailing garbage after the last section",
         std::min(file_size, layout.total));
  }
}

void check_pgr_checksums(const PgrHeader& h, const std::byte* base,
                         const std::string& path) {
  for (int i = 0; i < kPgrSections; ++i) {
    if (h.sec[i].bytes == 0) continue;
    std::uint64_t sum = hash_bytes(base + h.sec[i].off, h.sec[i].bytes);
    if (sum != h.sec[i].checksum) {
      fail(ErrorCategory::kFormat, path,
           std::string("checksum mismatch in ") + kPgrSectionName[i] +
               " section (stored " + std::to_string(h.sec[i].checksum) +
               ", computed " + std::to_string(sum) + ")",
           h.sec[i].off);
    }
  }
}

void write_pgr_impl(const Graph& g, bool weighted,
                    std::span<const std::uint32_t> weights,
                    const std::string& path, const PgrWriteOptions& opts) {
  std::uint64_t n = g.num_vertices();
  std::uint64_t m = g.num_edges();
  Graph t;
  if (opts.include_transpose) t = g.transpose();

  // A default-constructed empty graph has no offset array; the format always
  // stores n+1 offsets, so synthesize the canonical one.
  static constexpr EdgeId kZeroOffset[1] = {0};
  std::span<const EdgeId> offsets = g.offsets();
  if (offsets.empty()) offsets = kZeroOffset;
  std::span<const EdgeId> t_offsets = t.offsets();
  if (opts.include_transpose && t_offsets.empty()) t_offsets = kZeroOffset;

  // Compression replaces the raw targets section with the varint-encoded
  // payload and bumps the version; uncompressed output stays version 1, so
  // existing files and byte-level round-trips are untouched.
  std::vector<char> encoded;
  if (opts.compress_targets) {
    encoded = encode_targets_section(offsets, g.targets(), n);
  }
  const void* data[kPgrSections] = {
      offsets.data(),
      opts.compress_targets ? static_cast<const void*>(encoded.data())
                            : static_cast<const void*>(g.targets().data()),
      weights.data(), t_offsets.data(), t.targets().data()};
  PgrLayout layout = pgr_layout(n, m, weighted, opts.include_transpose,
                                opts.compress_targets, encoded.size());

  std::vector<char> header(kPgrHeaderBytes, 0);
  std::memcpy(header.data(), kPgrMagic, sizeof(kPgrMagic));
  put(std::span<char>(header), 8,
      opts.compress_targets ? kPgrVersionCompressed : kPgrVersion);
  std::uint32_t flags = (weighted ? kPgrFlagWeighted : 0) |
                        (opts.symmetric ? kPgrFlagSymmetric : 0) |
                        (opts.include_transpose ? kPgrFlagTranspose : 0) |
                        (opts.compress_targets ? kPgrFlagCompressed : 0);
  put(std::span<char>(header), 12, flags);
  put(std::span<char>(header), 16, n);
  put(std::span<char>(header), 24, m);
  put(std::span<char>(header), 32, layout.section_count);
  for (int i = 0; i < kPgrSections; ++i) {
    std::size_t at = 40 + static_cast<std::size_t>(i) * 24;
    put(std::span<char>(header), at, layout.off[i]);
    put(std::span<char>(header), at + 8, layout.bytes[i]);
    if (layout.bytes[i] != 0) {
      put(std::span<char>(header), at + 16,
          hash_bytes(data[i], layout.bytes[i]));
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) fail(ErrorCategory::kIo, path, "cannot open for writing");
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  std::uint64_t pos = kPgrHeaderBytes;
  static constexpr char kPad[kPgrAlign] = {};
  for (int i = 0; i < kPgrSections; ++i) {
    if (layout.bytes[i] == 0) continue;
    out.write(kPad, static_cast<std::streamsize>(layout.off[i] - pos));
    out.write(static_cast<const char*>(data[i]),
              static_cast<std::streamsize>(layout.bytes[i]));
    pos = layout.off[i] + layout.bytes[i];
  }
  if (!out) fail(ErrorCategory::kIo, path, "write error");
}

// Section spans of a layout-checked file: every open reads its sections
// through this one step. Raw targets and the compressed stream are
// exclusive; absent sections (and every per-edge section when m == 0) stay
// empty.
struct PgrSpans {
  std::span<const EdgeId> offsets;
  std::span<const VertexId> targets;
  std::span<const std::byte> encoded;  // compressed (v2) targets section
  std::span<const std::uint32_t> weights;
  std::span<const EdgeId> t_offsets;
  std::span<const VertexId> t_targets;
};

// Section i as `count` elements of T; empty when the section is absent
// (the layout check has put every present one in-file).
template <typename T>
std::span<const T> section(const PgrHeader& h, const std::byte* base, int i,
                           std::uint64_t count) {
  if (h.sec[i].bytes == 0) return {};
  return {reinterpret_cast<const T*>(base + h.sec[i].off), count};
}

PgrSpans pgr_spans(const PgrHeader& h, const std::byte* base) {
  PgrSpans s;
  s.offsets = section<EdgeId>(h, base, 0, h.n + 1);
  if (h.compressed()) {
    s.encoded = section<std::byte>(h, base, 1, h.sec[1].bytes);
  } else {
    s.targets = section<VertexId>(h, base, 1, h.m);
  }
  s.weights = section<std::uint32_t>(h, base, 2, h.m);
  s.t_offsets = section<EdgeId>(h, base, 3, h.n + 1);
  s.t_targets = section<VertexId>(h, base, 4, h.m);
  return s;
}

// Shared open path for read_pgr / read_weighted_pgr.
struct OpenedPgr {
  StorageRef storage;
  PgrInfo info;
  std::uint64_t decode_wall_ns = 0;  // 0 unless this open decoded targets
};

PgrInfo pgr_info(const PgrHeader& h, const MappedFile& map) {
  PgrInfo info;
  info.n = h.n;
  info.m = h.m;
  info.version = h.version;
  info.weighted = h.weighted();
  info.symmetric = h.symmetric();
  info.has_transpose = h.has_transpose();
  info.compressed = h.compressed();
  info.file_bytes = map.size();
  info.encoded_target_bytes = h.sec[1].bytes;
  for (int i = 0; i < kPgrSections; ++i) {
    info.section_bytes[i] = h.sec[i].bytes;
  }
  // The chunk count lives in the targets section's 16-byte header (the
  // layout check has verified the section is in-file; 16 bytes is the
  // minimum the decoder accepts for a non-empty section).
  if (h.compressed() && h.m != 0 && h.sec[1].bytes >= 16) {
    info.chunk_count = get<std::uint64_t>(map.data() + h.sec[1].off, 0);
  }
  return info;
}

// The deep check of an in-core open: the forward CSR (`forward` is false
// when the decoder has already proved it) and any embedded transpose.
void check_opened(GraphStorage& s, const std::string& path, bool forward) {
  if (forward) check_csr(s, path);
  if (StorageRef t = s.transpose_cache()) {
    check_csr(*t, path, "transpose sections: ");
  }
}

OpenedPgr open_pgr_fresh(const std::string& path, PgrOpen mode,
                         bool validate) {
  auto map = std::make_shared<const MappedFile>(MappedFile::open(path));
  PgrHeader h = parse_pgr_header(map->data(), map->size(), path);
  check_pgr_layout(h, map->size(), path);
  // The copy path always gets the full untrusted-input treatment; the mmap
  // path verifies content only on request (O(1) open). Compressed targets
  // are necessarily fully verified either way: the decoder range-checks
  // offsets and every decoded target.
  bool deep = validate || mode == PgrOpen::kCopy;
  if (deep) check_pgr_checksums(h, map->data(), path);
  PgrSpans sec = pgr_spans(h, map->data());
  OpenedPgr out{nullptr, pgr_info(h, *map)};

  // Decode compressed targets into heap memory up front (parallel, timed).
  // The footprint check in check_pgr_layout already covered the decoded
  // array — it charges the full CSR including m targets — so this is the
  // same single guard point the raw readers go through.
  std::vector<VertexId> decoded;
  if (!sec.encoded.empty()) {
    auto t0 = std::chrono::steady_clock::now();
    fail_if(validate_offsets(sec.offsets, h.m), path);
    PgrChunkDir dir = check_chunk_directory(sec.encoded, h.n, path);
    decoded.resize(h.m);
    decode_chunk_range(dir, 0, dir.C, h.n, sec.offsets, decoded.data(),
                       /*e_base=*/0, path);
    out.decode_wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    sec.targets = decoded;
  }

  // kMmap serves the sections from the mapping (targets from the decoded
  // buffer when compressed); kCopy copies them into heap storage through
  // the resource guard, so the mapping can go.
  auto store = [&](std::span<const EdgeId> offsets,
                   std::span<const VertexId> targets,
                   std::span<const std::uint32_t> weights,
                   std::vector<VertexId> owned) {
    if (mode == PgrOpen::kMmap) {
      return GraphStorage::mapped(map, path, offsets, targets, weights, h.m,
                                  std::move(owned));
    }
    StorageRef s = GraphStorage::allocate(h.n, h.m, !weights.empty(), path);
    std::copy(offsets.begin(), offsets.end(), s->mutable_offsets().begin());
    std::copy(targets.begin(), targets.end(), s->mutable_targets().begin());
    std::copy(weights.begin(), weights.end(), s->mutable_weights().begin());
    return s;
  };
  out.storage =
      store(sec.offsets, sec.targets, sec.weights, std::move(decoded));
  if (h.has_transpose()) {
    out.storage->set_transpose_cache(
        store(sec.t_offsets, sec.t_targets, {}, {}));
  }
  // The decoder verified the whole validate_csr contract (offsets shape +
  // target bounds); no second pass needed.
  bool decoded_ok = !sec.encoded.empty();
  if (decoded_ok) out.storage->mark_validated();
  if (deep) check_opened(*out.storage, path, /*forward=*/!decoded_ok);
  return out;
}

OpenedPgr open_pgr(const std::string& path, PgrOpen mode, bool validate,
                   const PgrShardSpec& shard);

// Range-checks a raw targets window shard-at-a-time: activate each shard
// once through the window (bounded residency — this is the sharded stand-in
// for the full validate_csr scan, which would touch every page at once) and
// run the targets half of the CSR check on it. Counters are reset
// afterwards so driver telemetry starts from the algorithm's first sweep.
void validate_sharded_raw(MappedWindow& window, std::uint64_t n,
                          const std::string& path, const char* what) {
  const ShardPlan& plan = window.plan();
  for (std::size_t s = 0; s < plan.size(); ++s) {
    const ShardRange& r = plan[s];
    MappedWindow::ActiveShard sh = window.activate(s);
    fail_if(validate_targets(
                {sh.targets + (r.e_begin - sh.e_base), r.e_end - r.e_begin},
                n, r.e_begin),
            path, std::string(what) + " in shard " + std::to_string(s) + ": ");
  }
  window.release();
  window.reset_counters();
}

// Sharded open: a bounded-residency window over the mapped file (DESIGN.md
// §5i). Bypasses the GraphRegistry — a windowed handle prices a different
// footprint than a shared in-core mapping of the same file, and each
// consumer must own its window (the window serializes shard activation per
// traversal).
OpenedPgr open_pgr_sharded(const std::string& path, PgrOpen mode,
                           bool validate, PgrShardSpec spec) {
  if (mode == PgrOpen::kCopy) {
    fail(ErrorCategory::kUsage, path,
         "sharded opens require the mmap path; --shard-mb cannot be "
         "combined with a copying load mode");
  }
  if (validate) {
    fail(ErrorCategory::kUsage, path,
         "--validate checksums every section byte, which defeats the "
         "bounded residency of --shard-mb; the sharded open range-checks "
         "shard-at-a-time instead");
  }
  // MADV_RANDOM on the whole mapping: the MappedWindow issues its own
  // WILLNEED/DONTNEED per shard, and whole-file readahead would defeat the
  // bounded residency it maintains.
  auto map = std::make_shared<const MappedFile>(
      MappedFile::open(path, /*sequential=*/false));
  PgrHeader h = parse_pgr_header(map->data(), map->size(), path);

  if (spec.auto_shard) {
    // Auto mode shards only when the full in-core footprint would be
    // rejected; graphs that fit keep the plain shared-mmap path (and its
    // registry reuse).
    if (GraphStorage::check_footprint(h.n, h.m, h.weighted(), path).ok()) {
      return open_pgr(path, mode, validate, PgrShardSpec{});
    }
    if (spec.window_bytes == 0) {
      spec.window_bytes = std::max<std::uint64_t>(memory_limit_bytes() / 4,
                                                  std::uint64_t{1} << 20);
    }
  }

  // Early absurd-claim rejection on what this open keeps resident; the
  // precise price (decode buffer, transpose window) is re-checked below
  // once the plan exists.
  GraphStorage::check_windowed_footprint(h.n, spec.window_bytes, 0, path)
      .throw_if_error();
  check_pgr_layout(h, map->size(), path, /*windowed=*/true);
  PgrSpans sec = pgr_spans(h, map->data());
  // Offsets are fully resident (priced above); verifying them up front
  // gives the shard plan trustworthy degrees and covers the offsets half of
  // the validate_csr contract.
  fail_if(validate_offsets(sec.offsets, h.m), path);

  // Shard boundaries fall on multiples of `align` vertices: the writer's
  // chunk size for raw sections, the file's own chunking for compressed
  // targets (so every shard decodes whole chunks).
  auto plan_for = [&](std::span<const EdgeId> offsets, std::uint64_t bpe,
                      std::uint64_t align) {
    return std::make_shared<const ShardPlan>(ShardPlan::build(
        offsets, bpe, spec.window_bytes,
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            align, std::numeric_limits<std::uint32_t>::max()))));
  };
  std::shared_ptr<const ShardPlan> plan;
  std::shared_ptr<MappedWindow> window;
  std::uint64_t extra_resident = 0;
  std::uint64_t bpe =
      sizeof(VertexId) + (h.weighted() ? sizeof(std::uint32_t) : 0);
  if (sec.encoded.empty()) {
    plan = plan_for(sec.offsets, bpe, kPgrVerticesPerChunk);
    window = MappedWindow::raw(plan, sec.targets.data(), sec.weights.data());
  } else {
    PgrChunkDir dir = check_chunk_directory(sec.encoded, h.n, path);
    plan = plan_for(sec.offsets, bpe, dir.V);
    auto chunk_end = [dir](StorageVertexId v_end) {
      return std::min<std::uint64_t>(
          dir.C, (static_cast<std::uint64_t>(v_end) + dir.V - 1) / dir.V);
    };
    auto decode = [dir, n = h.n, offsets = sec.offsets, path, chunk_end](
                      const ShardRange& r, StorageVertexId* buf) {
      decode_chunk_range(dir, r.v_begin / dir.V, chunk_end(r.v_end), n,
                         offsets, buf, r.e_begin, path);
    };
    auto encoded_range = [dir, chunk_end](
                             const ShardRange& r)
        -> std::pair<const void*, std::size_t> {
      std::uint64_t b0 = dir.stream_off(r.v_begin / dir.V);
      std::uint64_t b1 = dir.stream_off(chunk_end(r.v_end));
      return {dir.sec + b0, static_cast<std::size_t>(b1 - b0)};
    };
    window = MappedWindow::decoding(plan, std::move(decode),
                                    std::move(encoded_range),
                                    sec.weights.data());
    // The reusable decode buffer is a real heap resident, sized for the
    // largest shard.
    extra_resident = plan->max_shard_edges() * sizeof(VertexId);
  }
  // The transpose sections (always raw — only the forward targets section
  // is compressed) add their own offsets array and window.
  if (h.has_transpose()) {
    fail_if(validate_offsets(sec.t_offsets, h.m), path,
            "transpose sections: ");
    extra_resident += (h.n + 1) * sizeof(EdgeId) + spec.window_bytes;
  }
  // Final price: offsets + window + decode buffer + transpose residents.
  GraphStorage::check_windowed_footprint(h.n, spec.window_bytes,
                                         extra_resident, path)
      .throw_if_error();
  std::uint64_t resident =
      (h.n + 1) * sizeof(EdgeId) + spec.window_bytes + extra_resident;

  // No targets span for a compressed file: the storage is window-only.
  StorageRef storage = GraphStorage::mapped(map, path, sec.offsets,
                                            sec.targets, sec.weights, h.m);
  storage->set_sharding(plan, window, resident);
  // Eager bounded-residency validation: raw targets are range-checked with
  // one sweep through the window (compressed shards are validated by the
  // decoder on every activation), so traversal-time unchecked indexing is
  // as safe as after a deep-validated in-core open.
  if (sec.encoded.empty()) {
    validate_sharded_raw(*window, h.n, path, "targets");
  }
  storage->mark_validated();
  // The transpose becomes a second windowed storage over the same mapping,
  // pre-populating the transpose cache so gt sweeps stay bounded too.
  if (h.has_transpose()) {
    auto t_plan =
        plan_for(sec.t_offsets, sizeof(VertexId), kPgrVerticesPerChunk);
    auto t_window = MappedWindow::raw(t_plan, sec.t_targets.data(), nullptr);
    validate_sharded_raw(*t_window, h.n, path, "transpose targets");
    StorageRef tcache = GraphStorage::mapped(map, path, sec.t_offsets,
                                             sec.t_targets, {}, h.m);
    tcache->mark_validated();
    tcache->set_sharding(std::move(t_plan), std::move(t_window), 0);
    storage->set_transpose_cache(std::move(tcache));
  }
  return {std::move(storage), pgr_info(h, *map)};
}

// Mmap opens go through the process-level GraphRegistry: every open of the
// same file (by stat identity — see registry.h) in one process shares a
// single mapping and its memoized transpose. Copy opens bypass it: kCopy's
// contract is decoupling from the file, and a shared heap image could go
// stale if the file is rewritten in place within mtime granularity.
OpenedPgr open_pgr(const std::string& path, PgrOpen mode, bool validate,
                   const PgrShardSpec& shard) {
  if (shard.enabled()) return open_pgr_sharded(path, mode, validate, shard);
  if (mode == PgrOpen::kCopy) return open_pgr_fresh(path, mode, validate);

  bool opened_fresh = false;
  OpenedPgr fresh;
  StorageRef storage =
      GraphRegistry::instance().open_shared(path, [&]() -> StorageRef {
        opened_fresh = true;
        fresh = open_pgr_fresh(path, PgrOpen::kMmap, validate);
        return fresh.storage;
      });
  if (opened_fresh) return fresh;

  // A registry hit: PgrInfo comes from the shared mapping's header (no
  // re-open, zero new bytes mapped), and the decode cost is zero — the
  // decoded buffer is memoized on the shared handle.
  std::shared_ptr<const MappedFile> map = storage->mapped_file();
  PgrHeader h = parse_pgr_header(map->data(), map->size(), path);
  OpenedPgr out{std::move(storage), pgr_info(h, *map)};
  if (validate) {
    // The cached mapping may have been opened without --validate; a
    // validating open still gets the full content check, against the
    // shared pages.
    check_pgr_checksums(h, map->data(), path);
    check_opened(*out.storage, path, /*forward=*/true);
  }
  return out;
}

// The read_pgr / read_weighted_pgr body; `want_weights` as for parse_adj.
StorageRef read_pgr_storage(const std::string& path, PgrOpen mode,
                            bool validate, PgrOpenStats* stats,
                            const PgrShardSpec& shard, bool want_weights) {
  OpenedPgr opened = open_pgr(path, mode, validate, shard);
  if (want_weights && !opened.info.weighted) {
    fail(ErrorCategory::kFormat, path, kNoWeights);
  }
  if (stats != nullptr) {
    *stats = {opened.info.compressed, opened.info.encoded_target_bytes,
              opened.decode_wall_ns};
  }
  return std::move(opened.storage);
}

}  // namespace

void write_pgr(const Graph& g, const std::string& path,
               const PgrWriteOptions& opts) {
  write_pgr_impl(g, /*weighted=*/false, {}, path, opts);
}

void write_pgr(const WeightedGraph<std::uint32_t>& g, const std::string& path,
               const PgrWriteOptions& opts) {
  write_pgr_impl(g.unweighted(), /*weighted=*/true, g.weights(), path, opts);
}

const char* pgr_section_name(int i) {
  static_assert(kPgrSectionCount == kPgrSections);
  return kPgrSectionName[i];
}

Graph read_pgr(const std::string& path, PgrOpen mode, bool validate,
               PgrOpenStats* stats, const PgrShardSpec& shard) {
  return Graph(read_pgr_storage(path, mode, validate, stats, shard,
                                /*want_weights=*/false));
}

WeightedGraph<std::uint32_t> read_weighted_pgr(const std::string& path,
                                               PgrOpen mode, bool validate,
                                               PgrOpenStats* stats,
                                               const PgrShardSpec& shard) {
  return WeightedGraph<std::uint32_t>(read_pgr_storage(
      path, mode, validate, stats, shard, /*want_weights=*/true));
}

PgrInfo probe_pgr(const std::string& path) {
  MappedFile map = MappedFile::open(path);
  PgrHeader h = parse_pgr_header(map.data(), map.size(), path);
  // The windowed layout check: full structural verification (section table,
  // file size) without the in-core RAM-ceiling gate — a probe allocates
  // nothing, and callers planning a sharded open of a beyond-ceiling file
  // must still be able to peek at it.
  check_pgr_layout(h, map.size(), path, /*windowed=*/true);
  return pgr_info(h, map);
}

bool has_weights(const std::string& path) {
  std::string_view name = path;
  if (name.ends_with(".pgr")) return probe_pgr(path).weighted;
  if (!name.ends_with(".bin") && !name.ends_with(".adj")) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(ErrorCategory::kIo, path, "cannot open for reading");
  if (name.ends_with(".bin")) return read_bin_header(in, path).weighted();
  std::string header;
  in >> header;
  return header == "WeightedAdjacencyGraph";
}

}  // namespace pasgal
