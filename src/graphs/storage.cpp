#include "graphs/storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#ifndef MADV_HUGEPAGE
#define MADV_HUGEPAGE MADV_NORMAL  // hint degrades to a no-op off Linux
#endif

#include "graphs/delta.h"
#include "pasgal/fault.h"
#include "pasgal/resource.h"

namespace pasgal {

// --- content checksum --------------------------------------------------------
//
// xxhash-style: each 8-byte little-endian lane is folded in with a
// multiply-rotate-multiply step; the tail is padded with its own length so
// "AB" + "C" and "A" + "BC" differ; the finalizer is splitmix64's avalanche.

namespace {

constexpr std::uint64_t kLaneMul1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kLaneMul2 = 0xC2B2AE3D27D4EB4FULL;

inline std::uint64_t avalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t acc = seed ^ (static_cast<std::uint64_t>(len) * kLaneMul1);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p + i, 8);
    acc ^= std::rotl(lane * kLaneMul1, 31) * kLaneMul2;
    acc = std::rotl(acc, 27) * kLaneMul1 + kLaneMul2;
  }
  std::uint64_t tail = 0;
  for (std::size_t b = 0; i + b < len; ++b) {
    tail |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
  }
  acc ^= std::rotl(tail * kLaneMul2, 17) * kLaneMul1;
  return avalanche(acc);
}

// --- MappedFile --------------------------------------------------------------

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

MappedFile MappedFile::open(const std::string& path, bool sequential) {
  if (fault::should_fail("mmap")) {
    throw Error(ErrorCategory::kIo, "injected fault: mmap", path);
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw Error(ErrorCategory::kIo,
                std::string("cannot open for mapping: ") + std::strerror(errno),
                path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    throw Error(ErrorCategory::kIo,
                std::string("fstat failed: ") + std::strerror(err), path);
  }
  MappedFile out;
  out.size_ = static_cast<std::size_t>(st.st_size);
  if (out.size_ == 0) {
    ::close(fd);
    return out;  // mmap rejects length 0; an empty file maps to nothing
  }
  void* addr = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  int err = errno;
  ::close(fd);
  if (addr == MAP_FAILED) {
    throw Error(ErrorCategory::kIo,
                std::string("mmap failed: ") + std::strerror(err), path);
  }
  // Readahead hint: CSR consumers scan offsets/targets mostly sequentially.
  // Sharded opens take MADV_RANDOM instead — the MappedWindow issues its own
  // per-shard hints and whole-file readahead would defeat the bounded
  // residency. Advisory only — failure is not an error.
  ::madvise(addr, out.size_, sequential ? MADV_WILLNEED : MADV_RANDOM);
  out.data_ = static_cast<const std::byte*>(addr);
  return out;
}

// --- ShardPlan ---------------------------------------------------------------

ShardPlan ShardPlan::build(std::span<const StorageEdgeId> offsets,
                           std::uint64_t bytes_per_edge,
                           std::uint64_t window_bytes, std::uint32_t align) {
  ShardPlan plan;
  plan.window_bytes_ = window_bytes;
  plan.bytes_per_edge_ = bytes_per_edge;
  if (offsets.size() <= 1) return plan;  // empty graph: zero shards
  std::uint64_t n = offsets.size() - 1;
  if (align == 0) align = 1;
  std::uint64_t max_edges =
      bytes_per_edge != 0 ? window_bytes / bytes_per_edge : ~std::uint64_t{0};
  if (max_edges == 0) max_edges = 1;
  std::uint64_t v = 0;
  while (v < n) {
    std::uint64_t v_end = std::min<std::uint64_t>(v + align, n);
    // Grow block by block while the payload stays within budget.
    while (v_end < n) {
      std::uint64_t next = std::min<std::uint64_t>(v_end + align, n);
      if (offsets[next] - offsets[v] > max_edges) break;
      v_end = next;
    }
    plan.ranges_.push_back(ShardRange{static_cast<StorageVertexId>(v),
                                      static_cast<StorageVertexId>(v_end),
                                      offsets[v], offsets[v_end]});
    v = v_end;
  }
  return plan;
}

std::size_t ShardPlan::shard_of(StorageVertexId v) const {
  // Last range whose v_begin <= v.
  std::size_t lo = 0, hi = ranges_.size();
  while (hi - lo > 1) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (ranges_[mid].v_begin <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StorageEdgeId ShardPlan::max_shard_edges() const {
  StorageEdgeId best = 0;
  for (const ShardRange& r : ranges_) {
    best = std::max(best, r.e_end - r.e_begin);
  }
  return best;
}

// --- MappedWindow ------------------------------------------------------------

namespace {
// HUGEPAGE is worth asking for once a shard spans multiple huge pages.
constexpr std::size_t kHugePageHintBytes = 4u << 20;
// Modern kernels cache file pages in large folios (up to 2 MB). A fault in
// shard s+1 maps every cache-resident page of the folio it lands in —
// including pages of the just-dropped shard s when a folio straddles the
// boundary — and those resurrected pages would never be advised out again,
// accumulating ~a folio per sweep. Widening every DONTNEED by one max-folio
// margin each side (clamped to the section, so hot offsets pages next door
// are not churned) makes the next drop cover the resurrected tail too.
constexpr std::size_t kFolioSpillBytes = 2u << 20;
}  // namespace

std::shared_ptr<MappedWindow> MappedWindow::raw(
    std::shared_ptr<const ShardPlan> plan, const StorageVertexId* targets_base,
    const StorageWeight* weights_base) {
  auto w = std::shared_ptr<MappedWindow>(new MappedWindow());
  w->plan_ = std::move(plan);
  w->targets_base_ = targets_base;
  w->weights_base_ = weights_base;
  w->visited_.assign(w->plan_->size(), false);
  if (w->plan_->size() != 0) {
    w->total_edges_ = (*w->plan_)[w->plan_->size() - 1].e_end;
  }
  return w;
}

std::shared_ptr<MappedWindow> MappedWindow::decoding(
    std::shared_ptr<const ShardPlan> plan, DecodeFn decode,
    EncodedRangeFn encoded_range, const StorageWeight* weights_base) {
  auto w = std::shared_ptr<MappedWindow>(new MappedWindow());
  w->plan_ = std::move(plan);
  w->decode_ = std::move(decode);
  w->encoded_range_ = std::move(encoded_range);
  w->weights_base_ = weights_base;
  w->visited_.assign(w->plan_->size(), false);
  if (w->plan_->size() != 0) {
    w->total_edges_ = (*w->plan_)[w->plan_->size() - 1].e_end;
    auto [lo, lo_bytes] = w->encoded_range_((*w->plan_)[0]);
    auto [hi, hi_bytes] = w->encoded_range_((*w->plan_)[w->plan_->size() - 1]);
    w->encoded_lo_ = lo;
    w->encoded_hi_ = static_cast<const std::byte*>(hi) + hi_bytes;
    (void)lo_bytes;
  }
  return w;
}

void MappedWindow::advise(const void* addr, std::size_t len,
                          int advice) const {
  if (addr == nullptr || len == 0) return;
  // madvise wants a page-aligned start; round down and extend accordingly.
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(addr);
  std::uintptr_t base = a & ~(page - 1);
  len += static_cast<std::size_t>(a - base);
  // Advisory only: EINVAL (e.g. HUGEPAGE on a file mapping without kernel
  // support) is not an error.
  ::madvise(reinterpret_cast<void*>(base), len, advice);
}

void MappedWindow::advise_out_wide(const void* addr, std::size_t len,
                                   const void* sec_lo,
                                   const void* sec_hi) const {
  const std::byte* a = static_cast<const std::byte*>(addr);
  const std::byte* lo = static_cast<const std::byte*>(sec_lo);
  const std::byte* hi = static_cast<const std::byte*>(sec_hi);
  if (lo != nullptr && hi != nullptr && lo <= a && a + len <= hi) {
    const std::byte* b = a - std::min<std::size_t>(
                                 kFolioSpillBytes,
                                 static_cast<std::size_t>(a - lo));
    const std::byte* e =
        a + len +
        std::min<std::size_t>(kFolioSpillBytes,
                              static_cast<std::size_t>(hi - (a + len)));
    advise(b, static_cast<std::size_t>(e - b), MADV_DONTNEED);
  } else {
    advise(addr, len, MADV_DONTNEED);
  }
}

void MappedWindow::advise_range(const void* addr, std::size_t len, bool in,
                                const void* section_begin,
                                const void* section_end) const {
  if (in) {
    advise(addr, len, MADV_WILLNEED);
  } else {
    advise_out_wide(addr, len, section_begin, section_end);
  }
}

void MappedWindow::advise_shard(const ShardRange& r, bool in) const {
  std::size_t edges = static_cast<std::size_t>(r.e_end - r.e_begin);
  if (targets_base_ != nullptr) {
    std::size_t bytes = edges * sizeof(StorageVertexId);
    if (in) {
      advise(targets_base_ + r.e_begin, bytes, MADV_WILLNEED);
      if (bytes >= kHugePageHintBytes) {
        advise(targets_base_ + r.e_begin, bytes, MADV_HUGEPAGE);
      }
    } else {
      advise_out_wide(targets_base_ + r.e_begin, bytes, targets_base_,
                      targets_base_ + total_edges_);
    }
  } else if (encoded_range_) {
    auto [addr, bytes] = encoded_range_(r);
    if (in) {
      advise(addr, bytes, MADV_WILLNEED);
      if (bytes >= kHugePageHintBytes) {
        advise(addr, bytes, MADV_HUGEPAGE);
      }
    } else {
      advise_out_wide(addr, bytes, encoded_lo_, encoded_hi_);
    }
  }
  if (weights_base_ != nullptr) {
    std::size_t bytes = edges * sizeof(StorageWeight);
    if (in) {
      advise(weights_base_ + r.e_begin, bytes, MADV_WILLNEED);
    } else {
      advise_out_wide(weights_base_ + r.e_begin, bytes, weights_base_,
                      weights_base_ + total_edges_);
    }
  }
}

MappedWindow::ActiveShard MappedWindow::activate(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  const ShardRange& r = (*plan_)[shard];
  if (active_ != static_cast<std::ptrdiff_t>(shard)) {
    if (active_ >= 0) {
      advise_shard((*plan_)[static_cast<std::size_t>(active_)], /*in=*/false);
    }
    advise_shard(r, /*in=*/true);
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    if (visited_[shard]) {
      faults_.fetch_add(1, std::memory_order_relaxed);
    }
    visited_[shard] = true;
    active_ = static_cast<std::ptrdiff_t>(shard);
  }
  ActiveShard out;
  if (decode_) {
    if (decoded_ != static_cast<std::ptrdiff_t>(shard)) {
      decode_buf_.resize(
          static_cast<std::size_t>(plan_->max_shard_edges()));
      decode_(r, decode_buf_.data());
      decoded_ = static_cast<std::ptrdiff_t>(shard);
    }
    out.targets = decode_buf_.data();
    out.e_base = r.e_begin;
  } else {
    // Raw mode: the mapping's global targets pointer stays valid for every
    // edge, so the base is 0 and targets[e - 0] is just targets[e].
    out.targets = targets_base_;
    out.e_base = 0;
  }
  return out;
}

void MappedWindow::release() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ >= 0) {
    advise_shard((*plan_)[static_cast<std::size_t>(active_)], /*in=*/false);
    active_ = -1;
  }
}

void MappedWindow::reset_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  sweeps_.store(0, std::memory_order_relaxed);
  faults_.store(0, std::memory_order_relaxed);
  visited_.assign(plan_->size(), false);
}

// --- GraphStorage ------------------------------------------------------------

StorageRef GraphStorage::owned(std::vector<StorageEdgeId> offsets,
                               std::vector<StorageVertexId> targets,
                               std::vector<StorageWeight> weights) {
  auto s = StorageRef(new GraphStorage());
  s->backend_ = Backend::kHeap;
  s->own_offsets_ = std::move(offsets);
  s->own_targets_ = std::move(targets);
  s->own_weights_ = std::move(weights);
  s->offsets_ = s->own_offsets_;
  s->targets_ = s->own_targets_;
  s->weights_ = s->own_weights_;
  s->edge_count_ = s->targets_.size();
  // In-process builders (generators, transposes, symmetrizers) produce
  // in-range CSRs by construction; only untrusted file-backed storages
  // start unvalidated.
  s->validated_.store(true, std::memory_order_relaxed);
  return s;
}

Status GraphStorage::check_footprint(std::uint64_t n, std::uint64_t m,
                                     bool weighted, const std::string& path) {
  if (fault::should_fail("alloc")) {
    return Status::Failure(ErrorCategory::kResource, "injected fault: alloc",
                           path);
  }
  std::uint64_t bytes_per_edge =
      sizeof(StorageVertexId) + (weighted ? sizeof(StorageWeight) : 0);
  unsigned __int128 need =
      (static_cast<unsigned __int128>(n) + 1) * sizeof(StorageEdgeId) +
      static_cast<unsigned __int128>(m) * bytes_per_edge;
  constexpr std::uint64_t kMax = static_cast<std::uint64_t>(-1);
  std::uint64_t need64 = need > kMax ? kMax : static_cast<std::uint64_t>(need);
  return check_allocation(need64,
                          "graph with n=" + std::to_string(n) +
                              " m=" + std::to_string(m),
                          path);
}

Status GraphStorage::check_windowed_footprint(std::uint64_t n,
                                              std::uint64_t window_bytes,
                                              std::uint64_t extra_bytes,
                                              const std::string& path) {
  if (fault::should_fail("alloc")) {
    return Status::Failure(ErrorCategory::kResource, "injected fault: alloc",
                           path);
  }
  unsigned __int128 need =
      (static_cast<unsigned __int128>(n) + 1) * sizeof(StorageEdgeId) +
      static_cast<unsigned __int128>(window_bytes) + extra_bytes;
  constexpr std::uint64_t kMax = static_cast<std::uint64_t>(-1);
  std::uint64_t need64 = need > kMax ? kMax : static_cast<std::uint64_t>(need);
  return check_allocation(need64,
                          "sharded graph window (n=" + std::to_string(n) +
                              ", window=" + std::to_string(window_bytes) +
                              " bytes)",
                          path);
}

StorageRef GraphStorage::allocate(std::uint64_t n, std::uint64_t m,
                                  bool weighted, const std::string& path) {
  check_footprint(n, m, weighted, path).throw_if_error();
  auto s = owned(std::vector<StorageEdgeId>(n + 1),
                 std::vector<StorageVertexId>(m),
                 weighted ? std::vector<StorageWeight>(m)
                          : std::vector<StorageWeight>{});
  s->source_path_ = path;
  return s;
}

StorageRef GraphStorage::mapped(std::shared_ptr<const MappedFile> file,
                                const std::string& path,
                                std::span<const StorageEdgeId> offsets,
                                std::span<const StorageVertexId> targets,
                                std::span<const StorageWeight> weights) {
  auto s = StorageRef(new GraphStorage());
  s->backend_ = Backend::kMmap;
  s->map_ = std::move(file);
  s->offsets_ = offsets;
  s->targets_ = targets;
  s->weights_ = weights;
  s->edge_count_ = targets.size();
  s->source_path_ = path;
  return s;
}

StorageRef GraphStorage::mapped_with_decoded_targets(
    std::shared_ptr<const MappedFile> file, const std::string& path,
    std::span<const StorageEdgeId> offsets,
    std::vector<StorageVertexId> decoded_targets,
    std::span<const StorageWeight> weights) {
  auto s = StorageRef(new GraphStorage());
  s->backend_ = Backend::kMmap;
  s->map_ = std::move(file);
  s->own_targets_ = std::move(decoded_targets);
  s->offsets_ = offsets;
  s->targets_ = s->own_targets_;
  s->weights_ = weights;
  s->edge_count_ = s->targets_.size();
  // The decoded array is real heap residency on top of the mapping; the
  // registry's budget math must see it (admission priced it at open).
  s->decode_heap_bytes_ = s->own_targets_.size() * sizeof(StorageVertexId);
  s->source_path_ = path;
  return s;
}

StorageRef GraphStorage::mapped_windowed(
    std::shared_ptr<const MappedFile> file, const std::string& path,
    std::span<const StorageEdgeId> offsets,
    std::span<const StorageWeight> weights, std::uint64_t edge_count) {
  auto s = StorageRef(new GraphStorage());
  s->backend_ = Backend::kMmap;
  s->map_ = std::move(file);
  s->offsets_ = offsets;
  s->weights_ = weights;
  s->edge_count_ = edge_count;
  s->window_only_ = true;
  s->source_path_ = path;
  // The per-shard decoder validates each chunk it produces; there is no
  // whole-graph targets array for ensure_validated to scan.
  s->validated_.store(true, std::memory_order_relaxed);
  return s;
}

StorageRef GraphStorage::transpose_cache() const {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  return transpose_;
}

StorageRef GraphStorage::set_transpose_cache(StorageRef t) {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  if (transpose_ == nullptr) transpose_ = std::move(t);
  // A transpose built after updates were applied must see the overlay's
  // in-edge side; without this, a late pull traversal would read stale base
  // adjacency. One level only: a transpose never carries its own delta.
  if (delta_ != nullptr && transpose_ != nullptr) {
    transpose_->set_delta(delta_->flipped());
  }
  return transpose_;
}

StorageRef GraphStorage::symmetric_cache() const {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  return symmetric_;
}

StorageRef GraphStorage::set_symmetric_cache(
    StorageRef s, const std::shared_ptr<const DeltaSnapshot>& built_against) {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  if (delta_ != built_against) return s;
  if (symmetric_ == nullptr) symmetric_ = std::move(s);
  return symmetric_;
}

std::uint64_t GraphStorage::derived_heap_bytes() const {
  StorageRef views[2];
  {
    std::lock_guard<std::mutex> lock(transpose_mu_);
    views[0] = transpose_;
    views[1] = symmetric_;
  }
  std::uint64_t bytes = 0;
  for (const StorageRef& v : views) {
    if (v != nullptr) bytes += v->heap_bytes() + v->derived_heap_bytes();
  }
  return bytes;
}

std::shared_ptr<const DeltaSnapshot> GraphStorage::delta_snapshot() const {
  if (!has_delta()) return nullptr;
  std::lock_guard<std::mutex> lock(transpose_mu_);
  return delta_;
}

void GraphStorage::set_delta(std::shared_ptr<const DeltaSnapshot> d) {
  StorageRef t;
  StorageRef stale_symmetric;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(transpose_mu_);
    delta_ = d;
    has_delta_.store(d != nullptr, std::memory_order_release);
    t = transpose_;
    stale_symmetric = std::move(symmetric_);
  }
  // Propagate outside the lock (the transpose's own set_delta takes its own
  // transpose_mu_; it has no cached transpose of its own, so this cannot
  // recurse further than one level).
  if (t != nullptr) {
    t->set_delta(d != nullptr ? d->flipped() : nullptr);
  }
}

}  // namespace pasgal
