// Concurrent hash bag (Wang et al., PPoPP'23) — the frontier container used
// throughout PASGAL.
//
// A hash bag is an unordered multiset supporting lock-free parallel `insert`
// and a parallel `extract_all`. Unlike a dense boolean array + pack (the
// GBBS-style frontier), it needs no O(n) work per round: the bag's footprint
// is proportional to the number of elements inserted, which is what makes
// sparse rounds on large-diameter graphs cheap.
//
// Implementation: a chain of blocks of geometrically increasing capacity.
// An insert hashes to a pseudo-random slot in the current block and linear-
// probes a short window for an empty slot (CAS). Blocks are kept at most
// ~half full via a per-block counter sampled on every insert; when a block
// saturates, inserters race to bump the current-block index (later blocks
// are allocated on demand). Extraction packs the non-empty slots of all
// used blocks and resets them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "parlay/hash_rng.h"
#include "parlay/parallel.h"
#include "parlay/primitives.h"
#include "pasgal/error.h"
#include "pasgal/telemetry.h"

namespace pasgal {

template <typename T>
class HashBag {
 public:
  static constexpr T kEmpty = static_cast<T>(-1);

  // `first_block_log2`: capacity of block 0; doubles per block.
  explicit HashBag(int first_block_log2 = 12, int max_blocks = 24)
      : first_block_log2_(first_block_log2),
        blocks_(max_blocks),
        nonces_(static_cast<std::size_t>(num_workers())) {
    ensure_block(0);
  }

  // Route occupancy events (inserts, block advances, extract sizes) into a
  // run's tracer. The tracer must outlive the bag or be detached (nullptr);
  // events are per-worker counters on the tracer, so concurrent inserts stay
  // wait-free.
  void attach_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Thread-safe. `x` must not equal the empty sentinel. Duplicate values are
  // fine: the probe start mixes in the worker id and that worker's count of
  // inserts into this bag, so equal elements spread across the block instead
  // of fighting for one window. The counters start at zero with the bag, so
  // a bag's slot layout depends only on its own inserts: at one worker, the
  // same run lays out (and extracts) the same way in any process, whatever
  // ran before it.
  //
  // When every block up to `max_blocks` is full, insert throws a kResource
  // pasgal::Error instead of spinning on the last block forever: on the
  // final block the short probe window widens to a full sweep, and a sweep
  // that finds no empty slot proves saturation.
  void insert(T x) {
    std::uint64_t salt = hash64(static_cast<std::uint64_t>(x) ^ hash64(nonce()));
    for (std::uint64_t attempt = 0;; ++attempt) {
      std::size_t b = current_block_.load(std::memory_order_acquire);
      Block* blk = ensure_block(b);
      std::size_t cap = block_capacity(b);
      std::size_t start = (salt ^ hash64(b + (attempt << 8))) & (cap - 1);
      // Probe a short window; long probes mean the block is crowded. On the
      // last block, probe every slot — there is nowhere left to spill.
      bool last_block = (b + 1 == blocks_.size());
      std::size_t window = last_block ? cap : kProbeWindow;
      for (std::size_t i = 0; i < window; ++i) {
        std::size_t slot = (start + i) & (cap - 1);
        T expected = kEmpty;
        if (blk->slots[slot].load(std::memory_order_relaxed) == kEmpty &&
            blk->slots[slot].compare_exchange_strong(expected, x,
                                                     std::memory_order_relaxed)) {
          // Track fullness; advance the shared block index near half full.
          std::size_t size =
              blk->count.fetch_add(1, std::memory_order_relaxed) + 1;
          if (tracer_) tracer_->add_bag_insert();
          if (size >= cap / 2) {
            advance_current_block(b);
          }
          return;
        }
      }
      if (last_block) {
        throw Error(ErrorCategory::kResource,
                    "HashBag saturated: all " +
                        std::to_string(blocks_.size()) +
                        " blocks full (total capacity " +
                        std::to_string(total_capacity()) +
                        "); construct with a larger first_block_log2 or "
                        "max_blocks");
      }
      advance_current_block(b);
    }
  }

  // Parallel: collect every element, leaving the bag empty. Multiset
  // semantics — duplicates inserted are duplicates returned.
  std::vector<T> extract_all() {
    std::size_t used = current_block_.load(std::memory_order_acquire) + 1;
    std::vector<std::vector<T>> per_block(used);
    for (std::size_t b = 0; b < used; ++b) {
      Block* blk = blocks_[b].get();
      if (blk == nullptr || blk->count.load(std::memory_order_relaxed) == 0) {
        continue;
      }
      std::size_t cap = block_capacity(b);
      per_block[b] = pack_indexed<T>(
          cap,
          [&](std::size_t i) {
            return blk->slots[i].load(std::memory_order_relaxed) != kEmpty;
          },
          [&](std::size_t i) {  // empties the slot as it packs it
            T x = blk->slots[i].load(std::memory_order_relaxed);
            blk->slots[i].store(kEmpty, std::memory_order_relaxed);
            return x;
          });
      blk->count.store(0, std::memory_order_relaxed);
    }
    current_block_.store(0, std::memory_order_release);
    std::vector<T> out = flatten(per_block);
    if (tracer_) tracer_->note_bag_extract(out.size());
    return out;
  }

  // Number of elements currently stored (exact when no inserts in flight).
  std::size_t size() const {
    std::size_t total = 0;
    std::size_t used = current_block_.load(std::memory_order_acquire) + 1;
    for (std::size_t b = 0; b < used; ++b) {
      if (blocks_[b]) total += blocks_[b]->count.load(std::memory_order_relaxed);
    }
    return total;
  }

  bool empty() const { return size() == 0; }

 private:
  static constexpr std::size_t kProbeWindow = 16;

  // One insert counter per worker, each on its own cache line. Only its
  // worker advances it (threads outside the pool share slot 0, where a lost
  // increment merely repeats a salt), so a relaxed load/store suffices.
  struct alignas(64) Nonce {
    std::atomic<std::uint64_t> count{0};
  };

  std::uint64_t nonce() {
    auto w = static_cast<std::size_t>(worker_id());
    std::atomic<std::uint64_t>& c = nonces_[w < nonces_.size() ? w : 0].count;
    std::uint64_t k = c.load(std::memory_order_relaxed) + 1;
    c.store(k, std::memory_order_relaxed);
    return k + (static_cast<std::uint64_t>(w) << 48);
  }

  struct Block {
    explicit Block(std::size_t cap) : slots(cap) {
      for (auto& s : slots) s.store(kEmpty, std::memory_order_relaxed);
    }
    std::vector<std::atomic<T>> slots;
    std::atomic<std::size_t> count{0};
  };

  std::size_t block_capacity(std::size_t b) const {
    return std::size_t{1} << (static_cast<std::size_t>(first_block_log2_) + b);
  }

  std::size_t total_capacity() const {
    std::size_t total = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) total += block_capacity(b);
    return total;
  }

  Block* ensure_block(std::size_t b) {
    Block* blk = blocks_[b].load(std::memory_order_acquire);
    if (blk != nullptr) return blk;
    auto fresh = std::make_unique<Block>(block_capacity(b));
    Block* expected = nullptr;
    if (blocks_[b].compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel)) {
      return fresh.release();  // installed; owned by blocks_ (freed in dtor)
    }
    return expected;  // another thread won
  }

  void advance_current_block(std::size_t b) {
    if (b + 1 >= blocks_.size()) return;  // saturated; keep probing last block
    std::size_t expected = b;
    if (current_block_.compare_exchange_strong(expected, b + 1,
                                               std::memory_order_acq_rel)) {
      if (tracer_) tracer_->add_bag_advance();
    }
  }

  // Wrapper giving unique_ptr semantics over an atomically-installed pointer.
  class AtomicBlockPtr {
   public:
    AtomicBlockPtr() = default;
    ~AtomicBlockPtr() { delete ptr_.load(std::memory_order_relaxed); }
    AtomicBlockPtr(const AtomicBlockPtr&) = delete;
    AtomicBlockPtr& operator=(const AtomicBlockPtr&) = delete;
    Block* load(std::memory_order mo) const { return ptr_.load(mo); }
    bool compare_exchange_strong(Block*& expected, Block* desired,
                                 std::memory_order mo) {
      return ptr_.compare_exchange_strong(expected, desired, mo);
    }
    Block* get() const { return ptr_.load(std::memory_order_acquire); }
    explicit operator bool() const { return get() != nullptr; }
    Block* operator->() const { return get(); }

   private:
    std::atomic<Block*> ptr_{nullptr};
  };

  int first_block_log2_;
  std::atomic<std::size_t> current_block_{0};
  std::vector<AtomicBlockPtr> blocks_;
  std::vector<Nonce> nonces_;
  Tracer* tracer_ = nullptr;
};

}  // namespace pasgal
