// Parallel sequence primitives: tabulate, map, reduce, scan, pack, filter,
// flatten, histogram. All return std::vector and are deterministic.
#pragma once

#include <cstddef>
#include <functional>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "parlay/parallel.h"

namespace pasgal {

inline constexpr std::size_t kScanBlockSize = 2048;

// -- tabulate / map ---------------------------------------------------------

template <typename F>
auto tabulate(std::size_t n, const F& f) {
  using T = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](std::size_t i) { out[i] = f(i); });
  return out;
}

template <typename T, typename F>
auto map(std::span<const T> in, const F& f) {
  return tabulate(in.size(), [&](std::size_t i) { return f(in[i]); });
}

template <typename T>
std::vector<T> iota(std::size_t n) {
  return tabulate(n, [](std::size_t i) { return static_cast<T>(i); });
}

// -- reduce -----------------------------------------------------------------

// Reduce with an associative, commutative monoid (identity, combine).
template <typename T, typename Combine, typename Get>
T reduce_indexed(std::size_t n, T identity, const Combine& combine, const Get& get) {
  if (n == 0) return identity;
  std::size_t num_blocks = (n + kScanBlockSize - 1) / kScanBlockSize;
  if (num_blocks == 1) {
    T acc = identity;
    for (std::size_t i = 0; i < n; ++i) acc = combine(acc, get(i));
    return acc;
  }
  std::vector<T> partial(num_blocks);
  blocked_for(0, n, kScanBlockSize, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    T acc = identity;
    for (std::size_t i = lo; i < hi; ++i) acc = combine(acc, get(i));
    partial[b] = acc;
  });
  T acc = identity;
  for (std::size_t b = 0; b < num_blocks; ++b) acc = combine(acc, partial[b]);
  return acc;
}

template <typename T, typename Combine>
T reduce(std::span<const T> in, T identity, const Combine& combine) {
  return reduce_indexed(in.size(), identity, combine,
                        [&](std::size_t i) { return in[i]; });
}

template <typename T>
T reduce_add(std::span<const T> in) {
  return reduce(in, T{}, std::plus<T>{});
}

template <typename Pred>
std::size_t count_if_index(std::size_t n, const Pred& pred) {
  return reduce_indexed(
      n, std::size_t{0}, std::plus<std::size_t>{},
      [&](std::size_t i) { return pred(i) ? std::size_t{1} : std::size_t{0}; });
}

template <typename T>
T reduce_max(std::span<const T> in, T identity) {
  return reduce(in, identity, [](T a, T b) { return a < b ? b : a; });
}

template <typename T>
T reduce_min(std::span<const T> in, T identity) {
  return reduce(in, identity, [](T a, T b) { return b < a ? b : a; });
}

// -- scan -------------------------------------------------------------------

// Exclusive prefix sum over get(i); writes n outputs via set(i, value) and
// returns the grand total. Two-pass blocked algorithm.
template <typename T, typename Get, typename Set>
T scan_indexed(std::size_t n, const Get& get, const Set& set) {
  if (n == 0) return T{};
  std::size_t num_blocks = (n + kScanBlockSize - 1) / kScanBlockSize;
  if (num_blocks == 1) {
    T acc{};
    for (std::size_t i = 0; i < n; ++i) {
      T v = get(i);
      set(i, acc);
      acc += v;
    }
    return acc;
  }
  std::vector<T> block_sum(num_blocks);
  blocked_for(0, n, kScanBlockSize, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    T acc{};
    for (std::size_t i = lo; i < hi; ++i) acc += get(i);
    block_sum[b] = acc;
  });
  T total{};
  for (std::size_t b = 0; b < num_blocks; ++b) {
    T next = total + block_sum[b];
    block_sum[b] = total;
    total = next;
  }
  blocked_for(0, n, kScanBlockSize, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    T acc = block_sum[b];
    for (std::size_t i = lo; i < hi; ++i) {
      T v = get(i);
      set(i, acc);
      acc += v;
    }
  });
  return total;
}

// Exclusive scan in place; returns the total.
template <typename T>
T scan_inplace(std::span<T> data) {
  return scan_indexed<T>(
      data.size(), [&](std::size_t i) { return data[i]; },
      [&](std::size_t i, T v) { data[i] = v; });
}

template <typename T>
std::pair<std::vector<T>, T> scan(std::span<const T> in) {
  std::vector<T> out(in.size());
  T total = scan_indexed<T>(
      in.size(), [&](std::size_t i) { return in[i]; },
      [&](std::size_t i, T v) { out[i] = v; });
  return {std::move(out), total};
}

// -- pack / filter ----------------------------------------------------------

// Keep element i iff pred(i); produces get(i) for kept elements, stably.
// Blocked: each block counts its kept elements, the counts are scanned, and
// each block writes its elements from its offset (pred runs twice per i).
template <typename T, typename Pred, typename Get>
std::vector<T> pack_indexed(std::size_t n, const Pred& pred, const Get& get) {
  std::vector<std::size_t> offsets((n + kScanBlockSize - 1) / kScanBlockSize);
  blocked_for(0, n, kScanBlockSize,
              [&](std::size_t b, std::size_t lo, std::size_t hi) {
                std::size_t kept = 0;
                for (std::size_t i = lo; i < hi; ++i) kept += pred(i) ? 1 : 0;
                offsets[b] = kept;
              });
  std::vector<T> out(scan_inplace(std::span<std::size_t>(offsets)));
  blocked_for(0, n, kScanBlockSize,
              [&](std::size_t b, std::size_t lo, std::size_t hi) {
                std::size_t at = offsets[b];
                for (std::size_t i = lo; i < hi; ++i) {
                  if (pred(i)) out[at++] = get(i);
                }
              });
  return out;
}

template <typename T, typename Pred>
std::vector<T> filter(std::span<const T> in, const Pred& pred) {
  return pack_indexed<T>(
      in.size(), [&](std::size_t i) { return pred(in[i]); },
      [&](std::size_t i) { return in[i]; });
}

// Indices i in [0, n) where pred(i) holds, in increasing order.
template <typename Pred>
std::vector<std::size_t> pack_index(std::size_t n, const Pred& pred) {
  return pack_indexed<std::size_t>(n, pred, [](std::size_t i) { return i; });
}

// -- flatten ----------------------------------------------------------------

template <typename T>
std::vector<T> flatten(const std::vector<std::vector<T>>& nested) {
  std::size_t k = nested.size();
  std::vector<std::size_t> offsets(k);
  std::size_t total = scan_indexed<std::size_t>(
      k, [&](std::size_t i) { return nested[i].size(); },
      [&](std::size_t i, std::size_t v) { offsets[i] = v; });
  std::vector<T> out(total);
  parallel_for(
      0, k,
      [&](std::size_t i) {
        std::copy(nested[i].begin(), nested[i].end(), out.begin() + offsets[i]);
      },
      1);
  return out;
}

// -- histogram --------------------------------------------------------------

// Counts occurrences of keys in [0, num_buckets). Uses atomics; suitable for
// moderate bucket counts.
template <typename Key>
std::vector<std::size_t> histogram(std::span<const Key> keys, std::size_t num_buckets) {
  std::vector<std::atomic<std::size_t>> counts(num_buckets);
  parallel_for(0, num_buckets,
               [&](std::size_t i) { counts[i].store(0, std::memory_order_relaxed); });
  parallel_for(0, keys.size(), [&](std::size_t i) {
    counts[static_cast<std::size_t>(keys[i])].fetch_add(1, std::memory_order_relaxed);
  });
  return tabulate(num_buckets, [&](std::size_t i) {
    return counts[i].load(std::memory_order_relaxed);
  });
}

// -- atomic helpers ---------------------------------------------------------

// write_min / write_max: lock-free priority update; returns true if the
// stored value changed.
template <typename T>
bool write_min(std::atomic<T>& target, T value) {
  T current = target.load(std::memory_order_relaxed);
  while (value < current) {
    if (target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

template <typename T>
bool write_max(std::atomic<T>& target, T value) {
  T current = target.load(std::memory_order_relaxed);
  while (current < value) {
    if (target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace pasgal
