#include "graphs/registry.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace pasgal {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t GraphRegistry::Entry::resident_bytes(
    const StorageRef& live) const {
  return live != nullptr ? bytes + live->derived_heap_bytes() : bytes;
}

GraphRegistry& GraphRegistry::instance() {
  static GraphRegistry registry;
  return registry;
}

bool GraphRegistry::file_key(const std::string& path, FileKey& out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  out.dev = static_cast<std::uint64_t>(st.st_dev);
  out.ino = static_cast<std::uint64_t>(st.st_ino);
  out.size = static_cast<std::uint64_t>(st.st_size);
  out.mtime_ns =
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
      static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
  return true;
}

std::shared_ptr<GraphRegistry::Entry> GraphRegistry::find_entry(
    const std::string& path) {
  FileKey key;
  if (!file_key(path, key)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : it->second;
}

StorageRef GraphRegistry::open_shared(
    const std::string& path, const std::function<StorageRef()>& opener) {
  FileKey key;
  if (!file_key(path, key)) return opener();

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Entry>& slot = table_[key];
    if (slot == nullptr) {
      slot = std::make_shared<Entry>();
      slot->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    }
    entry = slot;
  }

  bool was_miss = false;
  StorageRef out;
  {
    std::lock_guard<std::mutex> open_lock(entry->mu);
    if (StorageRef live = entry->storage.lock()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      entry->last_use_ns = now_ns();
      out = std::move(live);
    } else {
      StorageRef fresh = opener();  // throws propagate; nothing is cached
      misses_.fetch_add(1, std::memory_order_relaxed);
      bytes_mapped_.fetch_add(fresh->bytes_mapped(),
                              std::memory_order_relaxed);
      entry->storage = fresh;
      // Accounted at what the handle keeps resident, not just the mapping:
      // a compressed open's decoded heap buffer is real memory the
      // admission/eviction math must see.
      entry->bytes = fresh->resident_bytes();
      entry->path = path;
      entry->last_use_ns = now_ns();
      was_miss = true;
      out = std::move(fresh);
    }
  }
  // Miss-path tombstone sweep, after the entry lock is released:
  // evict_expired() takes the table lock and then every entry lock, so
  // calling it while still holding this entry's lock would self-deadlock.
  // The entry just opened is live and survives the sweep.
  if (was_miss) evict_expired();
  return out;
}

bool GraphRegistry::pin(const std::string& path) {
  std::shared_ptr<Entry> entry = find_entry(path);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  StorageRef live = entry->storage.lock();
  if (live == nullptr) return false;
  entry->strong = std::move(live);
  entry->pinned = true;
  entry->last_use_ns = now_ns();
  return true;
}

bool GraphRegistry::retain(const std::string& path) {
  std::shared_ptr<Entry> entry = find_entry(path);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  StorageRef live = entry->storage.lock();
  if (live == nullptr) return false;
  entry->strong = std::move(live);
  // A pin is a stronger promise than a retain; keep it.
  entry->last_use_ns = now_ns();
  return true;
}

bool GraphRegistry::unpin(const std::string& path) {
  std::shared_ptr<Entry> entry = find_entry(path);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->strong = nullptr;
  entry->pinned = false;
  return true;
}

bool GraphRegistry::evict(const std::string& path) {
  FileKey key;
  if (!file_key(path, key)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  table_.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t GraphRegistry::evict_expired() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    Entry& e = *it->second;
    bool dead;
    {
      std::lock_guard<std::mutex> entry_lock(e.mu);
      dead = e.strong == nullptr && e.storage.expired();
    }
    if (dead) {
      it = table_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::uint64_t GraphRegistry::evict_lru(std::uint64_t bytes_needed) {
  std::lock_guard<std::mutex> lock(mu_);

  // Collect evictable candidates: retained (strong, unpinned) entries.
  struct Candidate {
    FileKey key;
    std::uint64_t last_use_ns;
    std::uint64_t seq;
    std::uint64_t bytes;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, entry] : table_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->strong != nullptr && !entry->pinned) {
      candidates.push_back({key, entry->last_use_ns, entry->seq,
                            entry->resident_bytes(entry->strong)});
    }
  }
  // Equal timestamps happen (entries touched within one steady_clock tick);
  // the insertion sequence breaks the tie deterministically, oldest first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.last_use_ns != b.last_use_ns) {
                return a.last_use_ns < b.last_use_ns;
              }
              return a.seq < b.seq;
            });

  std::uint64_t released = 0;
  for (const Candidate& c : candidates) {
    if (released >= bytes_needed) break;
    auto it = table_.find(c.key);
    if (it == table_.end()) continue;
    {
      // Re-check under the entry lock: a racing pin() wins.
      std::lock_guard<std::mutex> entry_lock(it->second->mu);
      if (it->second->strong == nullptr || it->second->pinned) continue;
      it->second->strong = nullptr;
    }
    table_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    released += c.bytes;
  }
  return released;
}

void GraphRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  table_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  bytes_mapped_.store(0, std::memory_order_relaxed);
  next_seq_.store(0, std::memory_order_relaxed);
}

bool GraphRegistry::set_last_use_for_testing(const std::string& path,
                                             std::uint64_t ns) {
  std::shared_ptr<Entry> entry = find_entry(path);
  if (entry == nullptr) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  entry->last_use_ns = ns;
  return true;
}

GraphRegistry::Stats GraphRegistry::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.bytes_mapped = bytes_mapped_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  out.entries = table_.size();
  for (const auto& [key, entry] : table_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    StorageRef live = entry->storage.lock();
    std::uint64_t bytes = entry->resident_bytes(live);
    if (live != nullptr) out.resident_bytes += bytes;
    if (entry->strong != nullptr) {
      if (entry->pinned) {
        ++out.pinned_entries;
        out.pinned_bytes += bytes;
      } else {
        ++out.retained_entries;
        if (out.lru_last_use_ns == 0 ||
            entry->last_use_ns < out.lru_last_use_ns) {
          out.lru_last_use_ns = entry->last_use_ns;
        }
      }
    }
  }
  return out;
}

std::vector<GraphRegistry::EntryInfo> GraphRegistry::entry_stats() const {
  std::vector<EntryInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(table_.size());
  for (const auto& [key, entry] : table_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    StorageRef live = entry->storage.lock();
    EntryInfo info;
    info.path = entry->path;
    info.bytes = entry->resident_bytes(live);
    info.last_use_ns = entry->last_use_ns;
    info.pinned = entry->strong != nullptr && entry->pinned;
    info.retained = entry->strong != nullptr && !entry->pinned;
    info.live = live != nullptr;
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace pasgal
