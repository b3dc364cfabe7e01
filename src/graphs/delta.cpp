#include "graphs/delta.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "parlay/parallel.h"
#include "parlay/primitives.h"

namespace pasgal {

namespace {

// --- snapshot construction helpers -------------------------------------------

std::uint64_t vec_bytes(const std::vector<EdgeId>& a,
                        const std::vector<VertexId>& b) {
  return a.size() * sizeof(EdgeId) + b.size() * sizeof(VertexId);
}

// Reverse one patch side: per-source sorted lists become per-target sorted
// lists. Scattering sources in ascending order leaves every reversed list
// sorted without a per-list sort. A non-empty per-entry `val` (delete copy
// counts) travels with its entry into `fval`.
void flip_side(std::size_t n, const std::vector<EdgeId>& off,
               const std::vector<VertexId>& tgt, std::vector<EdgeId>& foff,
               std::vector<VertexId>& ftgt,
               const std::vector<EdgeId>& val = {},
               std::vector<EdgeId>* fval = nullptr) {
  foff.assign(n + 1, 0);
  for (VertexId t : tgt) ++foff[t + 1];
  for (std::size_t v = 0; v < n; ++v) foff[v + 1] += foff[v];
  ftgt.resize(tgt.size());
  if (!val.empty()) fval->resize(val.size());
  std::vector<EdgeId> cursor(foff.begin(), foff.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (EdgeId e = off[v]; e < off[v + 1]; ++e) {
      EdgeId slot = cursor[tgt[e]]++;
      ftgt[slot] = static_cast<VertexId>(v);
      if (!val.empty()) (*fval)[slot] = val[e];
    }
  }
}

void sorted_insert(std::vector<VertexId>& v, VertexId x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

bool sorted_erase(std::vector<VertexId>& v, VertexId x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

bool sorted_contains(std::span<const VertexId> v, VertexId x) {
  return std::binary_search(v.begin(), v.end(), x);
}

ApplyStats stats_from(const std::shared_ptr<const DeltaSnapshot>& snap,
                      std::uint64_t batch_ins, std::uint64_t batch_del) {
  ApplyStats st;
  st.batch_inserts = batch_ins;
  st.batch_deletes = batch_del;
  if (snap != nullptr) {
    st.inserts = snap->insert_count();
    st.deletes = snap->delete_count();
    st.batches = snap->batches();
    st.overlay_bytes = snap->resident_bytes();
  }
  return st;
}

}  // namespace

std::shared_ptr<const DeltaSnapshot> DeltaSnapshot::build(
    std::size_t n, std::vector<EdgeId> ins_offsets,
    std::vector<VertexId> ins_targets, std::vector<EdgeId> del_offsets,
    std::vector<VertexId> del_targets, std::uint64_t batches,
    std::vector<EdgeId> del_copies) {
  // (u,t) has as many base copies as (t,u) has in the transpose, so each
  // flipped delete keeps its forward entry's count.
  auto flipped = std::shared_ptr<DeltaSnapshot>(new DeltaSnapshot());
  flip_side(n, ins_offsets, ins_targets, flipped->ins_offsets_,
            flipped->ins_targets_);
  flip_side(n, del_offsets, del_targets, flipped->del_offsets_,
            flipped->del_targets_, del_copies, &flipped->del_copies_);
  flipped->batches_ = batches;

  auto snap = std::shared_ptr<DeltaSnapshot>(new DeltaSnapshot());
  snap->ins_offsets_ = std::move(ins_offsets);
  snap->ins_targets_ = std::move(ins_targets);
  snap->del_offsets_ = std::move(del_offsets);
  snap->del_targets_ = std::move(del_targets);
  snap->del_copies_ = std::move(del_copies);
  snap->batches_ = batches;
  snap->flipped_ = std::move(flipped);
  return snap;
}

std::uint64_t DeltaSnapshot::resident_bytes() const {
  std::uint64_t bytes = vec_bytes(ins_offsets_, ins_targets_) +
                        vec_bytes(del_offsets_, del_targets_) +
                        del_copies_.size() * sizeof(EdgeId);
  if (flipped_ != nullptr) bytes += flipped_->resident_bytes();
  return bytes;
}

ApplyStats apply_updates(const Graph& g, std::span<const EdgeUpdate> batch) {
  if (g.storage() == nullptr) {
    throw Error(ErrorCategory::kUsage,
                "graph updates need a storage-backed graph");
  }
  if (!g.storage()->weights().empty()) {
    throw Error(ErrorCategory::kUsage,
                "graph updates are unweighted; weighted graphs must be "
                "rebuilt instead",
                g.storage()->source_path());
  }
  g.ensure_in_core("graph updates");
  g.ensure_validated();
  // The overlay merge (Adjacency) and the membership checks below rely on
  // sorted base adjacency lists. All pasgal builders and writers sort
  // per-vertex lists, but an externally produced `.pgr` (converted from an
  // unsorted `.bin`) may not be.
  if (!g.adjacency_sorted()) {
    throw Error(ErrorCategory::kValidation,
                "graph updates require per-vertex sorted adjacency lists; "
                "rebuild the graph with graph_convert first",
                g.storage()->source_path());
  }

  std::size_t n = g.num_vertices();
  std::shared_ptr<const DeltaSnapshot> old = g.storage()->delta_snapshot();

  // Per-vertex working state, initialized lazily from the old snapshot.
  // Persistent-structure apply: `old` is never mutated, in-flight traversals
  // keep their snapshot until the new one is published below.
  struct Patch {
    std::vector<VertexId> ins;
    std::vector<VertexId> del;
  };
  std::map<VertexId, Patch> touched;
  auto state_of = [&](VertexId u) -> Patch& {
    auto [it, fresh] = touched.try_emplace(u);
    if (fresh && old != nullptr) {
      std::span<const VertexId> oi = old->inserts(u);
      std::span<const VertexId> od = old->deletes(u);
      it->second.ins.assign(oi.begin(), oi.end());
      it->second.del.assign(od.begin(), od.end());
    }
    return it->second;
  };

  std::uint64_t batch_ins = 0, batch_del = 0;
  for (const EdgeUpdate& up : batch) {
    if (up.from >= n || up.to >= n) {
      throw Error(ErrorCategory::kValidation,
                  "update edge " + std::to_string(up.from) + "->" +
                      std::to_string(up.to) + " is out of range for n=" +
                      std::to_string(n),
                  g.storage()->source_path());
    }
    Patch& p = state_of(up.from);
    bool base_present = sorted_contains(g.neighbors(up.from), up.to);
    bool in_ins = sorted_contains(p.ins, up.to);
    bool in_del = sorted_contains(p.del, up.to);
    bool present = in_ins || (base_present && !in_del);
    if (up.op == EdgeUpdate::Op::kInsert) {
      if (present) {
        throw Error(ErrorCategory::kValidation,
                    "insert of edge " + std::to_string(up.from) + "->" +
                        std::to_string(up.to) + " which is already present",
                    g.storage()->source_path());
      }
      if (in_del) {
        sorted_erase(p.del, up.to);  // re-insert of a deleted base edge
      } else {
        sorted_insert(p.ins, up.to);
      }
      ++batch_ins;
    } else {
      if (!present) {
        throw Error(ErrorCategory::kValidation,
                    "delete of edge " + std::to_string(up.from) + "->" +
                        std::to_string(up.to) + " which is not present",
                    g.storage()->source_path());
      }
      if (in_ins) {
        sorted_erase(p.ins, up.to);  // delete of an overlay insert cancels it
      } else {
        sorted_insert(p.del, up.to);
      }
      ++batch_del;
    }
  }

  // Fold into flat (n+1)-offset arrays: touched vertices take their working
  // lists, the rest copy straight from the old snapshot. Each delete entry
  // also counts the base copies of its target it suppresses; the counts are
  // kept only once some entry suppresses more than one (a multigraph base).
  std::vector<EdgeId> ins_off(n + 1, 0), del_off(n + 1, 0);
  std::vector<VertexId> ins_tgt, del_tgt;
  std::vector<EdgeId> del_copies;
  bool multi = false;
  auto it = touched.cbegin();
  for (std::size_t v = 0; v < n; ++v) {
    const Patch* p = nullptr;
    if (it != touched.cend() && it->first == v) {
      p = &it->second;
      ++it;
    }
    if (p != nullptr) {
      ins_tgt.insert(ins_tgt.end(), p->ins.begin(), p->ins.end());
      del_tgt.insert(del_tgt.end(), p->del.begin(), p->del.end());
    } else if (old != nullptr) {
      std::span<const VertexId> oi = old->inserts(static_cast<VertexId>(v));
      std::span<const VertexId> od = old->deletes(static_cast<VertexId>(v));
      ins_tgt.insert(ins_tgt.end(), oi.begin(), oi.end());
      del_tgt.insert(del_tgt.end(), od.begin(), od.end());
    }
    for (std::size_t e = del_off[v]; e < del_tgt.size(); ++e) {
      std::span<const VertexId> nb = g.neighbors(static_cast<VertexId>(v));
      auto [lo, hi] = std::equal_range(nb.begin(), nb.end(), del_tgt[e]);
      EdgeId copies = static_cast<EdgeId>(hi - lo);
      if (copies != 1 && !multi) {
        del_copies.assign(e, 1);  // the entries so far each suppress one
        multi = true;
      }
      if (multi) del_copies.push_back(copies);
    }
    ins_off[v + 1] = ins_tgt.size();
    del_off[v + 1] = del_tgt.size();
  }

  std::shared_ptr<const DeltaSnapshot> next = DeltaSnapshot::build(
      n, std::move(ins_off), std::move(ins_tgt), std::move(del_off),
      std::move(del_tgt), (old != nullptr ? old->batches() : 0) + 1,
      std::move(del_copies));
  g.storage()->set_delta(next);
  return stats_from(next, batch_ins, batch_del);
}

Graph materialize_effective(const Graph& g) {
  if (!g.has_delta()) return g;
  g.ensure_in_core("update-overlay materialization");
  g.ensure_validated();
  Adjacency adj = g.adjacency();
  std::size_t n = g.num_vertices();
  std::vector<EdgeId> offsets(n + 1);
  offsets[n] = scan_indexed<EdgeId>(
      n, [&](std::size_t v) { return adj.degree(static_cast<VertexId>(v)); },
      [&](std::size_t v, EdgeId x) { offsets[v] = x; });
  std::vector<VertexId> targets(offsets[n]);
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId out = offsets[v];
    adj.scan(static_cast<VertexId>(v),
             [&](VertexId t) { targets[out++] = t; });
  });
  return Graph(std::move(offsets), std::move(targets));
}

ApplyStats replay_update_log(const Graph& g, const std::string& path) {
  std::vector<std::vector<EdgeUpdate>> batches = read_update_log(path);
  ApplyStats st = stats_from(
      g.storage() != nullptr ? g.storage()->delta_snapshot() : nullptr, 0, 0);
  for (const std::vector<EdgeUpdate>& batch : batches) {
    ApplyStats one = apply_updates(g, batch);
    one.batch_inserts += st.batch_inserts;
    one.batch_deletes += st.batch_deletes;
    st = one;
  }
  return st;
}

ApplyStats GraphDelta::apply(std::span<const EdgeUpdate> batch) {
  ApplyStats st = apply_updates(base_, batch);
  if (!log_path_.empty()) append_update_batch(log_path_, batch);
  return st;
}

// --- append-only update log (`.plog`) ---------------------------------------

namespace {

constexpr unsigned char kPlogMagic[8] = {'P', 'G', 'R', 'D', 'L', 'O', 'G', 0};
constexpr std::uint32_t kBatchMagic = 0x43544142u;  // "BATC" little-endian
constexpr std::size_t kPlogHeaderBytes = 16;
constexpr std::size_t kFrameHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 12;

void put_u32(std::vector<unsigned char>& out, std::uint32_t x) {
  unsigned char b[4];
  std::memcpy(b, &x, 4);
  out.insert(out.end(), b, b + 4);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t x) {
  unsigned char b[8];
  std::memcpy(b, &x, 8);
  out.insert(out.end(), b, b + 8);
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t x;
  std::memcpy(&x, p, 4);
  return x;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return x;
}

std::vector<unsigned char> header_bytes() {
  std::vector<unsigned char> out(kPlogMagic, kPlogMagic + 8);
  put_u32(out, kPlogVersion);
  put_u32(out, 0);  // reserved
  return out;
}

std::vector<unsigned char> frame_bytes(std::span<const EdgeUpdate> batch) {
  std::vector<unsigned char> payload;
  payload.reserve(batch.size() * kRecordBytes);
  for (const EdgeUpdate& up : batch) {
    put_u32(payload, static_cast<std::uint32_t>(up.op));
    put_u32(payload, up.from);
    put_u32(payload, up.to);
  }
  std::vector<unsigned char> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kBatchMagic);
  put_u32(out, static_cast<std::uint32_t>(batch.size()));
  put_u64(out, hash_bytes(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void write_all(std::FILE* f, const std::vector<unsigned char>& bytes,
               const std::string& path) {
  if (!bytes.empty() && std::fwrite(bytes.data(), 1, bytes.size(), f) !=
                            bytes.size()) {
    std::fclose(f);
    throw Error(ErrorCategory::kIo, "short write to update log", path);
  }
}

}  // namespace

void write_update_log(const std::string& path,
                      std::span<const std::vector<EdgeUpdate>> batches) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error(ErrorCategory::kIo,
                "cannot create update log: " + std::string(std::strerror(errno)),
                path);
  }
  write_all(f, header_bytes(), path);
  for (const std::vector<EdgeUpdate>& b : batches) {
    write_all(f, frame_bytes(b), path);
  }
  if (std::fclose(f) != 0) {
    throw Error(ErrorCategory::kIo, "close failed on update log", path);
  }
}

void append_update_batch(const std::string& path,
                         std::span<const EdgeUpdate> batch) {
  struct stat st;
  bool fresh = ::stat(path.c_str(), &st) != 0 || st.st_size == 0;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw Error(ErrorCategory::kIo,
                "cannot open update log for append: " +
                    std::string(std::strerror(errno)),
                path);
  }
  // Header and frame go out as one buffered stream flushed at close; a crash
  // tears at most the trailing frame, which replay treats as absent.
  if (fresh) write_all(f, header_bytes(), path);
  write_all(f, frame_bytes(batch), path);
  if (std::fclose(f) != 0) {
    throw Error(ErrorCategory::kIo, "close failed on update log", path);
  }
}

std::vector<std::vector<EdgeUpdate>> read_update_log(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorCategory::kIo,
                "cannot open update log: " + std::string(std::strerror(errno)),
                path);
  }
  std::vector<unsigned char> bytes;
  unsigned char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    throw Error(ErrorCategory::kIo, "read failed on update log", path);
  }

  std::vector<std::vector<EdgeUpdate>> batches;
  if (bytes.empty()) return batches;  // created but never written: empty log
  if (bytes.size() < kPlogHeaderBytes ||
      std::memcmp(bytes.data(), kPlogMagic, 8) != 0) {
    throw Error(ErrorCategory::kFormat, "not a .plog update log", path);
  }
  std::uint32_t version = get_u32(bytes.data() + 8);
  if (version != kPlogVersion) {
    throw Error(ErrorCategory::kFormat,
                "unsupported update log version " + std::to_string(version),
                path, 8);
  }
  std::size_t pos = kPlogHeaderBytes;
  while (pos < bytes.size()) {
    // A torn trailing append (incomplete frame header or payload) is the
    // normal crash residue of the append-only contract: replay the
    // consistent prefix. Corruption *inside* a complete frame is not.
    if (bytes.size() - pos < kFrameHeaderBytes) break;
    if (get_u32(bytes.data() + pos) != kBatchMagic) {
      throw Error(ErrorCategory::kFormat, "bad update batch magic", path, pos);
    }
    std::uint32_t count = get_u32(bytes.data() + pos + 4);
    std::uint64_t want_hash = get_u64(bytes.data() + pos + 8);
    std::size_t payload_len = static_cast<std::size_t>(count) * kRecordBytes;
    if (bytes.size() - pos - kFrameHeaderBytes < payload_len) break;
    const unsigned char* payload = bytes.data() + pos + kFrameHeaderBytes;
    if (hash_bytes(payload, payload_len) != want_hash) {
      throw Error(ErrorCategory::kFormat, "update batch checksum mismatch",
                  path, pos);
    }
    std::vector<EdgeUpdate> batch(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const unsigned char* rec = payload + i * kRecordBytes;
      std::uint32_t op = get_u32(rec);
      if (op > 1) {
        throw Error(ErrorCategory::kFormat,
                    "unknown update op " + std::to_string(op), path,
                    pos + kFrameHeaderBytes + i * kRecordBytes);
      }
      batch[i] = EdgeUpdate{static_cast<EdgeUpdate::Op>(op), get_u32(rec + 4),
                            get_u32(rec + 8)};
    }
    batches.push_back(std::move(batch));
    pos += kFrameHeaderBytes + payload_len;
  }
  return batches;
}

}  // namespace pasgal
