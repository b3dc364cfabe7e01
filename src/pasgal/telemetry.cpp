#include "pasgal/telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_set>

// For the family whitelist (catalog.h) and kMaxBatchSources (batch schema
// validation). Both headers include this one, so the dependency may only run
// in this direction from the .cpp.
#include "algorithms/catalog.h"
#include "pasgal/options.h"

namespace pasgal {

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer() { reset(); }

void Tracer::reset() {
  slots_.assign(static_cast<std::size_t>(num_workers()), Slot{});
  frontier_sizes_.clear();
  round_trace_.clear();
  pending_kind_ = RoundKind::kSparse;
  pending_delta_ = -1.0;
  prev_edges_ = 0;
  prev_visits_ = 0;
  run_start_ = std::chrono::steady_clock::now();
  last_round_ = run_start_;
  sched_epoch_ = Scheduler::instance().counters();
  phases_.clear();
  open_phase_ = nullptr;
}

int Tracer::depth_bucket(std::uint64_t expanded) {
  if (expanded == 0) return 0;
  int b = std::bit_width(expanded);  // [2^(b-1), 2^b)
  return b < kDepthHistBuckets ? b : kDepthHistBuckets - 1;
}

void Tracer::sum_hot(std::uint64_t& edges, std::uint64_t& visits) const {
  edges = 0;
  visits = 0;
  for (const Slot& s : slots_) {
    edges += s.edges;
    visits += s.visits;
  }
}

void Tracer::end_round(std::uint64_t frontier_size) {
  end_round(frontier_size, pending_kind_);
}

void Tracer::end_round(std::uint64_t frontier_size, RoundKind kind) {
  std::uint64_t ce, cv;
  sum_hot(ce, cv);
  auto now = std::chrono::steady_clock::now();
  RoundTrace t;
  t.index = static_cast<std::uint64_t>(round_trace_.size());
  t.frontier = frontier_size;
  t.kind = kind;
  t.cum_edges = ce;
  t.cum_visits = cv;
  t.edges = ce - prev_edges_;
  t.visits = cv - prev_visits_;
  t.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_round_)
          .count());
  t.delta = pending_delta_;
  prev_edges_ = ce;
  prev_visits_ = cv;
  last_round_ = now;
  pending_kind_ = RoundKind::kSparse;
  pending_delta_ = -1.0;
  round_trace_.push_back(t);
  frontier_sizes_.push_back(frontier_size);
}

void Tracer::phase_begin(const char* name) {
  if (open_phase_) phase_end();  // non-reentrant: close the previous one
  open_phase_ = name;
  phase_start_ = std::chrono::steady_clock::now();
}

void Tracer::phase_end() {
  if (!open_phase_) return;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - phase_start_)
                .count();
  phases_.push_back({open_phase_, static_cast<std::uint64_t>(ns)});
  open_phase_ = nullptr;
}

std::uint64_t Tracer::edges_scanned() const {
  std::uint64_t e, v;
  sum_hot(e, v);
  return e;
}

std::uint64_t Tracer::vertices_visited() const {
  std::uint64_t e, v;
  sum_hot(e, v);
  return v;
}

std::uint64_t Tracer::max_frontier() const {
  std::uint64_t best = 0;
  for (std::uint64_t f : frontier_sizes_) best = std::max(best, f);
  return best;
}

RunTelemetry Tracer::aggregate() const {
  RunTelemetry out;
  sum_hot(out.edges_scanned, out.vertices_visited);
  out.max_frontier = max_frontier();
  out.rounds = round_trace_;
  for (const Slot& s : slots_) {
    for (int b = 0; b < kDepthHistBuckets; ++b) {
      out.vgc_depth_hist[static_cast<std::size_t>(b)] += s.depth_hist[b];
    }
    out.hashbag.inserts += s.bag_inserts;
    out.hashbag.block_advances += s.bag_advances;
    out.hashbag.extracts += s.bag_extracts;
    out.hashbag.peak_extract = std::max(out.hashbag.peak_extract, s.bag_peak);
  }
  // Scheduler deltas since reset(). The pool may have been rebuilt with a
  // different size in between (tests); diff the overlap and saturate.
  std::vector<WorkerCounters> now = Scheduler::instance().counters();
  out.scheduler.per_worker.resize(now.size());
  for (std::size_t i = 0; i < now.size(); ++i) {
    WorkerCounters base =
        i < sched_epoch_.size() ? sched_epoch_[i] : WorkerCounters{};
    auto sat = [](std::uint64_t a, std::uint64_t b) {
      return a > b ? a - b : 0;
    };
    out.scheduler.per_worker[i].steals = sat(now[i].steals, base.steals);
    out.scheduler.per_worker[i].tasks = sat(now[i].tasks, base.tasks);
    out.scheduler.per_worker[i].busy_ns = sat(now[i].busy_ns, base.busy_ns);
    out.scheduler.per_worker[i].idle_ns = sat(now[i].idle_ns, base.idle_ns);
  }
  out.phases = phases_;
  return out;
}

// --- JSON writer -------------------------------------------------------------

namespace json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- JSON parser (recursive descent) ---

namespace {

struct Parser {
  const char* p;
  const char* end;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  Status fail(const std::string& what) {
    return Status::Failure(ErrorCategory::kFormat,
                           "JSON parse error at byte offset " +
                               std::to_string(pos()) + ": " + what);
  }
  std::uint64_t pos() const { return static_cast<std::uint64_t>(p - start); }
  const char* start;

  Status parse_value(Value& out) {
    if (++depth > 64) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    Status s;
    switch (*p) {
      case '{': s = parse_object(out); break;
      case '[': s = parse_array(out); break;
      case '"':
        out.kind = Value::Kind::kString;
        s = parse_string(out.str);
        break;
      case 't':
      case 'f': s = parse_bool(out); break;
      case 'n': s = parse_null(out); break;
      default: s = parse_number(out);
    }
    --depth;
    return s;
  }

  Status parse_object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++p;  // '{'
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return Status::Ok();
    }
    for (;;) {
      skip_ws();
      if (p >= end || *p != '"') return fail("expected object key");
      std::string key;
      if (Status s = parse_string(key); !s.ok()) return s;
      skip_ws();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      Value v;
      if (Status s = parse_value(v); !s.ok()) return s;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return Status::Ok();
      }
      return fail("expected ',' or '}'");
    }
  }

  Status parse_array(Value& out) {
    out.kind = Value::Kind::kArray;
    ++p;  // '['
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return Status::Ok();
    }
    for (;;) {
      Value v;
      if (Status s = parse_value(v); !s.ok()) return s;
      out.array.push_back(std::move(v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return Status::Ok();
      }
      return fail("expected ',' or ']'");
    }
  }

  Status parse_string(std::string& out) {
    ++p;  // opening quote
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("unterminated escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (end - p < 5) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // The writer only emits \u for control characters; decode the
            // BMP code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            p += 4;
            break;
          }
          default: return fail("unknown escape");
        }
        ++p;
      } else if (static_cast<unsigned char>(*p) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return Status::Ok();
  }

  Status parse_bool(Value& out) {
    out.kind = Value::Kind::kBool;
    if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      out.boolean = true;
      p += 4;
      return Status::Ok();
    }
    if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      out.boolean = false;
      p += 5;
      return Status::Ok();
    }
    return fail("bad literal");
  }

  Status parse_null(Value& out) {
    out.kind = Value::Kind::kNull;
    if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
      p += 4;
      return Status::Ok();
    }
    return fail("bad literal");
  }

  Status parse_number(Value& out) {
    out.kind = Value::Kind::kNumber;
    char* num_end = nullptr;
    // strtod accepts a superset (hex, inf); restrict the first character to
    // JSON's grammar and re-check that something was consumed.
    if (*p != '-' && (*p < '0' || *p > '9')) return fail("unexpected token");
    out.number = std::strtod(p, &num_end);
    if (num_end == p || num_end > end) return fail("bad number");
    p = num_end;
    return Status::Ok();
  }
};

}  // namespace

Status parse(const std::string& text, Value& out) {
  Parser parser{text.data(), text.data() + text.size(), 0, text.data()};
  if (Status s = parser.parse_value(out); !s.ok()) return s;
  parser.skip_ws();
  if (parser.p != parser.end) return parser.fail("trailing garbage");
  return Status::Ok();
}

}  // namespace json

// --- serialization -----------------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  append_u64(out, v);
}

void append_worker(std::string& out, const WorkerCounters& w) {
  out += '{';
  append_kv(out, "steals", w.steals);
  out += ',';
  append_kv(out, "tasks", w.tasks);
  out += ',';
  append_kv(out, "busy_ns", w.busy_ns);
  out += ',';
  append_kv(out, "idle_ns", w.idle_ns);
  out += '}';
}

}  // namespace

std::string to_json(const RunTelemetry& t) {
  std::string out;
  out.reserve(512 + t.rounds.size() * 96);
  out += "{\"totals\":{";
  append_kv(out, "rounds", static_cast<std::uint64_t>(t.rounds.size()));
  out += ',';
  append_kv(out, "edges_scanned", t.edges_scanned);
  out += ',';
  append_kv(out, "vertices_visited", t.vertices_visited);
  out += ',';
  append_kv(out, "max_frontier", t.max_frontier);
  std::size_t serialized =
      std::min<std::size_t>(t.rounds.size(), kMaxSerializedRounds);
  out += "},\"rounds_omitted\":";
  append_u64(out, static_cast<std::uint64_t>(t.rounds.size() - serialized));
  out += ",\"rounds\":[";
  for (std::size_t i = 0; i < serialized; ++i) {
    const RoundTrace& r = t.rounds[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "index", r.index);
    out += ',';
    append_kv(out, "frontier", r.frontier);
    out += ",\"kind\":\"";
    out += round_kind_name(r.kind);
    out += "\",";
    append_kv(out, "edges", r.edges);
    out += ',';
    append_kv(out, "visits", r.visits);
    out += ',';
    append_kv(out, "cum_edges", r.cum_edges);
    out += ',';
    append_kv(out, "cum_visits", r.cum_visits);
    out += ',';
    append_kv(out, "wall_ns", r.wall_ns);
    if (r.delta >= 0) {
      out += ",\"delta\":";
      append_double(out, r.delta);
    }
    out += '}';
  }
  out += "],\"vgc_depth_hist\":[";
  for (int b = 0; b < kDepthHistBuckets; ++b) {
    if (b) out += ',';
    append_u64(out, t.vgc_depth_hist[static_cast<std::size_t>(b)]);
  }
  out += "],\"hashbag\":{";
  append_kv(out, "inserts", t.hashbag.inserts);
  out += ',';
  append_kv(out, "block_advances", t.hashbag.block_advances);
  out += ',';
  append_kv(out, "extracts", t.hashbag.extracts);
  out += ',';
  append_kv(out, "peak_extract", t.hashbag.peak_extract);
  out += "},\"scheduler\":{";
  append_kv(out, "workers",
            static_cast<std::uint64_t>(t.scheduler.per_worker.size()));
  out += ',';
  WorkerCounters total = t.scheduler.total();
  append_kv(out, "steals", total.steals);
  out += ',';
  append_kv(out, "tasks", total.tasks);
  out += ',';
  append_kv(out, "busy_ns", total.busy_ns);
  out += ',';
  append_kv(out, "idle_ns", total.idle_ns);
  out += ",\"per_worker\":[";
  for (std::size_t i = 0; i < t.scheduler.per_worker.size(); ++i) {
    if (i) out += ',';
    append_worker(out, t.scheduler.per_worker[i]);
  }
  out += "]},\"phases\":[";
  for (std::size_t i = 0; i < t.phases.size(); ++i) {
    if (i) out += ',';
    out += "{\"name\":\"";
    out += json::escape(t.phases[i].name);
    out += "\",";
    append_kv(out, "ns", t.phases[i].ns);
    out += '}';
  }
  out += "]}";
  return out;
}

// --- MetricsDoc --------------------------------------------------------------

MetricsDoc::MetricsDoc(std::string algo, std::string variant,
                       std::string graph_spec, std::uint64_t n, std::uint64_t m)
    : algo_(std::move(algo)),
      variant_(std::move(variant)),
      graph_spec_(std::move(graph_spec)),
      n_(n),
      m_(m),
      workers_(num_workers()) {}

void MetricsDoc::set_param(const std::string& name, std::uint64_t value) {
  std::string encoded;
  append_u64(encoded, value);
  params_.emplace_back(name, std::move(encoded));
}

void MetricsDoc::set_param(const std::string& name, double value) {
  std::string encoded;
  append_double(encoded, value);
  params_.emplace_back(name, std::move(encoded));
}

void MetricsDoc::set_param(const std::string& name, const std::string& value) {
  params_.emplace_back(name, "\"" + json::escape(value) + "\"");
}

void MetricsDoc::add_trial(double seconds, const RunTelemetry& telemetry) {
  trials_.push_back({seconds, telemetry});
}

void MetricsDoc::set_batch(const std::vector<std::uint32_t>& sources,
                           double batch_seconds) {
  std::string out = "{";
  append_kv(out, "size", static_cast<std::uint64_t>(sources.size()));
  out += ",\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i) out += ',';
    append_u64(out, sources[i]);
  }
  out += "],";
  out += "\"batch_seconds\":";
  append_double(out, batch_seconds);
  out += ",\"qps\":";
  append_double(out, batch_seconds > 0 && !sources.empty()
                         ? static_cast<double>(sources.size()) / batch_seconds
                         : 0.0);
  out += '}';
  batch_json_ = std::move(out);
}

void MetricsDoc::set_shard(std::uint64_t shards, std::uint64_t window_bytes,
                           std::uint64_t shard_sweeps,
                           std::uint64_t window_faults) {
  std::string out = "{";
  append_kv(out, "shards", shards);
  out += ',';
  append_kv(out, "window_bytes", window_bytes);
  out += ',';
  append_kv(out, "shard_sweeps", shard_sweeps);
  out += ',';
  append_kv(out, "window_faults", window_faults);
  out += '}';
  shard_json_ = std::move(out);
}

void MetricsDoc::set_delta(std::uint64_t inserts, std::uint64_t deletes,
                           std::uint64_t batches, std::uint64_t resettled,
                           std::uint64_t full_settled, bool fallback) {
  std::string out = "{";
  append_kv(out, "inserts", inserts);
  out += ',';
  append_kv(out, "deletes", deletes);
  out += ',';
  append_kv(out, "batches", batches);
  out += ',';
  append_kv(out, "resettled", resettled);
  out += ',';
  append_kv(out, "full_settled", full_settled);
  out += ',';
  append_kv(out, "fallback", static_cast<std::uint64_t>(fallback ? 1 : 0));
  out += '}';
  delta_json_ = std::move(out);
}

std::string MetricsDoc::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kMetricsSchema;
  out += "\",\"version\":";
  append_u64(out, static_cast<std::uint64_t>(kMetricsVersion));
  out += ",\"algo\":\"";
  out += json::escape(algo_);
  out += "\",\"variant\":\"";
  out += json::escape(variant_);
  out += "\",\"graph\":{\"spec\":\"";
  out += json::escape(graph_spec_);
  out += "\",";
  append_kv(out, "n", n_);
  out += ',';
  append_kv(out, "m", m_);
  out += "},";
  append_kv(out, "workers", static_cast<std::uint64_t>(workers_));
  out += ",\"params\":{";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json::escape(params_[i].first);
    out += "\":";
    out += params_[i].second;
  }
  out += '}';
  if (!batch_json_.empty()) {
    out += ",\"batch\":";
    out += batch_json_;
  }
  if (!shard_json_.empty()) {
    out += ",\"shard\":";
    out += shard_json_;
  }
  if (!delta_json_.empty()) {
    out += ",\"delta\":";
    out += delta_json_;
  }
  out += ",\"trials\":[";
  for (std::size_t i = 0; i < trials_.size(); ++i) {
    if (i) out += ',';
    out += "{\"seconds\":";
    append_double(out, trials_[i].seconds);
    out += ",\"telemetry\":";
    out += pasgal::to_json(trials_[i].telemetry);
    out += '}';
  }
  out += "]}\n";
  return out;
}

Status write_metrics_json(const std::string& path, const MetricsDoc& doc) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    return Status::Failure(ErrorCategory::kIo,
                           "cannot open metrics output for writing", path);
  }
  std::string text = doc.to_json();
  std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int close_err = std::fclose(f);
  if (written != text.size() || close_err != 0) {
    return Status::Failure(ErrorCategory::kIo, "short write", path);
  }
  return Status::Ok();
}

// --- schema validation -------------------------------------------------------

namespace {

Status schema_fail(const std::string& what) {
  return Status::Failure(ErrorCategory::kValidation,
                         "metrics schema: " + what);
}

const json::Value* require(const json::Value& obj, const char* key,
                           json::Value::Kind kind, Status& status,
                           const std::string& context) {
  if (!status.ok()) return nullptr;
  const json::Value* v = obj.find(key);
  if (!v) {
    status = schema_fail(context + ": missing key '" + key + "'");
    return nullptr;
  }
  if (v->kind != kind) {
    status = schema_fail(context + ": key '" + key + "' has wrong type");
    return nullptr;
  }
  return v;
}

// Algorithm families a metrics document may describe: the catalog's
// families plus the two graph tools. Unknown algo strings are schema errors:
// downstream bench tooling keys tables off this set, and a typo'd family
// silently dropping out of a report is worse than a failure.
bool known_algo(const std::string& algo) {
  return is_algo_family(algo) || algo == "graph_gen" ||
         algo == "graph_convert";
}

Status validate_trial(const json::Value& trial, std::size_t index,
                      const std::string& algo) {
  std::string ctx = "trials[" + std::to_string(index) + "]";
  Status st;
  const json::Value* seconds =
      require(trial, "seconds", json::Value::Kind::kNumber, st, ctx);
  if (seconds && seconds->number < 0) return schema_fail(ctx + ": negative seconds");
  const json::Value* telemetry =
      require(trial, "telemetry", json::Value::Kind::kObject, st, ctx);
  if (!st.ok()) return st;

  const json::Value* totals =
      require(*telemetry, "totals", json::Value::Kind::kObject, st, ctx);
  const json::Value* rounds =
      require(*telemetry, "rounds", json::Value::Kind::kArray, st, ctx);
  const json::Value* rounds_omitted = require(
      *telemetry, "rounds_omitted", json::Value::Kind::kNumber, st, ctx);
  require(*telemetry, "vgc_depth_hist", json::Value::Kind::kArray, st, ctx);
  const json::Value* hashbag =
      require(*telemetry, "hashbag", json::Value::Kind::kObject, st, ctx);
  const json::Value* scheduler =
      require(*telemetry, "scheduler", json::Value::Kind::kObject, st, ctx);
  require(*telemetry, "phases", json::Value::Kind::kArray, st, ctx);
  if (!st.ok()) return st;

  for (const char* key : {"rounds", "edges_scanned", "vertices_visited",
                          "max_frontier"}) {
    require(*totals, key, json::Value::Kind::kNumber, st, ctx + ".totals");
  }
  for (const char* key : {"inserts", "block_advances", "extracts",
                          "peak_extract"}) {
    require(*hashbag, key, json::Value::Kind::kNumber, st, ctx + ".hashbag");
  }
  const json::Value* workers = require(*scheduler, "workers",
                                       json::Value::Kind::kNumber, st,
                                       ctx + ".scheduler");
  for (const char* key : {"steals", "tasks", "busy_ns", "idle_ns"}) {
    require(*scheduler, key, json::Value::Kind::kNumber, st, ctx + ".scheduler");
  }
  const json::Value* per_worker =
      require(*scheduler, "per_worker", json::Value::Kind::kArray, st,
              ctx + ".scheduler");
  if (!st.ok()) return st;

  if (per_worker->array.size() != static_cast<std::size_t>(workers->number)) {
    return schema_fail(ctx + ": per_worker length != workers");
  }

  // Round-count consistency: totals.rounds must equal the trace length plus
  // whatever the serialization cap dropped (kMaxSerializedRounds).
  if (rounds_omitted->number < 0) {
    return schema_fail(ctx + ": negative rounds_omitted");
  }
  if (static_cast<std::size_t>(totals->find("rounds")->number) !=
      rounds->array.size() +
          static_cast<std::size_t>(rounds_omitted->number)) {
    return schema_fail(ctx +
                       ": totals.rounds != len(rounds) + rounds_omitted");
  }

  // Per-round required keys + monotone cumulative counters.
  double prev_cum_edges = -1, prev_cum_visits = -1;
  for (std::size_t i = 0; i < rounds->array.size(); ++i) {
    const json::Value& r = rounds->array[i];
    std::string rctx = ctx + ".rounds[" + std::to_string(i) + "]";
    if (!r.is_object()) return schema_fail(rctx + ": not an object");
    for (const char* key : {"index", "frontier", "edges", "visits",
                            "cum_edges", "cum_visits", "wall_ns"}) {
      require(r, key, json::Value::Kind::kNumber, st, rctx);
    }
    require(r, "kind", json::Value::Kind::kString, st, rctx);
    if (!st.ok()) return st;
    if (static_cast<std::size_t>(r.find("index")->number) != i) {
      return schema_fail(rctx + ": index mismatch");
    }
    double ce = r.find("cum_edges")->number;
    double cv = r.find("cum_visits")->number;
    if (ce < prev_cum_edges || cv < prev_cum_visits) {
      return schema_fail(rctx + ": cumulative counters not monotone");
    }
    prev_cum_edges = ce;
    prev_cum_visits = cv;
    const std::string& kind = r.find("kind")->str;
    if (kind != "sparse" && kind != "dense" && kind != "local") {
      return schema_fail(rctx + ": unknown round kind '" + kind + "'");
    }
    // Per-round convergence residuals are a PageRank-only shape: every
    // pagerank round carries one, no other family may emit one.
    const json::Value* delta = r.find("delta");
    if (algo == "pagerank") {
      if (delta == nullptr || !delta->is_number() || delta->number < 0) {
        return schema_fail(rctx +
                           ": pagerank rounds require a non-negative delta");
      }
    } else if (delta != nullptr) {
      return schema_fail(rctx + ": round delta is only valid for pagerank");
    }
  }
  // Cumulative counters never exceed the run totals.
  if (prev_cum_edges > totals->find("edges_scanned")->number ||
      prev_cum_visits > totals->find("vertices_visited")->number) {
    return schema_fail(ctx + ": cumulative counters exceed totals");
  }
  return Status::Ok();
}

}  // namespace

Status validate_metrics(const json::Value& doc) {
  if (!doc.is_object()) return schema_fail("document is not an object");
  Status st;
  const json::Value* schema =
      require(doc, "schema", json::Value::Kind::kString, st, "document");
  const json::Value* version =
      require(doc, "version", json::Value::Kind::kNumber, st, "document");
  const json::Value* algo =
      require(doc, "algo", json::Value::Kind::kString, st, "document");
  require(doc, "variant", json::Value::Kind::kString, st, "document");
  const json::Value* graph =
      require(doc, "graph", json::Value::Kind::kObject, st, "document");
  const json::Value* workers =
      require(doc, "workers", json::Value::Kind::kNumber, st, "document");
  const json::Value* params =
      require(doc, "params", json::Value::Kind::kObject, st, "document");
  const json::Value* trials =
      require(doc, "trials", json::Value::Kind::kArray, st, "document");
  if (!st.ok()) return st;

  if (schema->str != kMetricsSchema) {
    return schema_fail("unknown schema '" + schema->str + "'");
  }
  if (static_cast<int>(version->number) != kMetricsVersion) {
    return schema_fail("unsupported version " +
                       std::to_string(version->number));
  }
  if (!known_algo(algo->str)) {
    return schema_fail("unknown algo '" + algo->str + "'");
  }
  require(*graph, "spec", json::Value::Kind::kString, st, "graph");
  require(*graph, "n", json::Value::Kind::kNumber, st, "graph");
  require(*graph, "m", json::Value::Kind::kNumber, st, "graph");
  if (!st.ok()) return st;
  if (workers->number < 1) return schema_fail("workers < 1");

  // Load / registry / serving-mode counters are optional params, but when
  // present they must be well-formed non-negative numbers (drivers emit
  // them via record_load and ServeHarness::record in apps/common.h).
  for (const char* key :
       {"registry_hits", "registry_misses", "registry_bytes_mapped",
        "warm_load_bytes_mapped", "serve_opens", "peak_rss_cold_bytes",
        "load_bytes_mapped", "load_wall_ns", "peak_rss_bytes",
        "encoded_bytes", "compression_ratio", "decode_wall_ns"}) {
    if (const json::Value* v = params->find(key)) {
      if (!v->is_number() || v->number < 0) {
        return schema_fail("params." + std::string(key) +
                           " must be a non-negative number");
      }
    }
  }
  // Compression accounting travels as a trio: a compressed .pgr load emits
  // all three (encoded section size, raw/encoded ratio, decode wall time —
  // 0 on registry warm opens), an uncompressed load emits none.
  {
    const json::Value* enc = params->find("encoded_bytes");
    const json::Value* ratio = params->find("compression_ratio");
    const json::Value* dec = params->find("decode_wall_ns");
    if ((enc == nullptr) != (ratio == nullptr) ||
        (enc == nullptr) != (dec == nullptr)) {
      return schema_fail(
          "params.encoded_bytes / compression_ratio / decode_wall_ns travel "
          "together");
    }
  }
  const json::Value* reg_hits = params->find("registry_hits");
  const json::Value* reg_misses = params->find("registry_misses");
  if ((reg_hits == nullptr) != (reg_misses == nullptr)) {
    return schema_fail(
        "params.registry_hits and params.registry_misses travel together");
  }
  if (const json::Value* serve_opens = params->find("serve_opens")) {
    if (serve_opens->number < 1) return schema_fail("params.serve_opens < 1");
    // Every .pgr open counts exactly one hit or miss; non-.pgr opens count
    // neither — so hit + miss never exceeds the open count.
    if (reg_hits != nullptr &&
        reg_hits->number + reg_misses->number > serve_opens->number) {
      return schema_fail(
          "params: registry_hits + registry_misses > serve_opens");
    }
  }

  // Batched multi-source documents carry a top-level "batch" object; when
  // present it must be self-consistent (drivers emit it via set_batch).
  if (const json::Value* batch = doc.find("batch")) {
    if (!batch->is_object()) return schema_fail("batch is not an object");
    const json::Value* size =
        require(*batch, "size", json::Value::Kind::kNumber, st, "batch");
    const json::Value* sources =
        require(*batch, "sources", json::Value::Kind::kArray, st, "batch");
    const json::Value* batch_seconds = require(
        *batch, "batch_seconds", json::Value::Kind::kNumber, st, "batch");
    const json::Value* qps =
        require(*batch, "qps", json::Value::Kind::kNumber, st, "batch");
    if (!st.ok()) return st;
    if (size->number < 1 ||
        size->number > static_cast<double>(kMaxBatchSources)) {
      return schema_fail("batch.size out of range [1, " +
                         std::to_string(kMaxBatchSources) + "]");
    }
    if (sources->array.size() != static_cast<std::size_t>(size->number)) {
      return schema_fail("batch.sources length != batch.size");
    }
    std::unordered_set<std::uint64_t> dedup;
    for (const json::Value& s : sources->array) {
      if (!s.is_number() || s.number < 0) {
        return schema_fail("batch.sources entries must be non-negative "
                           "numbers");
      }
      if (!dedup.insert(static_cast<std::uint64_t>(s.number)).second) {
        return schema_fail("batch.sources contains duplicates");
      }
    }
    if (batch_seconds->number < 0) {
      return schema_fail("batch.batch_seconds negative");
    }
    if (qps->number < 0) return schema_fail("batch.qps negative");
  }

  // Sharded runs carry a top-level "shard" object (set_shard): the plan
  // (count + window budget) and the window activation counters.
  if (const json::Value* shard = doc.find("shard")) {
    if (!shard->is_object()) return schema_fail("shard is not an object");
    const json::Value* shards =
        require(*shard, "shards", json::Value::Kind::kNumber, st, "shard");
    const json::Value* window = require(*shard, "window_bytes",
                                        json::Value::Kind::kNumber, st,
                                        "shard");
    const json::Value* sweeps = require(*shard, "shard_sweeps",
                                        json::Value::Kind::kNumber, st,
                                        "shard");
    const json::Value* faults = require(*shard, "window_faults",
                                        json::Value::Kind::kNumber, st,
                                        "shard");
    if (!st.ok()) return st;
    if (shards->number < 1) return schema_fail("shard.shards < 1");
    if (window->number < 1) return schema_fail("shard.window_bytes < 1");
    if (sweeps->number < 0 || faults->number < 0) {
      return schema_fail("shard counters must be non-negative");
    }
    // A fault is a re-activation of a previously-visited shard; every fault
    // is also a sweep, so faults can never outnumber sweeps.
    if (faults->number > sweeps->number) {
      return schema_fail("shard.window_faults > shard.shard_sweeps");
    }
  }

  // Runs over an update overlay carry a top-level "delta" object
  // (set_delta): overlay size plus the incremental repair scope.
  if (const json::Value* delta = doc.find("delta")) {
    if (!delta->is_object()) return schema_fail("delta is not an object");
    const json::Value* inserts =
        require(*delta, "inserts", json::Value::Kind::kNumber, st, "delta");
    const json::Value* deletes =
        require(*delta, "deletes", json::Value::Kind::kNumber, st, "delta");
    const json::Value* batches =
        require(*delta, "batches", json::Value::Kind::kNumber, st, "delta");
    const json::Value* resettled =
        require(*delta, "resettled", json::Value::Kind::kNumber, st, "delta");
    const json::Value* full_settled = require(
        *delta, "full_settled", json::Value::Kind::kNumber, st, "delta");
    const json::Value* fallback =
        require(*delta, "fallback", json::Value::Kind::kNumber, st, "delta");
    if (!st.ok()) return st;
    if (inserts->number < 0 || deletes->number < 0 ||
        resettled->number < 0 || full_settled->number < 0) {
      return schema_fail("delta counters must be non-negative");
    }
    // An overlay exists only after at least one applied batch.
    if (batches->number < 1) return schema_fail("delta.batches < 1");
    if (fallback->number != 0 && fallback->number != 1) {
      return schema_fail("delta.fallback must be 0 or 1");
    }
    // The whole point of the incremental path: it never settles more than a
    // from-scratch recompute (equality = the churn fallback ran).
    if (resettled->number > full_settled->number) {
      return schema_fail("delta.resettled > delta.full_settled");
    }
  }

  // Family-specific result params: a tc document states its triangle count,
  // a pagerank document the iteration count it actually ran.
  if (algo->str == "tc") {
    const json::Value* triangles = params->find("triangles");
    if (triangles == nullptr || !triangles->is_number() ||
        triangles->number < 0) {
      return schema_fail(
          "params.triangles (non-negative) is required for algo 'tc'");
    }
  }
  if (algo->str == "pagerank") {
    const json::Value* iterations = params->find("iterations");
    if (iterations == nullptr || !iterations->is_number() ||
        iterations->number < 1) {
      return schema_fail(
          "params.iterations (>= 1) is required for algo 'pagerank'");
    }
  }

  for (std::size_t i = 0; i < trials->array.size(); ++i) {
    if (Status s = validate_trial(trials->array[i], i, algo->str); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

}  // namespace pasgal
