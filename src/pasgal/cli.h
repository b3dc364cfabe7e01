// Command-line plumbing shared by every driver (apps/ and tools): checked
// integer parsing, `kind:field:field` spec splitting, raw flag iteration,
// and — on top of those — typed option declarations (`OptionSet`) so a flag
// like `--json-metrics` is declared once, with its range and help text, and
// reused by all five drivers instead of being re-parsed ad hoc in each.
//
// Lives in the library (not apps/) so tests and bench/ use the same parsing
// and get the same usage errors; everything throws typed pasgal::Error
// (kUsage), which run_app() maps to exit code 2.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pasgal/error.h"

namespace pasgal::cli {

// --- checked integer parsing -------------------------------------------------

// Full-string strtoll with errno/endptr checks: "abc", "12abc", "" and
// out-of-range values are all errors (the old parser silently mapped them
// to 0, so `grid:abc:10` ran a degenerate grid instead of failing).
long long parse_int(const std::string& text, const std::string& what,
                    long long min_value, long long max_value,
                    ErrorCategory category);

// Value of a command-line flag (usage errors, exit code 2).
long long parse_flag_int(const std::string& flag, const char* value,
                         long long min_value, long long max_value);

// --- batch source lists ------------------------------------------------------

// Parses a `--sources` / `sources=` value into a vertex list: either an
// inline comma-separated list ("0,17,42") or, when `allow_file` is set, a
// `@file` reference whose contents are whitespace- or comma-separated vertex
// ids. Malformed entries, an empty list, duplicates, and more than
// kMaxBatchSources entries are typed kUsage errors (an unreadable @file is
// kIo). Vertices are range-checked against the graph later, by
// check_batch_sources — this layer does not know n. The server passes
// allow_file=false: a remote peer must not name paths on the serving host.
std::vector<std::uint32_t> parse_sources(const std::string& text,
                                         bool allow_file = true);

// --- generator spec parsing --------------------------------------------------

// A colon-separated `kind:field:field...` spec (graph generator specs, bench
// suite entries).
struct Spec {
  std::string text;
  std::string kind;
  std::vector<std::string> fields;  // fields after the kind

  // i is 1-based field position within the spec (kind is field 0).
  long long required(std::size_t i, const char* what, long long min_value,
                     long long max_value) const;
  long long optional(std::size_t i, const char* what, long long min_value,
                     long long max_value, long long fallback) const;
  void expect_at_most(std::size_t count) const;
};

Spec split_spec(const std::string& spec);

// --- raw flag iteration ------------------------------------------------------

// `-x value` pairs plus boolean switches (--validate). Unknown flags and
// missing values are usage errors — previously they were silently ignored,
// so `bfs g.adj -z 5` ran with defaults.
class FlagParser {
 public:
  FlagParser(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), i_(first) {}

  bool next() {
    if (i_ >= argc_) return false;
    flag_ = argv_[i_];
    ++i_;
    return true;
  }

  const std::string& flag() const { return flag_; }

  const char* value() {
    if (i_ >= argc_) {
      throw Error(ErrorCategory::kUsage, "flag " + flag_ + " expects a value");
    }
    return argv_[i_++];
  }

  [[noreturn]] void unknown() const {
    throw Error(ErrorCategory::kUsage, "unknown flag '" + flag_ + "'");
  }

 private:
  int argc_;
  char** argv_;
  int i_;
  std::string flag_;
};

// --- typed option declarations -----------------------------------------------

// Declarative flag set: each driver binds its variables once, then parse()
// walks argv applying values (with range checks) or rejecting unknown flags.
// usage() renders the one-line summary for the driver's usage message.
class OptionSet {
 public:
  // Boolean switch: `--validate`.
  OptionSet& flag(std::string name, bool* target, std::string value_name = "");

  // Integer-valued flag with range check; T is any integral type. The
  // optional `seen` out-flag records that the flag was given explicitly,
  // for drivers that must distinguish a default from a user choice (sssp
  // rejects -w combined with a weighted input file).
  template <typename T>
  OptionSet& integer(std::string name, T* target, long long min_value,
                     long long max_value, std::string value_name,
                     bool* seen = nullptr) {
    return add_integer(
        std::move(name), min_value, max_value, std::move(value_name),
        [target, seen](long long v) {
          *target = static_cast<T>(v);
          if (seen != nullptr) *seen = true;
        });
  }

  // Real-valued flag with range check: `--epsilon 1e-9`. Full-string strtod
  // parsing — "abc", "1.0x" and NaN are usage errors, like parse_int above.
  OptionSet& real(std::string name, double* target, double min_value,
                  double max_value, std::string value_name);

  // Free-form string flag: `--json-metrics <path>`.
  OptionSet& text(std::string name, std::string* target,
                  std::string value_name);

  // String flag restricted to a closed set: `-a pasgal|gbbs|...`. The check
  // runs at parse time, so drivers no longer validate the variant by hand.
  // `seen` works as for integer(): set when the flag was given explicitly
  // (batch mode must distinguish a default algorithm from a user choice).
  OptionSet& choice(std::string name, std::string* target,
                    std::vector<std::string> allowed, bool* seen = nullptr);

  // Applies flags argv[first..). Throws kUsage on unknown flags, missing or
  // out-of-range values, and disallowed choice values.
  void parse(int argc, char** argv, int first) const;

  // "[-s source] [-a pasgal|gbbs] [--validate]" — for usage lines.
  std::string usage() const;

 private:
  struct Option {
    std::string name;
    bool takes_value;
    std::string value_name;  // rendered in usage(); empty for switches
    std::function<void(const std::string& flag, const char* value)> apply;
  };

  OptionSet& add_integer(std::string name, long long min_value,
                         long long max_value, std::string value_name,
                         std::function<void(long long)> set);

  std::vector<Option> options_;
};

// Flags every driver shares, declared in one place. A driver opens its
// input once and runs it `repeats` times; `json_metrics`, when non-empty,
// is where it writes its versioned metrics document (telemetry.h). Many
// queries over one open are the daemon's job (pasgal/server.h).
struct CommonOptions {
  bool validate = false;
  long long repeats = 3;
  std::string json_metrics;
  // How `.pgr` inputs are materialized: "mmap" (zero-copy spans into the
  // file) or "copy" (heap-backed, full validation). Ignored for other
  // formats, which always copy.
  std::string load_mode = "mmap";
  // Shard-at-a-time execution for `.pgr` inputs: a window size in MiB, or
  // "auto" (shard only when the in-core footprint exceeds the memory
  // ceiling). Empty = in-core. Parsed into a PgrShardSpec by apps/common.h.
  std::string shard_mb;
  // Memory-ceiling override in MiB (same knob as PASGAL_MEM_LIMIT_MB; both
  // set at once is a kUsage conflict). 0 = no override.
  long long mem_limit_mb = 0;

  void declare(OptionSet& opts);
};

}  // namespace pasgal::cli
