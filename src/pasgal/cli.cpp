#include "pasgal/cli.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "pasgal/options.h"
#include "pasgal/resource.h"

namespace pasgal::cli {

long long parse_int(const std::string& text, const std::string& what,
                    long long min_value, long long max_value,
                    ErrorCategory category) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) {
    throw Error(category, what + ": '" + text + "' is not an integer");
  }
  if (errno == ERANGE || value < min_value || value > max_value) {
    throw Error(category, what + ": " + text + " is out of range [" +
                              std::to_string(min_value) + ", " +
                              std::to_string(max_value) + "]");
  }
  return value;
}

long long parse_flag_int(const std::string& flag, const char* value,
                         long long min_value, long long max_value) {
  return parse_int(value, "flag " + flag, min_value, max_value,
                   ErrorCategory::kUsage);
}

std::vector<std::uint32_t> parse_sources(const std::string& text,
                                         bool allow_file) {
  std::string list = text;
  bool from_file = false;
  if (!text.empty() && text[0] == '@') {
    from_file = true;
    if (!allow_file) {
      throw Error(ErrorCategory::kUsage,
                  "sources: @file references are not accepted here");
    }
    std::string path = text.substr(1);
    std::ifstream in(path);
    if (!in) {
      throw Error(ErrorCategory::kIo, "cannot open sources file", path);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      throw Error(ErrorCategory::kIo, "read failure on sources file", path);
    }
    list = buf.str();
    // Files separate ids with whitespace or commas; normalize to the inline
    // comma form so one tokenizer below serves both.
    for (char& c : list) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = ',';
    }
  }

  // kInvalidVertex (2^32 - 1) is the library's sentinel (hash-bag empty
  // slots, unfilled edge_map packs), so the largest usable id is 2^32 - 2.
  constexpr long long kMaxVertex = 0xFFFFFFFELL;
  std::vector<std::uint32_t> sources;
  std::unordered_set<std::uint32_t> dedup;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string token = list.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) {
      // Whitespace normalization leaves blank runs in file input; an inline
      // list with a blank entry ("0,,5" or a trailing comma) is malformed.
      if (from_file) continue;
      throw Error(ErrorCategory::kUsage, "sources: empty entry in '" + text +
                                             "' (expected v0,v1,...)");
    }
    long long v = parse_int(token, "sources entry", 0, kMaxVertex,
                            ErrorCategory::kUsage);
    auto id = static_cast<std::uint32_t>(v);
    if (!dedup.insert(id).second) {
      throw Error(ErrorCategory::kUsage,
                  "sources: duplicate vertex " + token);
    }
    sources.push_back(id);
    if (sources.size() > kMaxBatchSources) {
      throw Error(ErrorCategory::kUsage,
                  "sources: more than " + std::to_string(kMaxBatchSources) +
                      " entries (one source per bit of the batch mask)");
    }
  }
  if (sources.empty()) {
    throw Error(ErrorCategory::kUsage, "sources: empty list");
  }
  return sources;
}

long long Spec::required(std::size_t i, const char* what, long long min_value,
                         long long max_value) const {
  if (fields.size() < i || fields[i - 1].empty()) {
    throw Error(ErrorCategory::kUsage,
                "spec '" + text + "': missing field <" + what + ">");
  }
  return parse_int(fields[i - 1],
                   "spec '" + text + "' field <" + std::string(what) + ">",
                   min_value, max_value, ErrorCategory::kUsage);
}

long long Spec::optional(std::size_t i, const char* what, long long min_value,
                         long long max_value, long long fallback) const {
  if (fields.size() < i) return fallback;
  return parse_int(fields[i - 1],
                   "spec '" + text + "' field <" + std::string(what) + ">",
                   min_value, max_value, ErrorCategory::kUsage);
}

void Spec::expect_at_most(std::size_t count) const {
  if (fields.size() > count) {
    throw Error(ErrorCategory::kUsage, "spec '" + text +
                                           "': unexpected extra field '" +
                                           fields[count] + "'");
  }
}

Spec split_spec(const std::string& spec) {
  Spec out;
  out.text = spec;
  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) colon = spec.size();
    std::string part = spec.substr(start, colon - start);
    if (first) {
      out.kind = std::move(part);
      first = false;
    } else {
      out.fields.push_back(std::move(part));
    }
    start = colon + 1;
  }
  return out;
}

OptionSet& OptionSet::flag(std::string name, bool* target,
                           std::string value_name) {
  options_.push_back({std::move(name), false, std::move(value_name),
                      [target](const std::string&, const char*) {
                        *target = true;
                      }});
  return *this;
}

OptionSet& OptionSet::add_integer(std::string name, long long min_value,
                                  long long max_value, std::string value_name,
                                  std::function<void(long long)> set) {
  options_.push_back(
      {std::move(name), true, std::move(value_name),
       [min_value, max_value, set = std::move(set)](const std::string& flag,
                                                    const char* value) {
         set(parse_flag_int(flag, value, min_value, max_value));
       }});
  return *this;
}

OptionSet& OptionSet::real(std::string name, double* target, double min_value,
                           double max_value, std::string value_name) {
  options_.push_back(
      {std::move(name), true, std::move(value_name),
       [target, min_value, max_value](const std::string& flag,
                                      const char* value) {
         errno = 0;
         char* end = nullptr;
         double v = std::strtod(value, &end);
         if (*value == '\0' || end == value || *end != '\0') {
           throw Error(ErrorCategory::kUsage, "flag " + flag + ": '" + value +
                                                  "' is not a number");
         }
         // NaN compares false against any range; != catches it too.
         if (errno == ERANGE || !(v >= min_value) || !(v <= max_value)) {
           throw Error(ErrorCategory::kUsage,
                       "flag " + flag + ": " + value + " is out of range");
         }
         *target = v;
       }});
  return *this;
}

OptionSet& OptionSet::text(std::string name, std::string* target,
                           std::string value_name) {
  options_.push_back({std::move(name), true, std::move(value_name),
                      [target](const std::string&, const char* value) {
                        *target = value;
                      }});
  return *this;
}

OptionSet& OptionSet::choice(std::string name, std::string* target,
                             std::vector<std::string> allowed, bool* seen) {
  std::string rendered;
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    if (i) rendered += '|';
    rendered += allowed[i];
  }
  options_.push_back(
      {std::move(name), true, rendered,
       [target, seen, allowed = std::move(allowed), rendered](
           const std::string& flag, const char* value) {
         for (const std::string& a : allowed) {
           if (a == value) {
             *target = value;
             if (seen != nullptr) *seen = true;
             return;
           }
         }
         throw Error(ErrorCategory::kUsage,
                     "flag " + flag + ": unknown value '" + value +
                         "' (expected " + rendered + ")");
       }});
  return *this;
}

void OptionSet::parse(int argc, char** argv, int first) const {
  FlagParser flags(argc, argv, first);
  while (flags.next()) {
    const Option* match = nullptr;
    for (const Option& o : options_) {
      if (o.name == flags.flag()) {
        match = &o;
        break;
      }
    }
    if (match == nullptr) flags.unknown();
    match->apply(flags.flag(), match->takes_value ? flags.value() : nullptr);
  }
}

std::string OptionSet::usage() const {
  std::string out;
  for (const Option& o : options_) {
    if (!out.empty()) out += ' ';
    out += '[';
    out += o.name;
    if (o.takes_value) {
      out += ' ';
      // Choices render their literal alternatives; plain values get <name>.
      if (o.value_name.find('|') != std::string::npos) {
        out += o.value_name;
      } else {
        out += '<' + o.value_name + '>';
      }
    }
    out += ']';
  }
  return out;
}

void CommonOptions::declare(OptionSet& opts) {
  opts.integer("-r", &repeats, 1, 1000000, "repeats");
  opts.flag("--validate", &validate);
  opts.text("--json-metrics", &json_metrics, "path");
  opts.choice("--load", &load_mode, {"mmap", "copy"});
  opts.text("--shard-mb", &shard_mb, "mb|auto");
  opts.integer("--mem-limit-mb", &mem_limit_mb, 1,
               static_cast<long long>(internal::kMaxMemLimitMb), "mb");
}

}  // namespace pasgal::cli
