// Parallel CSR invariant validation (declared in graphs/graph.h).
//
// Every algorithm in the library does unchecked offsets[v] / targets[e]
// indexing, so a graph that gets past this check can be traversed without
// bounds checks. Reported context is the *first* violating index, which for
// file-loaded graphs names the corrupt record directly.
#include <atomic>

#include "graphs/graph.h"

namespace pasgal {

constexpr std::uint64_t kNone = static_cast<std::uint64_t>(-1);

Status validate_offsets(std::span<const EdgeId> offsets, std::uint64_t m) {
  if (offsets.empty()) {
    if (m == 0) return Status::Ok();  // default-constructed Graph
    return Status::Failure(ErrorCategory::kValidation,
                           "empty offset array but " + std::to_string(m) +
                               " targets");
  }
  std::size_t n = offsets.size() - 1;
  if (n > static_cast<std::size_t>(kInvalidVertex)) {
    return Status::Failure(ErrorCategory::kValidation,
                           "vertex count " + std::to_string(n) +
                               " exceeds the 32-bit vertex-id space");
  }
  if (offsets[0] != 0) {
    return Status::Failure(ErrorCategory::kValidation,
                           "offsets[0] = " + std::to_string(offsets[0]) +
                               ", expected 0");
  }
  if (offsets[n] != m) {
    return Status::Failure(ErrorCategory::kValidation,
                           "offsets[n] = " + std::to_string(offsets[n]) +
                               " does not equal the edge count " +
                               std::to_string(m));
  }
  std::atomic<std::uint64_t> first_bad{kNone};
  parallel_for(0, n, [&](std::size_t v) {
    if (offsets[v] > offsets[v + 1]) {
      write_min(first_bad, static_cast<std::uint64_t>(v));
    }
  });
  if (std::uint64_t v = first_bad.load(std::memory_order_relaxed); v != kNone) {
    return Status::Failure(
        ErrorCategory::kValidation,
        "offsets are not monotone: offsets[" + std::to_string(v) + "] = " +
            std::to_string(offsets[v]) + " > offsets[" + std::to_string(v + 1) +
            "] = " + std::to_string(offsets[v + 1]));
  }
  return Status::Ok();
}

Status validate_targets(std::span<const VertexId> targets, std::uint64_t n,
                        std::uint64_t e_base) {
  std::atomic<std::uint64_t> first_bad{kNone};
  parallel_for(0, targets.size(), [&](std::size_t i) {
    if (targets[i] >= n) write_min(first_bad, static_cast<std::uint64_t>(i));
  });
  if (std::uint64_t i = first_bad.load(std::memory_order_relaxed); i != kNone) {
    return Status::Failure(
        ErrorCategory::kValidation,
        "edge " + std::to_string(e_base + i) + " targets vertex " +
            std::to_string(targets[i]) + " but the graph has only " +
            std::to_string(n) + " vertices");
  }
  return Status::Ok();
}

Status validate_csr(std::span<const EdgeId> offsets,
                    std::span<const VertexId> targets) {
  Status s = validate_offsets(offsets, targets.size());
  if (!s.ok() || offsets.empty()) return s;
  return validate_targets(targets, offsets.size() - 1);
}

}  // namespace pasgal
