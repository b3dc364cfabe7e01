// Graph::symmetrize(): the undirected view, built by merging each vertex's
// out-list with its in-list from the memoized transpose.
//
// Row v of the view is the sorted, deduplicated union of v's effective
// out-list and v's effective in-list, with v itself dropped. Both lists are
// already sorted (CSR rows are sorted by every in-process builder and
// writer; the transpose is sorted by construction), so the view is built in
// two linear passes — count each row, scan the offsets, fill the targets —
// instead of sorting a 2m edge array. On an overlaid graph both sides are
// read through Adjacency views: the out side with the snapshot, the in side
// with its flipped half over the transpose's base, so no materialized copy
// of the effective graph is needed.
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graphs/delta.h"
#include "graphs/graph.h"
#include "parlay/parallel.h"
#include "parlay/primitives.h"

namespace pasgal {

namespace {

// Sorted, deduplicated union of two non-decreasing lists with `self`
// dropped; emit(x) receives each output target in ascending order.
template <typename Emit>
void merge_row(std::span<const VertexId> a, std::span<const VertexId> b,
               VertexId self, Emit&& emit) {
  std::int64_t last = -1;
  auto put = [&](VertexId x) {
    if (x != last && x != self) {
      last = x;
      emit(x);
    }
  };
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) put(a[i] <= b[j] ? a[i++] : b[j++]);
  while (i < a.size()) put(a[i++]);
  while (j < b.size()) put(b[j++]);
}

}  // namespace

Graph Graph::symmetrize() const {
  ensure_in_core("symmetrization");
  ensure_validated();  // the merge indexes rows by target
  if (storage_ != nullptr) {
    if (StorageRef cached = storage_->symmetric_cache()) {
      return Graph(std::move(cached));
    }
  }

  // In-lists from the memoized transpose. An embedded transpose section is
  // untrusted until checked; one that is not sorted is rebuilt.
  Graph in = transpose();
  in.ensure_validated();
  if (!in.adjacency_sorted()) in = transpose_uncached();
  // Out-lists must be sorted too. The overlay already requires that
  // (apply_updates checks it), so only a plain file from an external
  // converter takes the detour: the transpose of the transpose is this
  // graph with every row sorted.
  Graph out = adjacency_sorted() ? *this : in.transpose_uncached();
  // Both sides read one overlay version: the out view's snapshot, and its
  // flipped half over the transpose's base. The view is keyed to it below.
  Adjacency out_adj = out.adjacency();
  const std::shared_ptr<const DeltaSnapshot>& d = out_adj.overlay();
  Adjacency in_adj(in, d != nullptr ? d->flipped() : nullptr);

  auto row = [&](VertexId v, auto&& emit) {
    std::vector<VertexId> out_buf, in_buf;
    merge_row(out_adj.row(v, out_buf), in_adj.row(v, in_buf), v, emit);
  };
  std::size_t n = num_vertices();
  std::vector<EdgeId> offsets(n + 1);
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId deg = 0;
    row(static_cast<VertexId>(v), [&](VertexId) { ++deg; });
    offsets[v] = deg;
  });
  offsets[n] = scan_inplace(std::span<EdgeId>(offsets.data(), n));
  std::vector<VertexId> targets(offsets[n]);
  parallel_for(0, n, [&](std::size_t v) {
    EdgeId pos = offsets[v];
    row(static_cast<VertexId>(v), [&](VertexId x) { targets[pos++] = x; });
  });

  Graph s(std::move(offsets), std::move(targets));
  if (storage_ == nullptr) return s;
  return Graph(storage_->set_symmetric_cache(s.storage_, d));
}

}  // namespace pasgal
