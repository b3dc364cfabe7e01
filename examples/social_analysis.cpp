// Social-network analytics: the low-diameter workload class.
//
//   $ ./examples/social_analysis [log2_users]
//
// On a power-law follower graph: degrees of separation from the most
// followed user (BFS with direction optimization), mutual-follow communities
// (SCC of the follow graph), and audience reach of a sample of users.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "algorithms/bfs/bfs.h"
#include "algorithms/scc/scc.h"
#include "graphs/generators.h"

using namespace pasgal;

int main(int argc, char** argv) {
  int log2_users = argc > 1 ? std::atoi(argv[1]) : 17;
  Graph follows = gen::rmat(log2_users, std::size_t{14} << log2_users, 99);
  Graph followers = follows.transpose();
  std::printf("network: %zu users, %zu follow edges\n", follows.num_vertices(),
              follows.num_edges());

  // Most-followed user = max in-degree.
  VertexId celebrity = 0;
  for (VertexId v = 0; v < follows.num_vertices(); ++v) {
    if (followers.out_degree(v) > followers.out_degree(celebrity)) celebrity = v;
  }
  std::printf("most followed user: %u (%llu followers)\n", celebrity,
              (unsigned long long)followers.out_degree(celebrity));

  // Degrees of separation along follower edges (who hears the celebrity).
  Tracer bfs_stats;
  auto hops = pasgal_bfs(follows, followers,
                         {.source = celebrity, .tracer = &bfs_stats})
                  .output;
  std::map<std::uint32_t, std::size_t> histogram;
  std::size_t unreachable = 0;
  for (auto h : hops) {
    if (h == kInfDist) {
      ++unreachable;
    } else {
      ++histogram[h];
    }
  }
  std::printf("degrees of separation from %u (%llu BFS rounds):\n", celebrity,
              (unsigned long long)bfs_stats.rounds());
  for (auto [h, count] : histogram) {
    std::printf("  %2u hops: %9zu users\n", h, count);
  }
  std::printf("  never reached: %zu users\n", unreachable);

  // Mutual-follow communities: SCCs of the follow graph.
  auto scc = normalize_scc_labels(pasgal_scc(follows, followers, {}).output);
  std::map<VertexId, std::size_t> scc_size;
  for (auto label : scc) ++scc_size[label];
  std::size_t giant = 0, nontrivial = 0;
  for (auto [label, size] : scc_size) {
    giant = std::max(giant, size);
    if (size > 1) ++nontrivial;
  }
  std::printf("mutual-follow communities: %zu of size >1; the giant one has "
              "%zu users (%.1f%% of the network)\n",
              nontrivial, giant,
              100.0 * double(giant) / double(follows.num_vertices()));
  return 0;
}
