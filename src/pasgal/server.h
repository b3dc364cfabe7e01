// pasgal_serve: a long-lived graph-query daemon on a unix socket.
//
// The serving arc (ROADMAP "serving mode") so far made single runs cheap to
// repeat inside one process (GraphRegistry, --serve N). This is the missing
// piece: a process that stays up, owns the worker pool, and answers queries
// over a line-based protocol — which forces every robustness question the
// one-shot drivers could ignore. The answers, in one place:
//
//   * Admission control — an `open` is checked against a byte budget
//     (ServerOptions::admission_budget_bytes, defaulting to a fraction of
//     the pasgal/resource.h ceiling) BEFORE any mapping or decode happens.
//     Over budget → LRU eviction of unpinned graphs; still over → a typed
//     [resource] response. The daemon never learns about memory pressure
//     from the OOM killer.
//   * Deadlines — `deadline_ms=N` on a query arms a CancelToken checked at
//     round boundaries (pasgal/cancel.h). Expiry unwinds that one query
//     with a typed [timeout] response; the worker pool and every other
//     connection are untouched.
//   * Graceful degradation — malformed requests, corrupt files, over-budget
//     opens and expired deadlines produce one-line typed errors on the
//     connection that asked; a client that dies mid-response just loses its
//     connection. request_stop() (SIGTERM in the app) stops accepting,
//     lets in-flight requests finish, and run() returns cleanly.
//   * Fault injection — the pasgal/fault.h failpoints (mmap, decode, alloc,
//     sock_write) make each of those paths executable on demand.
//   * Sharded execution — with --shard-mb (ServerOptions::shard_window_bytes
//     or shard_auto) queries open their graph through a bounded mmap window
//     instead of a registry-resident mapping; admission prices the windowed
//     footprint and the metrics JSON gains a "shard" section.
//
// Protocol: newline-terminated requests, exactly one newline-terminated
// response per request.
//
//   open graph=<path.pgr> [pin]        -> ok opened ...        (admission)
//   <verb> graph=<p> [source=<v> | sources=<v0,v1,...>] [algo=<name>]
//        [deadline_ms=<n>]         -> pasgal.metrics v1 JSON (one line).
//                                         The verbs are the catalog families
//                                         with served rows (bfs, sssp, cc,
//                                         kcore, pagerank, tc; see
//                                         algorithms/catalog.h): algo= names
//                                         a served row, default the first.
//                                         source= (default 0) and sources=
//                                         apply to bfs/sssp only; a sources=
//                                         batch (max 64, duplicates a typed
//                                         [usage] error, @file lists
//                                         CLI-only) runs a batch row — bfs
//                                         ms, sssp rho|delta — and the
//                                         document gains a "batch" section.
//                                         cc/kcore/tc symmetrize in-core and
//                                         answer sharded opens with a typed
//                                         [usage] error; sssp em and pagerank
//                                         pasgal run shard-at-a-time.
//   update graph=<p> [add=<u:v,...>] [del=<u:v,...>] [deadline_ms=<n>]
//                                      -> ok updated ... applies one edge
//                                         batch to the resident graph's
//                                         delta overlay (graphs/delta.h).
//                                         Admission prices the overlay
//                                         growth; the graph is pinned so
//                                         LRU pressure cannot silently drop
//                                         pending updates. Sharded opens
//                                         and weighted graphs answer with a
//                                         typed [usage] error.
//   compact graph=<p> [deadline_ms=<n>]
//                                      -> ok compacted ... folds the overlay
//                                         into a rewritten .pgr (write to a
//                                         temp file, rename over the
//                                         original) and drops the stale
//                                         registry entry; the registry's
//                                         mtime/size keying makes the next
//                                         open map the new bytes.
//   stats                              -> ok entries=... resident_bytes=...
//   evict graph=<p>                    -> ok evicted ... (reports
//                                         dropped_updates=N when the entry
//                                         carried an uncompacted overlay)
//   shutdown                           -> ok draining   (then run() returns)
//   anything else                      -> error [usage] ...
//
// Error responses use the app drivers' stderr shape — "error [category]
// message" — so the same scripts can match both.
//
// Threading: one accept loop (the thread calling run()) plus one thread per
// connection. Anything that drives the work-stealing pool — queries, and
// opens that decode/validate in parallel — is serialized by an internal
// mutex: the scheduler maps every non-pool thread to worker slot 0, so
// exactly one external thread may drive parallel work at a time (the accept
// thread never does). Queries and opens therefore queue; stats and
// evictions proceed concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graphs/graph_io.h"

namespace pasgal {

struct AlgoSpec;

struct ServerOptions {
  // Filesystem path of the unix SOCK_STREAM socket. bind() unlinks a
  // pre-existing entry (stale sockets survive a crash; the path is the
  // caller's to own).
  std::string socket_path;

  // Admission budget for resident graph bytes. 0 means derive it:
  // admission_fraction * memory_limit_bytes(). Tests set it directly —
  // the resource.h ceiling is resolved once per process and cannot vary
  // between test cases.
  std::uint64_t admission_budget_bytes = 0;
  double admission_fraction = 0.5;

  // Deadline applied to queries that don't pass deadline_ms=. 0 = none.
  std::uint64_t default_deadline_ms = 0;

  // Shard-at-a-time query execution (--shard-mb). A non-zero window makes
  // every query open its graph sharded through a bounded mmap window of this
  // many bytes — such opens bypass the registry (each query owns its window)
  // and admission prices the windowed footprint, not the file. shard_auto
  // instead shards only graphs whose in-core footprint cannot fit the
  // admission budget even after LRU eviction, using a budget/4 window.
  std::uint64_t shard_window_bytes = 0;
  bool shard_auto = false;

  // Poll tick for the accept and connection loops: the latency bound on
  // noticing request_stop() while idle.
  int poll_tick_ms = 100;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Creates, binds and listens on the socket (typed kIo Error on failure).
  // Separate from run() so callers can report readiness before blocking.
  void bind();

  // Serves until request_stop(): accepts connections, spawns one handler
  // thread each, and on stop drains — no new accepts, in-flight requests
  // finish, connection threads join — then removes the socket and returns.
  // Call bind() first.
  void run();

  // Stop trigger, callable from any thread and from a signal handler (one
  // write(2) to a self-pipe; async-signal-safe). Idempotent.
  void request_stop();

  // The effective admission budget in bytes (resolved from the options).
  std::uint64_t admission_budget() const;

  // Lifetime request counters (responses sent, error responses among them,
  // connections dropped mid-write). For tests and the stats response.
  std::uint64_t requests_ok() const;
  std::uint64_t requests_error() const;
  std::uint64_t connections_dropped() const;

 private:
  // One newline-terminated response line for one request line. Never throws:
  // every failure is rendered as an "error [category] ..." line.
  std::string handle_request(const std::string& line);

  std::string do_open(const std::string& path, bool pin);
  // Every catalog verb (bfs/sssp/cc/kcore/pagerank/tc): opens `path`,
  // prepares the row's input (transpose, symmetrize, weights), runs it with
  // the deadline armed, and returns one metrics document. `source` is set
  // for single-source verbs; a non-empty `sources` is a batch and the
  // document gains a "batch" section.
  std::string do_run(const AlgoSpec& row, const std::string& path,
                     std::optional<std::uint64_t> source,
                     const std::vector<std::uint32_t>& sources,
                     std::uint64_t deadline_ms);
  // Applies one insert/delete batch to `path`'s resident mapping as a delta
  // overlay, pricing the overlay growth against the admission budget and
  // pinning the entry (pending updates must not be LRU-evicted).
  std::string do_update(const std::string& path, const std::string& add_spec,
                        const std::string& del_spec, std::uint64_t deadline_ms);
  // Folds `path`'s overlay into a rewritten .pgr (temp file + rename) and
  // evicts the stale entry so the registry's rewrite detection maps the new
  // bytes on the next open.
  std::string do_compact(const std::string& path, std::uint64_t deadline_ms);
  std::string do_stats();
  std::string do_evict(const std::string& path);

  // Admission check for a .pgr not currently resident; throws kResource
  // when the budget cannot be met even after LRU eviction. Returns the
  // shard spec this open must use: empty for in-core, a concrete window
  // when the server shards (fixed shard_window_bytes, or the shard_auto
  // fallback for graphs that cannot fit in-core).
  PgrShardSpec admit(const std::string& path);

  // Ensures `path` is open and retained (auto-open for queries) when the
  // effective spec is in-core; sharded specs are returned for the query to
  // open its own window (nothing registry-resident to retain).
  PgrShardSpec ensure_open(const std::string& path);

  void accept_loop();
  void handle_connection(int fd);
  // False when the client is gone (write failed / injected sock_write
  // fault): the caller closes the connection.
  bool send_line(int fd, const std::string& line);

  ServerOptions opts_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  // Serializes algorithm execution (see the threading note above).
  std::mutex exec_mu_;

  std::mutex conn_mu_;
  std::vector<std::thread> connections_;

  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> connections_dropped_{0};
};

}  // namespace pasgal
