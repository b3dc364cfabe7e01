#include "pasgal/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <utility>

#include "algorithms/catalog.h"
#include "graphs/delta.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "pasgal/cancel.h"
#include "pasgal/cli.h"
#include "pasgal/error.h"
#include "pasgal/fault.h"
#include "pasgal/resource.h"
#include "pasgal/telemetry.h"

namespace pasgal {

namespace {

// A request line longer than this without a newline is a protocol violation
// (and a trivial memory-exhaustion vector), not a request.
constexpr std::size_t kMaxRequestLine = 16 * 1024;

bool ends_with_pgr(const std::string& s) {
  return s.size() > 4 && s.compare(s.size() - 4, 4, ".pgr") == 0;
}

// Responses are one line by contract; embedded newlines (e.g. in an error
// message quoting input) would desynchronize the protocol.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  while (!s.empty() && s.back() == ' ') s.pop_back();
  s.push_back('\n');
  return s;
}

struct Request {
  std::string cmd;
  std::map<std::string, std::string> kv;
  std::set<std::string> flags;
};

Request parse_request(const std::string& line) {
  Request req;
  std::size_t i = 0;
  auto next_token = [&]() -> std::string {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    return line.substr(start, i - start);
  };
  req.cmd = next_token();
  for (;;) {
    std::string tok = next_token();
    if (tok.empty()) break;
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      req.flags.insert(tok);
    } else if (eq == 0 || eq + 1 == tok.size()) {
      throw Error(ErrorCategory::kUsage,
                  "malformed token '" + tok + "' (expected key=value)");
    } else {
      req.kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return req;
}

// Strict option vocabulary: an unknown key is a typo the client should hear
// about, not a silently ignored knob.
void check_vocabulary(const Request& req, const std::set<std::string>& keys,
                      const std::set<std::string>& flags) {
  for (const auto& [k, v] : req.kv) {
    if (keys.count(k) == 0) {
      throw Error(ErrorCategory::kUsage,
                  req.cmd + ": unknown option '" + k + "='");
    }
  }
  for (const std::string& f : req.flags) {
    if (flags.count(f) == 0) {
      throw Error(ErrorCategory::kUsage,
                  req.cmd + ": unknown flag '" + f + "'");
    }
  }
}

std::string require_graph(const Request& req) {
  auto it = req.kv.find("graph");
  if (it == req.kv.end()) {
    throw Error(ErrorCategory::kUsage, req.cmd + ": missing graph=<path>");
  }
  if (!ends_with_pgr(it->second)) {
    throw Error(ErrorCategory::kUsage,
                req.cmd + ": '" + it->second +
                    "' is not a .pgr file (the server serves mmap-able .pgr "
                    "graphs only)");
  }
  return it->second;
}

std::uint64_t kv_int(const Request& req, const char* key,
                     std::uint64_t fallback, long long max_value) {
  auto it = req.kv.find(key);
  if (it == req.kv.end()) return fallback;
  return static_cast<std::uint64_t>(
      cli::parse_int(it->second, key, 0, max_value, ErrorCategory::kUsage));
}

// Windowed resident footprint for admission: offsets stay resident, the
// window bounds the targets payload, a compressed open adds its reusable
// decode buffer (at most one window's worth of edges), and transpose
// sections pay their own offsets + window. Mirrors the pricing the sharded
// open itself applies (GraphStorage::check_windowed_footprint).
std::uint64_t windowed_need(const PgrInfo& info, std::uint64_t window) {
  std::uint64_t per = (info.n + 1) * sizeof(std::uint64_t) + window;
  std::uint64_t need = per + (info.compressed ? window : 0);
  if (info.has_transpose) need += per;
  return need;
}

// A verb's default row: its first served catalog row; nullptr when the
// daemon serves no `verb`.
const AlgoSpec* served_default(const std::string& verb) {
  for (const AlgoSpec& row : algo_catalog()) {
    if (row.served && row.family == verb) return &row;
  }
  return nullptr;
}

// The served `verb` row named `algo` (the first one when null) among the rows
// that run one source, or a sources= batch. Unknown names get a typed usage
// error listing the candidates in table order.
const AlgoSpec& served_algo(const std::string& verb, const std::string* algo,
                            bool batch) {
  const AlgoSpec* pick = nullptr;
  std::string names;
  for (const AlgoSpec& row : algo_catalog()) {
    if (!row.served || row.family != verb) continue;
    if (batch ? !row.takes_batch() : row.sources == AlgoSources::kBatch) {
      continue;
    }
    if (pick == nullptr && (algo == nullptr || *algo == row.name)) pick = &row;
    names += (names.empty() ? "" : "|") + std::string(row.name);
  }
  if (pick != nullptr) return *pick;
  if (batch && verb == "bfs") {
    // bfs batches only through its dedicated bit-parallel kernel.
    throw Error(ErrorCategory::kUsage,
                "bfs: algo '" + *algo +
                    "' has no batch mode (sources= runs the bit-parallel " +
                    names + " kernel)");
  }
  throw Error(ErrorCategory::kUsage, verb + ": unknown algo '" + *algo +
                                         "' (expected " + names + ")");
}

// update's add=/del= values: comma-separated from:to pairs, each vertex a
// decimal id. Malformed pairs are typed usage errors naming the offender.
void parse_edge_pairs(const std::string& spec, EdgeUpdate::Op op,
                      std::vector<EdgeUpdate>& out) {
  std::size_t i = 0;
  while (i < spec.size()) {
    std::size_t comma = spec.find(',', i);
    if (comma == std::string::npos) comma = spec.size();
    std::string pair = spec.substr(i, comma - i);
    i = comma + 1;
    std::size_t colon = pair.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == pair.size()) {
      throw Error(ErrorCategory::kUsage,
                  "update: malformed edge '" + pair +
                      "' (expected <from>:<to>)");
    }
    EdgeUpdate u;
    u.op = op;
    u.from = static_cast<VertexId>(
        cli::parse_int(pair.substr(0, colon), "update edge endpoint", 0,
                       (1LL << 32) - 1, ErrorCategory::kUsage));
    u.to = static_cast<VertexId>(
        cli::parse_int(pair.substr(colon + 1), "update edge endpoint", 0,
                       (1LL << 32) - 1, ErrorCategory::kUsage));
    out.push_back(u);
  }
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

std::uint64_t Server::admission_budget() const {
  if (opts_.admission_budget_bytes != 0) return opts_.admission_budget_bytes;
  return static_cast<std::uint64_t>(
      static_cast<double>(memory_limit_bytes()) * kAdmissionFraction);
}

std::uint64_t Server::requests_ok() const {
  return requests_ok_.load(std::memory_order_relaxed);
}
std::uint64_t Server::requests_error() const {
  return requests_error_.load(std::memory_order_relaxed);
}
std::uint64_t Server::connections_dropped() const {
  return connections_dropped_.load(std::memory_order_relaxed);
}

void Server::bind() {
  if (opts_.socket_path.empty()) {
    throw Error(ErrorCategory::kUsage, "server: empty socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error(ErrorCategory::kUsage,
                "server: socket path exceeds " +
                    std::to_string(sizeof(addr.sun_path) - 1) + " bytes",
                opts_.socket_path);
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw Error(ErrorCategory::kIo,
                std::string("socket: ") + std::strerror(errno),
                opts_.socket_path);
  }
  ::unlink(opts_.socket_path.c_str());  // stale socket from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw Error(ErrorCategory::kIo,
                std::string("bind: ") + std::strerror(errno),
                opts_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw Error(ErrorCategory::kIo,
                std::string("listen: ") + std::strerror(errno),
                opts_.socket_path);
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw Error(ErrorCategory::kIo,
                std::string("pipe2: ") + std::strerror(errno));
  }
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    char byte = 's';
    // Best-effort, async-signal-safe; a full pipe already woke everyone.
    [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::run() {
  if (listen_fd_ < 0) {
    throw Error(ErrorCategory::kUsage, "server: run() before bind()");
  }
  accept_loop();
  // Drain: no new accepts; every connection thread notices the stop pipe,
  // finishes its in-flight request, and exits.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opts_.socket_path.c_str());
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    int rc = ::poll(pfd, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;  // poll on our own fds failing is unrecoverable; drain
    }
    if (rc == 0 || (pfd[0].revents & POLLIN) == 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;  // client vanished between poll and accept
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  std::string buf;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    // Serve every complete line already buffered.
    std::size_t nl;
    while (alive && (nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      alive = send_line(fd, handle_request(line));
    }
    if (!alive || stopping_.load(std::memory_order_acquire)) break;
    if (buf.size() > kMaxRequestLine) {
      requests_error_.fetch_add(1, std::memory_order_relaxed);
      send_line(fd, one_line("error [usage] request line exceeds " +
                             std::to_string(kMaxRequestLine) + " bytes"));
      break;
    }
    pollfd pfd[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    int rc = ::poll(pfd, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfd[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) break;  // client closed (or died)
      buf.append(chunk, static_cast<std::size_t>(got));
    }
  }
  ::close(fd);
}

bool Server::send_line(int fd, const std::string& line) {
  if (fault::should_fail("sock_write")) {
    // Simulated dead client: same handling as a real EPIPE below.
    connections_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::size_t sent = 0;
  while (sent < line.size()) {
    // MSG_NOSIGNAL: a dead client must surface as EPIPE here, not as a
    // process-killing SIGPIPE.
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// --- request handling --------------------------------------------------------

std::string Server::handle_request(const std::string& line) {
  try {
    Request req = parse_request(line);
    std::string out;
    if (req.cmd == "open") {
      check_vocabulary(req, {"graph"}, {"pin"});
      out = do_open(require_graph(req), req.flags.count("pin") != 0);
    } else if (const AlgoSpec* first = served_default(req.cmd)) {
      // Single-source families (bfs, sssp) also take source=/sources=.
      bool sourced = first->sources != AlgoSources::kNone;
      std::set<std::string> keys = {"graph", "algo", "deadline_ms"};
      if (sourced) keys.insert({"source", "sources"});
      check_vocabulary(req, keys, {});
      std::string path = require_graph(req);
      std::vector<std::uint32_t> sources;
      if (auto batch = req.kv.find("sources"); batch != req.kv.end()) {
        if (req.kv.count("source") != 0) {
          throw Error(ErrorCategory::kUsage,
                      req.cmd + ": source= conflicts with sources= (give one "
                                "vertex or a batch)",
                      path);
        }
        // allow_file=false: a remote peer must not name paths on the serving
        // host. Oversized lists and duplicates are typed kUsage errors here,
        // never silently truncated.
        try {
          sources = cli::parse_sources(batch->second, /*allow_file=*/false);
        } catch (const Error& e) {
          // parse_sources knows nothing about graphs; re-raise with the
          // graph as file context ("[usage] <graph>: <message>") so a client
          // multiplexing several graphs over one connection can tell which
          // request a bare "duplicate source" line belonged to.
          std::string msg = e.what();
          std::string prefix = std::string("[") + to_string(e.category()) +
                               "] ";
          if (msg.rfind(prefix, 0) == 0) msg = msg.substr(prefix.size());
          throw Error(e.category(), req.cmd + ": " + msg, path);
        }
      }
      std::optional<std::uint64_t> source;
      if (sourced && sources.empty()) {
        source = kv_int(req, "source", 0, (1LL << 32) - 1);
      }
      std::uint64_t deadline_ms =
          kv_int(req, "deadline_ms", opts_.default_deadline_ms, 1LL << 40);
      auto algo = req.kv.find("algo");
      // Resolve the variant before any I/O so a typo costs nothing.
      const AlgoSpec& row =
          served_algo(req.cmd, algo == req.kv.end() ? nullptr : &algo->second,
                      !sources.empty());
      out = do_run(row, path, source, sources, deadline_ms);
    } else if (req.cmd == "update") {
      check_vocabulary(req, {"graph", "add", "del", "deadline_ms"}, {});
      auto add_it = req.kv.find("add");
      auto del_it = req.kv.find("del");
      out = do_update(require_graph(req),
                      add_it == req.kv.end() ? std::string() : add_it->second,
                      del_it == req.kv.end() ? std::string() : del_it->second,
                      kv_int(req, "deadline_ms", opts_.default_deadline_ms,
                             1LL << 40));
    } else if (req.cmd == "compact") {
      check_vocabulary(req, {"graph", "deadline_ms"}, {});
      out = do_compact(require_graph(req),
                       kv_int(req, "deadline_ms", opts_.default_deadline_ms,
                              1LL << 40));
    } else if (req.cmd == "stats") {
      check_vocabulary(req, {}, {});
      out = do_stats();
    } else if (req.cmd == "evict") {
      check_vocabulary(req, {"graph"}, {});
      out = do_evict(require_graph(req));
    } else if (req.cmd == "shutdown") {
      check_vocabulary(req, {}, {});
      request_stop();
      out = "ok draining";
    } else {
      throw Error(ErrorCategory::kUsage,
                  "unknown command '" + req.cmd +
                      "' (expected open|bfs|sssp|cc|kcore|pagerank|tc|"
                      "update|compact|stats|evict|shutdown)");
    }
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    return one_line(std::move(out));
  } catch (const Error& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    return one_line(std::string("error ") + e.what());
  } catch (const std::bad_alloc&) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    return one_line(
        "error [resource] allocation failed mid-request (admission control "
        "undersized; lower the budget)");
  } catch (const std::exception& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    return one_line(std::string("error [internal] ") + e.what());
  }
}

PgrShardSpec Server::admit(const std::string& path) {
  // Header-only probe: costs one pread-sized mapping, no section bytes.
  // Throws the reader's typed kIo/kFormat on a missing/corrupt file, which
  // is the right response before any admission math.
  PgrInfo info = probe_pgr(path);
  std::uint64_t budget = admission_budget();
  GraphRegistry& reg = GraphRegistry::instance();

  // Evict unpinned LRU entries until `need` fits the budget; throws the
  // typed kResource when nothing evictable remains and it still does not.
  auto free_up = [&](std::uint64_t need) {
    std::uint64_t resident = reg.stats().resident_bytes;
    if (resident + need > budget) {
      reg.evict_lru(resident + need - budget);
      resident = reg.stats().resident_bytes;
    }
    if (resident + need > budget) {
      throw Error(
          ErrorCategory::kResource,
          "admission: graph needs " + std::to_string(need) +
              " bytes but only " +
              std::to_string(budget > resident ? budget - resident : 0) +
              " of the " + std::to_string(budget) +
              "-byte budget is free (" + std::to_string(resident) +
              " resident, nothing evictable left)",
          path);
    }
  };

  if (opts_.shard.window_bytes != 0) {
    // Fixed server-wide window: every open is sharded and priced at its
    // windowed footprint (the whole file is mapped but not resident).
    PgrShardSpec spec;
    spec.window_bytes = opts_.shard.window_bytes;
    free_up(windowed_need(info, spec.window_bytes));
    return spec;
  }

  std::uint64_t in_core = info.file_bytes;
  if (info.compressed) {
    // Compressed targets decode into a heap array on an in-core open.
    in_core += info.m * sizeof(VertexId);
  }
  if (opts_.shard.auto_shard) {
    // Shard only when in-core admission is hopeless even with the whole
    // budget free: otherwise prefer the shared resident mapping.
    if (in_core > budget) {
      PgrShardSpec spec;
      spec.window_bytes =
          std::max<std::uint64_t>(budget / 4, std::uint64_t{1} << 20);
      free_up(windowed_need(info, spec.window_bytes));
      return spec;
    }
  }
  free_up(in_core);
  return {};
}

PgrShardSpec Server::ensure_open(const std::string& path) {
  GraphRegistry& reg = GraphRegistry::instance();
  // retain() doubles as the residency probe: true means a live mapping
  // exists (and is now kept alive for future requests). With a fixed shard
  // window the registry is bypassed entirely — every query owns a window.
  if (opts_.shard.window_bytes == 0 && reg.retain(path)) return {};
  PgrShardSpec spec = admit(path);
  if (spec.enabled()) return spec;  // the query opens its own window
  {
    // read_pgr may decode compressed targets with parallel_for: scheduler
    // work, so it takes the exec lock like any query (see server.h).
    std::lock_guard<std::mutex> exec(exec_mu_);
    Graph g = read_pgr(path);
    // Retain while g still holds the mapping — once g dies the registry
    // entry is a tombstone and retain() would miss.
    reg.retain(path);
  }
  return {};
}

std::string Server::do_open(const std::string& path, bool pin) {
  GraphRegistry& reg = GraphRegistry::instance();
  bool warm = opts_.shard.window_bytes == 0 && reg.retain(path);
  PgrShardSpec spec;
  if (!warm) {
    spec = admit(path);
    if (spec.enabled() && pin) {
      throw Error(ErrorCategory::kUsage,
                  "open: pin conflicts with sharded mode — a sharded open is "
                  "a per-query window, there is no resident mapping to pin",
                  path);
    }
    std::lock_guard<std::mutex> exec(exec_mu_);
    // A sharded open validates shard-at-a-time and is dropped right after:
    // `open` then means "readable, well-formed, admitted", and each query
    // re-opens its own window.
    Graph g = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
    (void)g;
    if (!spec.enabled()) reg.retain(path);
  }
  if (pin) reg.pin(path);
  PgrInfo info = probe_pgr(path);
  std::string out = "ok opened graph=" + path + " n=" + std::to_string(info.n) +
                    " m=" + std::to_string(info.m) +
                    " bytes=" + std::to_string(info.file_bytes) +
                    " warm=" + (warm ? "1" : "0") +
                    " pinned=" + (pin ? "1" : "0");
  if (spec.enabled()) {
    out += " sharded=1 window_bytes=" + std::to_string(spec.window_bytes);
  }
  return out;
}

std::string Server::do_run(const AlgoSpec& row, const std::string& path,
                           std::optional<std::uint64_t> source,
                           const std::vector<std::uint32_t>& sources,
                           std::uint64_t deadline_ms) {
  PgrShardSpec spec = ensure_open(path);

  CancelToken token;
  if (deadline_ms != 0) token.set_deadline_ms(deadline_ms);

  AlgoOptions opt;
  opt.source = static_cast<VertexId>(source.value_or(0));
  opt.cancel = &token;

  // One external thread at a time may drive the work-stealing pool (all
  // non-pool threads share worker slot 0); everything below — validation,
  // transpose, the run itself — is parallel.
  std::lock_guard<std::mutex> exec(exec_mu_);

  // In-core: registry hit sharing the retained mapping. Sharded: a fresh
  // windowed open owned by this query alone. Weighted rows need the file's
  // weights section (typed error otherwise).
  WeightedGraph<std::uint32_t> wg;
  Graph g;
  if (row.input == AlgoInput::kWeighted) {
    wg = read_weighted_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
    g = wg.unweighted();
  } else {
    g = read_pgr(path, PgrOpen::kMmap, false, nullptr, spec);
  }
  if (source && *source >= g.num_vertices()) {
    throw Error(ErrorCategory::kUsage,
                "source=" + std::to_string(*source) + " out of range (n=" +
                    std::to_string(g.num_vertices()) + ")");
  }
  PreparedInput prepared(row, g, &wg);
  prepared.args.sources = sources;
  AlgoRun run = row.run(prepared.args, opt);

  MetricsDoc doc(row.family, row.name, path, g.num_vertices(), g.num_edges());
  if (source) doc.set_param("source", *source);
  if (deadline_ms != 0) doc.set_param("deadline_ms", deadline_ms);
  for (const auto& [name, value] : run.params) doc.set_param(name, value);
  if (!sources.empty()) doc.set_batch(sources, run.seconds);
  doc.add_trial(run.seconds, run.telemetry);
  record_shard(doc, g);
  record_delta(doc, g);
  return doc.to_json();
}

std::string Server::do_update(const std::string& path,
                              const std::string& add_spec,
                              const std::string& del_spec,
                              std::uint64_t deadline_ms) {
  if (opts_.shard.window_bytes != 0) {
    throw Error(ErrorCategory::kUsage,
                "update: sharded serving mode (--shard-mb) serves immutable "
                "per-query windows; updates need an in-core resident mapping",
                path);
  }
  std::vector<EdgeUpdate> batch;
  parse_edge_pairs(add_spec, EdgeUpdate::Op::kInsert, batch);
  parse_edge_pairs(del_spec, EdgeUpdate::Op::kDelete, batch);
  if (batch.empty()) {
    throw Error(ErrorCategory::kUsage,
                "update: empty batch (give add=<u:v,...> and/or "
                "del=<u:v,...>)",
                path);
  }

  PgrShardSpec spec = ensure_open(path);
  if (spec.enabled()) {
    throw Error(ErrorCategory::kUsage,
                "update: graph does not fit in core (auto sharding chose a "
                "windowed open); raise the admission budget or compact",
                path);
  }

  CancelToken token;
  if (deadline_ms != 0) token.set_deadline_ms(deadline_ms);

  GraphRegistry& reg = GraphRegistry::instance();
  std::lock_guard<std::mutex> exec(exec_mu_);
  Graph g = read_pgr(path);  // registry hit: the retained resident mapping

  // Admission pricing for the overlay growth: the rebuilt snapshot re-copies
  // the old patches plus this batch on both sides (forward + flipped), and
  // each side carries two full offset arrays. Priced before apply so an
  // over-budget update is refused with nothing mutated.
  std::uint64_t budget = admission_budget();
  std::uint64_t old_bytes = 0, old_edges = 0;
  if (std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot()) {
    old_bytes = d->resident_bytes();
    old_edges = d->insert_count() + d->delete_count();
  }
  std::uint64_t need =
      4 * (g.num_vertices() + 1) * sizeof(std::uint64_t) +
      2 * 2 * (old_edges + batch.size()) * sizeof(VertexId);
  need = need > old_bytes ? need - old_bytes : 0;
  std::uint64_t resident = reg.stats().resident_bytes;
  if (resident + need > budget) {
    reg.evict_lru(resident + need - budget);
    resident = reg.stats().resident_bytes;
  }
  if (resident + need > budget) {
    throw Error(ErrorCategory::kResource,
                "update: overlay growth needs " + std::to_string(need) +
                    " bytes but the " + std::to_string(budget) +
                    "-byte budget has " + std::to_string(resident) +
                    " resident and nothing evictable left",
                path);
  }

  token.check("update admission");
  ApplyStats stats = apply_updates(g, batch);
  token.check("update apply");
  // Pin: LRU eviction of a graph with pending updates would silently drop
  // them; only an explicit evict (which reports the drop) may do that.
  reg.pin(path);
  return "ok updated graph=" + path +
         " batch_inserts=" + std::to_string(stats.batch_inserts) +
         " batch_deletes=" + std::to_string(stats.batch_deletes) +
         " inserts=" + std::to_string(stats.inserts) +
         " deletes=" + std::to_string(stats.deletes) +
         " batches=" + std::to_string(stats.batches) +
         " overlay_bytes=" + std::to_string(stats.overlay_bytes) + " pinned=1";
}

std::string Server::do_compact(const std::string& path,
                               std::uint64_t deadline_ms) {
  if (opts_.shard.window_bytes != 0) {
    throw Error(ErrorCategory::kUsage,
                "compact: sharded serving mode has no resident overlay to "
                "fold",
                path);
  }
  GraphRegistry& reg = GraphRegistry::instance();
  if (!reg.retain(path)) {
    throw Error(ErrorCategory::kUsage,
                "compact: graph is not resident (open/update it first)", path);
  }

  CancelToken token;
  if (deadline_ms != 0) token.set_deadline_ms(deadline_ms);

  std::lock_guard<std::mutex> exec(exec_mu_);
  Graph g = read_pgr(path);  // registry hit
  std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot();
  if (d == nullptr) {
    return "ok compacted graph=" + path + " noop=1";
  }
  std::uint64_t folded_ins = d->insert_count();
  std::uint64_t folded_del = d->delete_count();

  token.check("compact admission");
  Graph folded = materialize_effective(g);
  token.check("compact materialize");

  PgrInfo info = probe_pgr(path);
  PgrWriteOptions wopts;
  wopts.include_transpose = info.has_transpose;
  wopts.symmetric = info.symmetric;
  wopts.compress_targets = info.compressed;
  std::string tmp = path + ".compact.tmp";
  write_pgr(folded, tmp, wopts);

  // Drop the stale entry while `path` still stats to the old bytes — after
  // the rename its FileKey no longer matches and the pinned entry would be
  // an unreachable zombie holding the pre-compact mapping alive.
  reg.unpin(path);
  reg.evict(path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    throw Error(ErrorCategory::kIo,
                std::string("compact rename: ") + std::strerror(err), path);
  }
  // The next open stats the rewritten file: new size/mtime, new key, fresh
  // mapping of the folded bytes (registry rewrite detection).
  return "ok compacted graph=" + path +
         " inserts_folded=" + std::to_string(folded_ins) +
         " deletes_folded=" + std::to_string(folded_del) +
         " n=" + std::to_string(folded.num_vertices()) +
         " m=" + std::to_string(folded.num_edges());
}

std::string Server::do_stats() {
  GraphRegistry::Stats st = GraphRegistry::instance().stats();
  return "ok entries=" + std::to_string(st.entries) +
         " resident_bytes=" + std::to_string(st.resident_bytes) +
         " pinned=" + std::to_string(st.pinned_entries) +
         " pinned_bytes=" + std::to_string(st.pinned_bytes) +
         " retained=" + std::to_string(st.retained_entries) +
         " hits=" + std::to_string(st.hits) +
         " misses=" + std::to_string(st.misses) +
         " evictions=" + std::to_string(st.evictions) +
         " budget_bytes=" + std::to_string(admission_budget()) +
         " requests_ok=" + std::to_string(requests_ok()) +
         " requests_error=" + std::to_string(requests_error()) +
         " connections_dropped=" + std::to_string(connections_dropped());
}

std::string Server::do_evict(const std::string& path) {
  GraphRegistry& reg = GraphRegistry::instance();
  // An explicit evict is allowed to discard pending updates, but never
  // silently: count them while the mapping is still reachable.
  std::uint64_t dropped = 0;
  if (reg.retain(path)) {
    Graph g = read_pgr(path);  // registry hit on the retained mapping
    if (std::shared_ptr<const DeltaSnapshot> d =
            g.storage()->delta_snapshot()) {
      dropped = d->insert_count() + d->delete_count();
    }
  }
  reg.unpin(path);
  if (!reg.evict(path)) {
    throw Error(ErrorCategory::kValidation, "not open", path);
  }
  std::string out = "ok evicted graph=" + path;
  if (dropped != 0) out += " dropped_updates=" + std::to_string(dropped);
  return out;
}

}  // namespace pasgal
