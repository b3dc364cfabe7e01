// Tests for the pasgal_serve daemon (pasgal/server.h) and the fault
// injection failpoints (pasgal/fault.h): protocol correctness, typed error
// responses for every failure class, admission control + LRU eviction,
// deadline expiry with worker-pool survival, injected faults per site, and
// an 8-thread concurrent stress mix. Everything runs in-process: the server
// runs on a background thread and tests talk to it through real unix-socket
// connections.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "pasgal/fault.h"
#include "pasgal/server.h"

namespace pasgal {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphRegistry::instance().clear();
    fault::disarm();
  }

  void TearDown() override {
    if (server_ != nullptr) stop_server();
    fault::disarm();
    GraphRegistry::instance().clear();
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_server_test");
  }

  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_server_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }

  std::string write_graph(const std::string& name, std::size_t rows = 64,
                          PgrWriteOptions opts = {}) {
    std::string path = temp_path(name);
    write_pgr(gen::rectangle_grid(rows, 4), path, opts);
    return path;
  }

  std::string write_weighted_graph(const std::string& name,
                                   std::size_t n = 256) {
    std::string path = temp_path(name);
    write_pgr(gen::add_weights(gen::chain(n), 10), path);
    return path;
  }

  void start_server(ServerOptions opts = {}) {
    if (opts.socket_path.empty()) opts.socket_path = temp_path("serve.sock");
    server_ = std::make_unique<Server>(opts);
    server_->bind();
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void stop_server() {
    server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_ = nullptr;
  }

  // A blocking unix-socket client connection.
  struct Client {
    int fd = -1;
    std::string buf;

    ~Client() {
      if (fd >= 0) ::close(fd);
    }

    void send_raw(const std::string& data) {
      std::size_t sent = 0;
      while (sent < data.size()) {
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
        sent += static_cast<std::size_t>(n);
      }
    }

    // One newline-terminated response; "" when the server closed first.
    std::string recv_line() {
      std::size_t nl;
      while ((nl = buf.find('\n')) == std::string::npos) {
        char chunk[4096];
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) return "";
        buf.append(chunk, static_cast<std::size_t>(got));
      }
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return line;
    }

    std::string request(const std::string& line) {
      send_raw(line + "\n");
      return recv_line();
    }
  };

  Client connect_client() {
    Client c;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::string path = server_socket_path();
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(c.fd, 0);
    EXPECT_EQ(
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    return c;
  }

  std::string request_once(const std::string& line) {
    Client c = connect_client();
    return c.request(line);
  }

  std::string server_socket_path() { return temp_path("serve.sock"); }

  std::unique_ptr<Server> server_;
  std::thread server_thread_;
};

bool is_metrics_json(const std::string& resp) {
  return !resp.empty() && resp.front() == '{' &&
         resp.find("\"schema\":\"pasgal.metrics\"") != std::string::npos;
}

// --- protocol basics ---------------------------------------------------------

TEST_F(ServerTest, OpenQueryStatsEvictRoundTrip) {
  std::string path = write_graph("basic.pgr");
  start_server();

  std::string opened = request_once("open graph=" + path);
  EXPECT_EQ(opened.rfind("ok opened ", 0), 0u) << opened;
  EXPECT_NE(opened.find("warm=0"), std::string::npos) << opened;

  std::string bfs = request_once("bfs graph=" + path + " source=0");
  EXPECT_TRUE(is_metrics_json(bfs)) << bfs;
  EXPECT_EQ(bfs.find('\n'), std::string::npos) << "responses are one line";

  std::string stats = request_once("stats");
  EXPECT_EQ(stats.rfind("ok ", 0), 0u) << stats;
  EXPECT_NE(stats.find("retained=1"), std::string::npos) << stats;

  std::string evicted = request_once("evict graph=" + path);
  EXPECT_EQ(evicted.rfind("ok evicted ", 0), 0u) << evicted;
}

TEST_F(ServerTest, QueryAutoOpensAndSecondOpenIsWarm) {
  std::string path = write_graph("auto.pgr");
  start_server();
  EXPECT_TRUE(is_metrics_json(request_once("bfs graph=" + path + " source=5")));
  std::string opened = request_once("open graph=" + path);
  EXPECT_NE(opened.find("warm=1"), std::string::npos)
      << "the query's auto-open retained the mapping: " << opened;
}

TEST_F(ServerTest, SsspOnWeightedGraphReturnsMetrics) {
  std::string path = write_weighted_graph("wsssp.pgr");
  start_server();
  std::string resp =
      request_once("sssp graph=" + path + " source=0 algo=delta");
  EXPECT_TRUE(is_metrics_json(resp)) << resp;
}

TEST_F(ServerTest, FamilyVerbsReturnMetrics) {
  std::string path = write_graph("family.pgr");
  start_server();

  Client c = connect_client();
  std::string cc = c.request("cc graph=" + path);
  EXPECT_TRUE(is_metrics_json(cc)) << cc;
  EXPECT_NE(cc.find("\"variant\":\"uf\""), std::string::npos) << cc;

  std::string kcore = c.request("kcore graph=" + path + " algo=seq");
  EXPECT_TRUE(is_metrics_json(kcore)) << kcore;
  EXPECT_NE(kcore.find("\"variant\":\"seq\""), std::string::npos) << kcore;

  std::string pagerank = c.request("pagerank graph=" + path);
  EXPECT_TRUE(is_metrics_json(pagerank)) << pagerank;
  // validate_metrics requires the executed round count for pagerank.
  EXPECT_NE(pagerank.find("\"iterations\":"), std::string::npos) << pagerank;

  std::string tc = c.request("tc graph=" + path);
  EXPECT_TRUE(is_metrics_json(tc)) << tc;
  // A rectangle grid is triangle-free; the count is part of the document.
  EXPECT_NE(tc.find("\"triangles\":0"), std::string::npos) << tc;
}

TEST_F(ServerTest, FamilyVerbContractViolationsGetTypedUsageErrors) {
  std::string path = write_graph("familyerr.pgr");
  start_server();

  std::string bad_cc = request_once("cc graph=" + path + " algo=nope");
  EXPECT_EQ(bad_cc.rfind("error [usage]", 0), 0u) << bad_cc;
  EXPECT_NE(bad_cc.find("uf|lp"), std::string::npos) << bad_cc;

  std::string bad_pr = request_once("pagerank graph=" + path + " algo=gbbs");
  EXPECT_EQ(bad_pr.rfind("error [usage]", 0), 0u) << bad_pr;
  EXPECT_NE(bad_pr.find("pasgal|seq"), std::string::npos) << bad_pr;

  // Whole-graph verbs take no source vertex.
  std::string stray = request_once("tc graph=" + path + " source=0");
  EXPECT_EQ(stray.rfind("error [usage]", 0), 0u) << stray;
}

TEST_F(ServerTest, UnknownAlgoErrorsListTheServedRowsInTableOrder) {
  std::string path = write_graph("catalog.pgr");
  std::string wpath = write_weighted_graph("wcatalog.pgr");
  start_server();

  // Each verb offers exactly its served catalog rows, in table order: the
  // driver-only variants (bfs gapbs/seq, sssp seq, scc, bcc) never
  // appear, and batch lists hold only the rows that batch.
  const std::pair<std::string, std::string> cases[] = {
      {"bfs graph=" + path + " source=0 algo=nope",
       "bfs: unknown algo 'nope' (expected pasgal|gbbs)"},
      {"sssp graph=" + wpath + " source=0 algo=nope",
       "sssp: unknown algo 'nope' (expected rho|delta|em)"},
      {"sssp graph=" + wpath + " sources=1,2 algo=nope",
       "sssp: unknown algo 'nope' (expected rho|delta)"},
      {"cc graph=" + path + " algo=nope",
       "cc: unknown algo 'nope' (expected uf|lp)"},
      {"kcore graph=" + path + " algo=nope",
       "kcore: unknown algo 'nope' (expected pasgal|seq)"},
      {"pagerank graph=" + path + " algo=nope",
       "pagerank: unknown algo 'nope' (expected pasgal|seq)"},
      {"tc graph=" + path + " algo=nope",
       "tc: unknown algo 'nope' (expected pasgal|seq)"},
  };
  for (const auto& [request, message] : cases) {
    EXPECT_EQ(request_once(request), "error [usage] " + message) << request;
  }

  // Variants a verb serves singly but not in a batch are typed usage errors.
  std::string em_batch =
      request_once("sssp graph=" + wpath + " sources=1,2 algo=em");
  EXPECT_EQ(em_batch.rfind("error [usage]", 0), 0u) << em_batch;
  std::string gbbs_batch =
      request_once("bfs graph=" + path + " sources=1,2 algo=gbbs");
  EXPECT_EQ(gbbs_batch,
            "error [usage] bfs: algo 'gbbs' has no batch mode (sources= runs "
            "the bit-parallel ms kernel)");
}

TEST_F(ServerTest, FamilyDeadlineExpiryIsTypedAndThePoolSurvives) {
  std::string big = temp_path("family_deadline.pgr");
  write_pgr(gen::chain(400000, /*directed=*/true), big);
  start_server();

  Client c = connect_client();
  // Each pagerank round scans all 400k in-edges and the deadline is
  // checked at every round boundary, so 1 ms expires mid-iteration.
  std::string timed_out =
      c.request("pagerank graph=" + big + " deadline_ms=1");
  EXPECT_EQ(timed_out.rfind("error [timeout]", 0), 0u) << timed_out;

  // Same connection, same worker pool: an undeadlined query completes.
  std::string ok = c.request("pagerank graph=" + big);
  EXPECT_TRUE(is_metrics_json(ok))
      << "worker pool must survive a cancelled run: " << ok;
}

TEST_F(ServerTest, BatchQueriesReturnBatchMetrics) {
  std::string path = write_graph("batch.pgr");
  std::string wpath = write_weighted_graph("wbatch.pgr");
  start_server();

  std::string bfs = request_once("bfs graph=" + path + " sources=0,5,9,63");
  EXPECT_TRUE(is_metrics_json(bfs)) << bfs;
  EXPECT_NE(bfs.find("\"batch\":"), std::string::npos) << bfs;
  EXPECT_NE(bfs.find("\"size\":4"), std::string::npos) << bfs;

  std::string sssp =
      request_once("sssp graph=" + wpath + " sources=1,2,3 algo=delta");
  EXPECT_TRUE(is_metrics_json(sssp)) << sssp;
  EXPECT_NE(sssp.find("\"batch\":"), std::string::npos) << sssp;
}

TEST_F(ServerTest, BatchContractViolationsGetTypedUsageErrors) {
  std::string path = write_graph("batch_bad.pgr");
  start_server();

  // Duplicates are rejected, never silently deduplicated.
  EXPECT_EQ(request_once("bfs graph=" + path + " sources=5,5")
                .rfind("error [usage]", 0),
            0u);
  // More than 64 sources cannot fit the bit mask; never truncated.
  std::string big = "0";
  for (int i = 1; i <= 64; ++i) big += "," + std::to_string(i);
  EXPECT_EQ(request_once("bfs graph=" + path + " sources=" + big)
                .rfind("error [usage]", 0),
            0u);
  // sources= conflicts with source=.
  EXPECT_EQ(request_once("bfs graph=" + path + " source=0 sources=1,2")
                .rfind("error [usage]", 0),
            0u);
  // Only the bit-parallel kernel batches bfs.
  EXPECT_EQ(request_once("bfs graph=" + path + " sources=1,2 algo=pasgal")
                .rfind("error [usage]", 0),
            0u);
  // @file lists are CLI-only: a remote peer must not name host paths.
  EXPECT_EQ(request_once("bfs graph=" + path + " sources=@/etc/hostname")
                .rfind("error [usage]", 0),
            0u);
  // Out-of-range batch entry (the grid has 256 vertices).
  EXPECT_EQ(request_once("bfs graph=" + path + " sources=1,99999")
                .rfind("error [usage]", 0),
            0u);
  // After all that abuse the batch path still answers.
  EXPECT_TRUE(
      is_metrics_json(request_once("bfs graph=" + path + " sources=0,1")));
}

TEST_F(ServerTest, BatchSourceParseErrorsNameTheGraph) {
  // A fleet tails one error stream for many graphs; a bare "sources=: bad
  // integer" line is un-actionable without the graph it was aimed at. The
  // typed [usage] error must carry the resolved graph path as file context.
  std::string path = write_graph("named_err.pgr");
  start_server();
  // (A bare "sources=" dies in the request tokenizer before the graph is
  // resolved, so only value errors carry graph context.)
  for (const char* bad : {"sources=abc", "sources=1,,2"}) {
    std::string resp = request_once("bfs graph=" + path + " " + bad);
    EXPECT_EQ(resp.rfind("error [usage]", 0), 0u) << resp;
    EXPECT_NE(resp.find(path), std::string::npos)
        << "error must name the graph: " << resp;
    EXPECT_NE(resp.find("bfs"), std::string::npos) << resp;
  }
  // The source=/sources= conflict error names the graph too.
  std::string conflict =
      request_once("bfs graph=" + path + " source=0 sources=1,2");
  EXPECT_EQ(conflict.rfind("error [usage]", 0), 0u) << conflict;
  EXPECT_NE(conflict.find(path), std::string::npos) << conflict;
}

// --- dynamic updates: update / compact verbs ---------------------------------

TEST_F(ServerTest, UpdateCompactRoundTrip) {
  std::string path = write_graph("dyn.pgr");
  start_server();

  // A resident graph with no overlay compacts as a no-op.
  EXPECT_EQ(request_once("open graph=" + path).rfind("ok opened ", 0), 0u);
  std::string noop = request_once("compact graph=" + path);
  EXPECT_EQ(noop.rfind("ok compacted ", 0), 0u) << noop;
  EXPECT_NE(noop.find("noop=1"), std::string::npos) << noop;

  // Apply a batch: two long-range inserts the 4-wide grid cannot contain,
  // plus a delete of one of them in a second batch.
  std::string up1 =
      request_once("update graph=" + path + " add=0:255,1:254");
  EXPECT_EQ(up1.rfind("ok updated ", 0), 0u) << up1;
  EXPECT_NE(up1.find("batch_inserts=2"), std::string::npos) << up1;
  EXPECT_NE(up1.find("batch_deletes=0"), std::string::npos) << up1;
  EXPECT_NE(up1.find("batches=1"), std::string::npos) << up1;
  EXPECT_NE(up1.find("pinned=1"), std::string::npos) << up1;

  // Deleting an edge that lives only in the insert overlay nets it out of
  // the patch list instead of recording a delete (the rebuilt snapshot is
  // always the minimal diff against the base CSR).
  std::string up2 = request_once("update graph=" + path + " del=0:255");
  EXPECT_EQ(up2.rfind("ok updated ", 0), 0u) << up2;
  EXPECT_NE(up2.find("batch_deletes=1"), std::string::npos) << up2;
  EXPECT_NE(up2.find("inserts=1"), std::string::npos) << up2;
  EXPECT_NE(up2.find("deletes=0"), std::string::npos) << up2;
  EXPECT_NE(up2.find("batches=2"), std::string::npos) << up2;

  // Queries on the overlaid graph work and report the delta section: every
  // bfs kernel reads adjacency through the overlay, so the default (pasgal)
  // and the ms batch answer like gbbs does.
  std::string bfs = request_once("bfs graph=" + path + " source=0 algo=gbbs");
  EXPECT_TRUE(is_metrics_json(bfs)) << bfs;
  EXPECT_NE(bfs.find("\"delta\":"), std::string::npos) << bfs;
  EXPECT_NE(bfs.find("\"inserts\":1"), std::string::npos) << bfs;
  std::string pasgal = request_once("bfs graph=" + path + " source=0");
  EXPECT_TRUE(is_metrics_json(pasgal)) << pasgal;
  EXPECT_NE(pasgal.find("\"inserts\":1"), std::string::npos) << pasgal;
  std::string ms = request_once("bfs graph=" + path + " sources=0,1,2");
  EXPECT_TRUE(is_metrics_json(ms)) << ms;
  EXPECT_NE(ms.find("\"inserts\":1"), std::string::npos) << ms;
  // The metrics carry no distances, so the answers are checked on the graph
  // the daemon serves: the process-wide registry hands this test the same
  // storage, overlay attached.
  {
    Graph served = read_pgr(path);
    ASSERT_TRUE(served.has_delta());
    Graph served_t = served.transpose();
    EXPECT_EQ(pasgal_bfs(served, served_t, {}).output,
              gbbs_bfs(served, served_t, {}).output);
    auto batch = ms_bfs(served, served_t, {{0, 1, 2}, {}});
    for (VertexId s : {0u, 1u, 2u}) {
      EXPECT_EQ(batch.per_source[s].output,
                gbbs_bfs(served, served_t, {.source = s}).output)
          << "ms batch source " << s;
    }
  }
  std::string pr = request_once("pagerank graph=" + path);
  EXPECT_TRUE(is_metrics_json(pr)) << pr;
  EXPECT_NE(pr.find("\"delta\":"), std::string::npos) << pr;

  // Compaction folds the overlay into a rewritten .pgr: the surviving
  // insert nets one extra edge over the original file.
  Graph before = read_pgr(path);
  std::size_t base_m = before.num_edges();
  std::string comp = request_once("compact graph=" + path);
  EXPECT_EQ(comp.rfind("ok compacted ", 0), 0u) << comp;
  EXPECT_NE(comp.find("inserts_folded=1"), std::string::npos) << comp;
  EXPECT_NE(comp.find("deletes_folded=0"), std::string::npos) << comp;
  EXPECT_NE(comp.find("m=" + std::to_string(base_m + 1)), std::string::npos)
      << comp;

  // The rewritten file reopens clean (registry rewrite detection): the
  // default kernel works again and there is no delta section.
  std::string fresh = request_once("bfs graph=" + path + " source=0");
  EXPECT_TRUE(is_metrics_json(fresh)) << fresh;
  EXPECT_EQ(fresh.find("\"delta\":"), std::string::npos) << fresh;
}

TEST_F(ServerTest, UpdateContractViolationsAreTyped) {
  std::string path = write_graph("dyn_bad.pgr");
  std::string wpath = write_weighted_graph("dyn_w.pgr");
  start_server();

  // Empty batch, malformed pairs, bad integers: usage errors naming the graph.
  for (const std::string& bad :
       {"update graph=" + path, "update graph=" + path + " add=5",
        "update graph=" + path + " add=1:2:3",
        "update graph=" + path + " add=a:b",
        "update graph=" + path + " del=99999999999:0"}) {
    std::string resp = request_once(bad);
    EXPECT_EQ(resp.rfind("error [usage]", 0), 0u) << bad << " -> " << resp;
  }
  // Set-semantics violations are validation errors, and nothing mutates.
  EXPECT_EQ(request_once("update graph=" + path + " del=0:255")
                .rfind("error [validation]", 0),
            0u)
      << "deleting an absent edge";
  ASSERT_EQ(request_once("update graph=" + path + " add=0:255")
                .rfind("ok updated ", 0),
            0u);
  EXPECT_EQ(request_once("update graph=" + path + " add=0:255")
                .rfind("error [validation]", 0),
            0u)
      << "inserting an effectively-present edge";
  // Weighted graphs cannot take unweighted patches.
  EXPECT_EQ(request_once("update graph=" + wpath + " add=0:5")
                .rfind("error [usage]", 0),
            0u);
  // The pool survives and the earlier overlay is intact.
  std::string bfs = request_once("bfs graph=" + path + " source=0 algo=gbbs");
  EXPECT_TRUE(is_metrics_json(bfs)) << bfs;
  EXPECT_NE(bfs.find("\"inserts\":1"), std::string::npos) << bfs;
}

TEST_F(ServerTest, EvictReportsDroppedUpdates) {
  std::string path = write_graph("dyn_evict.pgr");
  start_server();
  ASSERT_EQ(request_once("update graph=" + path + " add=0:255,3:252")
                .rfind("ok updated ", 0),
            0u);
  // Updates pin the entry, so LRU pressure cannot silently drop them — but
  // an explicit evict may, and must say how many ops it discarded.
  std::string evicted = request_once("evict graph=" + path);
  EXPECT_EQ(evicted.rfind("ok ", 0), 0u) << evicted;
  EXPECT_NE(evicted.find("dropped_updates=2"), std::string::npos) << evicted;
  // Compact on the now non-resident graph is a typed usage error.
  EXPECT_EQ(request_once("compact graph=" + path).rfind("error [usage]", 0),
            0u);
  // Reopening reads the unmodified base file: the overlay is gone.
  std::string bfs = request_once("bfs graph=" + path + " source=0");
  EXPECT_TRUE(is_metrics_json(bfs)) << bfs;
  EXPECT_EQ(bfs.find("\"delta\":"), std::string::npos) << bfs;
}

TEST_F(ServerTest, MultipleRequestsOnOneConnection) {
  std::string path = write_graph("multi.pgr");
  start_server();
  Client c = connect_client();
  EXPECT_EQ(c.request("open graph=" + path).rfind("ok ", 0), 0u);
  EXPECT_TRUE(is_metrics_json(c.request("bfs graph=" + path + " source=0")));
  EXPECT_TRUE(is_metrics_json(c.request("bfs graph=" + path + " source=9")));
  EXPECT_EQ(c.request("stats").rfind("ok ", 0), 0u);
}

// --- graceful degradation: every bad input is a typed one-line error --------

TEST_F(ServerTest, MalformedRequestsGetTypedUsageErrors) {
  std::string path = write_graph("mal.pgr");
  start_server();
  EXPECT_EQ(request_once("frobnicate").rfind("error [usage]", 0), 0u);
  EXPECT_EQ(request_once("bfs").rfind("error [usage]", 0), 0u);
  EXPECT_EQ(request_once("bfs graph=not_a_pgr.txt").rfind("error [usage]", 0),
            0u);
  EXPECT_EQ(request_once("bfs graph=" + path + " source=abc")
                .rfind("error [usage]", 0),
            0u);
  EXPECT_EQ(request_once("bfs graph=" + path + " source=999999999")
                .rfind("error [usage]", 0),
            0u)
      << "out-of-range source";
  EXPECT_EQ(request_once("bfs graph=" + path + " source=0 algo=dijkstra")
                .rfind("error [usage]", 0),
            0u);
  EXPECT_EQ(request_once("open graph=" + path + " bogus_flag")
                .rfind("error [usage]", 0),
            0u);
  EXPECT_EQ(request_once("open graph=" + path + " =broken")
                .rfind("error [usage]", 0),
            0u);
  // After all that abuse the server still answers.
  EXPECT_TRUE(is_metrics_json(request_once("bfs graph=" + path + " source=0")));
}

TEST_F(ServerTest, MissingAndCorruptFilesGetTypedErrors) {
  start_server();
  EXPECT_EQ(request_once("open graph=" + temp_path("nope.pgr"))
                .rfind("error [io]", 0),
            0u);

  std::string corrupt = temp_path("corrupt.pgr");
  std::ofstream(corrupt, std::ios::binary) << "not a pgr file at all";
  EXPECT_EQ(request_once("open graph=" + corrupt).rfind("error [format]", 0),
            0u);

  std::string unweighted = write_graph("unweighted.pgr");
  EXPECT_EQ(request_once("sssp graph=" + unweighted + " source=0")
                .rfind("error [", 0),
            0u)
      << "sssp on an unweighted file is a typed error, not a crash";
}

TEST_F(ServerTest, UnvalidatedOutOfRangeTargetsGetTypedValidationErrors) {
  // A plain mmap open skips per-element checks. Without transpose sections
  // the bfs verb builds the transpose and cc builds the symmetric view from
  // the raw targets: both must answer [validation], not index out of bounds.
  std::string path = write_graph("poisoned.pgr");
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Section table slot i sits at byte 40 + 24 i: {offset, bytes, checksum}.
  auto field = [&](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  std::uint64_t targets_at = field(40 + 24), targets_len = field(40 + 32);
  std::uint32_t poison = 1u << 30;
  std::memcpy(bytes.data() + targets_at, &poison, sizeof(poison));
  std::uint64_t sum = hash_bytes(bytes.data() + targets_at, targets_len);
  std::memcpy(bytes.data() + 40 + 40, &sum, sizeof(sum));
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  start_server();
  std::string good = write_graph("healthy.pgr");
  for (const std::string& verb :
       {"bfs graph=" + path + " source=0", "cc graph=" + path}) {
    std::string resp = request_once(verb);
    EXPECT_EQ(resp.rfind("error [validation]", 0), 0u) << verb << ": " << resp;
  }
  EXPECT_TRUE(is_metrics_json(request_once("bfs graph=" + good + " source=0")))
      << "the daemon keeps serving after the rejected requests";
  EXPECT_TRUE(is_metrics_json(request_once("cc graph=" + good)));
}

TEST_F(ServerTest, OversizedRequestLineIsRejected) {
  start_server();
  Client c = connect_client();
  c.send_raw(std::string(20 * 1024, 'x'));  // no newline, over the cap
  std::string resp = c.recv_line();
  EXPECT_EQ(resp.rfind("error [usage]", 0), 0u) << resp;
  // Server is still healthy for new connections.
  EXPECT_EQ(request_once("stats").rfind("ok ", 0), 0u);
}

// --- admission control + LRU -------------------------------------------------

TEST_F(ServerTest, AdmissionRejectsOverBudgetOpens) {
  std::string path = write_graph("big.pgr", 512);
  ServerOptions opts;
  opts.socket_path = temp_path("serve.sock");
  opts.admission_budget_bytes = 1024;  // smaller than any .pgr header
  start_server(opts);
  std::string resp = request_once("open graph=" + path);
  EXPECT_EQ(resp.rfind("error [resource]", 0), 0u) << resp;
  EXPECT_NE(resp.find("admission:"), std::string::npos) << resp;
  // A rejected open leaves nothing resident.
  EXPECT_NE(request_once("stats").find("resident_bytes=0"),
            std::string::npos);
}

TEST_F(ServerTest, AdmissionEvictsLruToMakeRoom) {
  std::string a = write_graph("fit_a.pgr", 256);
  std::string b = write_graph("fit_b.pgr", 256);
  std::uintmax_t file_bytes = std::filesystem::file_size(a);
  ServerOptions opts;
  opts.socket_path = temp_path("serve.sock");
  // Room for ~1.5 graphs: the second open must evict the first.
  opts.admission_budget_bytes = file_bytes + file_bytes / 2;
  start_server(opts);

  EXPECT_EQ(request_once("open graph=" + a).rfind("ok ", 0), 0u);
  EXPECT_EQ(request_once("open graph=" + b).rfind("ok ", 0), 0u)
      << "over-budget open must succeed by evicting the LRU graph";
  std::string stats = request_once("stats");
  EXPECT_NE(stats.find("evictions=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("retained=1"), std::string::npos) << stats;
}

TEST_F(ServerTest, PinnedGraphsBlockEvictionSoAdmissionFails) {
  std::string a = write_graph("pin_a.pgr", 256);
  std::string b = write_graph("pin_b.pgr", 256);
  std::uintmax_t file_bytes = std::filesystem::file_size(a);
  ServerOptions opts;
  opts.socket_path = temp_path("serve.sock");
  opts.admission_budget_bytes = file_bytes + file_bytes / 2;
  start_server(opts);

  EXPECT_EQ(request_once("open graph=" + a + " pin").rfind("ok ", 0), 0u);
  std::string resp = request_once("open graph=" + b);
  EXPECT_EQ(resp.rfind("error [resource]", 0), 0u)
      << "a pinned graph must not be sacrificed: " << resp;
  // Unpinning (evict) frees the budget; now b fits.
  EXPECT_EQ(request_once("evict graph=" + a).rfind("ok ", 0), 0u);
  EXPECT_EQ(request_once("open graph=" + b).rfind("ok ", 0), 0u);
}

// --- deadlines ---------------------------------------------------------------

TEST_F(ServerTest, DeadlineExpiryIsTypedAndThePoolSurvives) {
  // A long chain maximizes rounds (one per vertex for the sparse path), so
  // a 1 ms deadline reliably expires at a round boundary mid-run.
  std::string big = temp_path("deadline.pgr");
  write_pgr(gen::chain(400000, /*directed=*/true), big);
  start_server();

  Client c = connect_client();
  std::string timed_out =
      c.request("bfs graph=" + big + " source=0 deadline_ms=1");
  EXPECT_EQ(timed_out.rfind("error [timeout]", 0), 0u) << timed_out;
  EXPECT_NE(timed_out.find("deadline exceeded"), std::string::npos);

  // Same connection, same worker pool: an undeadlined query completes.
  std::string ok = c.request("bfs graph=" + big + " source=399000");
  EXPECT_TRUE(is_metrics_json(ok))
      << "worker pool must survive a cancelled run: " << ok;
}

TEST_F(ServerTest, DefaultDeadlineAppliesWhenRequestSetsNone) {
  std::string big = temp_path("default_deadline.pgr");
  write_pgr(gen::chain(400000, /*directed=*/true), big);
  ServerOptions opts;
  opts.socket_path = temp_path("serve.sock");
  opts.default_deadline_ms = 1;
  start_server(opts);
  std::string resp = request_once("bfs graph=" + big + " source=0");
  EXPECT_EQ(resp.rfind("error [timeout]", 0), 0u) << resp;
}

// --- fault injection ---------------------------------------------------------

TEST_F(ServerTest, InjectedMmapFaultIsATypedIoError) {
  std::string path = write_graph("fmmap.pgr");
  start_server();
  fault::arm("mmap");
  std::string resp = request_once("open graph=" + path);
  EXPECT_EQ(resp.rfind("error [io]", 0), 0u) << resp;
  EXPECT_NE(resp.find("injected fault: mmap"), std::string::npos);
  // Fire-once: the retry succeeds.
  EXPECT_EQ(request_once("open graph=" + path).rfind("ok ", 0), 0u);
}

TEST_F(ServerTest, InjectedDecodeFaultIsATypedFormatError) {
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  std::string path = write_graph("fdecode.pgr", 64, wopts);
  start_server();
  fault::arm("decode");
  std::string resp = request_once("open graph=" + path);
  EXPECT_EQ(resp.rfind("error [format]", 0), 0u) << resp;
  EXPECT_NE(resp.find("injected fault: decode"), std::string::npos);
  EXPECT_EQ(request_once("open graph=" + path).rfind("ok ", 0), 0u);
}

TEST_F(ServerTest, InjectedAllocFaultIsATypedResourceError) {
  std::string path = write_graph("falloc.pgr");
  start_server();
  fault::arm("alloc");
  std::string resp = request_once("open graph=" + path);
  EXPECT_EQ(resp.rfind("error [resource]", 0), 0u) << resp;
  EXPECT_NE(resp.find("injected fault: alloc"), std::string::npos);
  EXPECT_EQ(request_once("open graph=" + path).rfind("ok ", 0), 0u);
}

TEST_F(ServerTest, InjectedSocketWriteFaultDropsOnlyThatConnection) {
  std::string path = write_graph("fsock.pgr");
  start_server();
  fault::arm("sock_write");
  {
    Client c = connect_client();
    c.send_raw("stats\n");
    EXPECT_EQ(c.recv_line(), "")
        << "the injected dead-client write closes the connection";
  }
  EXPECT_EQ(server_->connections_dropped(), 1u);
  // The daemon itself is fine.
  EXPECT_EQ(request_once("stats").rfind("ok ", 0), 0u);
}

TEST_F(ServerTest, FaultSpecParsingAndNthHit) {
  fault::arm("mmap:3");
  EXPECT_EQ(fault::armed_spec(), "mmap:3");
  EXPECT_FALSE(fault::should_fail("decode")) << "other sites never fire";
  EXPECT_FALSE(fault::should_fail("mmap"));  // hit 1
  EXPECT_FALSE(fault::should_fail("mmap"));  // hit 2
  EXPECT_TRUE(fault::should_fail("mmap"));   // hit 3 fires...
  EXPECT_FALSE(fault::should_fail("mmap")) << "...then disarms";
  EXPECT_EQ(fault::armed_spec(), "");

  EXPECT_THROW(fault::arm(""), Error);
  EXPECT_THROW(fault::arm("mmap:0"), Error);
  EXPECT_THROW(fault::arm("mmap:abc"), Error);
}

// --- client death & shutdown -------------------------------------------------

TEST_F(ServerTest, ClientDisconnectMidRequestIsHarmless) {
  std::string path = write_graph("dead_client.pgr", 256);
  start_server();
  {
    Client c = connect_client();
    c.send_raw("bfs graph=" + path + " source=0\n");
    // Destructor closes the socket while the query may still be running;
    // the server's write fails with EPIPE/ECONNRESET and moves on.
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        is_metrics_json(request_once("bfs graph=" + path + " source=0")));
  }
}

TEST_F(ServerTest, ShutdownRequestDrainsTheServer) {
  start_server();
  EXPECT_EQ(request_once("shutdown"), "ok draining");
  server_thread_.join();  // run() returns without an explicit request_stop
  EXPECT_FALSE(std::filesystem::exists(server_socket_path()))
      << "a drained server removes its socket";
  server_ = nullptr;
}

// --- concurrency stress ------------------------------------------------------

TEST_F(ServerTest, EightThreadStressMixSurvives) {
  std::string a = write_graph("stress_a.pgr", 128);
  std::string b = write_graph("stress_b.pgr", 128);
  PgrWriteOptions wopts;
  wopts.compress_targets = true;
  std::string c = write_graph("stress_c.pgr", 128, wopts);
  std::string w = write_weighted_graph("stress_w.pgr", 512);
  start_server();

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client cl = connect_client();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        std::string req;
        switch ((t + i) % 8) {
          case 0: req = "bfs graph=" + a + " source=" + std::to_string(i); break;
          case 1: req = "bfs graph=" + b + " source=0 algo=gbbs"; break;
          case 2: req = "sssp graph=" + w + " source=0"; break;
          case 3: req = "open graph=" + c + (i % 2 ? " pin" : ""); break;
          case 4: req = "evict graph=" + ((i % 2) ? a : c); break;
          case 5: req = "stats"; break;
          case 6: req = "open graph=" + a; break;
          default: req = "bfs graph=" + c + " source=1"; break;
        }
        std::string resp = cl.request(req);
        // Every response is one of the three legal shapes; evict may
        // legitimately report [validation] not open under this mix.
        bool ok = resp.rfind("ok ", 0) == 0 || resp == "ok draining" ||
                  is_metrics_json(resp) || resp.rfind("error [", 0) == 0;
        if (!ok || resp.empty()) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  // The server survived the whole mix and still answers.
  EXPECT_TRUE(is_metrics_json(request_once("bfs graph=" + b + " source=0")));
}

TEST_F(ServerTest, StressWithInjectedFaultsStaysTyped) {
  std::string a = write_graph("fstress_a.pgr", 128);
  std::string b = write_graph("fstress_b.pgr", 128);
  start_server();

  constexpr int kThreads = 8;
  std::atomic<int> bad{0};
  std::atomic<int> round{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client cl = connect_client();
      for (int i = 0; i < 10; ++i) {
        // One thread keeps re-arming failpoints while others query and
        // evict: injected failures must always surface as typed errors on
        // exactly one response, never as a dead server.
        if (t == 0) {
          const char* sites[] = {"mmap", "decode", "alloc"};
          fault::arm(sites[static_cast<std::size_t>(round.fetch_add(1)) % 3]);
        }
        std::string req = (i % 3 == 0) ? "evict graph=" + a
                          : (i % 3 == 1)
                              ? "bfs graph=" + a + " source=0"
                              : "bfs graph=" + b + " source=2";
        std::string resp = cl.request(req);
        bool ok = resp.rfind("ok ", 0) == 0 || is_metrics_json(resp) ||
                  resp.rfind("error [", 0) == 0;
        if (!ok) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  fault::disarm();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(request_once("stats").rfind("ok ", 0), 0u);
}

}  // namespace
}  // namespace pasgal
