// pasgal_serve: the serving daemon (pasgal/server.h) and a line-oriented
// client in one binary, so scripts need no netcat.
//
// Daemon:
//   serve --socket <path> [--budget-mb N] [--deadline-ms N]
//         [--shard-mb <mb|auto>]
//     Binds the unix socket, prints "serve: listening on <path>", serves
//     until SIGTERM/SIGINT (or a `shutdown` request), drains in-flight
//     requests, and exits 0. Request errors are per-connection responses,
//     never daemon exits.
//
// Client:
//   serve --socket <path> --client "<request>" ["<request>" ...]
//     Sends each request as one line, prints each one-line response. Exit
//     code mirrors the last response: 0 for ok/metrics, else the error
//     category's app exit code (2 usage / 3 bad input / 4 resource /
//     5 timeout / 1 internal) — the same contract as the one-shot drivers.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <vector>

#include "common.h"
#include "pasgal/server.h"

using namespace pasgal;

namespace {

Server* g_server = nullptr;

void on_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int response_exit_code(const std::string& resp) {
  if (resp.rfind("error [", 0) != 0) return 0;
  std::size_t end = resp.find(']', 7);
  if (end == std::string::npos) return 1;
  std::string cat = resp.substr(7, end - 7);
  if (cat == "usage") return 2;
  if (cat == "io" || cat == "format" || cat == "validation") return 3;
  if (cat == "resource") return 4;
  if (cat == "timeout") return 5;
  return 1;
}

int run_client(const std::string& socket_path,
               const std::vector<std::string>& requests) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error(ErrorCategory::kUsage, "socket path too long", socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error(ErrorCategory::kIo,
                std::string("socket: ") + std::strerror(errno), socket_path);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw Error(ErrorCategory::kIo,
                std::string("connect: ") + std::strerror(err), socket_path);
  }

  int code = 0;
  std::string buf;
  for (const std::string& req : requests) {
    std::string line = req + "\n";
    std::size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        throw Error(ErrorCategory::kIo,
                    std::string("send: ") + std::strerror(errno), socket_path);
      }
      sent += static_cast<std::size_t>(n);
    }
    // One response line per request.
    std::size_t nl;
    while ((nl = buf.find('\n')) == std::string::npos) {
      char chunk[4096];
      ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        ::close(fd);
        throw Error(ErrorCategory::kIo,
                    "server closed the connection mid-response", socket_path);
      }
      buf.append(chunk, static_cast<std::size_t>(got));
    }
    std::string resp = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    std::printf("%s\n", resp.c_str());
    code = response_exit_code(resp);
  }
  ::close(fd);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  return apps::run_app([&]() {
    std::string socket_path;
    long long budget_mb = 0;
    long long deadline_ms = 0;
    std::string shard_mb;
    bool client = false;
    std::vector<std::string> requests;

    cli::FlagParser fp(argc, argv, 1);
    while (fp.next()) {
      const std::string& f = fp.flag();
      if (f == "--socket") {
        socket_path = fp.value();
      } else if (f == "--budget-mb") {
        budget_mb = cli::parse_flag_int(f, fp.value(), 1, 1LL << 40);
      } else if (f == "--deadline-ms") {
        deadline_ms = cli::parse_flag_int(f, fp.value(), 0, 1LL << 40);
      } else if (f == "--shard-mb") {
        shard_mb = fp.value();
      } else if (f == "--client") {
        client = true;
      } else if (!f.empty() && f[0] != '-') {
        requests.push_back(f);  // a request line (client mode)
      } else {
        fp.unknown();
      }
    }
    if (socket_path.empty()) {
      std::fprintf(stderr,
                   "usage: %s --socket <path> [--budget-mb N] "
                   "[--deadline-ms N] [--shard-mb <mb|auto>]\n"
                   "       %s --socket <path> --client \"<request>\" ...\n",
                   argv[0], argv[0]);
      return 2;
    }
    if (client) {
      if (requests.empty()) {
        throw Error(ErrorCategory::kUsage, "--client: no requests given");
      }
      if (!shard_mb.empty()) {
        throw Error(ErrorCategory::kUsage,
                    "--shard-mb configures the daemon, not --client");
      }
      return run_client(socket_path, requests);
    }
    if (!requests.empty()) {
      throw Error(ErrorCategory::kUsage,
                  "request arguments need --client: '" + requests.front() +
                      "'");
    }

    ServerOptions sopts;
    sopts.socket_path = socket_path;
    sopts.admission_budget_bytes = static_cast<std::uint64_t>(budget_mb) << 20;
    sopts.default_deadline_ms = static_cast<std::uint64_t>(deadline_ms);
    if (!shard_mb.empty()) {
      sopts.shard = apps::internal::parse_shard_mb(shard_mb);
    }
    Server server(sopts);
    server.bind();

    g_server = &server;
    struct sigaction sa {};
    sa.sa_handler = on_stop_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    std::printf("serve: listening on %s (budget %llu bytes, workers %d)\n",
                socket_path.c_str(),
                (unsigned long long)server.admission_budget(), num_workers());
    std::fflush(stdout);
    server.run();
    g_server = nullptr;

    std::printf("serve: drained (%llu ok, %llu error, %llu dropped)\n",
                (unsigned long long)server.requests_ok(),
                (unsigned long long)server.requests_error(),
                (unsigned long long)server.connections_dropped());
    return 0;
  });
}
