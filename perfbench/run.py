#!/usr/bin/env python3
"""Serving benchmark for the pasgal_serve daemon.

    python3 perfbench/run.py --workload social-query --seed 1 --seconds 20 --trace 0

One run builds the daemon and pbtool from source (into .bench_build/ at the
repository root), generates the workload's seeded inputs, starts a fresh
daemon on a pristine copy of them, drives a closed loop over its unix socket
for --seconds, checks every answer, and prints one metric per line followed
by a JSON summary as the last line of standard output.

--trace 1 also replays the served requests in one traced process (pbtool
replay) and reports per-layer metrics instead of the end-to-end ones.
--selftest checks that one seed yields byte-identical inputs and that a
planted wrong oracle answer fails the run. See perfbench/README.md.
"""
import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")

WORKLOADS = ("social-query", "road-query", "social-update")
METRIC_KINDS = ("bfs", "sssp", "msbfs", "cc", "kcore", "pagerank", "tc")
SETUP_REPEATS = 3
TAIL_BLOCKS = 8
REQUEST_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "bfs_p50_ms": "ms",
    "bfs_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- process hygiene -----------------------------------------------------------

_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1
_live_daemons = []


def _die_with_parent():
    # A daemon must not outlive the benchmark, even when the benchmark is
    # killed without a chance to clean up.
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def run_tool(args, **kw):
    return subprocess.run(args, stdin=subprocess.DEVNULL, check=False,
                          text=True, preexec_fn=_die_with_parent, **kw)


# --- build ---------------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "apps/serve.cpp", "bench/suite.h"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from a full checkout of "
                             "the repository")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", "4"])
        for cmd in steps:
            if run_tool(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see .bench_build/build.log")
    return (os.path.join(CMAKE_DIR, "serve"), os.path.join(CMAKE_DIR, "pbtool"))


# --- schedule ------------------------------------------------------------------

class Line:
    __slots__ = ("id", "conn", "kind", "expect", "request")

    def __init__(self, text):
        f = text.rstrip("\n").split("\t", 4)
        self.id, self.conn = int(f[0]), int(f[1])
        self.kind, self.expect, self.request = f[2], f[3], f[4]

    def expected(self, key):
        if self.expect.startswith(key + "="):
            return int(self.expect[len(key) + 1:])
        return None


def read_lines(path):
    with open(path) as f:
        return [Line(t) for t in f if t.strip()]


def generate(pbtool, workload, seed, gen_dir, count):
    res = run_tool([pbtool, "gen", workload, str(seed), gen_dir, str(count)],
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if res.returncode:
        raise BenchError("input generation failed: " + res.stderr.strip())
    with open(os.path.join(gen_dir, "meta.json")) as f:
        return json.load(f)


# --- daemon and client ---------------------------------------------------------

class Conn:
    """One client connection: a request line out, one response line back."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = bytearray()

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                out = bytes(self.buf[:nl]).decode()
                del self.buf[:nl + 1]
                return out
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


class Daemon:
    """A pasgal_serve process bound to a socket inside `rundir`."""

    def __init__(self, serve, rundir):
        self.sock_path = os.path.join(rundir, "serve.sock")
        # The socket is bound by a relative name so a deep checkout path
        # cannot exceed the 107-byte sun_path limit.
        self.connect_path = os.path.relpath(self.sock_path)
        self.log = open(os.path.join(rundir, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [serve, "--socket", "serve.sock"], cwd=rundir,
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
            preexec_fn=_die_with_parent)
        _live_daemons.append(self)

    def connect(self, timeout=REQUEST_TIMEOUT_S, wait_s=60.0):
        deadline = time.perf_counter() + wait_s
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} "
                                 "before accepting connections")
            try:
                return Conn(self.connect_path, timeout)
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("daemon did not start listening")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("daemon reports no VmHWM")

    def stop(self):
        """Drains and reaps the daemon on every path; unlinks its socket."""
        if self.proc.poll() is None:
            try:
                c = Conn(self.connect_path, 5.0)
                c.call("shutdown")
                c.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.wait()
        self.log.close()
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        if self in _live_daemons:
            _live_daemons.remove(self)


def stop_all_daemons():
    for d in list(_live_daemons):
        d.stop()


# --- one run -------------------------------------------------------------------

class Result:
    """One answered (or failed) request as the client saw it."""
    __slots__ = ("line", "t_send", "t_recv", "resp", "doc", "error")

    def __init__(self, line, t_send, t_recv, resp, error=None):
        self.line, self.t_send, self.t_recv = line, t_send, t_recv
        self.resp, self.doc, self.error = resp, None, error

    @property
    def ms(self):
        return (self.t_recv - self.t_send) * 1e3


class Checker:
    """Classifies responses: failed requests and wrong answers."""

    def __init__(self, meta, plant):
        self.triangles = meta["triangles"] + (1 if plant else 0)
        self.plant = plant
        self.metrics_lines = []
        self.wrong = []

    def check(self, r):
        """Sets r.error for a failed request; records wrong answers."""
        if r.error is not None:
            return
        resp, kind = r.resp, r.line.kind
        if resp.startswith("error"):
            r.error = resp
            return
        if kind in METRIC_KINDS:
            try:
                r.doc = json.loads(resp)
                float(r.doc["trials"][0]["seconds"])
            except (ValueError, KeyError, IndexError, TypeError):
                r.error = "malformed metrics response"
                return
            self.metrics_lines.append(resp)
            if kind == "tc" and r.doc["params"].get("triangles") != self.triangles:
                self.wrong.append(f"request {r.line.id}: tc triangles "
                                  f"{r.doc['params'].get('triangles')} != "
                                  f"oracle {self.triangles}")
                r.error = "wrong answer"
        elif kind == "update":
            if not resp.startswith("ok updated"):
                r.error = "unexpected update response"
        elif kind == "compact":
            if not resp.startswith("ok compacted"):
                r.error = "unexpected compact response"
                return
            expect = r.line.expected("m")
            if expect is None:
                return
            fields = dict(t.split("=", 1) for t in resp.split() if "=" in t)
            want = expect + (1 if self.plant else 0)
            if int(fields.get("m", -1)) != want:
                self.wrong.append(f"request {r.line.id}: compact m="
                                  f"{fields.get('m')} != replayed stream {want}")
                r.error = "wrong answer"
        elif kind == "open":
            if not resp.startswith("ok opened"):
                r.error = "unexpected open response"


def setup(serve, rundir, gen_dir, warmup, checker):
    """Starts a daemon on a pristine copy; answers one request per verb."""
    graph = os.path.join(rundir, "graph.pgr")
    shutil.copyfile(os.path.join(gen_dir, "graph.pgr"), graph)
    t0 = time.perf_counter()
    daemon = Daemon(serve, rundir)
    conn = daemon.connect()
    for line in warmup:
        ts = time.perf_counter()
        r = Result(line, ts, 0.0, conn.call(line.request.replace("@G", graph)))
        r.t_recv = time.perf_counter()
        checker.check(r)
        if r.error is not None:
            detail = "; ".join(checker.wrong) or r.error[:300]
            raise BenchError(f"warm-up '{line.kind}' failed: {detail}")
    return daemon, conn, graph, time.perf_counter() - t0


def drive(daemon, conn0, graph, schedule, seconds):
    """Closed loop per connection: the next request waits for the reply.
    Returns the results of every connection."""
    by_conn = {}
    for line in schedule:
        by_conn.setdefault(line.conn, []).append(line)
    results = {c: [] for c in by_conn}
    conns = {0: conn0}
    for c in by_conn:
        if c not in conns:
            conns[c] = daemon.connect()
    deadline = time.perf_counter() + seconds

    def loop(c):
        out, conn = results[c], conns[c]
        for line in by_conn[c]:
            ts = time.perf_counter()
            if ts >= deadline:
                return
            try:
                resp = conn.call(line.request.replace("@G", graph))
                out.append(Result(line, ts, time.perf_counter(), resp))
            except (OSError, ConnectionError) as e:
                # A timeout or a dropped connection fails this request and
                # ends the connection (its stream is out of sync).
                out.append(Result(line, ts, time.perf_counter(), "",
                                  error=f"{type(e).__name__}: {e}"))
                return
        log(f"warning: schedule exhausted on connection {c}")

    threads = [threading.Thread(target=loop, args=(c,)) for c in by_conn if c]
    for t in threads:
        t.start()
    loop(0)
    for t in threads:
        t.join()
    for c, conn in conns.items():
        if c:
            conn.close()
    return [r for c in sorted(results) for r in results[c]]


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail_p95(values):
    """p95 of latencies given in send order: the median of the nearest-rank
    p95s of TAIL_BLOCKS consecutive blocks. A stall of the shared host that
    hits a few blocks moves the whole-window p95, not this median."""
    k = TAIL_BLOCKS if len(values) >= 10 * TAIL_BLOCKS else 1
    n = len(values)
    return statistics.median(percentile(values[i * n // k:(i + 1) * n // k], 95)
                             for i in range(k))


def mix_throughput(schedule, ok):
    """Requests per second the closed loops sustain on the workload's mix:
    per connection, 1 / (mean latency of each kind weighted by that kind's
    share of the connection's whole schedule). Counting completions in the
    window instead would swing with whether a 2 s tc lands inside it."""
    total = 0.0
    for c in sorted({line.conn for line in schedule}):
        share = {}
        for line in schedule:
            if line.conn == c:
                share[line.kind] = share.get(line.kind, 0) + 1
        lat = {}
        for r in ok:
            if r.line.conn == c:
                lat.setdefault(r.line.kind, []).append(r.t_recv - r.t_send)
        seen = sum(n for k, n in share.items() if k in lat)
        if seen:
            mean_s = sum(share[k] / seen * statistics.fmean(v)
                         for k, v in lat.items())
            total += 1.0 / mean_s
    return total


def queue_waits(results):
    """Per update: how long the other connection's in-flight request still
    held the daemon's executor when the update was sent (client-side bound
    on the wait behind exec_mu_)."""
    readers = sorted((r.t_send, r.t_recv) for r in results if r.line.conn == 1)
    waits = []
    j = 0
    for r in sorted((r for r in results if r.line.kind == "update"),
                    key=lambda r: r.t_send):
        while j < len(readers) and readers[j][1] <= r.t_send:
            j += 1
        w = 0.0
        if j < len(readers) and readers[j][0] < r.t_send < readers[j][1]:
            w = min(readers[j][1], r.t_recv) - r.t_send
        waits.append(w * 1e3)
    return waits


def run_once(args, serve, pbtool, rundir):
    gen_dir = os.path.join(rundir, "inputs")
    count = 300 * args.seconds + 1000
    meta = generate(pbtool, args.workload, args.seed, gen_dir, count)
    warmup = read_lines(os.path.join(gen_dir, "warmup.txt"))
    schedule = read_lines(os.path.join(gen_dir, "schedule.txt"))
    checker = Checker(meta, args.plant)

    # setup_s is the median over SETUP_REPEATS fresh daemons; the last one
    # serves the measured window.
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for i in range(repeats):
        work = os.path.join(rundir, f"serve{i}")
        os.makedirs(work)
        daemon, conn, graph, setup_s = setup(serve, work, gen_dir, warmup,
                                             checker)
        setups.append(setup_s)
        if i + 1 < repeats:
            conn.close()
            daemon.stop()
    try:
        results = drive(daemon, conn, graph, schedule, args.seconds)
        conn.close()
        rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    for r in results:
        checker.check(r)
    responses = os.path.join(rundir, "responses.jsonl")
    with open(responses, "w") as f:
        f.write("\n".join(checker.metrics_lines) + "\n")
    res = run_tool([pbtool, "validate", responses], stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    if res.returncode:
        checker.wrong.append("validate_metrics: " + res.stderr.strip())

    ok = [r for r in results if r.error is None]
    failed = [r for r in results if r.error is not None]
    for r in failed[:5]:
        log(f"failed request {r.line.id} ({r.line.kind}): {r.error[:300]}")
    lat = {}
    for r in sorted(ok, key=lambda r: r.t_send):
        lat.setdefault(r.line.kind, []).append(r.ms)
    bfs = lat.get("bfs", [])
    if len(bfs) < 200:
        log(f"warning: only {len(bfs)} bfs samples (p95 wants >= 200)")

    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": mix_throughput(schedule, ok),
        "bfs_p50_ms": statistics.median(bfs) if bfs else 0.0,
        "bfs_p95_ms": tail_p95(bfs) if bfs else 0.0,
        "peak_rss_mb": rss_mb,
    }
    # Client latencies of the verbs that only some workloads send. The
    # end-to-end set in BENCHMARK.json is shared by every workload, so these
    # stay out of it (README.md).
    extra = {"failed_frac": (len(failed) / len(results), "frac")}
    for kind in ("sssp", "msbfs", "cc", "kcore", "pagerank", "tc", "update"):
        v = lat.get(kind, [])
        extra[f"{kind}_p50_ms"] = (statistics.median(v) if v else 0.0, "ms")
    upd = lat.get("update", [])
    extra["update_p95_ms"] = (tail_p95(upd) if upd else 0.0, "ms")
    for kind, v in sorted(lat.items()):
        log(f"  {kind}: {len(v)} samples")

    layers = {}
    if args.trace:
        layers = traced_layers(args, pbtool, gen_dir, rundir, results, ok,
                               checker)
    return {
        "e2e": e2e, "extra": extra, "layers": layers,
        "attempted": len(results), "failed": len(failed),
        "correct": not checker.wrong and not failed,
        "wrong": checker.wrong,
    }


def traced_layers(args, pbtool, gen_dir, rundir, results, ok, checker):
    """Replays the served order in one traced process; joins its spans with
    the client latencies of the same requests."""
    order = os.path.join(rundir, "order.txt")
    with open(order, "w") as f:
        for r in sorted(ok, key=lambda r: r.t_recv):
            f.write(f"{r.line.id}\n")
    out = os.path.join(rundir, "trace.json")
    res = run_tool([pbtool, "replay", args.workload, gen_dir, order, out],
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if res.returncode:
        checker.wrong.append("traced replay: " + res.stderr.strip()[-2000:])
        if not os.path.exists(out):
            raise BenchError("traced replay failed: " + res.stderr.strip())
    with open(out) as f:
        trace = json.load(f)
    m = {k: tuple(v) for k, v in trace["metrics"].items()}
    span_sum = {rid: s for rid, s in trace["requests"]}

    for kind in METRIC_KINDS:
        gaps = [r.ms - float(r.doc["trials"][0]["seconds"]) * 1e3
                for r in ok if r.line.kind == kind]
        m[f"server.{kind}.gap_ms"] = (statistics.median(gaps) if gaps else 0.0,
                                      "ms")
    un = [r.ms - span_sum[r.line.id] for r in ok if r.line.id in span_sum]
    m["server.unaccounted_ms"] = (statistics.median(un) if un else 0.0, "ms")
    cover = [100.0 * span_sum[r.line.id] / r.ms for r in ok
             if r.line.kind == "cc" and r.line.id in span_sum]
    m["server.cc.span_cover_pct"] = (statistics.median(cover) if cover else 0.0,
                                     "%")
    waits = queue_waits(results) if args.workload == "social-update" else []
    m["server.queue_wait_p50_ms"] = (statistics.median(waits) if waits else 0.0,
                                     "ms")
    m["server.queue_wait_p95_ms"] = (percentile(waits, 95) if waits else 0.0,
                                     "ms")

    # Round counts of one BFS source in two fresh processes.
    first = next(r for r in ok if r.line.kind == "bfs")
    fields = dict(t.split("=", 1) for t in first.line.request.split() if "=" in t)
    algo = fields.get("algo", "pasgal")
    counts = []
    for _ in range(2):
        res = run_tool([pbtool, "rounds", os.path.join(gen_dir, "graph.pgr"),
                        algo, fields["source"]], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
        if res.returncode:
            raise BenchError("pbtool rounds failed: " + res.stderr.strip())
        counts.append(int(res.stdout.split()[-1]))
    m["algorithms.bfs.rounds_spread_fresh"] = (float(max(counts) - min(counts)),
                                               "count")
    return m


# --- entry point -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check seeded determinism and the correctness gate")
    p.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def selftest(pbtool):
    """Same seed, same bytes; another seed, other bytes; a planted wrong
    answer fails the run."""
    root = os.path.join(BUILD, f"selftest-{os.getpid()}")
    try:
        for w in WORKLOADS:
            dirs = []
            for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
                d = os.path.join(root, w + tag)
                generate(pbtool, w, seed, d, 2000)
                dirs.append(d)
            for name in ("graph.pgr", "warmup.txt", "schedule.txt", "meta.json"):
                blobs = []
                for d in dirs:
                    with open(os.path.join(d, name), "rb") as f:
                        blobs.append(f.read())
                if blobs[0] != blobs[1]:
                    raise BenchError(f"{w}: seed 7 gave two different {name}")
                if name != "meta.json" and blobs[0] == blobs[2]:
                    raise BenchError(f"{w}: seeds 7 and 8 gave the same {name}")
            log(f"selftest: {w} inputs are byte-identical per seed")
            for d in dirs:
                shutil.rmtree(d)
        for w in ("social-query", "social-update"):
            res = run_tool([sys.executable, os.path.abspath(__file__),
                            "--workload", w, "--seed", "3", "--seconds", "8",
                            "--plant"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
            if res.returncode == 0 or '"correct": true' in res.stdout:
                raise BenchError(f"{w}: planted wrong answer was not caught")
            log(f"selftest: {w} planted wrong answer fails the run")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed")


def main(argv):
    args = parse_args(argv)

    def on_signal(signum, _frame):
        stop_all_daemons()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        serve, pbtool = build()
        if args.selftest:
            selftest(pbtool)
            return 0
        rundir = os.path.join(BUILD, "runs",
                              f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        try:
            out = run_once(args, serve, pbtool, rundir)
        finally:
            stop_all_daemons()
            shutil.rmtree(rundir, ignore_errors=True)
    except BenchError as e:
        stop_all_daemons()
        log(f"run.py: {e}")
        return 2

    for msg in out["wrong"]:
        log(f"WRONG: {msg}")
    printed = {name: (v, END_TO_END[name]) for name, v in out["e2e"].items()}
    printed.update(out["extra"])
    printed.update(sorted(out["layers"].items()))
    for name, (v, unit) in printed.items():
        print(f"{name} = {v:.6g} {unit}")

    if args.trace:
        chosen = {k: v for k, v in printed.items() if k not in END_TO_END}
    else:
        chosen = {k: printed[k] for k in END_TO_END}
    summary = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(summary), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
