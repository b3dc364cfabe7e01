#!/bin/sh
# Robustness gate: build + full test suite, then an ASan+UBSan build that
# re-runs the input-hardening tests (fuzz corpus, readers, hashbag) and
# exercises every app driver on small graphs, including the failure paths.
# Usage: bench/check.sh [build_dir_prefix]   (default: build)
set -eu

cd "$(dirname "$0")/.."
prefix="${1:-build}"

echo "=== plain build + ctest ==="
cmake -B "$prefix" -S . > /dev/null
cmake --build "$prefix" -j > /dev/null
(cd "$prefix" && ctest --output-on-failure -j "$(nproc)")

echo
echo "=== ASan+UBSan build ==="
cmake -B "$prefix-san" -S . -DPASGAL_SANITIZE=address,undefined > /dev/null
cmake --build "$prefix-san" -j > /dev/null

echo "--- sanitized input-hardening tests ---"
(cd "$prefix-san" && ctest --output-on-failure -j "$(nproc)" \
    -R 'test_graph_io|test_graph_io_fuzz|test_hashbag|test_graph$|test_storage|test_registry|test_resource|test_pagerank|test_kcore|test_tc|test_delta|test_vertex_subset|test_bfs|catalog_agreement|app_exit_|storage_|registry_')

echo "--- sanitized app drivers (success paths, with metrics emission) ---"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$prefix-san/apps/graph_convert" chain:2000 "$tmp/chain.adj" --validate
"$prefix-san/apps/graph_convert" grid:40:40 "$tmp/grid.bin" --validate
"$prefix-san/apps/bfs"  "$tmp/chain.adj" --validate -r 1 --json-metrics "$tmp/bfs.json" > /dev/null
"$prefix-san/apps/sssp" "$tmp/grid.bin" --validate -a delta -r 1 --json-metrics "$tmp/sssp.json" > /dev/null
"$prefix-san/apps/scc"  road:30:30 -r 1 --json-metrics "$tmp/scc.json" > /dev/null
"$prefix-san/apps/bcc"  grid:30:30 -r 1 --json-metrics "$tmp/bcc.json" > /dev/null
"$prefix-san/apps/cc"   grid:30:30 -r 1 --json-metrics "$tmp/cc.json" > /dev/null
"$prefix-san/apps/kcore" grid:30:30 -r 1 --json-metrics "$tmp/kcore.json" > /dev/null
"$prefix-san/apps/pagerank" chain:2000 -r 1 --json-metrics "$tmp/pagerank.json" > /dev/null
"$prefix-san/apps/tc"   grid:30:30 -r 1 --json-metrics "$tmp/tc.json" > /dev/null

echo "--- metrics schema gate (drivers + bench envelope) ---"
"$prefix-san/apps/metrics_check" "$tmp"/bfs.json "$tmp"/sssp.json \
    "$tmp"/scc.json "$tmp"/bcc.json "$tmp"/cc.json "$tmp"/kcore.json \
    "$tmp"/pagerank.json "$tmp"/tc.json

echo "--- storage backends (heap vs mmap must be observationally identical) ---"
"$prefix-san/apps/graph_convert" "$tmp/grid.bin" "$tmp/grid.pgr" \
    --transpose --validate > /dev/null
# The same graph without transpose sections: the symmetrizing families then
# merge against a transpose built on demand instead of the embedded one.
"$prefix-san/apps/graph_convert" "$tmp/grid.bin" "$tmp/grid_nt.pgr" \
    --validate > /dev/null
for app in bfs scc bcc sssp cc kcore pagerank tc; do
  # Normalize per-run wall times and drop backend-specific lines so the diff
  # compares algorithm results (counts, rounds, edges scanned) only.
  normalize() {
    grep -v -e '^load:' -e '^metrics:' | sed -E 's/: [0-9]+\.[0-9]+ s \|/: T s |/'
  }
  "$prefix-san/apps/$app" "$tmp/grid.pgr" --load mmap -r 1 \
      --json-metrics "$tmp/${app}_mmap.json" | normalize > "$tmp/${app}_mmap.txt"
  "$prefix-san/apps/$app" "$tmp/grid.pgr" --load copy -r 1 \
      --json-metrics "$tmp/${app}_copy.json" | normalize > "$tmp/${app}_copy.txt"
  diff "$tmp/${app}_mmap.txt" "$tmp/${app}_copy.txt" || {
    echo "FAIL: $app output differs between mmap and copy backends" >&2; exit 1
  }
  "$prefix-san/apps/metrics_check" "$tmp/${app}_mmap.json" "$tmp/${app}_copy.json"
  case $app in cc|kcore|tc|bcc)
    "$prefix-san/apps/$app" "$tmp/grid_nt.pgr" --load mmap -r 1 \
        | normalize > "$tmp/${app}_nt.txt"
    diff "$tmp/${app}_mmap.txt" "$tmp/${app}_nt.txt" || {
      echo "FAIL: $app output differs with and without transpose sections" >&2
      exit 1
    }
  esac
done
"$prefix-san/apps/graph_convert" "$tmp/grid.pgr" "$tmp/grid_rt.bin" > /dev/null
cmp "$tmp/grid.bin" "$tmp/grid_rt.bin" || {
  echo "FAIL: .bin -> .pgr -> .bin round-trip is not byte-identical" >&2; exit 1
}
# Weighted inputs: one graph_convert --weights run per format on the same
# spec writes the same deterministic weights, so sssp must read them from
# each file ("weights":"file") and print byte-identical result lines.
for fmt in adj bin pgr; do
  "$prefix-san/apps/graph_convert" grid:40:40 "$tmp/wgrid.$fmt" \
      --weights 100 > /dev/null
  "$prefix-san/apps/sssp" "$tmp/wgrid.$fmt" -r 1 \
      --json-metrics "$tmp/sssp_w_$fmt.json" | normalize > "$tmp/sssp_w_$fmt.txt"
  grep -q '"weights":"file"' "$tmp/sssp_w_$fmt.json" || {
    echo "FAIL: sssp did not take the weights of $tmp/wgrid.$fmt" >&2; exit 1
  }
done
for fmt in adj bin; do
  diff "$tmp/sssp_w_$fmt.txt" "$tmp/sssp_w_pgr.txt" || {
    echo "FAIL: sssp differs between weighted .$fmt and .pgr" >&2; exit 1
  }
done

echo "--- compressed .pgr gate (v2 targets section) ---"
# Every driver must produce byte-identical result lines on the compressed
# encoding of the same graph, and its metrics must carry the compression
# trio (encoded_bytes / compression_ratio / decode_wall_ns).
"$prefix-san/apps/graph_convert" "$tmp/grid.pgr" "$tmp/grid_c.pgr" \
    --transpose --compress > /dev/null
for app in bfs scc bcc sssp cc kcore pagerank tc; do
  "$prefix-san/apps/$app" "$tmp/grid_c.pgr" --load mmap -r 1 \
      --json-metrics "$tmp/${app}_comp.json" | normalize > "$tmp/${app}_comp.txt"
  diff "$tmp/${app}_mmap.txt" "$tmp/${app}_comp.txt" || {
    echo "FAIL: $app results differ between compressed and raw .pgr" >&2; exit 1
  }
  "$prefix-san/apps/metrics_check" "$tmp/${app}_comp.json"
  for want in '"encoded_bytes":' '"compression_ratio":' '"decode_wall_ns":'; do
    grep -q "$want" "$tmp/${app}_comp.json" || {
      echo "FAIL: $app compressed metrics missing $want" >&2; exit 1
    }
  done
done
# Size gate: on a bench-suite graph (no transpose sections diluting the
# ratio) the compressed file must be at least 1.5x smaller.
"$prefix/apps/graph_convert" grid:300:300 "$tmp/ratio_raw.pgr" > /dev/null
"$prefix/apps/graph_convert" grid:300:300 "$tmp/ratio_c.pgr" --compress > /dev/null
raw_bytes=$(wc -c < "$tmp/ratio_raw.pgr")
comp_bytes=$(wc -c < "$tmp/ratio_c.pgr")
if [ $((2 * raw_bytes)) -lt $((3 * comp_bytes)) ]; then
  echo "FAIL: compressed .pgr is $comp_bytes bytes vs $raw_bytes raw" \
       "(< 1.5x smaller)" >&2
  exit 1
fi

echo "--- sanitized app drivers (failure paths must exit cleanly) ---"
expect() { want="$1"; shift
  set +e; "$@" > /dev/null 2>&1; got=$?; set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want" >&2; exit 1
  fi
}
printf 'AdjacencyGraph\n5\n10\n0\n1\n' > "$tmp/trunc.adj"
expect 3 "$prefix-san/apps/bfs" "$tmp/trunc.adj"
expect 3 "$prefix-san/apps/bfs" "$tmp/missing.adj"
expect 2 "$prefix-san/apps/bfs" grid:abc:10
expect 2 "$prefix-san/apps/sssp" chain:100 -a nope
expect 4 env PASGAL_MEM_LIMIT_MB=64 "$prefix-san/apps/bfs" rmat:30:1000000000000
expect 2 env PASGAL_MEM_LIMIT_MB=999999999999999999 "$prefix-san/apps/bfs" chain:100
"$prefix-san/apps/graph_convert" chain:50 "$tmp/wconf.pgr" --weights 5 > /dev/null
expect 2 "$prefix-san/apps/sssp" "$tmp/wconf.pgr" -w 7
expect 2 "$prefix-san/apps/graph_convert" chain:50 "$tmp/nope.bin" --compress
# A compressed file whose varint stream decodes to an out-of-range target
# must exit with the input contract code, not crash under ASan. Byte surgery:
# the targets section offset is the u64 at byte 64; its first payload byte
# sits at the section's first chunk offset (u64 at section+16); 0x7E decodes
# to delta +63, far outside a 2-vertex graph.
"$prefix-san/apps/graph_convert" chain:2 "$tmp/oob.pgr" --compress > /dev/null
toff=$(od -A n -t u8 -j 64 -N 8 "$tmp/oob.pgr" | tr -d ' ')
s0=$(od -A n -t u8 -j "$((toff + 16))" -N 8 "$tmp/oob.pgr" | tr -d ' ')
printf '\176' | dd of="$tmp/oob.pgr" bs=1 seek="$((toff + s0))" \
    conv=notrunc 2> /dev/null
expect 3 "$prefix-san/apps/bfs" "$tmp/oob.pgr"

echo "--- serve daemon gate (TSan build): concurrency, faults, deadlines, drain ---"
# The daemon multiplexes client threads over the shared scheduler, so this
# gate runs it under ThreadSanitizer: any data race aborts the run. Every
# response must be one of the three legal one-line shapes (ok / metrics
# JSON / "error [category] ..."), every injected fault must surface as a
# typed error on exactly one response, and SIGTERM must drain to exit 0.
cmake -B "$prefix-tsan" -S . -DPASGAL_SANITIZE=thread > /dev/null
cmake --build "$prefix-tsan" -j --target app_serve test_kcore test_catalog > /dev/null
# pasgal_kcore's peel chains share degree counters and per-level buckets
# across workers; its suite (1 and 4 workers) runs under TSan too, and so
# does the equivalence harness (every catalog row at 1/2/4/8 workers).
for t in test_kcore test_catalog; do
  t0=$(date +%s)
  "$prefix-tsan/tests/$t" > "$tmp/tsan_$t.log" 2>&1 || {
    echo "FAIL: $t under TSan:" >&2; tail -40 "$tmp/tsan_$t.log" >&2
    exit 1
  }
  echo "$t under TSan: $(( $(date +%s) - t0 )) s"
done
SERVE="$prefix-tsan/apps/serve"
sock="$tmp/daemon.sock"

wait_sock() {
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 200 ] && { echo "FAIL: daemon socket never appeared" >&2; exit 1; }
    sleep 0.05
  done
}
drain() {  # $1 = daemon pid, $2 = daemon log
  kill -TERM "$1"
  wait "$1" || { echo "FAIL: daemon exited nonzero after SIGTERM" >&2; exit 1; }
  grep -q 'serve: drained' "$2" || {
    echo "FAIL: daemon log $2 is missing the drain epilogue" >&2; exit 1
  }
}

"$prefix/apps/graph_convert" grid:300:300 "$tmp/d_a.pgr" > /dev/null
"$prefix/apps/graph_convert" grid:299:299 "$tmp/d_b.pgr" > /dev/null
"$prefix/apps/graph_convert" grid:60:60 "$tmp/d_c.pgr" --compress > /dev/null
"$prefix/apps/graph_convert" chain:200000 "$tmp/d_long.pgr" > /dev/null
"$prefix/apps/graph_convert" chain:3000 "$tmp/d_w.pgr" --weights 10 > /dev/null

# 8 concurrent clients hammering one daemon with the full verb mix
# (bfs/sssp plus the four whole-graph families) and open/stats.
rm -f "$sock"
"$SERVE" --socket "$sock" > "$tmp/daemon1.log" 2>&1 &
dpid=$!
wait_sock
i=0
while [ "$i" -lt 8 ]; do
  "$SERVE" --socket "$sock" --client \
      "open graph=$tmp/d_c.pgr" \
      "bfs graph=$tmp/d_c.pgr source=$i" \
      "sssp graph=$tmp/d_w.pgr source=$i" \
      "bfs graph=$tmp/d_c.pgr source=0 algo=gbbs" \
      "cc graph=$tmp/d_c.pgr" \
      "kcore graph=$tmp/d_c.pgr algo=seq" \
      "pagerank graph=$tmp/d_c.pgr" \
      "tc graph=$tmp/d_c.pgr" \
      "stats" > "$tmp/client$i.out" 2>&1 &
  eval "cpid$i=\$!"
  i=$((i + 1))
done
i=0
while [ "$i" -lt 8 ]; do
  eval "wait \$cpid$i" || {
    echo "FAIL: concurrent client $i exited nonzero" >&2; exit 1
  }
  i=$((i + 1))
done
if grep -hv -e '^ok ' -e '^{' -e '^error \[' "$tmp"/client*.out | grep -q .; then
  echo "FAIL: daemon produced an untyped response line:" >&2
  grep -hv -e '^ok ' -e '^{' -e '^error \[' "$tmp"/client*.out >&2
  exit 1
fi
# The clients opened the compressed d_c.pgr; a later open must be warm,
# sharing the resident, already-decoded storage.
warm_resp=$("$SERVE" --socket "$sock" --client "open graph=$tmp/d_c.pgr")
case "$warm_resp" in
  *' warm=1 '*) ;;
  *) echo "FAIL: repeat open of a compressed graph was '$warm_resp'" >&2
     exit 1 ;;
esac

# Deadline expiry is a typed error and the worker pool survives it: the
# same query without a deadline must then succeed against the same daemon.
set +e
to_resp=$("$SERVE" --socket "$sock" --client \
    "bfs graph=$tmp/d_long.pgr source=0 deadline_ms=1")
to_rc=$?
set -e
[ "$to_rc" -eq 5 ] || {
  echo "FAIL: deadline-expired client exited $to_rc, expected 5" >&2; exit 1
}
case "$to_resp" in
  'error [timeout]'*) ;;
  *) echo "FAIL: deadline response was '$to_resp'" >&2; exit 1 ;;
esac
"$SERVE" --socket "$sock" --client "bfs graph=$tmp/d_long.pgr source=0" \
    > /dev/null

# Same contract for a whole-graph family verb: pagerank checks the deadline
# at every iteration boundary, expiry is typed, and the pool survives.
set +e
fam_resp=$("$SERVE" --socket "$sock" --client \
    "pagerank graph=$tmp/d_long.pgr deadline_ms=1")
fam_rc=$?
set -e
[ "$fam_rc" -eq 5 ] || {
  echo "FAIL: pagerank deadline client exited $fam_rc, expected 5" >&2; exit 1
}
case "$fam_resp" in
  'error [timeout]'*) ;;
  *) echo "FAIL: pagerank deadline response was '$fam_resp'" >&2; exit 1 ;;
esac
"$SERVE" --socket "$sock" --client "tc graph=$tmp/d_c.pgr" > /dev/null
drain "$dpid" "$tmp/daemon1.log"

# One injected fault per failure category (PASGAL_FAULT fires once, then the
# daemon keeps serving): mmap -> [io], decode -> [format], alloc -> [resource].
for site in mmap decode alloc; do
  case "$site" in
    mmap)  want_cat=io;       want_rc=3 ;;
    decode) want_cat=format;  want_rc=3 ;;
    alloc) want_cat=resource; want_rc=4 ;;
  esac
  rm -f "$sock"
  env "PASGAL_FAULT=$site" "$SERVE" --socket "$sock" \
      > "$tmp/daemon_$site.log" 2>&1 &
  dpid=$!
  wait_sock
  set +e
  resp=$("$SERVE" --socket "$sock" --client "open graph=$tmp/d_c.pgr")
  rc=$?
  set -e
  [ "$rc" -eq "$want_rc" ] || {
    echo "FAIL: $site fault client exited $rc, expected $want_rc" >&2; exit 1
  }
  case "$resp" in
    "error [$want_cat]"*) ;;
    *) echo "FAIL: $site fault response was '$resp'" >&2; exit 1 ;;
  esac
  "$SERVE" --socket "$sock" --client "open graph=$tmp/d_c.pgr" > /dev/null
  drain "$dpid" "$tmp/daemon_$site.log"
done

# sock_write simulates a client dying mid-response: that connection drops,
# the daemon survives, and the drain epilogue counts exactly one drop.
rm -f "$sock"
env PASGAL_FAULT=sock_write "$SERVE" --socket "$sock" \
    > "$tmp/daemon_sock.log" 2>&1 &
dpid=$!
wait_sock
expect 3 "$SERVE" --socket "$sock" --client "stats"
"$SERVE" --socket "$sock" --client "stats" > /dev/null
drain "$dpid" "$tmp/daemon_sock.log"
grep -q '1 dropped' "$tmp/daemon_sock.log" || {
  echo "FAIL: daemon did not count the injected dead-client drop" >&2; exit 1
}

# Admission control: with room for ~1.5 graphs the second open must evict
# the LRU one, and a pinned graph must force a typed [resource] rejection.
rm -f "$sock"
"$SERVE" --socket "$sock" --budget-mb 3 > "$tmp/daemon_lru.log" 2>&1 &
dpid=$!
wait_sock
"$SERVE" --socket "$sock" --client \
    "open graph=$tmp/d_a.pgr" "open graph=$tmp/d_b.pgr" > "$tmp/lru.out"
if grep -q '^error' "$tmp/lru.out"; then
  echo "FAIL: over-budget open did not evict the LRU graph:" >&2
  cat "$tmp/lru.out" >&2
  exit 1
fi
"$SERVE" --socket "$sock" --client "stats" | grep -q 'evictions=1' || {
  echo "FAIL: daemon stats do not report the LRU eviction" >&2; exit 1
}
drain "$dpid" "$tmp/daemon_lru.log"

rm -f "$sock"
"$SERVE" --socket "$sock" --budget-mb 3 > "$tmp/daemon_pin.log" 2>&1 &
dpid=$!
wait_sock
set +e
pin_out=$("$SERVE" --socket "$sock" --client \
    "open graph=$tmp/d_a.pgr pin" "open graph=$tmp/d_b.pgr")
rc=$?
set -e
resp=$(printf '%s\n' "$pin_out" | tail -1)
[ "$rc" -eq 4 ] || {
  echo "FAIL: pinned-budget client exited $rc, expected 4" >&2; exit 1
}
case "$resp" in
  'error [resource]'*) ;;
  *) echo "FAIL: pinned graph was evicted: '$resp'" >&2; exit 1 ;;
esac
drain "$dpid" "$tmp/daemon_pin.log"

# Daemon update mix: concurrent clients each mutate their own graph through
# the update/compact verbs while querying it. TSan checks the overlay
# publish (apply_updates) against concurrent traversals, among them the
# Adjacency reads of pasgal_bfs and the ms batch; every response must stay
# one of the three legal shapes and compaction must leave a clean file the
# default kernel accepts again.
rm -f "$sock"
"$SERVE" --socket "$sock" > "$tmp/daemon_upd.log" 2>&1 &
dpid=$!
wait_sock
i=0
while [ "$i" -lt 4 ]; do
  cp "$tmp/d_c.pgr" "$tmp/d_u$i.pgr"
  "$SERVE" --socket "$sock" --client \
      "open graph=$tmp/d_u$i.pgr" \
      "update graph=$tmp/d_u$i.pgr add=0:3599,1:3598 del=0:1" \
      "bfs graph=$tmp/d_u$i.pgr source=0 algo=gbbs" \
      "bfs graph=$tmp/d_u$i.pgr source=0 algo=pasgal" \
      "bfs graph=$tmp/d_u$i.pgr sources=0,1,3599" \
      "pagerank graph=$tmp/d_u$i.pgr" \
      "update graph=$tmp/d_u$i.pgr del=1:3598" \
      "cc graph=$tmp/d_u$i.pgr" \
      "compact graph=$tmp/d_u$i.pgr" \
      "bfs graph=$tmp/d_u$i.pgr source=0" \
      "stats" > "$tmp/upd_client$i.out" 2>&1 &
  eval "upid$i=\$!"
  i=$((i + 1))
done
i=0
while [ "$i" -lt 4 ]; do
  eval "wait \$upid$i" || {
    echo "FAIL: update-mix client $i exited nonzero:" >&2
    cat "$tmp/upd_client$i.out" >&2
    exit 1
  }
  i=$((i + 1))
done
if grep -hv -e '^ok ' -e '^{' -e '^error \[' "$tmp"/upd_client*.out | grep -q .; then
  echo "FAIL: update mix produced an untyped response line:" >&2
  grep -hv -e '^ok ' -e '^{' -e '^error \[' "$tmp"/upd_client*.out >&2
  exit 1
fi
grep -q 'ok compacted' "$tmp/upd_client0.out" || {
  echo "FAIL: update mix never compacted" >&2; exit 1
}
# Every kernel in the mix reads the overlay, so none may refuse it.
if grep -h '^error \[usage\]' "$tmp"/upd_client*.out | grep -q .; then
  echo "FAIL: update mix refused a query on an overlaid graph:" >&2
  grep -h '^error \[usage\]' "$tmp"/upd_client*.out >&2
  exit 1
fi
# The queried responses on the overlaid graph carry the delta subsection.
grep -q '"delta":' "$tmp/upd_client0.out" || {
  echo "FAIL: overlaid query metrics lack the delta subsection" >&2; exit 1
}
drain "$dpid" "$tmp/daemon_upd.log"

echo "--- paper tables gate (every catalog row against its oracle, full suite) ---"
# Plain build. bench_tables runs each catalog row that takes one source or
# none on every suite graph and checks it against its family's oracle
# through answer_mismatch; a mismatch prints a MISMATCH line and exits 1.
# Its wall time is printed so the gate's cost stays visible.
t0=$(date +%s)
PASGAL_BENCH_DIR="$tmp" "$prefix/bench/bench_tables" > "$tmp/tables.txt" || {
  echo "FAIL: bench_tables exited nonzero (mismatch or metrics write)" >&2
  exit 1
}
echo "bench_tables: $(( $(date +%s) - t0 )) s"
# The paper's Figure 1 (SCC speedup over Tarjan at P=1..192) is printed from
# the same runs, one table per parallel SCC row; it must not drop out.
for row in PASGAL GBBS Multistep; do
  grep -q "^=== Figure 1 / SCC $row: " "$tmp/tables.txt" || {
    echo "FAIL: bench_tables printed no Figure 1 table for SCC $row" >&2
    exit 1
  }
done
# Table 1 and the sweeps (one row rerun per value of one AlgoOptions field)
# print from the same loop; none of them may drop out either.
for title in "Table 1: graph statistics" \
             "Sweep / bfs/pasgal vgc.tau: " "Sweep / scc/pasgal vgc.tau: " \
             "Sweep / kcore/pasgal vgc.tau: " "Sweep / bfs/pasgal use_dense: "; do
  grep -qF "=== $title" "$tmp/tables.txt" || {
    echo "FAIL: bench_tables printed no '$title' table" >&2
    exit 1
  }
done
"$prefix/apps/metrics_check" "$tmp/BENCH_tables.json"

echo "--- QPS gate (batch-of-64 ms_bfs vs 64 sequential singles) ---"
# Plain build, not sanitized: this is a throughput gate. bench_qps itself
# cross-checks every per-source distance array against a single-source run,
# so passing also re-proves batch/single equivalence on this graph. The gate
# reads the median speedup of 5 alternating batch/singles runs: a single
# wall-clock sample flakes on a busy host.
"$prefix/apps/graph_convert" rmat:15:500000 "$tmp/qps.pgr" > /dev/null
PASGAL_BENCH_DIR="$tmp" "$prefix/bench/bench_qps" "$tmp/qps.pgr" 64 \
    --min-speedup 4 > "$tmp/qps.txt"
grep -q 'qps gate: ok' "$tmp/qps.txt" || {
  echo "FAIL: bench_qps did not report the gate as passed" >&2; exit 1
}
"$prefix/apps/metrics_check" "$tmp/BENCH_qps.json"

# Driver batch path: --sources through the bfs app, batch metrics validated,
# and the usage contract (duplicate source) enforced with exit code 2.
"$prefix/apps/bfs" "$tmp/qps.pgr" --sources 0,1,2,3 -r 1 \
    --json-metrics "$tmp/qps_drv.json" > /dev/null
"$prefix/apps/metrics_check" "$tmp/qps_drv.json"
expect 2 "$prefix/apps/bfs" "$tmp/qps.pgr" --sources 5,5

echo "--- BFS work gate (pasgal_bfs pulls once level L is heavy; bounded work on roads) ---"
# Plain build, 1 worker (work counters are then reproducible). On rmat:18
# gbbs scans ~m/20 edges; pasgal_bfs must stay within m/4 and run at least
# one dense round. Source 0 is the hub, whose local search stops at its edge
# budget; source 1 is not, so its local searches leave entries at several
# levels when the pull should start.
for src in 0 1; do
  PASGAL_NUM_THREADS=1 "$prefix/apps/bfs" rmat:18:4000000 -a pasgal -s "$src" \
      -r 1 --json-metrics "$tmp/work_$src.json" > "$tmp/work_$src.txt"
  m=$(sed -n 's/^graph: .* m=\([0-9]*\).*/\1/p' "$tmp/work_$src.txt")
  edges=$(sed -n 's/.*| edges scanned \([0-9]*\) |.*/\1/p' "$tmp/work_$src.txt")
  [ -n "$m" ] && [ -n "$edges" ] && [ $((4 * edges)) -le "$m" ] || {
    echo "FAIL: pasgal_bfs from source $src scanned $edges edges" \
         "(m=$m; need <= m/4)" >&2
    exit 1
  }
  grep -q '"kind":"dense"' "$tmp/work_$src.json" || {
    echo "FAIL: pasgal_bfs from source $src ran no dense round" >&2; exit 1
  }
done

# High diameter: road:700:700 (m=1.81M, 1,399 levels) at 1 worker. The
# pending pool keyed by absolute distance takes ~42 rounds and ~2.2m edges;
# the relative-gap buckets it replaced took 164-330 rounds and 3.7-6x m.
PASGAL_NUM_THREADS=1 "$prefix/apps/bfs" road:700:700 -a pasgal -r 1 \
    > "$tmp/work_road.txt"
m=$(sed -n 's/^graph: .* m=\([0-9]*\).*/\1/p' "$tmp/work_road.txt")
edges=$(sed -n 's/.*| edges scanned \([0-9]*\) |.*/\1/p' "$tmp/work_road.txt")
rounds=$(sed -n 's/.*| rounds \([0-9]*\) |.*/\1/p' "$tmp/work_road.txt")
[ -n "$m" ] && [ -n "$edges" ] && [ -n "$rounds" ] &&
  [ "$edges" -le $((3 * m)) ] && [ "$rounds" -le 100 ] || {
  echo "FAIL: pasgal_bfs on road:700:700 took $rounds rounds and scanned" \
       "$edges edges (m=$m; need <= 100 rounds and <= 3m edges)" >&2
  exit 1
}

echo "--- SSSP work gate (stepping_sssp on the same pending pool; bounded work on roads) ---"
# rho-stepping on road:700:700 with weights 1..100 at 1 worker, over the
# pending pool keyed by absolute distance: ~51 rounds and ~8.1m edges. The
# 34 relative-gap buckets it replaced took 1,289 rounds and 27m edges.
PASGAL_NUM_THREADS=1 "$prefix/apps/sssp" road:700:700 -a rho -w 100 -r 1 \
    > "$tmp/work_sssp.txt"
m=$(sed -n 's/^graph: .* m=\([0-9]*\).*/\1/p' "$tmp/work_sssp.txt")
edges=$(sed -n 's/.*| edges scanned \([0-9]*\) |.*/\1/p' "$tmp/work_sssp.txt")
rounds=$(sed -n 's/.*| rounds \([0-9]*\) |.*/\1/p' "$tmp/work_sssp.txt")
[ -n "$m" ] && [ -n "$edges" ] && [ -n "$rounds" ] &&
  [ "$edges" -le $((20 * m)) ] && [ "$rounds" -le 100 ] || {
  echo "FAIL: rho-stepping on road:700:700 took $rounds rounds and scanned" \
       "$edges edges (m=$m; need <= 100 rounds and <= 20m edges)" >&2
  exit 1
}

echo "--- TC gate (pasgal_tc matches seq_tc, work repeats across workers) ---"
# Plain build. pasgal_tc closes wedges against per-worker marker rows, seq_tc
# by sorted merges: the counts must agree. pasgal_tc's list reads depend on
# the DAG alone, so edges_scanned must not move between 1 and 4 workers.
tc_count() { sed -n 's/^\([0-9][0-9]*\) triangles$/\1/p' "$1"; }
tc_edges() {
  sed -n 's/.*"totals":{[^}]*"edges_scanned":\([0-9]*\).*/\1/p' "$1"
}
for w in 1 4; do
  env PASGAL_NUM_THREADS=$w "$prefix/apps/tc" rmat:16:1000000 -a pasgal -r 1 \
      --json-metrics "$tmp/tc_pasgal_$w.json" > "$tmp/tc_pasgal_$w.txt"
  "$prefix/apps/metrics_check" "$tmp/tc_pasgal_$w.json"
done
"$prefix/apps/tc" rmat:16:1000000 -a seq -r 1 > "$tmp/tc_seq.txt"
tri_par=$(tc_count "$tmp/tc_pasgal_4.txt")
tri_seq=$(tc_count "$tmp/tc_seq.txt")
[ -n "$tri_par" ] && [ "$tri_par" = "$tri_seq" ] || {
  echo "FAIL: pasgal_tc counted '$tri_par' triangles, seq_tc '$tri_seq'" >&2
  exit 1
}
edges_1=$(tc_edges "$tmp/tc_pasgal_1.json")
edges_4=$(tc_edges "$tmp/tc_pasgal_4.json")
[ -n "$edges_1" ] && [ "$edges_1" = "$edges_4" ] || {
  echo "FAIL: pasgal_tc scanned $edges_1 edges at 1 worker," \
       "$edges_4 at 4" >&2
  exit 1
}

echo "--- k-core gate (pasgal_kcore matches seq_kcore, scans every edge once) ---"
# Plain build. rmat:16 peels past the first 64-level bucket window, so the
# window advance runs. Peeling scans each symmetrized edge exactly once, at
# any worker count.
"$prefix/apps/kcore" rmat:16:1000000 -a seq -r 1 > "$tmp/kcore_seq.txt"
core_seq=$(grep '^max coreness' "$tmp/kcore_seq.txt")
for w in 1 4; do
  env PASGAL_NUM_THREADS=$w "$prefix/apps/kcore" rmat:16:1000000 -a pasgal \
      -r 1 --json-metrics "$tmp/kcore_pasgal_$w.json" > "$tmp/kcore_pasgal_$w.txt"
  "$prefix/apps/metrics_check" "$tmp/kcore_pasgal_$w.json"
  core_par=$(grep '^max coreness' "$tmp/kcore_pasgal_$w.txt")
  [ -n "$core_seq" ] && [ "$core_par" = "$core_seq" ] || {
    echo "FAIL: pasgal_kcore at $w workers printed '$core_par'," \
         "seq_kcore '$core_seq'" >&2
    exit 1
  }
  m=$(sed -n 's/^graph.* m=\([0-9]*\).*/\1/p' "$tmp/kcore_pasgal_$w.txt")
  edges=$(sed -n 's/.*| edges scanned \([0-9]*\) |.*/\1/p' \
      "$tmp/kcore_pasgal_$w.txt")
  [ -n "$m" ] && [ "$edges" = "$m" ] || {
    echo "FAIL: pasgal_kcore at $w workers scanned $edges edges (m=$m)" >&2
    exit 1
  }
done

echo "--- bounded-RSS shard gate (beyond-ceiling graph through --shard-mb) ---"
# Plain build. rmat:18:9M weighted: a bfs open prices ~35 MB of core CSR
# arrays ((n+1)*8 + m*4) and a weighted sssp open ~67 MB (weights ride
# along), so per-driver ceilings of 28 / 50 MB reject the in-core opens
# with kResource while the sharded opens stream the same file through an
# 8 MB window (~1/4 of the 32 MB targets section). The gate then asserts
# the streamed runs actually honoured their ceiling (VmHWM from the
# metrics envelope) and produced byte-identical results to the in-core
# runs.
"$prefix/apps/graph_convert" rmat:18:9000000 "$tmp/shard.pgr" \
    --transpose --weights 30 > /dev/null
bfs_cap_mb=28
sssp_cap_mb=50
expect 4 "$prefix/apps/bfs"  "$tmp/shard.pgr" -a gbbs -r 1 \
    --mem-limit-mb "$bfs_cap_mb"
expect 4 "$prefix/apps/sssp" "$tmp/shard.pgr" -a em   -r 1 \
    --mem-limit-mb "$sssp_cap_mb"

# gapbs pulls through the same shard sweep as gbbs (its bottom-up rounds
# are edge_map_dense rounds), under the bfs ceiling.
gapbs_cap_mb=$bfs_cap_mb
"$prefix/apps/bfs"  "$tmp/shard.pgr" -a gbbs -r 1 \
    | normalize > "$tmp/shard_bfs_ref.txt"
"$prefix/apps/bfs"  "$tmp/shard.pgr" -a gapbs -r 1 \
    | normalize > "$tmp/shard_gapbs_ref.txt"
"$prefix/apps/sssp" "$tmp/shard.pgr" -a em   -r 1 \
    | normalize > "$tmp/shard_sssp_ref.txt"
"$prefix/apps/bfs"  "$tmp/shard.pgr" -a gbbs -r 1 --shard-mb 8 \
    --mem-limit-mb "$bfs_cap_mb" --json-metrics "$tmp/shard_bfs.json" \
    | normalize > "$tmp/shard_bfs.txt"
"$prefix/apps/bfs"  "$tmp/shard.pgr" -a gapbs -r 1 --shard-mb 8 \
    --mem-limit-mb "$gapbs_cap_mb" --json-metrics "$tmp/shard_gapbs.json" \
    | normalize > "$tmp/shard_gapbs.txt"
"$prefix/apps/sssp" "$tmp/shard.pgr" -a em   -r 1 --shard-mb 8 \
    --mem-limit-mb "$sssp_cap_mb" --json-metrics "$tmp/shard_sssp.json" \
    | normalize > "$tmp/shard_sssp.txt"
for algo in bfs gapbs sssp; do
  eval "cap_mb=\$${algo}_cap_mb"
  diff "$tmp/shard_${algo}_ref.txt" "$tmp/shard_${algo}.txt" || {
    echo "FAIL: $algo sharded output differs from the in-core run" >&2; exit 1
  }
  grep -q '"shard":{"shards":' "$tmp/shard_${algo}.json" || {
    echo "FAIL: $algo sharded metrics lack the shard subsection" >&2; exit 1
  }
  rss=$(sed -E 's/.*"peak_rss_bytes":([0-9]+).*/\1/' "$tmp/shard_${algo}.json")
  [ "$rss" -lt $((cap_mb << 20)) ] || {
    echo "FAIL: $algo sharded peak RSS $rss >= ${cap_mb} MB ceiling" >&2; exit 1
  }
  "$prefix/apps/metrics_check" "$tmp/shard_${algo}.json"
done

echo "--- dynamic update gate (overlay vs rebuilt reference, 1/4/8 workers) ---"
# Plain build. graph_convert generates a deterministic update log, the
# --apply-updates path folds it into a from-scratch rebuilt .pgr, and every
# overlay-aware driver run on (base + log) must print byte-identical result
# lines to the plain run on the folded file — per worker count and across
# worker counts. 120 ops on rmat:12 (n=4096) keeps churn under 1% so the
# incremental BFS repair must also beat the full recompute on settles.
"$prefix/apps/graph_convert" rmat:12:40000 "$tmp/upd.pgr" --transpose > /dev/null
"$prefix/apps/graph_convert" "$tmp/upd.pgr" "$tmp/upd.plog" \
    --gen-updates 120:7:4 > /dev/null
"$prefix/apps/graph_convert" "$tmp/upd.pgr" "$tmp/upd_folded.pgr" \
    --apply-updates "$tmp/upd.plog" --transpose > /dev/null
for w in 1 4 8; do
  env PASGAL_NUM_THREADS=$w "$prefix/apps/bfs" "$tmp/upd.pgr" -a gbbs -r 1 \
      --updates "$tmp/upd.plog" --json-metrics "$tmp/upd_bfs_$w.json" \
      | grep -o 'reached .*' > "$tmp/upd_bfs_$w.txt"
  env PASGAL_NUM_THREADS=$w "$prefix/apps/bfs" "$tmp/upd_folded.pgr" \
      -a gbbs -r 1 | grep -o 'reached .*' > "$tmp/upd_bfs_ref_$w.txt"
  env PASGAL_NUM_THREADS=$w "$prefix/apps/cc" "$tmp/upd.pgr" -r 1 \
      --updates "$tmp/upd.plog" --json-metrics "$tmp/upd_cc_$w.json" \
      | grep -o '[0-9][0-9]* components.*' > "$tmp/upd_cc_$w.txt"
  env PASGAL_NUM_THREADS=$w "$prefix/apps/cc" "$tmp/upd_folded.pgr" -r 1 \
      | grep -o '[0-9][0-9]* components.*' > "$tmp/upd_cc_ref_$w.txt"
  env PASGAL_NUM_THREADS=$w "$prefix/apps/pagerank" "$tmp/upd.pgr" -r 1 \
      --updates "$tmp/upd.plog" --json-metrics "$tmp/upd_pr_$w.json" \
      | grep '^converged' > "$tmp/upd_pr_$w.txt"
  env PASGAL_NUM_THREADS=$w "$prefix/apps/pagerank" "$tmp/upd_folded.pgr" \
      -r 1 | grep '^converged' > "$tmp/upd_pr_ref_$w.txt"
  for algo in bfs cc pr; do
    diff "$tmp/upd_${algo}_${w}.txt" "$tmp/upd_${algo}_ref_${w}.txt" || {
      echo "FAIL: $algo overlay result differs from the rebuilt reference" \
           "at $w workers" >&2
      exit 1
    }
    "$prefix/apps/metrics_check" "$tmp/upd_${algo}_${w}.json"
    grep -q '"delta":' "$tmp/upd_${algo}_${w}.json" || {
      echo "FAIL: $algo overlay metrics lack the delta subsection" >&2; exit 1
    }
  done
done
for algo in bfs cc pr; do
  [ "$(cat "$tmp/upd_${algo}_"[148].txt | sort -u | wc -l)" -eq 1 ] || {
    echo "FAIL: $algo overlay results differ across worker counts" >&2; exit 1
  }
done
# Incremental BFS must re-settle strictly fewer vertices than a full
# recompute at this churn (reported in the delta metrics subsection).
resettled=$(sed -E 's/.*"resettled":([0-9]+).*/\1/' "$tmp/upd_bfs_1.json")
full_settled=$(sed -E 's/.*"full_settled":([0-9]+).*/\1/' "$tmp/upd_bfs_1.json")
[ -n "$resettled" ] && [ -n "$full_settled" ] &&
    [ "$resettled" -lt "$full_settled" ] || {
  echo "FAIL: incremental BFS resettled $resettled of $full_settled" \
       "vertices (expected strictly fewer than full recompute)" >&2
  exit 1
}

echo
echo "check.sh: all gates passed"
