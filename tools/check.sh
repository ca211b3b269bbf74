#!/usr/bin/env bash
# Tier-1 verification, an Address+UBSan pass over the RPC wire code, and a
# ThreadSanitizer pass over the concurrent substrate.
#
#   tools/check.sh          # release build + full ctest, stage gates,
#                           # ASan+UBSan RPC suite, then TSan suite
#   tools/check.sh --quick  # TSan pass only on the concurrency-heavy tests
#
# The release tree lives in build/ (the `default` preset in
# CMakePresets.json), the Address+UBSan tree in build-asan/ (`asan`), the
# TSan tree in build-tsan/ (`tsan`).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Concurrency-heavy tier: everything that exercises the sharded master,
# striped stores, thread pool, or the RPC bus — including the
# test_cluster_concurrency stress test.
TSAN_FILTER='test_cluster_|test_rpc_|test_common_thread_pool|test_integration|test_fault_injector'

# Chaos tier: the seeded fault-injection suite — degraded reads riding
# through injected failures, and the kill/revive storm whose repairs are
# driven by the HealthMonitor. Run under TSan so the injector's decision
# counters, the bus chaos hooks, and the monitor/repair pipeline are
# checked for races, not just for correctness.
CHAOS_FILTER='test_fault_injector|test_cluster_degraded_read|test_cluster_chaos'

# Observability tier: the `obs` ctest label — metrics-registry invariants
# under 16 concurrent writers, trace determinism/completeness, the
# ClusterObserver aggregation, and the Eq. 1 partition property suite
# (`ctest -L property` runs just the latter).

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> tier-1: release build + full test suite"
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)"

  echo "==> kernels: cross-ISA equivalence (-L kernels) once per SPCACHE_SIMD level"
  # The data-plane kernel tier: the simd equivalence suite, the CRC/GF(256)
  # unit tests, the RS codec suite, and the allocation-free read-path test,
  # each run with the dispatcher pinned to every tier this CPU supports
  # (unsupported levels clamp down, so the loop is safe on any host).
  for level in scalar ssse3 avx2 avx512; do
    SPCACHE_SIMD="$level" ctest --preset default -L kernels
  done

  echo "==> kernels: bench_micro smoke gates (RS encode throughput, RS and CRC bit-identity across tiers)"
  # Exits non-zero unless every supported tier produces bit-identical RS
  # output and CRCs (crc32_update and crc32_copy_update, copied bytes
  # included) and (when AVX2 is present) single-core RS(8,11) encode clears
  # 4 GB/s at >=2x the scalar tier; timing is best-of-5 to shed scheduler
  # noise on shared hosts.
  (cd build/bench && ./bench_micro --smoke)

  echo "==> observability: registry/trace/observer invariants (-L obs)"
  ctest --preset default -L obs

  echo "==> metadata-light smoke: cached reads must beat the always-LOOKUP baseline"
  # Exits non-zero unless >=90% of steady-state reads skip the master and
  # throughput ends up above the baseline; writes BENCH_metadata.json.
  (cd build/bench && ./bench_metadata_offload --smoke)

  echo "==> repartition smoke: delta must cut >=30% of the rewrite executor's bytes"
  # Shrunken Figs. 16-18 sweep; fig16 exits non-zero unless the delta
  # executor moves <=70% of the rewrite executor's bytes on the
  # online-adjust workload; writes BENCH_repartition.json.
  (cd build/bench && ./bench_fig16_repartition_time --smoke)
  (cd build/bench && ./bench_fig17_repartition_fraction --smoke >/dev/null)
  (cd build/bench && ./bench_fig18_repartition_balance --smoke >/dev/null)

  echo "==> scenario: adversarial suite (-L scenario) + adaptive-vs-frozen smoke gates"
  # The adversarial tier: replay determinism, the closed-loop alpha
  # controller property tests, and the correlated-failure degraded-read
  # invariants. Then bench_scenarios --smoke replays every scripted
  # scenario in both arms and exits non-zero unless per-phase eta and p99
  # stay under its gates with the adaptive controller AND the adaptive
  # arm beats frozen alpha on worst-phase eta; writes BENCH_scenarios.json.
  ctest --preset default -L scenario
  (cd build/bench && timeout -k 5 120 ./bench_scenarios --smoke)

  echo "==> transport: multi-process TCP cluster (1 master + 3 servers + CLI workload)"
  # Boots real daemons on ephemeral localhost ports, drives the write+read
  # workload through spcache_cli --rpc (bit-exact verification inside), and
  # fails on any nonzero exit or a single framing error on the client side.
  # Every daemon runs under a hard `timeout` (belt) on top of its own
  # --max-seconds (suspenders), so a wedged process can never outlive the
  # stage or leak into the next check run.
  TRANSPORT_DIR="$(mktemp -d)"
  TRANSPORT_PIDS=()
  cleanup_transport() {
    for pid in "${TRANSPORT_PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    for pid in "${TRANSPORT_PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$TRANSPORT_DIR"
  }
  trap cleanup_transport EXIT
  timeout -k 5 180 ./build/tools/spcache_masterd --port 0 --max-seconds 170 \
      > "$TRANSPORT_DIR/master.log" 2>&1 &
  TRANSPORT_PIDS+=($!)
  for n in 1 2 3; do
    timeout -k 5 180 ./build/tools/spcache_serverd --node "$n" --port 0 --max-seconds 170 \
        > "$TRANSPORT_DIR/server$n.log" 2>&1 &
    TRANSPORT_PIDS+=($!)
  done
  # Each daemon prints "... listening on HOST:PORT" once bound (--port 0 =
  # kernel-assigned, so parallel check runs cannot collide).
  for _ in $(seq 50); do
    [[ -s "$TRANSPORT_DIR/master.log" && -s "$TRANSPORT_DIR/server3.log" ]] && break
    sleep 0.1
  done
  MASTER_ADDR="$(grep -oE '[0-9.]+:[0-9]+' "$TRANSPORT_DIR/master.log" | head -1)"
  WORKER_ADDRS="$(for n in 1 2 3; do
    grep -oE '[0-9.]+:[0-9]+' "$TRANSPORT_DIR/server$n.log" | head -1
  done | paste -sd,)"
  [[ -n "$MASTER_ADDR" && -n "$WORKER_ADDRS" ]] || {
    echo "transport stage: daemons failed to report their ports" >&2
    cat "$TRANSPORT_DIR"/*.log >&2
    exit 1
  }
  timeout -k 5 120 ./build/tools/spcache_cli --rpc --master "$MASTER_ADDR" \
      --workers "$WORKER_ADDRS" --files 24 --requests 48 --seed 7 \
      | tee "$TRANSPORT_DIR/cli.log"
  grep -q 'mismatches=0 ' "$TRANSPORT_DIR/cli.log"
  grep -q 'transport\.framing_errors=0 ' "$TRANSPORT_DIR/cli.log"
  # Same daemons, adversarial key sequence: the flash-crowd script's
  # phase catalogs shape the reads (hot key flips mid-run), every read
  # still bit-exact over the sockets.
  timeout -k 5 120 ./build/tools/spcache_cli --rpc --master "$MASTER_ADDR" \
      --workers "$WORKER_ADDRS" --scenario flash --requests 60 --seed 7 \
      | tee "$TRANSPORT_DIR/cli_scenario.log"
  grep -q 'mismatches=0 ' "$TRANSPORT_DIR/cli_scenario.log"
  grep -q 'scenario=flash phase=decay' "$TRANSPORT_DIR/cli_scenario.log"
  cleanup_transport
  trap - EXIT

  echo "==> chaos-tcp: seeded socket faults, then a worker killed mid-workload"
  # The hardened-deployment acceptance scenario. Phase 1 writes + reads the
  # dataset through seeded socket chaos (partial writes splitting frames
  # across segments, loop-thread delays) — bit-exact or the stage fails.
  # Phase 2 re-reads the same dataset (regenerated from the seed via
  # --read-only) while one spcache_serverd is kill -9'd mid-run: the
  # masterd's health monitor must detect the death over TCP (missed kPing
  # beats), restore the lost pieces from its stable tier onto the survivor
  # via kPutBlock, and publish the repaired layout — every read still
  # bit-exact, and the master's exit line must report a completed repair
  # that recovered at least one piece.
  CHAOS_DIR="$(mktemp -d)"
  CHAOS_PIDS=()
  cleanup_chaos() {
    # The tracked PIDs are `timeout` wrappers: SIGKILLing one would orphan
    # its daemon, so sweep each wrapper's children first.
    for pid in "${CHAOS_PIDS[@]:-}"; do pkill -9 -P "$pid" 2>/dev/null || true; done
    for pid in "${CHAOS_PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    for pid in "${CHAOS_PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$CHAOS_DIR"
  }
  trap cleanup_chaos EXIT
  SERVER_PIDS=()
  for n in 1 2; do
    timeout -k 5 180 ./build/tools/spcache_serverd --node "$n" --port 0 --max-seconds 170 \
        > "$CHAOS_DIR/server$n.log" 2>&1 &
    SERVER_PIDS+=($!)
    CHAOS_PIDS+=($!)
  done
  for _ in $(seq 50); do
    [[ -s "$CHAOS_DIR/server1.log" && -s "$CHAOS_DIR/server2.log" ]] && break
    sleep 0.1
  done
  CHAOS_WORKERS="$(for n in 1 2; do
    grep -oE '[0-9.]+:[0-9]+' "$CHAOS_DIR/server$n.log" | head -1
  done | paste -sd,)"
  # SPCACHE_LOG=warn makes the monitor's "declared dead" line visible, so
  # phase 2 can wait for the death instead of racing a fixed sleep.
  SPCACHE_LOG=warn timeout -k 5 180 ./build/tools/spcache_masterd --port 0 --max-seconds 170 \
      --workers "$CHAOS_WORKERS" --heartbeat-ms 50 \
      > "$CHAOS_DIR/master.log" 2>&1 &
  MASTERD_PID=$!
  CHAOS_PIDS+=($MASTERD_PID)
  for _ in $(seq 50); do
    [[ -s "$CHAOS_DIR/master.log" ]] && break
    sleep 0.1
  done
  CHAOS_MASTER="$(grep -oE '[0-9.]+:[0-9]+' "$CHAOS_DIR/master.log" | head -1)"
  [[ -n "$CHAOS_MASTER" && -n "$CHAOS_WORKERS" ]] || {
    echo "chaos-tcp stage: daemons failed to report their ports" >&2
    cat "$CHAOS_DIR"/*.log >&2
    exit 1
  }
  # Phase 1: the write+read workload through seeded socket faults.
  timeout -k 5 120 ./build/tools/spcache_cli --rpc --master "$CHAOS_MASTER" \
      --workers "$CHAOS_WORKERS" --files 16 --requests 32 --seed 11 \
      --chaos-seed 5 --chaos-partial 0.05 --chaos-delay 0.05 \
      | tee "$CHAOS_DIR/cli1.log"
  grep -q 'mismatches=0 ' "$CHAOS_DIR/cli1.log"
  grep -qE 'chaos\.partial_writes=[1-9]' "$CHAOS_DIR/cli1.log"
  # Phase 2: read-only re-run in the background; kill -9 worker 2 under it.
  timeout -k 5 120 ./build/tools/spcache_cli --rpc --master "$CHAOS_MASTER" \
      --workers "$CHAOS_WORKERS" --files 16 --requests 2000 --seed 11 \
      --read-only > "$CHAOS_DIR/cli2.log" 2>&1 &
  CLI2_PID=$!
  CHAOS_PIDS+=($CLI2_PID)
  sleep 0.4
  # kill -9 the serverd itself, not its `timeout` wrapper — a SIGKILLed
  # wrapper would orphan the daemon alive.
  SERVERD2_PID="$(pgrep -P "${SERVER_PIDS[1]}" | head -1)"
  kill -9 "${SERVERD2_PID:-${SERVER_PIDS[1]}}" 2>/dev/null || true
  # Nothing makes the 2000 reads outlast the kill: wait (bounded) for the
  # monitor to declare the death before masterd is stopped. If the reads
  # were done by then, read the dataset once more after the declaration,
  # so the stage still reads through the loss and its repair.
  for _ in $(seq 100); do
    grep -q 'declared dead' "$CHAOS_DIR/master.log" && break
    sleep 0.1
  done
  READS_DONE_BEFORE_DEATH=0
  kill -0 "$CLI2_PID" 2>/dev/null || READS_DONE_BEFORE_DEATH=1
  wait "$CLI2_PID"
  grep -q 'mismatches=0 ' "$CHAOS_DIR/cli2.log"
  if [[ "$READS_DONE_BEFORE_DEATH" == 1 ]]; then
    timeout -k 5 120 ./build/tools/spcache_cli --rpc --master "$CHAOS_MASTER" \
        --workers "$CHAOS_WORKERS" --files 16 --requests 200 --seed 11 \
        --read-only > "$CHAOS_DIR/cli3.log" 2>&1
    grep -q 'mismatches=0 ' "$CHAOS_DIR/cli3.log"
  fi
  # The master must have detected the kill and completed an RPC repair.
  kill -TERM "$MASTERD_PID" 2>/dev/null || true
  wait "$MASTERD_PID" 2>/dev/null || true
  grep -qE 'monitor\.deaths_declared=[1-9]' "$CHAOS_DIR/master.log" || {
    echo "chaos-tcp stage: master never declared the killed worker dead" >&2
    cat "$CHAOS_DIR/master.log" >&2
    exit 1
  }
  grep -qE 'monitor\.repairs_completed=[1-9]' "$CHAOS_DIR/master.log" || {
    echo "chaos-tcp stage: master never completed a repair" >&2
    cat "$CHAOS_DIR/master.log" >&2
    exit 1
  }
  # A sweep that skipped every file still completes: the repair must also
  # have re-placed pieces.
  grep -qE 'monitor\.pieces_recovered=[1-9]' "$CHAOS_DIR/master.log" || {
    echo "chaos-tcp stage: the repair re-placed no pieces" >&2
    cat "$CHAOS_DIR/master.log" >&2
    exit 1
  }
  cleanup_chaos
  trap - EXIT
  # The slow-reader/backpressure unit check in the release tree (the whole
  # test_rpc_tcp suite runs again under TSan below).
  timeout -k 5 120 ./build/tests/test_rpc_tcp \
      --gtest_filter='TcpTransport.SlowReaderHitsWatermarkAndFailsFast'

  echo "==> tcp-scale: syscall-lean write path vs the pre-change baseline"
  # bench_tcp_scale boots both arms' daemon clusters (batched and
  # --legacy-write-path), interleaves timed multi-client read reps, then
  # runs an untimed pass with partial-write chaos armed on both sides. The
  # binary itself exits non-zero unless every read (chaos included) was
  # bit-exact, no side saw a framing error, and the batched servers
  # actually gathered (frames_per_writev > 1); the greps below pin those
  # gates in the log so a silently weakened binary can't pass the stage.
  TCP_SCALE_LOG="$(mktemp)"
  timeout -k 5 300 ./build/bench/bench_tcp_scale --smoke --bindir ./build/tools \
      | tee "$TCP_SCALE_LOG"
  grep -q 'gates mismatches=0 framing_errors=0' "$TCP_SCALE_LOG"
  grep -qE 'batched_frames_per_writev=([2-9]|1[0-9.]+[0-9])' "$TCP_SCALE_LOG"
  grep -q 'result=PASS' "$TCP_SCALE_LOG"
  rm -f "$TCP_SCALE_LOG"

  echo "==> asan: Address+UBSan over the RPC suite (decoders, framing, serialize) and the simd kernels"
  # Every decoder that touches wire bytes — the cache/master handlers with
  # their forged-count tests, frame and serialize parsing, the TCP
  # transport — runs under Address+UBSan on every full check, and so does
  # the RecoveryManager's Rpc arm (repair over the RPC PieceStore, the
  # path spcache_masterd runs, including a stale stable copy), and so does
  # the AlphaController's Rpc arm (its delta moves drive the same
  # decoders), and so does the simd kernel suite: it picks every supported
  # tier through kernels_for(), and its exactly-sized buffers catch a
  # vector kernel reading or writing past its input.
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -R 'test_rpc_|test_cluster_recovery|test_cluster_alpha_controller|test_simd_kernels'
fi

echo "==> ThreadSanitizer: configure + build"
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

echo "==> ThreadSanitizer: tier-1 suite (concurrency tier: ${TSAN_FILTER})"
ctest --preset tsan -R "${TSAN_FILTER}"

echo "==> ThreadSanitizer: chaos stage (${CHAOS_FILTER})"
ctest --preset tsan -R "${CHAOS_FILTER}"

echo "==> ThreadSanitizer: kernels stage (-L kernels, scalar tier)"
# Pin the dispatcher to the scalar tier: TSan doesn't understand the vector
# kernels' byte-level parallelism any better, and the scalar loops are the
# ones every tier falls back to for heads/tails, so instrumenting them is
# the coverage that matters. (The allocation-strictness assert in
# test_cluster_read_alloc self-relaxes under sanitizer builds.)
SPCACHE_SIMD=scalar ctest --preset tsan -L kernels

echo "==> ThreadSanitizer: observability stage (-L obs)"
ctest --preset tsan -L obs

echo "==> ThreadSanitizer: scenario stage (-L scenario)"
ctest --preset tsan -L scenario

echo "==> ThreadSanitizer: repartition smoke (staging/cutover under the race detector)"
(cd build-tsan/bench && ./bench_fig16_repartition_time --smoke)

echo "==> all checks passed"
