#!/usr/bin/env bash
# CI entry point — also runnable locally. Builds the Release tree, a
# ThreadSanitizer tree and an AddressSanitizer tree, then runs the full
# ctest suite under both NAZAR_THREADS=1 (sequential reference) and
# NAZAR_THREADS=4 (parallel runtime). Any test regression or sanitizer
# report fails the script.
#
# Usage: ./ci.sh [--release-only|--tsan-only|--asan-only]
set -euo pipefail

cd "$(dirname "$0")"

JOBS="$(nproc)"
DO_RELEASE=1
DO_TSAN=1
DO_ASAN=1
for arg in "$@"; do
    case "$arg" in
      --release-only) DO_TSAN=0; DO_ASAN=0 ;;
      --tsan-only) DO_RELEASE=0; DO_ASAN=0 ;;
      --asan-only) DO_RELEASE=0; DO_TSAN=0 ;;
      *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

run_suite() {
    local build_dir="$1"
    for threads in 1 4; do
        echo "==== ctest ($build_dir, NAZAR_THREADS=$threads) ===="
        NAZAR_THREADS="$threads" \
            ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
    done
}

# Flake hunt: the socket/crash tests, the RCA determinism tests (bitmap
# counts == row-scan oracle on every popcount variant, 1 thread == N),
# the nn exactness tests (every gemm variant == plain loops, golden
# logits, pool 1 == N), the recovery tests (crash/disk-fault sweeps,
# replay skip rule == plain replay, CRC and date kernels == their
# oracles) and the transport tests (channel delivery, wire decoders)
# must pass 20 runs in a row at both pool widths.
repeat_until_fail() {
    local build_dir="$1" label="$2"
    local tests='test_server|test_fim|test_property_rca|test_columnar'
    tests+='|test_matrix|test_property_nn|test_runtime'
    tests+='|test_persist|test_diskfault|test_sim_date'
    tests+='|test_net|test_wire'
    for threads in 1 4; do
        echo "==== repeat-until-fail x20 ($label, NAZAR_THREADS=$threads) ===="
        NAZAR_THREADS="$threads" ctest --test-dir "$build_dir" \
            --output-on-failure --repeat until-fail:20 -R "$tests"
    done
}

if [ "$DO_RELEASE" = 1 ]; then
    # -Werror=format: a printf argument that does not match its
    # conversion fails the build instead of scrolling past.
    cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-Werror=format
    cmake --build build-ci -j "$JOBS"
    # The nn library is built with -ffp-contract=off: a fused
    # multiply-add rounds once where the gemm kernel's contract (and
    # test_matrix's plain-loop oracle) rounds twice.
    echo "==== no fused multiply-add in libnazar_nn.a (Release) ===="
    objdump -d build-ci/src/nn/libnazar_nn.a > build-ci/nazar_nn.dis
    if grep -E 'vfn?m(add|sub)' build-ci/nazar_nn.dis; then
        echo "libnazar_nn.a contains fused multiply-add instructions" >&2
        exit 1
    fi
    # The RCA popcount kernels are compiled for the baseline ISA and
    # under [[gnu::target("popcnt")]]; the build sets no -mpopcnt, so a
    # popcnt instruction in libnazar_rca.a is the dispatched variant.
    if [ "$(uname -m)" = x86_64 ]; then
        echo "==== dispatched popcnt variant in libnazar_rca.a (Release) ===="
        objdump -d build-ci/src/rca/libnazar_rca.a > build-ci/nazar_rca.dis
        grep -q -w popcnt build-ci/nazar_rca.dis || {
            echo "libnazar_rca.a has no popcnt instruction" >&2; exit 1; }
        # Likewise the CRC32 folding kernel, compiled under
        # [[gnu::target("pclmul,sse4.1")]] with no -mpclmul: objdump
        # spells pclmulqdq by its immediate (pclmullqlqdq, ...).
        echo "==== dispatched pclmul CRC32 in libnazar_persist.a (Release) ===="
        objdump -d build-ci/src/persist/libnazar_persist.a \
            > build-ci/nazar_persist.dis
        grep -q -E '\bpclmul(qdq|[lh]q[lh]qdq)\b' \
            build-ci/nazar_persist.dis || {
            echo "libnazar_persist.a has no pclmulqdq instruction" >&2
            exit 1; }
    fi
    run_suite build-ci
    repeat_until_fail build-ci Release
    # Smoke-run the scaling benches in quick mode so a broken bench
    # binary fails CI even though throughput is not asserted.
    ./build-ci/bench/bench_runtime_scaling --quick > /dev/null
    ./build-ci/bench/bench_fig9d_rca_scaling --quick > /dev/null
    ./build-ci/bench/bench_fig9d_rca_scaling --sweep --quick > /dev/null
    # SQL engine smoke: a query and its EXPLAIN against a generated
    # log. The EXPLAIN must show the planner actually pruned columns
    # and bound the predicate to a dictionary-id range; the executed
    # query must agree with the differential suite's oracle-checked
    # path (test_columnar runs in every leg above — this checks the
    # nazar_ops wiring on top of it).
    echo "==== sql smoke (Release) ===="
    ./build-ci/tools/nazar_ops gen-log build-ci/sql_smoke.csv 5000 7 \
        > /dev/null
    ./build-ci/tools/nazar_ops sql build-ci/sql_smoke.csv \
        "SELECT weather, COUNT(*) FROM drift_log WHERE drift = true \
         GROUP BY weather ORDER BY COUNT(*) DESC" \
        > build-ci/sql_smoke.out
    grep -q "rows)" build-ci/sql_smoke.out || {
        echo "sql smoke: query produced no result table" >&2; exit 1; }
    ./build-ci/tools/nazar_ops sql build-ci/sql_smoke.csv \
        "EXPLAIN SELECT weather, COUNT(*) FROM drift_log \
         WHERE drift = true GROUP BY weather" \
        > build-ci/sql_explain.out
    grep -q "pruned" build-ci/sql_explain.out || {
        echo "sql smoke: EXPLAIN shows no column pruning" >&2; exit 1; }
    grep -q "ids \[" build-ci/sql_explain.out || {
        echo "sql smoke: EXPLAIN shows no bound id range" >&2; exit 1; }
    # Observability smoke: a short e2e sim must produce a metrics
    # snapshot that parses as JSON and contains spans/counters from
    # every instrumented layer.
    ./build-ci/tools/nazar_ops sim 1 \
        --metrics-out=build-ci/metrics.json > /dev/null
    for key in sim.window sim.cloud.rca rca.fim.mine nn.forward \
               detect.msp.samples driftlog.rows_ingested \
               runtime.batches.inline; do
        grep -q "\"$key\"" build-ci/metrics.json || {
            echo "metrics snapshot missing key: $key" >&2; exit 1; }
    done
    if command -v python3 > /dev/null; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
            build-ci/metrics.json
    fi
    # Work counters repeat exactly: two runs of the same sim at four
    # pool threads print the same `counters:` block. The chunk
    # caller/worker split depends on scheduling and is printed in its
    # own table after it.
    echo "==== sim counters repeat exactly (Release, NAZAR_THREADS=4) ===="
    for run in 1 2; do
        NAZAR_THREADS=4 ./build-ci/tools/nazar_ops sim 2 \
            > "build-ci/sim_counters_$run.log"
        awk '/^counters:/ { f = 1 }
             /^scheduling-dependent counters:/ { f = 0 }
             f' "build-ci/sim_counters_$run.log" \
            > "build-ci/sim_counters_$run.txt"
    done
    [ -s build-ci/sim_counters_1.txt ] || {
        echo "sim counters: no counters block" >&2; exit 1; }
    diff build-ci/sim_counters_1.txt build-ci/sim_counters_2.txt || {
        echo "sim counters: two runs differ" >&2; exit 1; }
    # Chaos smoke: a short e2e sim over a lossy channel must still
    # complete, dedup retransmissions, and hold the documented
    # accuracy floor (clean drifted accuracy is ~0.84 at this scale;
    # 0.70 is the deliberately conservative bound — regression past it
    # means graceful degradation broke, not that the network got
    # unlucky: the fault seed is fixed).
    echo "==== chaos smoke (Release) ===="
    ./build-ci/tools/nazar_ops sim 2 --drop=0.2 --dup=0.1 \
        --push-drop=0.2 --metrics-out=build-ci/chaos_metrics.json \
        > build-ci/chaos_smoke.log
    ./build-ci/tools/nazar_ops faults build-ci/chaos_metrics.json \
        > /dev/null
    dedup="$(grep -o '"net\.dedup_hits": [0-9]*' \
        build-ci/chaos_metrics.json | grep -o '[0-9]*$')"
    [ "${dedup:-0}" -gt 0 ] || {
        echo "chaos smoke: net.dedup_hits is zero" >&2; exit 1; }
    awk '/^avgAccuracyDrifted/ {
            if ($2 + 0 < 0.70) {
                print "chaos smoke: avgAccuracyDrifted " $2 \
                      " below floor 0.70" > "/dev/stderr"
                exit 1
            }
            found = 1
         }
         END { if (!found) exit 1 }' build-ci/chaos_smoke.log
    ./build-ci/bench/bench_fault_sweep --quick > /dev/null
    # Crash-recovery smoke: a lossy sim with durability on and a
    # crash armed on the WAL write path must lose the cloud mid-run
    # (a torn record), rebuild it
    # from the WAL+snapshot directory, finish every window, and hold
    # the same accuracy floor as the chaos smoke. The state directory
    # it leaves behind must then be loadable offline.
    echo "==== crash-recovery smoke (Release) ===="
    rm -rf build-ci/crash_state
    ./build-ci/tools/nazar_ops sim 2 --drop=0.1 --dup=0.05 \
        --persist-dir=build-ci/crash_state --snapshot-every=64 \
        --fault-site=env.wal.write --fault-kind=crash --fault-hit=333 \
        > build-ci/crash_smoke.log
    grep -q '^cloudCrashes [1-9]' build-ci/crash_smoke.log || {
        echo "crash smoke: injected crash never fired" >&2; exit 1; }
    awk '/^avgAccuracyDrifted/ {
            if ($2 + 0 < 0.70) {
                print "crash smoke: avgAccuracyDrifted " $2 \
                      " below floor 0.70" > "/dev/stderr"
                exit 1
            }
            found = 1
         }
         END { if (!found) exit 1 }' build-ci/crash_smoke.log
    ./build-ci/tools/nazar_ops recover build-ci/crash_state > /dev/null
    ./build-ci/tools/nazar_ops wal build-ci/crash_state/wal.log \
        > /dev/null
    # The offline scrubber must certify the crash-surviving directory:
    # every WAL record CRC, every chain-file header and link.
    ./build-ci/tools/nazar_ops scrub build-ci/crash_state \
        > build-ci/crash_scrub.out
    grep -q "SCRUB ok" build-ci/crash_scrub.out || {
        echo "crash smoke: scrub found integrity issues" >&2; exit 1; }
    ./build-ci/bench/bench_crash_recovery --quick > /dev/null
    # Disk-fault smoke: a sim with an injected mid-run ENOSPC on the
    # WAL write path must latch the fsync gate (not crash), rebuild
    # from the last durable state, finish every window, and leave a
    # scrub-clean directory behind.
    echo "==== disk-fault smoke (Release) ===="
    rm -rf build-ci/diskfault_state
    ./build-ci/tools/nazar_ops sim 2 --drop=0.1 --dup=0.05 \
        --persist-dir=build-ci/diskfault_state --snapshot-every=64 \
        --fault-site=env.wal.write --fault-kind=enospc --fault-hit=333 \
        > build-ci/diskfault_smoke.log
    grep -q '^cloudDiskFaults [1-9]' build-ci/diskfault_smoke.log || {
        echo "disk-fault smoke: injected fault never fired" >&2
        exit 1; }
    ./build-ci/tools/nazar_ops scrub build-ci/diskfault_state \
        > build-ci/diskfault_scrub.out
    grep -q "SCRUB ok" build-ci/diskfault_scrub.out || {
        echo "disk-fault smoke: scrub found integrity issues" >&2
        exit 1; }
    # Networked-cloud smoke: a real server process behind a real
    # socket, chaotic clients, exact reconciliation, then a SIGTERM
    # shutdown that must drain cleanly and leave a loadable state dir.
    echo "==== ingest server smoke (Release) ===="
    rm -rf build-ci/served_state build-ci/served.port
    ./build-ci/tools/nazar_served serve \
        --port-file=build-ci/served.port \
        --persist-dir=build-ci/served_state --fsync=fdatasync \
        > build-ci/served.log 2>&1 &
    SERVED_PID=$!
    for _ in $(seq 1 100); do
        [ -f build-ci/served.port ] && break
        sleep 0.1
    done
    [ -f build-ci/served.port ] || {
        echo "server smoke: port file never appeared" >&2; exit 1; }
    ./build-ci/tools/nazar_served load \
        --port="$(cat build-ci/served.port)" \
        --clients=4 --events=200 --drop=0.3 --dup=0.2 --fault-seed=11 \
        > build-ci/served_load.log
    grep -q "RECONCILED ok" build-ci/served_load.log || {
        echo "server smoke: load did not reconcile" >&2; exit 1; }
    kill -TERM "$SERVED_PID"
    wait "$SERVED_PID" || {
        echo "server smoke: serve exited non-zero" >&2; exit 1; }
    grep -q "clean shutdown" build-ci/served.log || {
        echo "server smoke: no clean shutdown line" >&2; exit 1; }
    ./build-ci/tools/nazar_ops recover build-ci/served_state \
        > /dev/null
    ./build-ci/bench/bench_ingest_server --quick > /dev/null
    # Kill-restart chaos smoke: the supervise harness kills the
    # committer mid-load (SIGKILL-equivalent crash injection) twice,
    # rebuilds the cloud from the state dir and restarts the listener
    # on the same port; the chaotic reconnect-enabled clients must
    # resume their sessions and reconcile exactly — every event
    # accepted once, every deliberate duplicate rejected — and the
    # surviving state dir must load offline.
    echo "==== kill-restart chaos smoke (Release) ===="
    rm -rf build-ci/supervise_state
    ./build-ci/tools/nazar_served supervise \
        --persist-dir=build-ci/supervise_state \
        --kills=2 --kill-after-ms=300 --clients=4 --events=8000 \
        --drop=0.02 --dup=0.05 --fault-seed=11 \
        > build-ci/supervise.log
    grep -q "RECONCILED ok" build-ci/supervise.log || {
        echo "kill-restart smoke: load did not reconcile" >&2
        exit 1; }
    grep -q "SUPERVISE kills=2 .*stateOk=1" build-ci/supervise.log || {
        echo "kill-restart smoke: expected 2 kills and clean state" >&2
        exit 1; }
    ./build-ci/tools/nazar_ops recover build-ci/supervise_state \
        > /dev/null
    # Disk-fault supervise smoke: two latch->restart episodes (ENOSPC
    # on the write path, then a failed fsync that drops dirty pages).
    # Each faulted child stops acking, reports the latch and exits;
    # the supervisor restarts over the recovered state; the resuming
    # clients must still reconcile exactly-once, and the surviving
    # directory must scrub clean.
    echo "==== disk-fault supervise smoke (Release) ===="
    rm -rf build-ci/diskfault_sup_state
    ./build-ci/tools/nazar_served supervise \
        --persist-dir=build-ci/diskfault_sup_state \
        --disk-faults=2 --clients=3 --events=2000 \
        --drop=0.02 --dup=0.05 --fault-seed=11 \
        > build-ci/diskfault_sup.log
    grep -q "RECONCILED ok" build-ci/diskfault_sup.log || {
        echo "disk-fault supervise smoke: did not reconcile" >&2
        exit 1; }
    grep -q "diskFaults=2 .*stateOk=1" build-ci/diskfault_sup.log || {
        echo "disk-fault supervise smoke: expected 2 episodes and" \
             "clean state" >&2
        exit 1; }
    ./build-ci/tools/nazar_ops scrub build-ci/diskfault_sup_state \
        > build-ci/diskfault_sup_scrub.out
    grep -q "SCRUB ok" build-ci/diskfault_sup_scrub.out || {
        echo "disk-fault supervise smoke: scrub found issues" >&2
        exit 1; }
    # Causal-tracing smoke: a chaotic in-process served run with
    # tracing on must produce a Perfetto-loadable Chrome trace where a
    # device upload's trace id links the client send through the
    # server's reader/committer threads to the WAL sync and the ack —
    # and the summarizer must be able to read its critical path.
    echo "==== causal tracing smoke (Release) ===="
    rm -rf build-ci/trace_state build-ci/served_trace.json
    TRACE_CLIENTS=2
    ./build-ci/tools/nazar_served smoke \
        --clients="$TRACE_CLIENTS" --events=80 --drop=0.2 --dup=0.1 \
        --fault-seed=7 \
        --persist-dir=build-ci/trace_state --fsync=fdatasync \
        --trace-out=build-ci/served_trace.json \
        > build-ci/served_trace.log
    grep -q "RECONCILED ok" build-ci/served_trace.log || {
        echo "tracing smoke: load did not reconcile" >&2; exit 1; }
    grep -q "LOADGEN stage server.queue_wait" \
        build-ci/served_trace.log || {
        echo "tracing smoke: no per-stage breakdown" >&2; exit 1; }
    # Acks are coalesced: at most one ack write per connection per
    # group commit (a deterministic work counter, not a timing).
    awk -v clients="$TRACE_CLIENTS" '/^SERVED / {
            for (i = 1; i <= NF; ++i) {
                split($i, kv, "=")
                if (kv[1] == "batches") batches = kv[2]
                if (kv[1] == "ackWrites") writes = kv[2]
            }
            found = 1
         }
         END {
            if (!found || writes == "") {
                print "tracing smoke: no ackWrites on the SERVED line" \
                      > "/dev/stderr"
                exit 1
            }
            if (writes + 0 > clients * batches) {
                print "tracing smoke: ackWrites " writes " > clients x " \
                      "batches (" clients " x " batches ")" \
                      > "/dev/stderr"
                exit 1
            }
         }' build-ci/served_trace.log
    if command -v python3 > /dev/null; then
        python3 - build-ci/served_trace.json <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
names = {e["name"] for e in events}
for need in ("net.client.ingest", "server.queue_wait",
             "server.commit", "persist.wal.sync", "server.ack"):
    assert need in names, f"missing span: {need}"
spans = {(e["args"]["trace"], e["args"]["span"]): e for e in events}
linked = 0
for e in events:
    parent = (e["args"]["trace"], e["args"]["parent"])
    if e["args"]["parent"] != "0" and parent in spans:
        tids = {e["tid"], spans[parent]["tid"]}
        if e["name"].startswith("server.") and len(tids) >= 2:
            linked += 1
assert linked > 0, "no cross-thread parent links resolved"
print(f"tracing smoke: {len(events)} events, "
      f"{linked} cross-thread links")
EOF
    fi
    ./build-ci/tools/nazar_ops trace build-ci/served_trace.json \
        > build-ci/trace_summary.out
    grep -q "critical path" build-ci/trace_summary.out || {
        echo "tracing smoke: no critical-path summary" >&2; exit 1; }
    # Tracing off must be bit-identical to never-traced runs at both
    # pool widths (the gtest drives the full fleet loop both ways).
    echo "==== tracing-off bit-identical (Release) ===="
    ./build-ci/tests/test_obs --gtest_filter=\
'ObsDeterminism.TracingOnOffBitIdenticalAcrossThreadCounts' \
        > /dev/null
fi

if [ "$DO_TSAN" = 1 ]; then
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNAZAR_SANITIZE=thread
    cmake --build build-tsan -j "$JOBS"
    # TSAN aborts the process on any report (halt_on_error), so a data
    # race in the parallel runtime or the sharded RCA scans fails ctest.
    export TSAN_OPTIONS="halt_on_error=1"
    run_suite build-tsan
    repeat_until_fail build-tsan TSAN
    # Hammer the metrics registry explicitly under TSAN: 8 threads on
    # shared counters/histograms plus concurrent registration.
    echo "==== obs registry stress (TSAN) ===="
    ./build-tsan/tests/test_obs \
        --gtest_filter='ObsTest.ConcurrentRegistryStress'
    # And the trace rings: 8 threads appending spans concurrently with
    # tracing on must be race-free and lose nothing uncounted.
    echo "==== trace ring stress (TSAN) ===="
    ./build-tsan/tests/test_obs \
        --gtest_filter='ObsTest.TraceRingsConcurrentStress'
    # Chaos smoke under TSAN: the faulted channel + idempotent ingest
    # must be race-free at both pool widths.
    for threads in 1 4; do
        echo "==== chaos smoke (TSAN, NAZAR_THREADS=$threads) ===="
        NAZAR_THREADS="$threads" ./build-tsan/tools/nazar_ops sim 1 \
            --drop=0.2 --dup=0.1 --push-drop=0.2 > /dev/null
    done
fi

if [ "$DO_ASAN" = 1 ]; then
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNAZAR_SANITIZE=address
    cmake --build build-asan -j "$JOBS"
    # ASAN + LSAN: heap misuse or a leak anywhere in the suite fails
    # ctest. The durability layer is the main customer — every crash
    # injection unwinds through the WAL/snapshot file handles.
    export ASAN_OPTIONS="halt_on_error=1"
    run_suite build-asan
    # Crash-recovery smoke under ASAN: the crash/reopen cycle must not
    # leak the WAL handle or the recovered buffers.
    echo "==== crash-recovery smoke (ASAN) ===="
    rm -rf build-asan/crash_state
    ./build-asan/tools/nazar_ops sim 1 \
        --persist-dir=build-asan/crash_state --snapshot-every=64 \
        --fault-site=env.wal.write --fault-kind=crash --fault-hit=333 \
        > /dev/null
    # Disk-fault smoke under ASAN: the Env fault paths (short write,
    # latch, dropped dirty tail) and the faulted-cloud rebuild must
    # neither leak the poisoned WAL handle nor touch freed buffers.
    echo "==== disk-fault smoke (ASAN) ===="
    rm -rf build-asan/diskfault_state
    ./build-asan/tools/nazar_ops sim 1 \
        --persist-dir=build-asan/diskfault_state --snapshot-every=64 \
        --fault-site=env.wal.sync --fault-kind=sync_fail --fault-hit=200 \
        > /dev/null
    ./build-asan/tools/nazar_ops scrub build-asan/diskfault_state \
        > /dev/null
    # Ingest-server smoke under ASAN: server, chaotic clients and
    # shutdown in one process — sockets, reader threads and the
    # committer must neither leak nor touch freed frames.
    echo "==== ingest server smoke (ASAN) ===="
    ./build-asan/tools/nazar_served smoke \
        --clients=4 --events=100 --drop=0.3 --dup=0.2 --fault-seed=11 \
        > /dev/null
fi

echo "CI OK"
