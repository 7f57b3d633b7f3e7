#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs:
#   configure with -Werror on neo's own sources, build everything
#   (libraries, all test/bench/example targets), run ctest.
# The ctest log is left at $BUILD_DIR/Testing/Temporary/LastTest.log.
#
# Knobs:
#   BUILD_DIR     build directory (default: build)
#   BUILD_TYPE    explicit CMAKE_BUILD_TYPE, e.g. Release for the
#                 -O3 -DNDEBUG job (default: project default, Release)
#   NEO_CI_BENCH  when 1, run the thread-scaling bench after the tests,
#                 writing $NEO_BENCH_JSON for artifact upload. A bench
#                 *crash* is non-gating, but when the JSON is produced and
#                 the previous trajectory point ($NEO_BENCH_BASELINE) is
#                 checked in, bench/diff_bench.sh gates the job: >10%
#                 ms/frame or per-stage (raster, tracker, bin, sort,
#                 frame hash) regression at threads=1 fails CI.
#                 The rasterizer auto-vectorization smoke check
#                 (bench/check_vectorization.sh) also runs; it gates on a
#                 vectorization regression and skips on non-GCC. After the
#                 trajectory point, one NEO_INTEGRITY=check sweep is
#                 recorded (…_integrity.json) and gated against the off
#                 point: >10% check-mode overhead at threads=1 fails.
#                 After the scaling point, the multi-session serving
#                 bench ($NEO_BENCH_SERVER_JSON) runs with its in-bench
#                 isolation contract (delivered hashes vs solo runs), and
#                 its 1-session/threads=1 point is gated against the
#                 scaling point's threads=1 ms/frame: >10% serving-layer
#                 overhead fails CI. The sweep also records the socket
#                 front end's loopback overhead (--net, "net_points" in
#                 the same JSON — informational, not gated) and the
#                 durable-mode pair (--checkpoint, "durable_points"):
#                 checkpoint + write-ahead journal overhead at threads=1
#                 is gated at <=10% over the plain run in the same file.
#   NEO_CI_TSAN   when 1, build a second tree with -DNEO_SANITIZE=thread
#                 and run the server-, net-, durability- and
#                 invariants-labelled tests (the concurrent session
#                 drivers, the socket front end's loopback chaos suite,
#                 the crash-recovery suites and the thread-count
#                 determinism checks) plus test_parallel (the scheduler's
#                 shared claim cursor) under ThreadSanitizer.
#   NEO_BENCH_JSON        output trajectory point
#                         (default: BENCH_PR21_scaling.json)
#   NEO_BENCH_BASELINE    previous trajectory point
#                         (default: BENCH_PR20_scaling.json, recorded on a
#                         4-core box; its BENCH_PR20_scaling_integrity.json
#                         and BENCH_PR20.json siblings are the matching
#                         check-mode and serving-layer reference points)
#   NEO_BENCH_SERVER_JSON serving-layer sweep output (default: BENCH_PR21.json)
set -euo pipefail

cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build}"
BUILD_TYPE="${BUILD_TYPE:-}"
JOBS="${JOBS:-$(nproc)}"
NEO_BENCH_JSON="${NEO_BENCH_JSON:-BENCH_PR21_scaling.json}"
NEO_BENCH_BASELINE="${NEO_BENCH_BASELINE:-BENCH_PR20_scaling.json}"
NEO_BENCH_SERVER_JSON="${NEO_BENCH_SERVER_JSON:-BENCH_PR21.json}"

cmake -B "$BUILD_DIR" -S . -DNEO_WERROR=ON \
    ${BUILD_TYPE:+-DCMAKE_BUILD_TYPE="$BUILD_TYPE"} "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
# The full suite runs oversubscribed, two tests per core: a contract
# that holds only on an idle box (a delivered hash that depends on
# wall-clock timing, say) fails here rather than in production. The
# label reruns below stay at one test per core.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$((2 * JOBS))"

# The integrity suite (bit-flip injection matrix, NEO_INTEGRITY modes) is
# part of the default ctest run above; re-running the label by itself makes
# a fault-detection regression unmissable in the CI log.
echo "ci.sh: re-running integrity-labelled tests"
ctest --test-dir "$BUILD_DIR" -L integrity --output-on-failure -j "$JOBS"

# Same treatment for the multi-session serving layer: the label collects
# the admission/degradation/quarantine suites plus the randomized
# fault-isolation soak.
echo "ci.sh: re-running server-labelled tests"
ctest --test-dir "$BUILD_DIR" -L server --output-on-failure -j "$JOBS"

# The socket front end: wire-codec isolation tests (malformed-frame
# taxonomy, torn delivery, fuzz) plus the loopback chaos suite (network
# faults on victim connections vs bit-identical healthy siblings).
echo "ci.sh: re-running net-labelled tests"
ctest --test-dir "$BUILD_DIR" -L net --output-on-failure -j "$JOBS"

# Durable sessions: snapshot/journal codec taxonomy, crash-injected
# checkpoint writes, in-process kill/recover bit-identity, and the
# real-binary SIGKILL-and-resume attestation.
echo "ci.sh: re-running durability-labelled tests"
ctest --test-dir "$BUILD_DIR" -L durability --output-on-failure -j "$JOBS"

# Scratch capacity must not depend on timing: heaviest-first scheduling
# hands tiles to whichever participant is free, and four concurrent
# copies of the arena suite (zero-alloc and no-regrowth at threads 1, 2
# and 4) starve each other's pool workers — the load that shuffles the
# tile -> participant mapping most.
echo "ci.sh: arena suite under contention (4 copies x 20 repeats)"
ARENA_PIDS=()
for i in 1 2 3 4; do
    "$BUILD_DIR/tests/test_frame_arena" --gtest_repeat=20 \
        >"$BUILD_DIR/frame_arena_contention_$i.log" 2>&1 &
    ARENA_PIDS+=($!)
done
ARENA_FAIL=0
for pid in "${ARENA_PIDS[@]}"; do
    wait "$pid" || ARENA_FAIL=1
done
if [[ "$ARENA_FAIL" != 0 ]]; then
    echo "ci.sh: FAIL — test_frame_arena failed under contention" >&2
    grep -h -B2 -A8 "FAILED\|Failure" \
        "$BUILD_DIR"/frame_arena_contention_*.log | head -80 >&2 || true
    exit 1
fi

# Loopback end-to-end smoke over the real binaries: neo_serve_net binds
# an ephemeral port and prints the solo reference hashes; the client
# drives the same trajectory over the framed protocol and requests a
# graceful drain. The served hashes must be bit-identical to the solo
# render, and the server must exit 0 (drain completed).
echo "ci.sh: loopback socket front-end smoke"
NET_LOG="$BUILD_DIR/neo_serve_net_smoke.log"
"$BUILD_DIR/examples/neo_serve_net" --print-solo 3 >"$NET_LOG" &
NET_PID=$!
NET_PORT=""
for _ in $(seq 1 100); do
    NET_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$NET_LOG")"
    [[ -n "$NET_PORT" ]] && break
    kill -0 "$NET_PID" 2>/dev/null || break
    sleep 0.1
done
if [[ -z "$NET_PORT" ]]; then
    echo "ci.sh: FAIL — socket front end did not report a port" >&2
    kill "$NET_PID" 2>/dev/null || true
    cat "$NET_LOG" >&2 || true
    exit 1
fi
CLIENT_OUT="$("$BUILD_DIR/examples/neo_serve_net_client" \
    --port "$NET_PORT" --frames 3 --shutdown)"
if ! wait "$NET_PID"; then
    echo "ci.sh: FAIL — socket front end exited without a clean drain" >&2
    cat "$NET_LOG" >&2 || true
    exit 1
fi
SOLO_HASHES="$(sed -n 's/^solo [0-9]* //p' "$NET_LOG")"
WIRE_HASHES="$(sed -n 's/^frame [0-9]* //p' <<<"$CLIENT_OUT")"
if [[ -z "$SOLO_HASHES" || "$SOLO_HASHES" != "$WIRE_HASHES" ]]; then
    echo "ci.sh: FAIL — hashes served over the wire differ from the" \
         "solo render" >&2
    echo "--- server log:" >&2
    cat "$NET_LOG" >&2 || true
    echo "--- client output:" >&2
    printf '%s\n' "$CLIENT_OUT" >&2
    exit 1
fi
if ! grep -q "shutdown acked" <<<"$CLIENT_OUT"; then
    echo "ci.sh: FAIL — client shutdown request was not acked" >&2
    exit 1
fi
echo "ci.sh: socket front-end smoke OK (3 frames bit-identical over" \
     "the wire, drained cleanly)"

# Kill-9-and-recover smoke over the real binaries: a durable server is
# SIGKILLed mid-stream (no drain, no warning), restarted on the same
# state directory, and the resumed session's served hashes must equal
# the uninterrupted solo reference — the headline durability contract,
# exercised end to end outside the test harness.
echo "ci.sh: kill-9-and-recover durability smoke"
DUR_DIR="$BUILD_DIR/neo_serve_net_durable_state"
DUR_LOG="$BUILD_DIR/neo_serve_net_durable.log"
rm -rf "$DUR_DIR"
"$BUILD_DIR/examples/neo_serve_net" --print-solo 6 --state-dir "$DUR_DIR" \
    >"$DUR_LOG" &
DUR_PID=$!
DUR_PORT=""
for _ in $(seq 1 100); do
    DUR_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$DUR_LOG")"
    [[ -n "$DUR_PORT" ]] && break
    kill -0 "$DUR_PID" 2>/dev/null || break
    sleep 0.1
done
if [[ -z "$DUR_PORT" ]]; then
    echo "ci.sh: FAIL — durable server did not report a port" >&2
    kill "$DUR_PID" 2>/dev/null || true
    cat "$DUR_LOG" >&2 || true
    exit 1
fi
# First client: three frames land (journaled) and the session is left
# open (--abandon, no Close record), then the server is SIGKILLed — no
# drain, no final snapshot.
"$BUILD_DIR/examples/neo_serve_net_client" --port "$DUR_PORT" --frames 3 \
    --abandon >/dev/null
kill -9 "$DUR_PID"
wait "$DUR_PID" 2>/dev/null || true
# Second incarnation on the same state directory must recover...
DUR_LOG2="$BUILD_DIR/neo_serve_net_durable2.log"
"$BUILD_DIR/examples/neo_serve_net" --state-dir "$DUR_DIR" >"$DUR_LOG2" &
DUR_PID=$!
DUR_PORT=""
for _ in $(seq 1 100); do
    DUR_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$DUR_LOG2")"
    [[ -n "$DUR_PORT" ]] && break
    kill -0 "$DUR_PID" 2>/dev/null || break
    sleep 0.1
done
if [[ -z "$DUR_PORT" ]]; then
    echo "ci.sh: FAIL — restarted durable server did not report a port" >&2
    kill "$DUR_PID" 2>/dev/null || true
    cat "$DUR_LOG2" >&2 || true
    exit 1
fi
if ! grep -q '^recovered ' "$DUR_LOG2"; then
    echo "ci.sh: FAIL — restarted durable server printed no recovery" \
         "attestation" >&2
    kill "$DUR_PID" 2>/dev/null || true
    cat "$DUR_LOG2" >&2 || true
    exit 1
fi
# ...and the resumed session continues bit-identically to the solo
# reference incarnation A printed for the full 6-frame stream.
DUR_CLIENT_OUT="$("$BUILD_DIR/examples/neo_serve_net_client" \
    --port "$DUR_PORT" --resume 0 --start-frame 3 --frames 3 --shutdown)"
if ! wait "$DUR_PID"; then
    echo "ci.sh: FAIL — restarted durable server exited without a clean" \
         "drain" >&2
    cat "$DUR_LOG2" >&2 || true
    exit 1
fi
DUR_SOLO="$(sed -n 's/^solo [345] //p' "$DUR_LOG")"
DUR_WIRE="$(sed -n 's/^frame [345] //p' <<<"$DUR_CLIENT_OUT")"
if [[ -z "$DUR_SOLO" || "$DUR_SOLO" != "$DUR_WIRE" ]]; then
    echo "ci.sh: FAIL — hashes served after kill-9 recovery differ from" \
         "the uninterrupted solo render" >&2
    echo "--- incarnation A log:" >&2
    cat "$DUR_LOG" >&2 || true
    echo "--- incarnation B log:" >&2
    cat "$DUR_LOG2" >&2 || true
    echo "--- resumed client output:" >&2
    printf '%s\n' "$DUR_CLIENT_OUT" >&2
    exit 1
fi
if ! grep -q "session 0 resumed" <<<"$DUR_CLIENT_OUT"; then
    echo "ci.sh: FAIL — client did not resume the recovered session" >&2
    exit 1
fi
rm -rf "$DUR_DIR"
echo "ci.sh: kill-9-and-recover smoke OK (resumed frames bit-identical" \
     "to the uninterrupted solo render)"

if [[ "${NEO_CI_TSAN:-0}" == "1" ]]; then
    # The serving layer's concurrency contract (submit()/stats() vs one
    # driver per session, shared pool dispatch from N drivers) is
    # exactly the kind of thing TSAN catches and unit asserts miss. The
    # net label rides along: its chaos suite runs the poll loop in a
    # dedicated thread against blocking clients, the same
    # loop-thread-vs-driver shape the front end ships with. The
    # invariants label and test_parallel cover the heaviest-first
    # scheduler: its shared claim cursor and the post-join high-water
    # pass over per-participant scratch.
    TSAN_DIR="${TSAN_DIR:-build-tsan}"
    echo "ci.sh: building with -fsanitize=thread into $TSAN_DIR"
    cmake -B "$TSAN_DIR" -S . -DNEO_WERROR=ON -DNEO_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$TSAN_DIR" -j "$JOBS"
    echo "ci.sh: running server-, net-, durability- and" \
         "invariants-labelled tests plus test_parallel under TSAN"
    ctest --test-dir "$TSAN_DIR" -L 'server|net|durability|invariants' \
        --output-on-failure -j "$JOBS"
    "$TSAN_DIR/tests/test_parallel"
fi

if [[ "${NEO_CI_BENCH:-0}" == "1" ]]; then
    echo "ci.sh: checking rasterizer auto-vectorization"
    rc=0
    bench/check_vectorization.sh || rc=$?
    # Fail-closed: 0 = pass, 2 = documented skip (non-GCC toolchain);
    # anything else — including a missing or broken script — gates.
    if [[ "$rc" != "0" && "$rc" != "2" ]]; then
        echo "ci.sh: FAIL — rasterizer vectorization check failed (rc=$rc)" >&2
        exit 1
    fi

    echo "ci.sh: running thread-scaling bench"
    if ! bench/run_benches.sh "$BUILD_DIR" "$NEO_BENCH_JSON"; then
        echo "ci.sh: WARNING scaling bench failed (non-gating)" >&2
    else
        if [[ -f "$NEO_BENCH_BASELINE" && "$NEO_BENCH_BASELINE" != "$NEO_BENCH_JSON" ]]; then
            echo "ci.sh: gating on perf regression vs $NEO_BENCH_BASELINE"
            bench/diff_bench.sh "$NEO_BENCH_BASELINE" "$NEO_BENCH_JSON"
        fi

        # One check-mode point alongside the trajectory point: its JSON is
        # an artifact, and diff_bench.sh gates the *fenced* sweep against
        # the integrity-off point just recorded on this same machine —
        # check-mode overhead above 10% ms/frame at threads=1 fails CI.
        NEO_INTEGRITY_JSON="${NEO_BENCH_JSON%.json}_integrity.json"
        echo "ci.sh: running check-mode integrity bench point"
        if ! NEO_BENCH_INTEGRITY=check \
             bench/run_benches.sh "$BUILD_DIR" "$NEO_INTEGRITY_JSON"; then
            echo "ci.sh: WARNING integrity bench failed (non-gating)" >&2
        else
            echo "ci.sh: gating check-mode overhead vs $NEO_BENCH_JSON"
            bench/diff_bench.sh "$NEO_BENCH_JSON" "$NEO_INTEGRITY_JSON"
        fi

        # The serving-layer sweep: bench_server fails by itself when any
        # delivered hash differs from the solo run (isolation contract),
        # and diff_bench.sh gates its 1-session/threads=1 point against
        # the scaling point — both time the same NeoRenderer frame loop
        # and per-frame hash, so the serving layer (queues, QoS,
        # quarantine bookkeeping) must stay within 10% of it.
        # --net adds the loopback socket sweep: the same workload over
        # the framed wire protocol, with the per-request overhead
        # recorded in a "net_points" array the gate ignores. --checkpoint
        # adds the durable-mode pair, whose threads=1 overhead
        # diff_bench.sh gates at <=10% against the plain run in the same
        # file.
        echo "ci.sh: running multi-session serving bench"
        if ! "$BUILD_DIR/bench/bench_server" --json "$NEO_BENCH_SERVER_JSON" \
             --pr "${NEO_BENCH_PR:-21}" --net --checkpoint; then
            echo "ci.sh: FAIL — serving bench failed (isolation contract" \
                 "or crash)" >&2
            exit 1
        fi
        echo "ci.sh: gating serving-layer overhead vs $NEO_BENCH_JSON"
        bench/diff_bench.sh "$NEO_BENCH_JSON" "$NEO_BENCH_SERVER_JSON"
    fi
fi

echo "ci.sh: all green (log: $BUILD_DIR/Testing/Temporary/LastTest.log)"
