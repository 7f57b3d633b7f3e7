#!/usr/bin/env bash
# Machine-readable perf trajectory entry point.
#
# Runs the thread-scaling bench (the served frame loop, stage by stage)
# against an existing build and writes the trajectory JSON into the repo
# root, so every PR appends a comparable point (BENCH_PR<n>.json) that
# bench/diff_bench.sh can gate against the previous one.
#
#   bench/run_benches.sh [BUILD_DIR] [OUTPUT_JSON]
#
# BUILD_DIR defaults to ./build; OUTPUT_JSON to ./BENCH_PR7.json — pass
# the PR's own filename explicitly from CI. The "pr" field comes from an
# output name of the form BENCH_PR<n>.json or BENCH_PR<n>_<suffix>.json.
# Knobs: NEO_BENCH_GAUSSIANS / NEO_BENCH_FRAMES_SCALING / NEO_BENCH_THREADS
# shrink or grow the run (CI smoke uses the defaults); NEO_BENCH_PR sets
# the "pr" field when the output name does not imply it;
# NEO_BENCH_RASTER_MODE ({blocked,reference,both}, default blocked)
# selects the rasterizer blend path — "both" also runs the scalar
# reference sweep and records its raster_ms for the A/B column;
# NEO_BENCH_FAST_EXP=1 switches the falloff exp to the deterministic
# polynomial (RasterConfig::fast_exp; recorded in the JSON either way,
# keep it off for points meant to be comparable with the pre-PR5
# std::exp trajectory); NEO_BENCH_INTEGRITY ({off,check,recover},
# default off) runs the sweep with the integrity fences enabled — the
# mode is recorded as "integrity_mode" in the JSON, and trajectory
# points meant to be comparable across PRs must keep it off.
# NEO_BENCH_SERVER_JSON, when set, additionally runs the multi-session
# serving bench (bench_server: sessions x threads sweep over the same
# scene, with per-frame hash checks against solo renderers) and writes
# its JSON there; NEO_BENCH_SESSIONS (default 1,2,4) sets its session
# sweep; NEO_BENCH_NET=1 adds the socket-front-end sweep (--net: the
# same 1-session workload over a loopback socket, with the wire
# overhead in us/request reported next to the in-process numbers in a
# separate "net_points" array that diff_bench.sh ignores).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_PR7.json}"

GAUSSIANS="${NEO_BENCH_GAUSSIANS:-30000}"
FRAMES="${NEO_BENCH_FRAMES_SCALING:-5}"
THREADS="${NEO_BENCH_THREADS:-1,2,4,8}"
RASTER_MODE="${NEO_BENCH_RASTER_MODE:-blocked}"
FAST_EXP="${NEO_BENCH_FAST_EXP:-0}"
INTEGRITY="${NEO_BENCH_INTEGRITY:-off}"

# Derive the trajectory point number from the output name when possible.
PR="${NEO_BENCH_PR:-}"
if [[ -z "$PR" ]]; then
    if [[ "$(basename "$OUT_JSON")" =~ ^BENCH_PR([0-9]+)(_[A-Za-z0-9_]+)?\.json$ ]]; then
        PR="${BASH_REMATCH[1]}"
    else
        PR=5
    fi
fi

BIN="$BUILD_DIR/bench/bench_scaling"
if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not built (run: cmake --build $BUILD_DIR -t bench_scaling)" >&2
    exit 1
fi

FAST_EXP_FLAG=()
if [[ "$FAST_EXP" == "1" ]]; then
    FAST_EXP_FLAG=(--fast-exp)
fi

"$BIN" --json "$OUT_JSON" \
       --gaussians "$GAUSSIANS" \
       --frames "$FRAMES" \
       --threads-list "$THREADS" \
       --pr "$PR" \
       --raster-mode "$RASTER_MODE" \
       --integrity "$INTEGRITY" \
       ${FAST_EXP_FLAG[@]+"${FAST_EXP_FLAG[@]}"}

echo "run_benches.sh: wrote $OUT_JSON"

if [[ -n "${NEO_BENCH_SERVER_JSON:-}" ]]; then
    SBIN="$BUILD_DIR/bench/bench_server"
    if [[ ! -x "$SBIN" ]]; then
        echo "error: $SBIN not built (run: cmake --build $BUILD_DIR -t bench_server)" >&2
        exit 1
    fi
    NET_FLAG=()
    if [[ "${NEO_BENCH_NET:-0}" == "1" ]]; then
        NET_FLAG=(--net)
    fi
    "$SBIN" --json "$NEO_BENCH_SERVER_JSON" \
            --gaussians "$GAUSSIANS" \
            --frames "$FRAMES" \
            --sessions-list "${NEO_BENCH_SESSIONS:-1,2,4}" \
            --threads-list "$THREADS" \
            --pr "$PR" \
            ${NET_FLAG[@]+"${NET_FLAG[@]}"}
    echo "run_benches.sh: wrote $NEO_BENCH_SERVER_JSON"
fi
