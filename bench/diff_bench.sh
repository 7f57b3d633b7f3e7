#!/usr/bin/env bash
# Perf-trajectory regression gate.
#
# Compares two points of the trajectory (BENCH_PR<n>.json files written by
# bench/run_benches.sh) on serial throughput — ms_per_frame at threads=1,
# the number least affected by core count — and fails when the current
# point is more than MAX_REGRESSION_PCT slower than the baseline. When
# both files carry a per-stage breakdown, the threads=1 raster_ms,
# tracker_ms, bin_ms, sort_ms and hash_ms (the per-frame
# Image::contentHash) are each gated with the same threshold.
# The per-stage gates carry an absolute slack ($STAGE_ABS_SLACK_MS,
# default 1.0 ms) on top of the percentage: the small stages run in
# single-digit milliseconds, where scheduler jitter alone exceeds 10%,
# so a percent-only gate flakes without any code change.
#
#   bench/diff_bench.sh BASELINE.json CURRENT.json [MAX_REGRESSION_PCT]
#
# MAX_REGRESSION_PCT defaults to 10. Exits 0 on pass, 1 on regression,
# 2 on malformed input. Wall-clock comparisons across different machines
# or different timed frame loops are meaningless, so when the two files
# report a different machine_cores or a different "pipeline" the gate is
# skipped (exit 0) with a notice — the strict comparison applies to
# same-machine, same-pipeline pairs, i.e. consecutive points recorded on
# one box or within one CI runner class.
#
# Serving-layer mode: when CURRENT is a bench_server sweep (it carries
# "bench": "server"), the gate compares its 1-session / threads=1
# ms_per_frame — the point that renders the identical per-frame workload
# as the scaling bench, hash included — against the baseline's threads=1
# ms_per_frame. The per-stage gates do not apply (the server JSON has no
# stage breakdown), and a failed isolation contract in the sweep
# ("isolated_all": false) fails the gate outright.
#
# When the sweep carries a "durable_points" array (bench_server
# --checkpoint), the durable gate also runs: the threads=1 pair's
# durable_ms_per_frame must stay within MAX_REGRESSION_PCT of its
# base_ms_per_frame recorded in the SAME run — checkpointing plus
# write-ahead journaling must not cost more than 10% per frame.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 BASELINE.json CURRENT.json [MAX_REGRESSION_PCT]" >&2
    exit 2
fi

BASELINE="$1"
CURRENT="$2"
MAX_PCT="${3:-10}"

extract_t1() {
    # extract_t1 FIELD FILE: FIELD's value on the threads=1 line, or ""
    # when the line or the field is missing (that gate is skipped).
    # bench_scaling writes one point per line:
    #   {"threads": 1, "ms_per_frame": 54.2, ..., "stages": {"bin_ms": ...}}
    local line
    line="$(grep -m1 '"threads": 1,' "$2" || true)"
    if [[ "$line" == *"\"$1\": "* ]]; then
        sed -E "s/.*\"$1\": ([0-9.]+).*/\1/" <<<"$line"
    fi
}

extract_field() {
    # extract_field FIELD FILE: a top-level string or number field; a
    # missing field yields "" (handled by the guards below), not a grep
    # failure that would abort the script under set -e.
    grep -m1 "\"$1\":" "$2" | sed -E 's/^[^:]*: *"?([^",]*)"?,?$/\1/' ||
        true
}

is_server_json() {
    grep -q '"bench": "server"' "$1"
}

extract_server_t1_ms() {
    # bench_server writes one point per line:
    #   {"sessions": 1, "threads": 1, "ms_per_frame": 115.2, ...}
    local line
    line="$(grep -m1 '"sessions": 1, "threads": 1,' "$1" || true)"
    if [[ "$line" == *'"ms_per_frame"'* ]]; then
        sed -E 's/.*"ms_per_frame": ([0-9.]+).*/\1/' <<<"$line"
    fi
}

server_mode=0
if is_server_json "$CURRENT"; then
    server_mode=1
    if ! grep -q '"isolated_all": true' "$CURRENT"; then
        echo "diff_bench.sh: FAIL — $CURRENT reports a fault-isolation" \
             "violation (isolated_all != true)" >&2
        exit 1
    fi
    if is_server_json "$BASELINE"; then
        base_ms="$(extract_server_t1_ms "$BASELINE")"
    else
        base_ms="$(extract_t1 ms_per_frame "$BASELINE")"
    fi
    cur_ms="$(extract_server_t1_ms "$CURRENT")"
else
    base_ms="$(extract_t1 ms_per_frame "$BASELINE")"
    cur_ms="$(extract_t1 ms_per_frame "$CURRENT")"
fi

if [[ -z "$base_ms" || -z "$cur_ms" ]]; then
    echo "diff_bench.sh: could not find a threads=1 ms_per_frame point" >&2
    exit 2
fi

# Same-machine, same-pipeline pairs only: ms/frame across core counts,
# or across different timed frame loops, is not comparable.
for field in machine_cores pipeline; do
    base_val="$(extract_field "$field" "$BASELINE")"
    cur_val="$(extract_field "$field" "$CURRENT")"
    if [[ -n "$base_val" && -n "$cur_val" && "$base_val" != "$cur_val" ]]; then
        echo "diff_bench.sh: SKIP — $field differs (baseline" \
             "$base_val, current $cur_val): ms/frame is not comparable"
        exit 0
    fi
done

# check_metric LABEL BASE CUR [ABS_SLACK_MS]
#
# Fails when CUR exceeds BASE by more than MAX_PCT percent AND by more
# than ABS_SLACK_MS milliseconds (default 0: percent-only). The absolute
# slack exists for the per-stage gates, whose few-millisecond values sit
# inside scheduler jitter.
check_metric() {
    local label="$1" base="$2" cur="$3" abs="${4:-0}"
    awk -v base="$base" -v cur="$cur" -v pct="$MAX_PCT" -v abs="$abs" \
        -v label="$label" -v bfile="$BASELINE" -v cfile="$CURRENT" 'BEGIN {
        limit = base * (1 + pct / 100.0)
        if (base + abs > limit)
            limit = base + abs
        delta = base > 0 ? (cur - base) * 100.0 / base : 0
        printf "diff_bench.sh: threads=1 %s %s=%.3f -> %s=%.3f (%+.1f%%, limit +%s%% or +%.1f ms)\n", \
               label, bfile, base, cfile, cur, delta, pct, abs
        if (cur > limit) {
            printf "diff_bench.sh: FAIL — %s regression exceeds %s%%\n", \
                   label, pct
            exit 1
        }
        printf "diff_bench.sh: OK (%s)\n", label
    }'
}

STAGE_ABS_SLACK_MS="${STAGE_ABS_SLACK_MS:-1.0}"

check_metric "ms/frame" "$base_ms" "$cur_ms"

if [[ "$server_mode" == "1" ]]; then
    # Durable-mode self-gate: base and durable ms/frame come from the
    # same "durable_points" line (same machine, same run by
    # construction), so the comparison never needs the baseline file.
    durable_line="$(grep -m1 '"base_ms_per_frame"' "$CURRENT" || true)"
    if [[ -n "$durable_line" ]]; then
        durable_base="$(sed -E 's/.*"base_ms_per_frame": ([0-9.]+).*/\1/' \
            <<<"$durable_line")"
        durable_cur="$(sed -E 's/.*"durable_ms_per_frame": ([0-9.]+).*/\1/' \
            <<<"$durable_line")"
        check_metric "durable ms/frame" "$durable_base" "$durable_cur"
    else
        echo "diff_bench.sh: durable gate skipped (no durable_points" \
             "in $CURRENT)"
    fi
    echo "diff_bench.sh: serving-layer gate done (per-stage gates do" \
         "not apply to a bench_server sweep)"
    exit 0
fi

# Per-stage gates: the raster and tracker stages carry dedicated SIMD
# kernels, the bin and sort stages own the fused cross-tile batching
# and key-sort path, and the frame digest is serial work on every
# served frame — a regression in any one must not hide behind
# improvements elsewhere.
for stage in raster_ms tracker_ms bin_ms sort_ms hash_ms; do
    base_stage="$(extract_t1 "$stage" "$BASELINE")"
    cur_stage="$(extract_t1 "$stage" "$CURRENT")"
    if [[ -n "$base_stage" && -n "$cur_stage" ]]; then
        check_metric "$stage" "$base_stage" "$cur_stage" "$STAGE_ABS_SLACK_MS"
    else
        echo "diff_bench.sh: $stage gate skipped (no per-stage breakdown" \
             "in one of the files)"
    fi
done
