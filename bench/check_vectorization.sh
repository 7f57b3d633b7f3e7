#!/usr/bin/env bash
# Auto-vectorization smoke check for the SIMD hot loops.
#
# The blocked rasterizer and the delta tracker exist to keep their inner
# loops SIMD: this script recompiles the hot translation units with the
# Release flags plus -fopt-info-vec-optimized and asserts that each
# named marker loop is reported "loop vectorized":
#
#   src/gs/raster.cpp
#     1. the conic-power plane of blendBlocked
#        (the line computing `power = conicPower(...)`);
#     2. the fast_exp survivor batch loop
#        (the line writing `sexp[i] = fastExpNegativeLane(...)`);
#     and at least MIN_VECTORIZED_RASTER loops overall.
#   src/core/delta_tracker.cpp
#     3. the SoA sorted-id extract scan of observe()
#        (the line writing `ids[i] = ...`);
#     and at least MIN_VECTORIZED_TRACKER loops overall.
#   src/gs/tile_sort.cpp
#     4. the key unpack/reconstruct loop of the fused small-sort batch
#        kernel keySortTable (the line writing `out[i].id = ...`);
#     and at least MIN_VECTORIZED_SORT loops overall.
#
# A silent vectorization regression (e.g. an accidental loop-carried
# dependency, a call in the inner loop, or a select turned back into a
# branch) fails here long before it is visible as a wall-clock
# regression on a loaded CI box.
#
#   bench/check_vectorization.sh [CXX]
#
# CXX defaults to ${CXX:-g++}; requires GCC-style -fopt-info. Exits 0 on
# pass, 1 on a vectorization regression, 2 when the toolchain cannot
# produce a report (e.g. non-GCC compiler) — callers may treat 2 as skip.
set -euo pipefail

cd "$(dirname "$0")/.."

CXX_BIN="${1:-${CXX:-g++}}"
MIN_VECTORIZED_RASTER=3
MIN_VECTORIZED_TRACKER=1
MIN_VECTORIZED_SORT=1

if ! "$CXX_BIN" --version 2>/dev/null | grep -qiE "gcc|g\+\+"; then
    echo "check_vectorization.sh: SKIP — $CXX_BIN is not GCC," \
         "-fopt-info unavailable" >&2
    exit 2
fi

fail=0

# vectorized_lines SRC -> unique source lines reported "loop vectorized"
vectorized_lines() {
    local src="$1"
    "$CXX_BIN" -std=c++20 -O3 -DNDEBUG -Wall -Isrc -c "$src" \
        -o /dev/null -fopt-info-vec-optimized 2>&1 |
        grep -F "$src" |
        grep -E "optimized: *loop vectorized" |
        sed -E "s|.*$src:([0-9]+):.*|\1|" | sort -un || true
}

# require_marker SRC LINES MARKER_REGEX LABEL
#
# The marker line is the loop-body statement; -fopt-info reports the
# `for` header a few lines above it, so accept a vectorized-loop report
# within 8 lines upstream of the marker.
require_marker() {
    local src="$1" lines="$2" marker="$3" label="$4"
    local marker_line
    marker_line="$(grep -n "$marker" "$src" | head -1 | cut -d: -f1)"
    if [[ -z "$marker_line" ]]; then
        echo "check_vectorization.sh: FAIL — marker '$label' not found" \
             "in $src (loop restructured? update this script)" >&2
        fail=1
        return
    fi
    local line ok=0
    for line in $lines; do
        if ((line <= marker_line && line >= marker_line - 8)); then
            ok=1
        fi
    done
    if ((!ok)); then
        echo "check_vectorization.sh: FAIL — the $label loop (near" \
             "$src:$marker_line) did not vectorize" >&2
        fail=1
    else
        echo "check_vectorization.sh: OK — $label loop (near" \
             "$src:$marker_line) vectorized"
    fi
}

# require_count SRC LINES MIN_COUNT — runs in the main shell so a
# failure reaches the gate's exit status.
require_count() {
    local src="$1" lines="$2" min="$3" count
    count="$(printf '%s\n' "$lines" | grep -c . || true)"
    echo "check_vectorization.sh: $count vectorized loop line(s) in" \
         "$src:" $(printf '%s ' $lines)
    if ((count < min)); then
        echo "check_vectorization.sh: FAIL — only $count vectorized" \
             "loop(s) in $src, expected >= $min" >&2
        fail=1
    fi
}

raster_lines="$(vectorized_lines src/gs/raster.cpp)"
require_count src/gs/raster.cpp "$raster_lines" "$MIN_VECTORIZED_RASTER"
require_marker src/gs/raster.cpp "$raster_lines" \
    'power = conicPower' "blocked kernel conic-power"
require_marker src/gs/raster.cpp "$raster_lines" \
    'sexp\[i\] = fastExpNegativeLane' "survivor exp batch"

tracker_lines="$(vectorized_lines src/core/delta_tracker.cpp)"
require_count src/core/delta_tracker.cpp "$tracker_lines" \
    "$MIN_VECTORIZED_TRACKER"
require_marker src/core/delta_tracker.cpp "$tracker_lines" \
    'ids\[i\] = static_cast<GaussianId>' "delta-tracker sorted-id scan"

sort_lines="$(vectorized_lines src/gs/tile_sort.cpp)"
require_count src/gs/tile_sort.cpp "$sort_lines" "$MIN_VECTORIZED_SORT"
require_marker src/gs/tile_sort.cpp "$sort_lines" \
    'out\[i\].id = static_cast<uint32_t>' "key-sort unpack"

if ((fail)); then
    exit 1
fi
echo "check_vectorization.sh: OK (all marker loops vectorized)"
