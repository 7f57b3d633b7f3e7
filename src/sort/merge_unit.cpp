#include "sort/merge_unit.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"

namespace neo
{

namespace
{

/** Append @p e to @p out unless its valid bit is cleared. */
inline void
emit(const TileEntry &e, std::vector<TileEntry> &out, MsuStats *stats)
{
    if (e.valid) {
        out.push_back(e);
    } else if (stats) {
        ++stats->filtered_invalid;
    }
}

/**
 * Merge the adjacent runs [lo, mid) and [mid, hi) of
 * entries[first, first+count) in place through @p scratch, with the exact
 * comparison and counter behavior of the historical serial pass. One node
 * of the fixed-shape merge tree.
 */
void
mergePairInPlace(std::vector<TileEntry> &entries, size_t first, size_t count,
                 size_t lo, size_t run, std::vector<TileEntry> &scratch,
                 MsuStats *stats)
{
    const size_t mid = std::min(lo + run, count);
    const size_t hi = std::min(lo + 2 * run, count);
    if (mid >= hi)
        return;
    scratch.clear();
    size_t i = first + lo, j = first + mid;
    const size_t i_end = first + mid, j_end = first + hi;
    while (i < i_end && j < j_end) {
        if (stats)
            ++stats->compares;
        if (entryDepthLess(entries[j], entries[i]))
            scratch.push_back(entries[j++]);
        else
            scratch.push_back(entries[i++]);
    }
    while (i < i_end)
        scratch.push_back(entries[i++]);
    while (j < j_end)
        scratch.push_back(entries[j++]);
    std::copy(scratch.begin(), scratch.end(),
              entries.begin() + first + lo);
    if (stats) {
        ++stats->merges;
        stats->elements_processed += hi - lo;
    }
}

/**
 * Number of head-to-head compares the serial two-way merge loop performs
 * on sorted inputs, computed analytically: the loop compares once per
 * emitted element until one input exhausts. Input a exhausts at output
 * position |a| + #{elements of b strictly before a.back()}; input b at
 * |b| + #{elements of a at or before b.back()} (ties emit from a). The
 * loop stops at whichever comes first.
 */
uint64_t
serialMergeCompares(const std::vector<TileEntry> &a,
                    const std::vector<TileEntry> &b)
{
    if (a.empty() || b.empty())
        return 0;
    const size_t before_a_last =
        std::lower_bound(b.begin(), b.end(), a.back(), entryDepthLess) -
        b.begin();
    const size_t before_b_last =
        std::upper_bound(a.begin(), a.end(), b.back(), entryDepthLess) -
        a.begin();
    return std::min<uint64_t>(a.size() + before_a_last,
                              b.size() + before_b_last);
}

/**
 * Merge-path split: the unique (i, k - i) such that the first @p k
 * elements of the serial merge of sorted @p a and @p b are exactly
 * a[0, i) and b[0, k - i), with ties emitting from a. Returns i.
 */
size_t
mergePathSplit(const std::vector<TileEntry> &a,
               const std::vector<TileEntry> &b, size_t k)
{
    size_t lo = k > b.size() ? k - b.size() : 0;
    size_t hi = std::min(k, a.size());
    while (lo < hi) {
        const size_t i = lo + (hi - lo) / 2;
        const size_t j = k - i;
        // a[i] still belongs in the first k elements when it does not
        // come after b[j - 1] (ties emit from a).
        if (i < a.size() && j > 0 && !entryDepthLess(b[j - 1], a[i]))
            lo = i + 1;
        else
            hi = i;
    }
    return lo;
}

/**
 * Speculative parallel two-way merge. Assume both inputs are sorted:
 * split the merged output into one span per chunk at merge-path partition
 * points, merge the spans concurrently into per-chunk buffers, and
 * concatenate in chunk order — verifying the assumption along the way
 * instead of paying two upfront serial std::is_sorted scans.
 *
 * The speculation is refuted in two places. (1) Pre-flight: on unsorted
 * input the blind merge-path searches can yield non-monotone split
 * points; those reject immediately, before any parallel work. (2) Fused
 * verification: each chunk first scans the adjacent pairs of its own
 * input spans, including the pair that crosses into the previous span —
 * collectively that is exactly std::is_sorted of both inputs, but it runs
 * in parallel — and raises the shared `failed` flag on the first
 * inversion, which later chunks poll to cut their work short.
 *
 * Returns true on acceptance, with `out` and the counters bit-identical
 * to the serial loop (compares reconstructed analytically via
 * serialMergeCompares, the invalid filter from the emitted-element
 * deficit). Returns false on refutation with `out` and the counters
 * untouched — the caller falls back to the serial interleaving.
 */
bool
msuMergeSpeculative(const std::vector<TileEntry> &a,
                    const std::vector<TileEntry> &b,
                    std::vector<TileEntry> &out, MsuStats *stats,
                    int threads)
{
    const size_t total = a.size() + b.size();
    const size_t chunks = parallelChunkCount(total, threads);

    std::vector<size_t> ia(chunks + 1), jb(chunks + 1);
    for (size_t c = 0; c <= chunks; ++c) {
        const size_t k =
            c == chunks ? total : parallelChunkRange(total, chunks, c).begin;
        ia[c] = mergePathSplit(a, b, k);
        jb[c] = k - ia[c];
    }
    for (size_t c = 0; c < chunks; ++c)
        if (ia[c] > ia[c + 1] || jb[c] > jb[c + 1])
            return false;

    std::atomic<bool> failed{false};
    std::vector<std::vector<TileEntry>> parts(chunks);
    parallelForEach(chunks, threads, [&](size_t c) {
        for (size_t x = std::max(ia[c], size_t{1}); x < ia[c + 1]; ++x)
            if (entryDepthLess(a[x], a[x - 1])) {
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        for (size_t x = std::max(jb[c], size_t{1}); x < jb[c + 1]; ++x)
            if (entryDepthLess(b[x], b[x - 1])) {
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        if (failed.load(std::memory_order_relaxed))
            return; // another span already refuted the speculation
        std::vector<TileEntry> &dst = parts[c];
        dst.reserve((ia[c + 1] - ia[c]) + (jb[c + 1] - jb[c]));
        size_t i = ia[c], j = jb[c];
        const size_t i_end = ia[c + 1], j_end = jb[c + 1];
        while (i < i_end && j < j_end) {
            if (entryDepthLess(b[j], a[i]))
                emit(b[j++], dst, nullptr);
            else
                emit(a[i++], dst, nullptr);
        }
        while (i < i_end)
            emit(a[i++], dst, nullptr);
        while (j < j_end)
            emit(b[j++], dst, nullptr);
    });
    if (failed.load(std::memory_order_relaxed))
        return false;

    out.clear();
    size_t emitted = 0;
    for (const auto &p : parts)
        emitted += p.size();
    out.reserve(emitted);
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());

    if (stats) {
        stats->compares += serialMergeCompares(a, b);
        ++stats->merges;
        stats->elements_processed += total;
        stats->filtered_invalid += total - emitted;
    }
    return true;
}

} // namespace

void
msuMerge(const std::vector<TileEntry> &a, const std::vector<TileEntry> &b,
         std::vector<TileEntry> &out, MsuStats *stats, int threads)
{
    if (threads > 1 && a.size() + b.size() >= kMsuParallelMinEntries &&
        !ThreadPool::insideParallelRegion() &&
        msuMergeSpeculative(a, b, out, stats, threads))
        return;

    out.clear();
    out.reserve(a.size() + b.size());
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (stats)
            ++stats->compares;
        if (entryDepthLess(b[j], a[i]))
            emit(b[j++], out, stats);
        else
            emit(a[i++], out, stats);
    }
    while (i < a.size())
        emit(a[i++], out, stats);
    while (j < b.size())
        emit(b[j++], out, stats);
    if (stats) {
        ++stats->merges;
        stats->elements_processed += a.size() + b.size();
    }
}

int
msuMergeRuns(std::vector<TileEntry> &entries, size_t first, size_t count,
             size_t run, MsuStats *stats, int threads,
             std::vector<TileEntry> *scratch_in)
{
    if (count <= 1)
        return 0;
    int passes = 0;
    std::vector<TileEntry> local;
    std::vector<TileEntry> &scratch = scratch_in ? *scratch_in : local;
    scratch.reserve(count);
    while (run < count) {
        ++passes;
        const size_t stride = 2 * run;
        const size_t pairs = (count + stride - 1) / stride;
        if (threads > 1 && pairs > 1 &&
            count >= kMsuParallelMinEntries &&
            !ThreadPool::insideParallelRegion()) {
            // One level of the fixed-shape merge tree: the pairwise
            // merges are independent (disjoint [lo, hi) ranges), so they
            // fan out over the pool; counters are integer sums per merge
            // node, so per-chunk accumulation recombined in fixed chunk
            // order is bit-identical to the serial pass.
            struct PairAccum
            {
                MsuStats stats;
                std::vector<TileEntry> scratch;
            };
            for (const PairAccum &acc :
                 parallelForAccumulate<PairAccum>(
                     pairs, threads,
                     [&](size_t begin, size_t end, PairAccum &acc) {
                         for (size_t p = begin; p < end; ++p)
                             mergePairInPlace(entries, first, count,
                                              p * stride, run, acc.scratch,
                                              stats ? &acc.stats : nullptr);
                     }))
                if (stats)
                    *stats += acc.stats;
        } else {
            for (size_t lo = 0; lo < count; lo += stride)
                mergePairInPlace(entries, first, count, lo, run, scratch,
                                 stats);
        }
        run = stride;
    }
    return passes;
}

void
msuUpdateTable(const std::vector<TileEntry> &reused_sorted,
               const std::vector<TileEntry> &incoming_sorted,
               std::vector<TileEntry> &out, MsuStats *stats, int threads)
{
    msuMerge(reused_sorted, incoming_sorted, out, stats, threads);
}

} // namespace neo
