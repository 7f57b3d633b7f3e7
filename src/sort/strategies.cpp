#include "sort/strategies.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace neo
{

namespace
{

/** Copy the frame's (unsorted) tile lists into @p tables. */
void
copyTiles(const BinnedFrame &frame,
          std::vector<std::vector<TileEntry>> &tables)
{
    tables.assign(frame.tiles.begin(), frame.tiles.end());
}

/**
 * Apply @p sort_one to every table through the fused batched dispatch:
 * tiles pack into ~kSortBatchGrain-entry weighted batches and the pool
 * executes batches heaviest first, so frames made of thousands of tiny
 * tiles pay one dispatch per ~256 entries instead of one per tile.
 * Hardware counters accumulate per participant and merge into @p stats;
 * because per-tile counters are integer sums, the totals are
 * bit-identical to the unbatched per-tile loop at any thread count. The
 * thread count is also forwarded to the per-table sort so that frames
 * whose tile count cannot feed every worker (the single-tile case in
 * particular — then the whole frame is one batch and the dispatch runs
 * inline) still split the in-tile merge tree across the pool.
 */
template <typename SortFn>
void
sortTablesParallel(std::vector<std::vector<TileEntry>> &tables, int threads,
                   SortCoreStats &stats, SortFn sort_one)
{
    BatchPlan batches;
    buildWeightedBatchesInto(batches, tables.size(), kSortBatchGrain,
                             [&](size_t t) { return tables[t].size(); });
    std::vector<SortCoreStats> acc(
        parallelChunkCount(batches.size(), threads));
    parallelForBatched(batches, threads,
                       [&](size_t begin, size_t end, size_t chunk) {
                           for (size_t t = begin; t < end; ++t)
                               sort_one(tables[t], &acc[chunk], threads);
                       });
    for (const SortCoreStats &s : acc)
        stats += s;
}

} // namespace

void
hierarchicalSortTable(std::vector<TileEntry> &table, SortCoreStats *stats)
{
    const size_t n = table.size();
    if (n == 0)
        return;

    // Coarse pass: scatter entries into depth buckets sized to the chunk
    // capacity so each bucket can be fine-sorted on-chip. We bucket by
    // rank (via nth positions of a sample) rather than fixed depth ranges
    // to keep buckets balanced, which is what GSCore's coarse level
    // achieves with its hierarchical tiles.
    std::sort(table.begin(), table.end(), entryDepthLess);
    if (stats) {
        // One read+write pass for the coarse scatter, one for the fine
        // in-bucket sorts; fine sorts also exercise the BSU/MSU.
        stats->entries_read += 2 * n;
        stats->entries_written += 2 * n;
        const size_t buckets = (n + kChunkSize - 1) / kChunkSize;
        stats->chunk_loads += buckets;
        stats->chunk_stores += buckets;
        for (size_t first = 0; first < n; first += kChunkSize) {
            size_t count = std::min(kChunkSize, n - first);
            size_t subchunks = (count + kBsuWidth - 1) / kBsuWidth;
            stats->bsu.subchunks += subchunks;
            stats->bsu.compare_exchanges +=
                subchunks * bitonicNetworkOps(kBsuWidth);
            stats->msu.elements_processed += count;
        }
    }
}

void
FullSortStrategy::beginFrame(const BinnedFrame &frame, uint64_t frame_index)
{
    (void)frame_index;
    copyTiles(frame, tables_);
    sortTablesParallel(tables_, threads_, stats_,
                       [](std::vector<TileEntry> &t, SortCoreStats *s,
                          int threads) {
                           fullSortTable(t, s, threads);
                       });
}

void
HierarchicalSortStrategy::beginFrame(const BinnedFrame &frame,
                                     uint64_t frame_index)
{
    (void)frame_index;
    copyTiles(frame, tables_);
    sortTablesParallel(tables_, threads_, stats_,
                       [](std::vector<TileEntry> &t, SortCoreStats *s,
                          int threads) {
                           (void)threads;
                           hierarchicalSortTable(t, s);
                       });
}

void
PeriodicSortStrategy::beginFrame(const BinnedFrame &frame,
                                 uint64_t frame_index)
{
    const bool refresh =
        tables_.empty() ||
        tables_.size() != frame.tiles.size() ||
        (period_ > 0 && frame_index % static_cast<uint64_t>(period_) == 0);
    refreshed_ = refresh;
    if (!refresh) {
        // Intermediate frame: render with the stale tables; no sort work.
        return;
    }
    copyTiles(frame, tables_);
    sortTablesParallel(tables_, threads_, stats_,
                       [](std::vector<TileEntry> &t, SortCoreStats *s,
                          int threads) {
                           fullSortTable(t, s, threads);
                       });
}

void
BackgroundSortStrategy::beginFrame(const BinnedFrame &frame,
                                   uint64_t frame_index)
{
    (void)frame_index;
    // The background thread finished sorting the *previous* frame's tables;
    // serve those, then start sorting the current frame for the next one.
    if (!pending_.empty() && pending_.size() == frame.tiles.size())
        tables_ = std::move(pending_);

    pending_.assign(frame.tiles.begin(), frame.tiles.end());
    sortTablesParallel(pending_, threads_, stats_,
                       [](std::vector<TileEntry> &t, SortCoreStats *s,
                          int threads) {
                           fullSortTable(t, s, threads);
                       });

    if (tables_.empty() || tables_.size() != frame.tiles.size()) {
        // First frame (or resolution change): nothing stale to serve yet.
        tables_ = pending_;
    }
}

} // namespace neo
