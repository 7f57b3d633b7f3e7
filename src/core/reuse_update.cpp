#include "core/reuse_update.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace neo
{

void
ReuseUpdateSorter::reset()
{
    tables_.reset(0);
    tracker_.reset();
    delta_ = FrameDelta{};
    report_ = ReuseUpdateReport{};
    update_scratch_.clear();
    batches_.clear();
}

void
ReuseUpdateSorter::trackFrame(const BinnedFrame &frame)
{
    report_ = ReuseUpdateReport{};
    tracker_.observe(frame, delta_);
    report_.mean_retention = delta_.meanRetention();
}

void
ReuseUpdateSorter::sortFrame(const BinnedFrame &frame, uint64_t frame_index)
{
    if (tables_.tileCount() != frame.tiles.size()) {
        coldStart(frame);
    } else {
        updateFrame(frame, frame_index);
    }

    report_.table_entries = tables_.totalEntries();
    deferredDepthUpdate(frame);
}

void
ReuseUpdateSorter::coldStart(const BinnedFrame &frame)
{
    // First frame (or a resolution change): build and fully sort every
    // table from scratch, exactly like a conventional pipeline would.
    // Each tile's table is independent, so tiles pack into fused weighted
    // batches (one pool dispatch per ~256 entries instead of per tile)
    // with per-chunk counters merged in fixed chunk order — totals are
    // bit-identical to the per-tile loop at any thread count.
    report_.cold_start = true;
    tables_.reset(frame.tiles.size());
    buildWeightedBatchesInto(batches_, frame.tiles.size(), kSortBatchGrain,
                             [&](size_t t) { return frame.tiles[t].size(); });
    std::vector<SortCoreStats> acc(
        parallelChunkCount(batches_.size(), threads_));
    parallelForBatched(batches_, threads_,
                       [&](size_t begin, size_t end, size_t chunk) {
                           for (size_t t = begin; t < end; ++t) {
                               tables_.table(t) = frame.tiles[t];
                               fullSortTable(tables_.table(t), &acc[chunk],
                                             threads_);
                           }
                       });
    for (const SortCoreStats &s : acc)
        stats_ += s;
    report_.incoming = delta_.incoming_total;
}

void
ReuseUpdateSorter::updateFrame(const BinnedFrame &frame, uint64_t frame_index)
{
    // Steps ①-③ touch only tile-local state (the persistent table, the
    // tile's delta, and a per-worker merge buffer), so tiles process in
    // parallel — packed into fused weighted batches (weight = persistent
    // table + incoming entries, i.e. the tile's actual update cost) so
    // the pool dispatches per ~256-entry batch instead of per tile;
    // counters accumulate per chunk and merge in chunk order. The
    // per-chunk scratch persists across frames (grown, never shrunk), so
    // the steady-state update loop reuses its staging and merge buffers
    // instead of reallocating them every frame.
    const size_t tiles = frame.tiles.size();
    buildWeightedBatchesInto(batches_, tiles, kSortBatchGrain,
                             [&](size_t t) {
                                 return tables_.table(t).size() +
                                        delta_.tiles[t].incoming.size();
                             });
    const size_t chunks = parallelChunkCount(batches_.size(), threads_);
    if (update_scratch_.size() < chunks)
        update_scratch_.resize(chunks);
    for (UpdateScratch &s : update_scratch_) {
        s.stats = SortCoreStats{};
        s.incoming = 0;
        s.deleted = 0;
    }
    parallelForBatched(batches_, threads_,
                       [&](size_t begin, size_t end, size_t chunk) {
        UpdateScratch &s = update_scratch_[chunk];
        for (size_t t = begin; t < end; ++t) {
            std::vector<TileEntry> &table = tables_.table(t);
            TileDelta &td = delta_.tiles[t];

            // ① Reordering: Dynamic Partial Sorting of the reused table.
            dynamicPartialSort(table, frame_index, dps_, &s.stats);

            // ② Insertion: conventional sort of the (small) incoming
            // table, staged in the chunk's reusable buffer.
            s.incoming_sorted.assign(td.incoming.begin(),
                                     td.incoming.end());
            fullSortTable(s.incoming_sorted, &s.stats, threads_);

            // ③ Deletion happens inside the same MSU+ pass that merges
            // the incoming table: entries invalidated during the previous
            // frame's rasterization are dropped without any shifting.
            const uint64_t invalid_before = s.stats.msu.filtered_invalid;
            msuUpdateTable(table, s.incoming_sorted, s.merged,
                           &s.stats.msu, threads_);
            s.deleted += s.stats.msu.filtered_invalid - invalid_before;
            // Swap rather than move: the displaced table storage becomes
            // the next merge's output buffer.
            std::swap(table, s.merged);
            s.merged.clear();

            s.incoming += s.incoming_sorted.size();
        }
    });
    for (const UpdateScratch &s : update_scratch_) {
        stats_ += s.stats;
        report_.incoming += s.incoming;
        report_.deleted += s.deleted;
    }
}

void
ReuseUpdateSorter::deferredDepthUpdate(const BinnedFrame &frame)
{
    // ④ Modeled on the Rasterization Engine: while features are being
    // fetched for blending anyway, overwrite each entry's depth with the
    // current frame's value, and clear the valid bit of entries whose
    // footprint no longer intersects the tile (cumulative-OR of the ITU
    // bitmaps). Both take effect for the *next* frame's sorting pass.
    static const std::vector<GaussianId> kNoOutgoing;
    const bool soa = frame.hasFeatureArrays();
    const size_t tiles = tables_.tileCount();
    for (uint64_t marked : parallelForAccumulate<uint64_t>(
             tiles, threads_, [&](size_t begin, size_t end,
                                  uint64_t &m) {
        for (size_t t = begin; t < end; ++t) {
            const auto &outgoing = delta_.tiles.size() == tiles
                                       ? delta_.tiles[t].outgoing_ids
                                       : kNoOutgoing;
            for (TileEntry &e : tables_.table(t)) {
                if (frame.isVisible(e.id))
                    e.depth = soa ? frame.depth[frame.slotOf(e.id)]
                                  : frame.featureOf(e.id).depth;
                if (!outgoing.empty() &&
                    std::binary_search(outgoing.begin(), outgoing.end(),
                                       e.id)) {
                    e.valid = false;
                    ++m;
                }
            }
        }
    }))
        report_.outgoing_marked += marked;
}

} // namespace neo
