#include "core/reuse_update.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/frame_arena.h"
#include "common/parallel.h"

namespace neo
{

void
ReuseUpdateSorter::reset()
{
    tables_.reset(0);
    spares_.clear();
    tracker_.reset();
    delta_ = FrameDelta{};
    report_ = ReuseUpdateReport{};
    update_scratch_.clear();
    batches_ = BatchPlan{};
}

void
ReuseUpdateSorter::restore(std::vector<std::vector<TileEntry>> tables,
                           std::vector<std::vector<GaussianId>> prev_ids)
{
    tables_.tables() = std::move(tables);
    spares_.assign(tables_.tileCount(), {});
    tracker_.restorePrevIds(std::move(prev_ids));
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
    collectScratch();
}

void
ReuseUpdateSorter::prepareScratch()
{
    const size_t chunks = parallelChunkCount(batches_.size(), threads_);
    if (update_scratch_.size() < chunks)
        update_scratch_.resize(chunks);
    for (UpdateScratch &s : update_scratch_) {
        s.stats = SortCoreStats{};
        s.incoming = 0;
        s.deleted = 0;
        s.outgoing_marked = 0;
    }
}

void
ReuseUpdateSorter::collectScratch()
{
    for (const UpdateScratch &s : update_scratch_) {
        stats_ += s.stats;
        report_.incoming += s.incoming;
        report_.deleted += s.deleted;
        report_.outgoing_marked += s.outgoing_marked;
    }
    growToHighWater(update_scratch_, [](UpdateScratch &s) {
        return std::tie(s.incoming_sorted, s.merge_runs);
    });
}

void
ReuseUpdateSorter::coldStart(const BinnedFrame &frame)
{
    // First frame (or a resolution change): build and fully sort every
    // table from scratch, exactly like a conventional pipeline would.
    // Each tile's table is independent, so tiles pack into fused weighted
    // batches (one pool claim per ~256 entries instead of per tile),
    // heaviest first; the counters are integer sums, so the totals are
    // bit-identical to the per-tile loop at any thread count.
    report_.cold_start = true;
    const size_t tiles = frame.tiles.size();
    tables_.reset(tiles);
    spares_.assign(tiles, {});
    buildWeightedBatchesInto(batches_, tiles, kSortBatchGrain,
                             [&](size_t t) { return frame.tiles[t].size(); });
    prepareScratch();
    parallelForBatched(batches_, threads_,
                       [&](size_t begin, size_t end, size_t chunk) {
                           UpdateScratch &s = update_scratch_[chunk];
                           for (size_t t = begin; t < end; ++t) {
                               tables_.table(t) = frame.tiles[t];
                               fullSortTable(tables_.table(t), &s.stats,
                                             threads_, &s.merge_runs);
                           }
                       });
    report_.incoming = delta_.incoming_total;
}

void
ReuseUpdateSorter::updateFrame(const BinnedFrame &frame, uint64_t frame_index)
{
    // Steps ①-③ touch only tile-local state (the persistent table, its
    // spare merge buffer and the tile's delta), so tiles process in
    // parallel — packed into fused weighted batches (weight = persistent
    // table + incoming entries, i.e. the tile's actual update cost) and
    // claimed heaviest first. Staging buffers and counters live in the
    // per-participant scratch, which persists across frames, so the
    // steady-state update loop allocates nothing.
    const size_t tiles = frame.tiles.size();
    buildWeightedBatchesInto(batches_, tiles, kSortBatchGrain,
                             [&](size_t t) {
                                 return tables_.table(t).size() +
                                        delta_.tiles[t].incoming.size();
                             });
    prepareScratch();
    parallelForBatched(batches_, threads_,
                       [&](size_t begin, size_t end, size_t chunk) {
        UpdateScratch &s = update_scratch_[chunk];
        for (size_t t = begin; t < end; ++t) {
            std::vector<TileEntry> &table = tables_.table(t);
            std::vector<TileEntry> &spare = spares_[t];
            TileDelta &td = delta_.tiles[t];

            // ① Reordering: Dynamic Partial Sorting of the reused table.
            dynamicPartialSort(table, frame_index, dps_, &s.stats,
                               &s.merge_runs);

            // ② Insertion: conventional sort of the (small) incoming
            // table, staged in the participant's reusable buffer.
            s.incoming_sorted.assign(td.incoming.begin(),
                                     td.incoming.end());
            fullSortTable(s.incoming_sorted, &s.stats, threads_,
                          &s.merge_runs);

            // ③ Deletion happens inside the same MSU+ pass that merges
            // the incoming table: entries invalidated during the previous
            // frame's rasterization are dropped without any shifting.
            const uint64_t invalid_before = s.stats.msu.filtered_invalid;
            msuUpdateTable(table, s.incoming_sorted, spare, &s.stats.msu,
                           threads_);
            s.deleted += s.stats.msu.filtered_invalid - invalid_before;
            // Swap rather than move: the displaced table storage becomes
            // the tile's next merge output.
            std::swap(table, spare);
            spare.clear();

            s.incoming += s.incoming_sorted.size();
        }
    });
}

void
ReuseUpdateSorter::deferredDepthUpdate(const BinnedFrame &frame)
{
    // ④ Modeled on the Rasterization Engine: while features are being
    // fetched for blending anyway, overwrite each entry's depth with the
    // current frame's value, and clear the valid bit of entries whose
    // footprint no longer intersects the tile (cumulative-OR of the ITU
    // bitmaps). Both take effect for the *next* frame's sorting pass.
    // The pass costs about one step per table entry, so it reuses the
    // frame's sort batches; the marks count into the participants'
    // persistent counters.
    static const std::vector<GaussianId> kNoOutgoing;
    const bool soa = frame.hasFeatureArrays();
    const size_t tiles = tables_.tileCount();
    parallelForBatched(batches_, threads_,
                       [&](size_t begin, size_t end, size_t chunk) {
        uint64_t &marked = update_scratch_[chunk].outgoing_marked;
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
                    ++marked;
                }
            }
        }
    });
}

} // namespace neo
