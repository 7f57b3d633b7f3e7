/**
 * @file
 * Neo's reuse-and-update sorting (§4 of the paper), implemented as a
 * SortingStrategy so it can be compared head-to-head with the baseline
 * strategies of sort/strategies.h.
 *
 * Per frame T, for every tile:
 *   ① Reordering — Dynamic Partial Sorting of the table carried over from
 *     frame T-1 (whose depths were refreshed during T-1's rasterization,
 *     i.e. they are one frame stale by design).
 *   ② Insertion — Gaussians newly binned into the tile are sorted as a
 *     small conventional sort and merged by the MSU+.
 *   ③ Deletion — entries whose valid bit was cleared during frame T-1's
 *     rasterization (no subtile intersection) are filtered out by the
 *     MSU+ during the same merge pass; no shifting ever happens.
 *   ④ Deferred depth update — after the orderings are produced, depths of
 *     visible entries are overwritten with frame-T values, and entries
 *     that left the tile this frame are marked invalid, to be deleted at
 *     frame T+1. This models the Rasterization Engine's piggybacked table
 *     write-back.
 */

#ifndef NEO_CORE_REUSE_UPDATE_H
#define NEO_CORE_REUSE_UPDATE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/delta_tracker.h"
#include "core/gaussian_table.h"
#include "sort/dynamic_partial.h"
#include "sort/strategies.h"

namespace neo
{

/** Per-frame summary counters of the reuse-and-update flow. */
struct ReuseUpdateReport
{
    uint64_t table_entries = 0;     //!< persistent-table entries touched
    uint64_t incoming = 0;          //!< inserted this frame
    uint64_t outgoing_marked = 0;   //!< marked invalid this frame
    uint64_t deleted = 0;           //!< filtered by the MSU+ this frame
    double mean_retention = 1.0;    //!< Fig. 6 statistic for this frame
    bool cold_start = false;        //!< true when a full sort was needed
};

/** Reuse-and-update sorting strategy (Neo software algorithm). */
class ReuseUpdateSorter : public SortingStrategy
{
  public:
    explicit ReuseUpdateSorter(DynamicPartialConfig dps = {}) : dps_(dps) {}

    std::string name() const override { return "reuse-update"; }

    /** trackFrame then sortFrame: one frame of the whole flow. */
    void beginFrame(const BinnedFrame &frame, uint64_t frame_index) override
    {
        trackFrame(frame);
        sortFrame(frame, frame_index);
    }

    /** First half of beginFrame: diff @p frame's tile membership against
        the previous frame's (DeltaTracker::observe) into lastDelta(). */
    void trackFrame(const BinnedFrame &frame);

    /** Second half of beginFrame: steps ①-④ driven by the delta
        trackFrame just produced (a cold start on a tile-count change).
        Split from trackFrame so the owner can time the two apart. */
    void sortFrame(const BinnedFrame &frame, uint64_t frame_index);

    /** One knob drives every threaded stage, including delta tracking. */
    void setThreads(int threads) override
    {
        SortingStrategy::setThreads(threads);
        tracker_.setThreads(threads);
    }

    /** Fences the tracker's prev-id buffers (tables are fenced by the
        owner, which knows the stage boundaries around beginFrame). */
    void setIntegrity(IntegrityContext *ctx) override
    {
        tracker_.setIntegrity(ctx);
    }

    const std::vector<TileEntry> &tileOrder(int tile) const override
    {
        return tables_.table(tile);
    }

    const std::vector<std::vector<TileEntry>> &orderings() const override
    {
        return tables_.tables();
    }

    /** Summary of the most recent frame. */
    const ReuseUpdateReport &lastReport() const { return report_; }

    /** Membership delta of the most recent frame. */
    const FrameDelta &lastDelta() const { return delta_; }

    const DynamicPartialConfig &config() const { return dps_; }

    /** Persistent tables (exposed for tests and the workload harness). */
    const TileTableSet &tables() const { return tables_; }

    /** Mutable tables — the integrity owner's restore path needs to be
        able to write a recovered tile back in place. */
    TileTableSet &mutableTables() { return tables_; }

    /** Delta tracker's reference membership (durable-snapshot source). */
    const std::vector<std::vector<GaussianId>> &trackerPrevIds() const
    {
        return tracker_.prevIds();
    }

    /**
     * Adopt @p tables / @p prev_ids as the cross-frame state, as if the
     * frame that produced them had just completed. The next beginFrame
     * with a matching tile count takes the reuse path and produces
     * orderings bit-identical to an uninterrupted run; a mismatched tile
     * count cold-starts exactly as it would have before the restore.
     * The per-tile spare merge buffers start empty, one per table.
     */
    void restore(std::vector<std::vector<TileEntry>> tables,
                 std::vector<std::vector<GaussianId>> prev_ids);

    /** Forget all cross-frame state. */
    void reset();

  private:
    void coldStart(const BinnedFrame &frame);
    void updateFrame(const BinnedFrame &frame, uint64_t frame_index);
    void deferredDepthUpdate(const BinnedFrame &frame);
    /** Size the per-participant scratch for dispatches over batches_ and
        zero its counters. */
    void prepareScratch();
    /** Merge the per-participant counters into the frame's totals, then
        run the high-water pass over the participants' buffers. */
    void collectScratch();

    /**
     * Per-participant working memory of the frame's tile dispatches,
     * persistent across frames: the sorted-incoming staging buffer, the
     * MSU merge staging buffer of the chunk sorts, and the frame's
     * counters. A participant runs whichever tiles it claims
     * (parallelForBatched), so the counters are integer sums merged
     * order-independently, and the buffers are grown to one shared
     * high-water capacity after the dispatches (growToHighWater): the
     * retained capacity depends on the tiles, not on which participant
     * drew the largest one.
     */
    struct UpdateScratch
    {
        SortCoreStats stats;
        uint64_t incoming = 0;
        uint64_t deleted = 0;
        uint64_t outgoing_marked = 0;
        std::vector<TileEntry> incoming_sorted;
        std::vector<TileEntry> merge_runs;
    };

    DynamicPartialConfig dps_;
    TileTableSet tables_;
    /**
     * Per-tile MSU+ merge output. Tile t merges into spares_[t] and swaps
     * it with its table, so a tile's two buffers recycle each other and
     * grow only to that tile's own size. (A per-participant output buffer
     * would swap through every tile its participant claims, growing them
     * all toward the largest.) Sized and cleared with the tables by
     * coldStart and restore, dropped by reset; never snapshotted.
     */
    std::vector<std::vector<TileEntry>> spares_;
    DeltaTracker tracker_;
    FrameDelta delta_;
    ReuseUpdateReport report_;
    std::vector<UpdateScratch> update_scratch_;
    /** Fused tile batches of the current frame (see parallelForBatched):
        rebuilt by coldStart/updateFrame from the per-tile work weights,
        reusing capacity, and reused by deferredDepthUpdate. */
    BatchPlan batches_;
};

} // namespace neo

#endif // NEO_CORE_REUSE_UPDATE_H
