/**
 * @file
 * Unit tests for the reuse-and-update sorter (Neo's core algorithm).
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/reuse_update.h"
#include "test_util.h"

namespace neo
{
namespace
{

BinnedFrame
frameAt(const GaussianScene &scene, float angle, int tile_px = 16)
{
    Camera cam(test::smallRes(), deg2rad(50.0f));
    cam.lookAt({5.0f * std::sin(angle), 0.5f, -5.0f * std::cos(angle)},
               {0.0f, 0.0f, 0.0f});
    return binFrame(scene, cam, tile_px);
}

TEST(ReuseUpdateTest, ColdStartFullySorts)
{
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    BinnedFrame frame = frameAt(scene, 0.0f);
    sorter.beginFrame(frame, 0);
    EXPECT_TRUE(sorter.lastReport().cold_start);
    for (int t = 0; t < frame.grid.tileCount(); ++t)
        EXPECT_TRUE(test::isSorted(sorter.tileOrder(t)));
}

TEST(ReuseUpdateTest, SecondFrameIsIncremental)
{
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    sorter.takeStats();
    BinnedFrame f1 = frameAt(scene, 0.01f);
    sorter.beginFrame(f1, 1);
    EXPECT_FALSE(sorter.lastReport().cold_start);
    // Incremental: no global merge passes (Dynamic Partial Sorting only).
    EXPECT_EQ(sorter.stats().global_merge_passes, 0u);
}

TEST(ReuseUpdateTest, MembershipConvergesToCurrentFrame)
{
    // After the merge at frame T the table holds membership(T) plus
    // at most the entries that left between T-1 and T (marked invalid).
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    BinnedFrame f1 = frameAt(scene, 0.02f);
    sorter.beginFrame(f1, 1);

    for (int t = 0; t < f1.grid.tileCount(); ++t) {
        std::unordered_set<GaussianId> current;
        for (const auto &e : f1.tiles[t])
            current.insert(e.id);
        size_t valid_entries = 0;
        for (const auto &e : sorter.tileOrder(t)) {
            if (e.valid) {
                ++valid_entries;
                EXPECT_TRUE(current.count(e.id))
                    << "valid entry not in current membership, tile " << t;
            }
        }
        // Every current member must be present (inserted or retained).
        EXPECT_EQ(valid_entries, current.size()) << "tile " << t;
    }
}

TEST(ReuseUpdateTest, DepthsAreRefreshedAfterFrame)
{
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    BinnedFrame f0 = frameAt(scene, 0.0f);
    sorter.beginFrame(f0, 0);
    BinnedFrame f1 = frameAt(scene, 0.05f);
    sorter.beginFrame(f1, 1);
    // After frame 1's deferred update, stored depths equal frame 1 depths.
    for (int t = 0; t < f1.grid.tileCount(); ++t) {
        for (const auto &e : sorter.tables().table(t)) {
            if (f1.isVisible(e.id)) {
                EXPECT_FLOAT_EQ(e.depth, f1.depth[e.id]);
            }
        }
    }
}

TEST(ReuseUpdateTest, OrderingNearlySortedUnderSlowMotion)
{
    GaussianScene scene = test::blobScene(500);
    ReuseUpdateSorter sorter;
    for (int f = 0; f < 6; ++f) {
        BinnedFrame frame = frameAt(scene, 0.004f * f);
        sorter.beginFrame(frame, f);
        if (f == 0)
            continue;
        // Orderings come from one-frame-stale depths; under slow motion
        // they stay close to sorted.
        double worst = 1.0;
        for (int t = 0; t < frame.grid.tileCount(); ++t) {
            const auto &order = sorter.tileOrder(t);
            if (order.size() > 4) {
                worst = std::min(worst, sortedFraction(order));
            }
        }
        EXPECT_GT(worst, 0.85) << "frame " << f;
    }
}

TEST(ReuseUpdateTest, OutgoingMarkedThenDeletedNextFrame)
{
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    BinnedFrame f1 = frameAt(scene, 0.06f);
    sorter.beginFrame(f1, 1);
    uint64_t marked = sorter.lastReport().outgoing_marked;
    EXPECT_GT(marked, 0u) << "motion should push some Gaussians out";

    BinnedFrame f2 = frameAt(scene, 0.12f);
    sorter.beginFrame(f2, 2);
    EXPECT_GT(sorter.lastReport().deleted, 0u)
        << "previously marked entries must be filtered at the next merge";
}

TEST(ReuseUpdateTest, IncomingCountsMatchDelta)
{
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    sorter.beginFrame(frameAt(scene, 0.05f), 1);
    EXPECT_EQ(sorter.lastReport().incoming,
              sorter.lastDelta().incoming_total);
}

TEST(ReuseUpdateTest, ResetForcesColdStart)
{
    GaussianScene scene = test::blobScene(200);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    sorter.beginFrame(frameAt(scene, 0.01f), 1);
    EXPECT_FALSE(sorter.lastReport().cold_start);
    sorter.reset();
    sorter.beginFrame(frameAt(scene, 0.02f), 2);
    EXPECT_TRUE(sorter.lastReport().cold_start);
}

TEST(ReuseUpdateTest, ResolutionChangeForcesColdStart)
{
    GaussianScene scene = test::blobScene(200);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f, 16), 0);
    // Different tile size -> different tile count -> cold start.
    sorter.beginFrame(frameAt(scene, 0.01f, 32), 1);
    EXPECT_TRUE(sorter.lastReport().cold_start);
}

TEST(ReuseUpdateTest, StationaryCameraCostsAlmostNothing)
{
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    BinnedFrame frame = frameAt(scene, 0.0f);
    sorter.beginFrame(frame, 0);
    sorter.takeStats();
    sorter.beginFrame(frame, 1);
    const ReuseUpdateReport &r = sorter.lastReport();
    EXPECT_EQ(r.incoming, 0u);
    EXPECT_EQ(r.outgoing_marked, 0u);
    // Work is exactly one DPS pass over the tables, no more.
    EXPECT_EQ(sorter.stats().entries_read, sorter.tables().totalEntries());
}

TEST(ReuseUpdateTest, ReportTableEntriesMatchesTables)
{
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    sorter.beginFrame(frameAt(scene, 0.0f), 0);
    EXPECT_EQ(sorter.lastReport().table_entries,
              sorter.tables().totalEntries());
}

/**
 * The deferred depth update's marks, re-derived with the binary search of
 * the tile's outgoing list that its mark table replaced. After a frame's
 * merge every table entry is valid (the merge drops the entries marked
 * the frame before), so an entry must be invalid exactly when the search
 * finds its id, and outgoing_marked must count those entries. Returns
 * the count.
 */
uint64_t
expectMarksMatchBinarySearch(const ReuseUpdateSorter &sorter)
{
    const FrameDelta &delta = sorter.lastDelta();
    uint64_t marked = 0;
    for (size_t t = 0; t < sorter.tables().tileCount(); ++t) {
        const std::vector<GaussianId> &out = delta.tiles[t].outgoing_ids;
        for (const TileEntry &e : sorter.tables().table(t)) {
            const bool hit = std::binary_search(out.begin(), out.end(), e.id);
            EXPECT_EQ(e.valid, !hit) << "tile " << t << " id " << e.id;
            marked += hit;
        }
    }
    EXPECT_EQ(sorter.lastReport().outgoing_marked, marked);
    return marked;
}

TEST(ReuseUpdateTest, MarkTableMarksWhatTheBinarySearchMarks)
{
    // One participant (threads == 1) reuses its mark table for every
    // tile of every frame, so a mark left set by one tile would wrongly
    // invalidate the same Gaussian in a later tile or frame; several
    // participants each keep their own table.
    GaussianScene scene = test::blobScene(600);
    for (int threads : {1, 4}) {
        ReuseUpdateSorter sorter;
        sorter.setThreads(threads);
        uint64_t marked = 0;
        for (int f = 0; f < 8; ++f) {
            sorter.beginFrame(frameAt(scene, 0.05f * static_cast<float>(f)),
                              static_cast<uint64_t>(f));
            marked += expectMarksMatchBinarySearch(sorter);
        }
        EXPECT_GT(marked, 0u) << "threads=" << threads;
    }
}

TEST(ReuseUpdateTest, EmptyOutgoingListsMarkNothing)
{
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    BinnedFrame frame = frameAt(scene, 0.0f);
    sorter.beginFrame(frame, 0); // cold start: no outgoing lists at all
    EXPECT_EQ(expectMarksMatchBinarySearch(sorter), 0u);
    sorter.beginFrame(frame, 1); // static view: every list is empty
    EXPECT_EQ(sorter.lastDelta().outgoing_total, 0u);
    EXPECT_EQ(expectMarksMatchBinarySearch(sorter), 0u);
}

TEST(ReuseUpdateTest, IdOutsideTheSceneIsMarkedByTheSearch)
{
    // Ids past the scene's range (as a bit flip can make them) lie beyond
    // the mark table. Plant two in one tile's restored table: one that
    // also sits in the tile's previous membership, so it leaves the tile
    // this frame, and one that does not.
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    BinnedFrame frame = frameAt(scene, 0.0f);
    sorter.beginFrame(frame, 0);
    std::vector<std::vector<TileEntry>> tables = sorter.tables().tables();
    std::vector<std::vector<GaussianId>> prev = sorter.trackerPrevIds();
    size_t tile = 0;
    while (tables[tile].empty())
        ++tile;
    const GaussianId leaving = 1u << 30;
    const GaussianId staying = (1u << 30) + 7;
    tables[tile].push_back(TileEntry{leaving, 1.0f, true});
    tables[tile].push_back(TileEntry{staying, 2.0f, true});
    prev[tile].push_back(leaving); // still ascending
    sorter.restore(std::move(tables), std::move(prev));

    sorter.beginFrame(frame, 1);
    EXPECT_EQ(expectMarksMatchBinarySearch(sorter), 1u);
    int seen = 0;
    for (const TileEntry &e : sorter.tables().table(tile)) {
        if (e.id == leaving) {
            EXPECT_FALSE(e.valid);
            ++seen;
        } else if (e.id == staying) {
            EXPECT_TRUE(e.valid);
            ++seen;
        }
    }
    EXPECT_EQ(seen, 2);
}

TEST(ReuseUpdateTest, UnorderedOutgoingListIsMarkedByTheSearch)
{
    // A corrupted previous membership out of id order yields outgoing
    // lists out of order, where a binary search finds only some members.
    // The update must still mark exactly what that search finds.
    GaussianScene scene = test::blobScene(400);
    ReuseUpdateSorter sorter;
    BinnedFrame frame = frameAt(scene, 0.0f);
    sorter.beginFrame(frame, 0);
    std::vector<std::vector<TileEntry>> tables = sorter.tables().tables();
    std::vector<std::vector<GaussianId>> prev = sorter.trackerPrevIds();
    for (std::vector<GaussianId> &ids : prev)
        std::reverse(ids.begin(), ids.end());
    sorter.restore(std::move(tables), std::move(prev));

    sorter.beginFrame(frame, 1);
    bool unordered = false;
    for (const TileDelta &td : sorter.lastDelta().tiles)
        unordered = unordered || !std::is_sorted(td.outgoing_ids.begin(),
                                                 td.outgoing_ids.end());
    ASSERT_TRUE(unordered);
    expectMarksMatchBinarySearch(sorter);
}

TEST(ReuseUpdateTest, NameAndConfigExposed)
{
    DynamicPartialConfig cfg;
    cfg.chunk = 128;
    ReuseUpdateSorter sorter(cfg);
    EXPECT_EQ(sorter.name(), "reuse-update");
    EXPECT_EQ(sorter.config().chunk, 128u);
}

} // namespace
} // namespace neo
