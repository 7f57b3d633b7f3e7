/**
 * @file
 * Unit tests for per-tile membership delta tracking.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_tracker.h"
#include "test_util.h"

namespace neo
{
namespace
{

BinnedFrame
frameAt(const GaussianScene &scene, float angle)
{
    Camera cam(test::smallRes(), deg2rad(50.0f));
    cam.lookAt({5.0f * std::sin(angle), 0.5f, -5.0f * std::cos(angle)},
               {0.0f, 0.0f, 0.0f});
    return binFrame(scene, cam, 16);
}

TEST(DeltaTrackerTest, FirstFrameIsAllIncoming)
{
    GaussianScene scene = test::blobScene(200);
    DeltaTracker tracker;
    EXPECT_TRUE(tracker.firstFrame());
    BinnedFrame frame = frameAt(scene, 0.0f);
    FrameDelta d = tracker.observe(frame);
    EXPECT_FALSE(tracker.firstFrame());
    EXPECT_EQ(d.incoming_total, frame.instances);
    EXPECT_EQ(d.outgoing_total, 0u);
}

TEST(DeltaTrackerTest, IdenticalFrameHasNoDeltas)
{
    GaussianScene scene = test::blobScene(200);
    DeltaTracker tracker;
    BinnedFrame frame = frameAt(scene, 0.0f);
    tracker.observe(frame);
    FrameDelta d = tracker.observe(frame);
    EXPECT_EQ(d.incoming_total, 0u);
    EXPECT_EQ(d.outgoing_total, 0u);
    EXPECT_DOUBLE_EQ(d.meanRetention(), 1.0);
}

TEST(DeltaTrackerTest, SmallMotionSmallDeltas)
{
    GaussianScene scene = test::blobScene(500);
    DeltaTracker tracker;
    tracker.observe(frameAt(scene, 0.0f));
    BinnedFrame next = frameAt(scene, 0.01f);
    FrameDelta d = tracker.observe(next);
    // A slight viewpoint change churns only a small fraction.
    EXPECT_LT(static_cast<double>(d.incoming_total),
              0.35 * next.instances);
    EXPECT_GT(d.meanRetention(), 0.6);
}

TEST(DeltaTrackerTest, LargerMotionChurnsMore)
{
    GaussianScene scene = test::blobScene(500);
    DeltaTracker slow_tracker, fast_tracker;
    slow_tracker.observe(frameAt(scene, 0.0f));
    fast_tracker.observe(frameAt(scene, 0.0f));
    FrameDelta slow = slow_tracker.observe(frameAt(scene, 0.01f));
    FrameDelta fast = fast_tracker.observe(frameAt(scene, 0.15f));
    EXPECT_GE(fast.incoming_total, slow.incoming_total);
    EXPECT_LE(fast.meanRetention(), slow.meanRetention() + 1e-9);
}

TEST(DeltaTrackerTest, IncomingEntriesCarryDepths)
{
    GaussianScene scene = test::blobScene(200);
    DeltaTracker tracker;
    tracker.observe(frameAt(scene, 0.0f));
    BinnedFrame next = frameAt(scene, 0.05f);
    FrameDelta d = tracker.observe(next);
    for (const auto &td : d.tiles)
        for (const auto &e : td.incoming) {
            ASSERT_TRUE(next.isVisible(e.id));
            EXPECT_FLOAT_EQ(e.depth, next.depth[e.id]);
        }
}

TEST(DeltaTrackerTest, OutgoingIdsAreSortedAndConsistent)
{
    GaussianScene scene = test::blobScene(300);
    DeltaTracker tracker;
    tracker.observe(frameAt(scene, 0.0f));
    FrameDelta d = tracker.observe(frameAt(scene, 0.08f));
    uint64_t total = 0;
    for (const auto &td : d.tiles) {
        EXPECT_EQ(td.outgoing, td.outgoing_ids.size());
        total += td.outgoing;
        for (size_t i = 1; i < td.outgoing_ids.size(); ++i)
            EXPECT_LT(td.outgoing_ids[i - 1], td.outgoing_ids[i]);
    }
    EXPECT_EQ(total, d.outgoing_total);
}

TEST(DeltaTrackerTest, RetentionBetweenZeroAndOne)
{
    GaussianScene scene = test::blobScene(300);
    DeltaTracker tracker;
    tracker.observe(frameAt(scene, 0.0f));
    FrameDelta d = tracker.observe(frameAt(scene, 0.3f));
    for (double r : d.tile_retention) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(DeltaTrackerTest, ResetForgetsHistory)
{
    GaussianScene scene = test::blobScene(200);
    DeltaTracker tracker;
    BinnedFrame frame = frameAt(scene, 0.0f);
    tracker.observe(frame);
    tracker.reset();
    EXPECT_TRUE(tracker.firstFrame());
    FrameDelta d = tracker.observe(frame);
    EXPECT_EQ(d.incoming_total, frame.instances);
}

TEST(DeltaTrackerTest, MeanRetentionOfEmptySampleSetIsOne)
{
    // Documented convention: no retention samples reads as perfect
    // retention (1.0), so consumers scaling repair work by
    // (1 - retention) schedule nothing when nothing is known to have
    // changed.
    FrameDelta empty;
    EXPECT_TRUE(empty.tile_retention.empty());
    EXPECT_DOUBLE_EQ(empty.meanRetention(), 1.0);

    // First observed frame: no previous membership, so no samples.
    GaussianScene scene = test::blobScene(150);
    DeltaTracker tracker;
    FrameDelta first = tracker.observe(frameAt(scene, 0.0f));
    EXPECT_TRUE(first.tile_retention.empty());
    EXPECT_DOUBLE_EQ(first.meanRetention(), 1.0);

    // Second frame: samples exist, mean leaves the convention value
    // behind only because real evidence arrived.
    FrameDelta second = tracker.observe(frameAt(scene, 0.02f));
    EXPECT_FALSE(second.tile_retention.empty());
}

TEST(DeltaTrackerTest, ThreadCountDoesNotChangeDeltas)
{
    GaussianScene scene = test::blobScene(500);
    BinnedFrame f0 = frameAt(scene, 0.0f);
    BinnedFrame f1 = frameAt(scene, 0.05f);

    DeltaTracker serial;
    serial.setThreads(1);
    serial.observe(f0);
    FrameDelta want = serial.observe(f1);

    for (int threads : {2, 8}) {
        DeltaTracker tracker;
        tracker.setThreads(threads);
        tracker.observe(f0);
        FrameDelta got = tracker.observe(f1);
        EXPECT_EQ(want.incoming_total, got.incoming_total);
        EXPECT_EQ(want.outgoing_total, got.outgoing_total);
        // The Fig. 6 sample sequence must come out in tile-index order,
        // bit-identical to the serial pass.
        EXPECT_EQ(want.tile_retention, got.tile_retention);
        ASSERT_EQ(want.tiles.size(), got.tiles.size());
        for (size_t t = 0; t < want.tiles.size(); ++t) {
            EXPECT_EQ(want.tiles[t].outgoing_ids, got.tiles[t].outgoing_ids);
            EXPECT_EQ(want.tiles[t].prev_size, got.tiles[t].prev_size);
            EXPECT_EQ(want.tiles[t].retention, got.tiles[t].retention);
            ASSERT_EQ(want.tiles[t].incoming.size(),
                      got.tiles[t].incoming.size());
            for (size_t i = 0; i < want.tiles[t].incoming.size(); ++i) {
                EXPECT_EQ(want.tiles[t].incoming[i].id,
                          got.tiles[t].incoming[i].id);
                EXPECT_EQ(want.tiles[t].incoming[i].depth,
                          got.tiles[t].incoming[i].depth);
            }
        }
    }
}

TEST(DeltaTrackerTest, ReuseObserveMatchesAllocatingObserve)
{
    GaussianScene scene = test::blobScene(300);
    DeltaTracker fresh, reusing;
    FrameDelta reused;
    for (int f = 0; f < 3; ++f) {
        BinnedFrame frame = frameAt(scene, 0.03f * f);
        FrameDelta want = fresh.observe(frame);
        reusing.observe(frame, reused);
        EXPECT_EQ(want.incoming_total, reused.incoming_total);
        EXPECT_EQ(want.outgoing_total, reused.outgoing_total);
        EXPECT_EQ(want.tile_retention, reused.tile_retention);
    }
}

// --- Randomized set-difference oracle -----------------------------------
//
// The merge-based observe() must agree field for field (and byte for
// byte on tile_retention) with a naive sorted set-difference oracle on
// arbitrary tile membership — including shuffled (depth-ordered) entry
// lists, empty tiles, full turnover, and no change — at every thread
// count.

/** Naive per-tile delta: sorted-vector set operations, no shortcuts. */
struct OracleDelta
{
    std::vector<std::vector<TileEntry>> incoming;
    std::vector<std::vector<GaussianId>> outgoing;
    std::vector<double> retention_by_tile; // 1.0 when prev empty
    std::vector<uint32_t> prev_size;
    uint64_t incoming_total = 0;
    uint64_t outgoing_total = 0;
    std::vector<double> tile_retention;
};

OracleDelta
oracleObserve(const std::vector<std::vector<GaussianId>> &prev_sorted,
              const BinnedFrame &frame, bool have_prev)
{
    const size_t tiles = frame.tiles.size();
    OracleDelta d;
    d.incoming.resize(tiles);
    d.outgoing.resize(tiles);
    d.retention_by_tile.assign(tiles, 1.0);
    d.prev_size.assign(tiles, 0);
    for (size_t t = 0; t < tiles; ++t) {
        const auto &entries = frame.tiles[t];
        std::vector<GaussianId> cur;
        for (const auto &e : entries)
            cur.push_back(e.id);
        std::sort(cur.begin(), cur.end());
        if (!have_prev) {
            d.incoming[t] = entries;
            d.incoming_total += entries.size();
            continue;
        }
        const auto &prev = prev_sorted[t];
        d.prev_size[t] = static_cast<uint32_t>(prev.size());
        for (const auto &e : entries)
            if (!std::binary_search(prev.begin(), prev.end(), e.id))
                d.incoming[t].push_back(e);
        d.incoming_total += d.incoming[t].size();
        std::set_difference(prev.begin(), prev.end(), cur.begin(),
                            cur.end(),
                            std::back_inserter(d.outgoing[t]));
        d.outgoing_total += d.outgoing[t].size();
        if (!prev.empty()) {
            const uint32_t shared =
                static_cast<uint32_t>(prev.size()) -
                static_cast<uint32_t>(d.outgoing[t].size());
            d.retention_by_tile[t] =
                static_cast<double>(shared) /
                static_cast<double>(prev.size());
            d.tile_retention.push_back(d.retention_by_tile[t]);
        }
    }
    return d;
}

TEST(DeltaTrackerTest, MatchesSetDifferenceOracleOnRandomFrames)
{
    constexpr size_t kTiles = 37;    // not a multiple of any chunk count
    constexpr uint32_t kUniverse = 500;

    for (int threads : {1, 2, 8}) {
        Rng rng(913);
        DeltaTracker tracker;
        tracker.setThreads(threads);

        std::vector<std::vector<GaussianId>> prev_sorted;
        std::vector<std::vector<TileEntry>> last_tiles;
        bool have_prev = false;
        for (int f = 0; f < 6; ++f) {
            // Random membership per tile, presented in random order (as
            // a depth-sorted pipeline would); frame 3 repeats frame 2's
            // membership exactly (the no-change case), tile 0 is often
            // empty.
            BinnedFrame frame;
            frame.grid = TileGrid(Resolution{16 * 8, 16 * 5, "oracle"},
                                  16); // 8x5 = 40 >= kTiles
            frame.tiles.resize(kTiles);
            if (f == 3) {
                frame.tiles = last_tiles;
            } else {
                for (size_t t = 0; t < kTiles; ++t) {
                    auto &list = frame.tiles[t];
                    if (t == 0 && f % 2 == 0)
                        continue; // empty tile
                    const size_t count = rng.below(40);
                    std::vector<GaussianId> ids;
                    while (ids.size() < count) {
                        GaussianId id = static_cast<GaussianId>(
                            rng.below(kUniverse));
                        if (std::find(ids.begin(), ids.end(), id) ==
                            ids.end())
                            ids.push_back(id);
                    }
                    for (GaussianId id : ids)
                        list.push_back(TileEntry{
                            id, rng.uniform(0.1f, 50.0f), true});
                }
            }
            last_tiles = frame.tiles;

            OracleDelta want =
                oracleObserve(prev_sorted, frame, have_prev);
            FrameDelta got = tracker.observe(frame);

            EXPECT_EQ(want.incoming_total, got.incoming_total)
                << "threads=" << threads << " frame=" << f;
            EXPECT_EQ(want.outgoing_total, got.outgoing_total);
            // Byte-identical Fig. 6 sample sequence.
            ASSERT_EQ(want.tile_retention.size(),
                      got.tile_retention.size());
            for (size_t i = 0; i < want.tile_retention.size(); ++i)
                EXPECT_EQ(std::bit_cast<uint64_t>(
                              want.tile_retention[i]),
                          std::bit_cast<uint64_t>(
                              got.tile_retention[i]))
                    << "threads=" << threads << " frame=" << f
                    << " sample=" << i;
            ASSERT_EQ(got.tiles.size(), kTiles);
            for (size_t t = 0; t < kTiles; ++t) {
                const TileDelta &td = got.tiles[t];
                EXPECT_EQ(want.outgoing[t], td.outgoing_ids)
                    << "tile " << t;
                EXPECT_EQ(want.outgoing[t].size(), td.outgoing);
                EXPECT_EQ(want.prev_size[t], td.prev_size);
                EXPECT_EQ(std::bit_cast<uint64_t>(
                              want.retention_by_tile[t]),
                          std::bit_cast<uint64_t>(td.retention))
                    << "tile " << t;
                ASSERT_EQ(want.incoming[t].size(), td.incoming.size())
                    << "tile " << t;
                for (size_t i = 0; i < td.incoming.size(); ++i) {
                    EXPECT_EQ(want.incoming[t][i].id,
                              td.incoming[i].id);
                    EXPECT_EQ(want.incoming[t][i].depth,
                              td.incoming[i].depth);
                }
            }

            // The oracle's next reference membership.
            prev_sorted.assign(kTiles, {});
            for (size_t t = 0; t < kTiles; ++t) {
                for (const auto &e : frame.tiles[t])
                    prev_sorted[t].push_back(e.id);
                std::sort(prev_sorted[t].begin(), prev_sorted[t].end());
            }
            have_prev = true;
        }
    }
}

TEST(DeltaTrackerTest, IncomingPlusRetainedEqualsCurrent)
{
    GaussianScene scene = test::blobScene(400);
    DeltaTracker tracker;
    BinnedFrame f0 = frameAt(scene, 0.0f);
    tracker.observe(f0);
    BinnedFrame f1 = frameAt(scene, 0.04f);
    FrameDelta d = tracker.observe(f1);
    // |cur| = |prev| - outgoing + incoming, summed over tiles.
    EXPECT_EQ(f1.instances,
              f0.instances - d.outgoing_total + d.incoming_total);
}

} // namespace
} // namespace neo
