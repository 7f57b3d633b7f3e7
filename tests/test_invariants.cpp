/**
 * @file
 * Long-horizon property tests on the reuse-and-update state machine: the
 * persistent tables must stay hygienic over many frames — no duplicate
 * ids within a tile, no unbounded accumulation of invalidated entries,
 * each tile's valid entries equal to its binned membership (and to the
 * delta tracker's), tables alone enough to resume a stream, and
 * deterministic replay. These are the invariants that make "reuse
 * instead of rebuild" safe to ship.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/neo_renderer.h"
#include "core/reuse_update.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace neo
{
namespace
{

/** The ids of @p entries (only the valid ones with @p valid_only),
    ascending. */
std::vector<GaussianId>
sortedIds(const std::vector<TileEntry> &entries, bool valid_only)
{
    std::vector<GaussianId> ids;
    for (const TileEntry &e : entries)
        if (e.valid || !valid_only)
            ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

class ReuseInvariantTest : public ::testing::TestWithParam<float>
{
  protected:
    static BinnedFrame
    frameAt(const GaussianScene &scene, const Trajectory &traj, int f)
    {
        Camera cam = traj.cameraAt(f, test::smallRes());
        return binFrame(scene, cam, 32);
    }
};

TEST_P(ReuseInvariantTest, TablesStayHygienicOverLongRuns)
{
    const float speed = GetParam();
    GaussianScene scene = test::tinySyntheticScene(4000, 123);
    Trajectory traj(TrajectoryKind::Orbit, scene, speed);
    ReuseUpdateSorter sorter;

    const int frames = 24;
    for (int f = 0; f < frames; ++f) {
        BinnedFrame frame = frameAt(scene, traj, f);
        sorter.beginFrame(frame, f);

        uint64_t invalid_entries = 0;
        for (size_t t = 0; t < sorter.tables().tileCount(); ++t) {
            const auto &table = sorter.tables().table(t);

            // Invariant 1: no duplicate ids within a tile table.
            std::unordered_set<GaussianId> seen;
            for (const auto &e : table) {
                EXPECT_TRUE(seen.insert(e.id).second)
                    << "duplicate id " << e.id << " in tile " << t
                    << " at frame " << f << " (speed " << speed << ")";
                if (!e.valid)
                    ++invalid_entries;
            }
        }

        // Invariant 2: invalidated entries are bounded by one frame of
        // outgoing churn (they are filtered at the next merge, never
        // accumulated).
        EXPECT_EQ(invalid_entries, sorter.lastReport().outgoing_marked)
            << "stale invalid entries leaked across frames (frame " << f
            << ")";

        // Invariant 3: valid population equals the binned membership,
        // tile by tile, and so does the tracker's reference membership —
        // which is why a snapshot need not carry the latter.
        EXPECT_EQ(sorter.tables().validEntries(), frame.instances)
            << "frame " << f;
        ASSERT_EQ(sorter.trackerPrevIds().size(), sorter.tables().tileCount());
        for (size_t t = 0; t < sorter.tables().tileCount(); ++t) {
            const std::vector<GaussianId> valid =
                sortedIds(sorter.tables().table(t), true);
            EXPECT_EQ(valid, sortedIds(frame.tiles[t], false))
                << "tile " << t << " at frame " << f;
            EXPECT_EQ(valid, sorter.trackerPrevIds()[t])
                << "tile " << t << " at frame " << f;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Speeds, ReuseInvariantTest,
                         ::testing::Values(0.5f, 2.0f, 8.0f));

/** Every ReuseUpdateReport and SortCoreStats field of two frames. */
void
expectSameCounters(const NeoFrameReport &a, const NeoFrameReport &b)
{
    EXPECT_EQ(b.reuse.table_entries, a.reuse.table_entries);
    EXPECT_EQ(b.reuse.incoming, a.reuse.incoming);
    EXPECT_EQ(b.reuse.outgoing_marked, a.reuse.outgoing_marked);
    EXPECT_EQ(b.reuse.deleted, a.reuse.deleted);
    EXPECT_EQ(b.reuse.mean_retention, a.reuse.mean_retention);
    EXPECT_EQ(b.reuse.cold_start, a.reuse.cold_start);
    EXPECT_EQ(b.sort.bsu.subchunks, a.sort.bsu.subchunks);
    EXPECT_EQ(b.sort.bsu.compare_exchanges, a.sort.bsu.compare_exchanges);
    EXPECT_EQ(b.sort.bsu.stages, a.sort.bsu.stages);
    EXPECT_EQ(b.sort.msu.merges, a.sort.msu.merges);
    EXPECT_EQ(b.sort.msu.elements_processed, a.sort.msu.elements_processed);
    EXPECT_EQ(b.sort.msu.compares, a.sort.msu.compares);
    EXPECT_EQ(b.sort.msu.filtered_invalid, a.sort.msu.filtered_invalid);
    EXPECT_EQ(b.sort.chunk_loads, a.sort.chunk_loads);
    EXPECT_EQ(b.sort.chunk_stores, a.sort.chunk_stores);
    EXPECT_EQ(b.sort.entries_read, a.sort.entries_read);
    EXPECT_EQ(b.sort.entries_written, a.sort.entries_written);
    EXPECT_EQ(b.sort.global_merge_passes, a.sort.global_merge_passes);
}

TEST(ReuseRestoreTest, TablesAloneResumeEveryFrame)
{
    // The durable path hands a fresh renderer nothing but the sorter
    // tables. Before every frame of a served-like schedule — a Direct
    // frame every 9th frame (its stale tables reset before the next
    // reuse frame, as Session does) and ten frames one resolution tier
    // down — a renderer restored from the live one's tables must render
    // that frame exactly as the live renderer does.
    GaussianScene scene = test::tinySyntheticScene(4000, 321);
    for (TrajectoryKind kind :
         {TrajectoryKind::Orbit, TrajectoryKind::Dolly}) {
        for (int threads : {1, 4}) {
            Trajectory traj(kind, scene, 2.0f);
            PipelineOptions opts = NeoRenderer::neoDefaultOptions();
            opts.threads = threads;
            NeoRenderer live(opts);
            Image live_image, restored_image;
            bool stale = false;
            int last_drop = 0;
            for (int f = 0; f < 40; ++f) {
                SCOPED_TRACE(::testing::Message()
                             << "kind=" << static_cast<int>(kind)
                             << " threads=" << threads << " frame=" << f);
                const bool direct = f % 9 == 8;
                const int drop = f >= 20 && f < 30 ? 1 : 0;
                Resolution res = test::smallRes();
                res.width >>= drop;
                res.height >>= drop;
                const Camera cam = traj.cameraAt(f, res);
                const NeoRenderer::FramePath path =
                    direct ? NeoRenderer::FramePath::Direct
                           : NeoRenderer::FramePath::Reuse;

                NeoRenderer restored(opts);
                restored.restorePersistentState(
                    live.sorter().tables().tables());
                if (!direct && (stale || drop != last_drop)) {
                    live.reset();
                    restored.reset();
                }
                NeoFrameReport a, b;
                live.renderFrameInto(live_image, scene, cam, f, &a, nullptr,
                                     path);
                restored.renderFrameInto(restored_image, scene, cam, f, &b,
                                         nullptr, path);
                stale = direct;
                if (!direct)
                    last_drop = drop;

                EXPECT_EQ(restored_image.contentHash(),
                          live_image.contentHash());
                expectSameCounters(a, b);
            }
        }
    }
}

TEST(ReuseDeterminismTest, ReplayIsBitIdentical)
{
    GaussianScene scene = test::tinySyntheticScene(3000, 5);
    Trajectory traj(TrajectoryKind::Dolly, scene, 1.5f);

    auto run = [&]() {
        ReuseUpdateSorter sorter;
        std::vector<std::vector<TileEntry>> final_tables;
        for (int f = 0; f < 10; ++f) {
            Camera cam = traj.cameraAt(f, test::smallRes());
            BinnedFrame frame = binFrame(scene, cam, 32);
            sorter.beginFrame(frame, f);
        }
        return sorter.tables().tables();
    };

    auto a = run();
    auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "tile " << t;
        for (size_t i = 0; i < a[t].size(); ++i) {
            EXPECT_EQ(a[t][i].id, b[t][i].id);
            EXPECT_EQ(a[t][i].depth, b[t][i].depth);
            EXPECT_EQ(a[t][i].valid, b[t][i].valid);
        }
    }
}

TEST(ReuseBoundedMemoryTest, TableSizeTracksSceneNotHistory)
{
    // After many frames the total table size must stay within one frame
    // of churn of the current instance count — reuse must not hoard
    // every Gaussian ever seen.
    GaussianScene scene = test::tinySyntheticScene(4000, 77);
    Trajectory traj(TrajectoryKind::Orbit, scene, 4.0f);
    ReuseUpdateSorter sorter;
    uint64_t last_instances = 0;
    for (int f = 0; f < 30; ++f) {
        Camera cam = traj.cameraAt(f, test::smallRes());
        BinnedFrame frame = binFrame(scene, cam, 32);
        sorter.beginFrame(frame, f);
        last_instances = frame.instances;
    }
    uint64_t total = sorter.tables().totalEntries();
    EXPECT_LE(total,
              last_instances + sorter.lastReport().outgoing_marked);
    EXPECT_GE(total, last_instances);
}

TEST(StrategyStateIsolationTest, StrategiesDoNotAliasFrameStorage)
{
    // Orderings returned by a strategy must remain valid and unchanged
    // even after the caller's BinnedFrame is destroyed or mutated.
    GaussianScene scene = test::blobScene(300);
    ReuseUpdateSorter sorter;
    std::vector<TileEntry> snapshot;
    int probe = -1;
    {
        Camera cam = test::frontCamera(5.0f);
        BinnedFrame frame = binFrame(scene, cam, 32);
        sorter.beginFrame(frame, 0);
        for (int t = 0; t < frame.grid.tileCount(); ++t) {
            if (!sorter.tileOrder(t).empty()) {
                probe = t;
                snapshot = sorter.tileOrder(t);
                break;
            }
        }
        // Mutate the frame before it dies.
        for (auto &tile : frame.tiles)
            tile.clear();
    }
    ASSERT_GE(probe, 0);
    const auto &after = sorter.tileOrder(probe);
    ASSERT_EQ(after.size(), snapshot.size());
    for (size_t i = 0; i < after.size(); ++i)
        EXPECT_EQ(after[i].id, snapshot[i].id);
}

} // namespace
} // namespace neo
