/**
 * @file
 * Integration tests across modules: quality parity between Neo and full
 * re-sorting on a real (small) scene trajectory, temporal-similarity
 * statistics in the ranges the paper's motivation study reports, and the
 * strategy quality ordering of Fig. 19.
 */

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/neo_renderer.h"
#include "metrics/lpips_proxy.h"
#include "metrics/psnr.h"
#include "scene/datasets.h"
#include "sim/perf_harness.h"
#include "sort/strategies.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(IntegrationTest, NeoQualityParityOnTrajectory)
{
    GaussianScene scene = test::tinySyntheticScene(6000, 77);
    Trajectory traj(TrajectoryKind::Orbit, scene);

    PipelineOptions opts;
    opts.tile_px = 32; // divides the 256x192 test resolution
    opts.raster.subtile_size = 8;
    NeoRenderer neo_r(opts);
    Renderer base(opts);

    double worst_psnr = 1e9;
    double worst_lpips = 0.0;
    for (int f = 0; f < 8; ++f) {
        Camera cam = traj.cameraAt(f, test::smallRes());
        Image neo_img = neo_r.renderFrame(scene, cam, f);
        Image ref_img = base.render(scene, cam);
        worst_psnr = std::min(worst_psnr, psnr(ref_img, neo_img));
        worst_lpips = std::max(worst_lpips, lpipsProxy(ref_img, neo_img));
    }
    // Table 2: quality parity (our thresholds are conservative for the
    // small test scene).
    EXPECT_GT(worst_psnr, 32.0);
    EXPECT_LT(worst_lpips, 0.05);
}

TEST(IntegrationTest, TemporalSimilarityMatchesMotivationStudy)
{
    // Fig. 6/7: under a 30 FPS-like orbit, tiles retain most Gaussians and
    // sort-order displacement is small.
    GaussianScene scene = test::tinySyntheticScene(8000, 5);
    Trajectory traj(TrajectoryKind::Orbit, scene, 1.0f);
    Renderer renderer;
    DeltaTracker tracker;

    std::vector<double> retention;
    std::vector<double> displacements;
    std::vector<std::vector<TileEntry>> prev_tiles;
    for (int f = 0; f < 6; ++f) {
        Camera cam = traj.cameraAt(f, test::smallRes());
        BinnedFrame frame = renderer.prepare(scene, cam);
        FrameDelta delta = tracker.observe(frame);
        if (f > 0) {
            for (double r : delta.tile_retention)
                retention.push_back(r);
            for (size_t t = 0; t < frame.tiles.size(); ++t) {
                if (t < prev_tiles.size() && prev_tiles[t].size() > 8) {
                    auto d = orderDisplacements(prev_tiles[t],
                                                frame.tiles[t]);
                    displacements.insert(displacements.end(), d.begin(),
                                         d.end());
                }
            }
        }
        prev_tiles = frame.tiles;
    }
    ASSERT_FALSE(retention.empty());
    ASSERT_FALSE(displacements.empty());
    // Most tiles retain most of their Gaussians.
    EXPECT_GT(mean(retention), 0.8);
    // Median displacement is tiny relative to table length.
    EXPECT_LT(percentile(displacements, 50.0), 8.0);
}

TEST(IntegrationTest, StrategyQualityOrderingMatchesFig19)
{
    // Rasterize the same trajectory with full sorting (reference), Neo's
    // reuse-update, and periodic sorting with a long period. Periodic must
    // be the worst; Neo must stay close to the reference.
    GaussianScene scene = test::tinySyntheticScene(6000, 9);
    Trajectory traj(TrajectoryKind::Orbit, scene, 2.0f);

    PipelineOptions opts;
    opts.tile_px = 32;
    Renderer renderer(opts);
    ReuseUpdateSorter neo_sorter;
    PeriodicSortStrategy periodic(16);

    double neo_min_psnr = 1e9, periodic_min_psnr = 1e9;
    for (int f = 0; f < 10; ++f) {
        Camera cam = traj.cameraAt(f, test::smallRes());
        BinnedFrame frame = binFrame(scene, cam, opts.tile_px);
        Image ref = renderer.renderWithOrdering(
            renderer.prepare(scene, cam), {});

        neo_sorter.beginFrame(frame, f);
        Image neo_img =
            renderer.renderWithOrdering(frame, neo_sorter.orderings());
        neo_min_psnr = std::min(neo_min_psnr, psnr(ref, neo_img));

        periodic.beginFrame(frame, f);
        Image per_img =
            renderer.renderWithOrdering(frame, periodic.orderings());
        periodic_min_psnr = std::min(periodic_min_psnr, psnr(ref, per_img));
    }
    EXPECT_GT(neo_min_psnr, periodic_min_psnr)
        << "reuse-update must beat stale periodic tables";
    EXPECT_GT(neo_min_psnr, 30.0);
}

TEST(IntegrationTest, WorkloadPipelineFeedsAllModels)
{
    GaussianScene scene = test::tinySyntheticScene(5000, 3);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    WorkloadSequences seqs =
        extractSequences(scene, traj, test::smallRes(), 4);
    ASSERT_EQ(seqs.tile16.size(), 4u);
    ASSERT_EQ(seqs.tile64.size(), 4u);

    SequenceResult gpu = simulateGpu(GpuModel(), seqs.tile16);
    SequenceResult gscore = simulateGscore(GscoreModel(), seqs.tile16);
    SequenceResult neo = simulateNeo(NeoModel(), seqs.tile64);
    EXPECT_GT(gpu.meanFps(), 0.0);
    EXPECT_GT(gscore.meanFps(), 0.0);
    EXPECT_GT(neo.meanFps(), 0.0);
    // Neo moves the least data.
    EXPECT_LT(neo.totalTrafficGB(), gscore.totalTrafficGB());
    EXPECT_LT(gscore.totalTrafficGB(), gpu.totalTrafficGB());
}

TEST(IntegrationTest, StagedSweepTimesTheServedFrameLoop)
{
    GaussianScene scene = test::tinySyntheticScene(3000, 9);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const int frames = 3;
    const PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    const std::vector<ThreadScalingPoint> points = sweepRenderThreadsStaged(
        scene, traj, test::smallRes(), frames, {1, 2}, opts);
    ASSERT_EQ(points.size(), 2u);

    // The timed frames are frames 1..N of a NeoRenderer walk whose
    // frame 0 was the cold start.
    NeoRenderer solo(opts);
    Image image;
    std::vector<uint64_t> expected;
    for (int f = 0; f <= frames; ++f) {
        solo.renderFrameInto(image, scene, traj.cameraAt(f, test::smallRes()),
                             static_cast<uint64_t>(f));
        if (f > 0)
            expected.push_back(image.contentHash());
    }
    for (const ThreadScalingPoint &p : points) {
        EXPECT_EQ(p.frame_hashes, expected) << "threads=" << p.threads;
        EXPECT_GT(p.stages.tracker_ms, 0.0);
        EXPECT_GT(p.hash_ms, 0.0);
        // The stages are disjoint slices of the timed wall clock.
        EXPECT_LE(p.stages.totalMs() + p.hash_ms, p.ms_per_frame);
        EXPECT_GT(p.last_frame.instances, 0u);
    }
}

TEST(IntegrationTest, RapidMotionDegradesRetentionNotCorrectness)
{
    // Fig. 17(b) precondition: faster camera -> lower retention -> more
    // incoming work, while the rendered membership stays exact.
    GaussianScene scene = test::tinySyntheticScene(5000, 21);
    double slow_retention = 0.0, fast_retention = 0.0;
    for (float speed : {1.0f, 8.0f}) {
        Trajectory traj(TrajectoryKind::Orbit, scene, speed);
        Renderer renderer;
        DeltaTracker tracker;
        double sum = 0.0;
        int frames = 0;
        for (int f = 0; f < 5; ++f) {
            Camera cam = traj.cameraAt(f, test::smallRes());
            FrameDelta d = tracker.observe(renderer.prepare(scene, cam));
            if (f > 0) {
                sum += d.meanRetention();
                ++frames;
            }
        }
        double avg = sum / frames;
        if (speed == 1.0f)
            slow_retention = avg;
        else
            fast_retention = avg;
    }
    EXPECT_LT(fast_retention, slow_retention);
    EXPECT_GT(fast_retention, 0.2) << "even at 8x most Gaussians persist";
}

TEST(IntegrationTest, DatasetPresetsDriveFullPipeline)
{
    // Smoke: a (scaled-down) paper preset goes through the whole stack.
    ScenePreset preset = presetByName("Family");
    GaussianScene scene = buildScene(preset, 0.01); // 5500 Gaussians
    Trajectory traj(preset.trajectory, scene);
    NeoRenderer renderer;
    NeoFrameReport report;
    Image img = renderer.renderFrame(
        scene, traj.cameraAt(0, test::smallRes()), 0, &report);
    EXPECT_FALSE(img.empty());
    EXPECT_GT(report.frame.instances, 0u);
}

} // namespace
} // namespace neo
