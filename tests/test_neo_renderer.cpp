/**
 * @file
 * Unit tests for the NeoRenderer facade (functional rendering + workload
 * extraction with reuse-and-update sorting).
 */

#include <gtest/gtest.h>

#include "core/neo_renderer.h"
#include "metrics/psnr.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(NeoRendererTest, DefaultOptionsMatchTable1)
{
    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    EXPECT_EQ(opts.tile_px, 64);
    EXPECT_EQ(opts.raster.subtile_size, 8);
}

TEST(NeoRendererTest, FirstFrameMatchesBaselineExactly)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    Camera cam = traj.cameraAt(0, test::smallRes());

    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    NeoRenderer neo_r(opts);
    Renderer base(opts);

    Image neo_img = neo_r.renderFrame(scene, cam, 0);
    Image base_img = base.render(scene, cam);
    // Cold start performs a full sort: identical output.
    EXPECT_DOUBLE_EQ(Image::meanAbsoluteDifference(neo_img, base_img), 0.0);
}

TEST(NeoRendererTest, SubsequentFramesStayCloseToBaseline)
{
    GaussianScene scene = test::tinySyntheticScene(3000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    NeoRenderer neo_r(opts);
    Renderer base(opts);

    for (int f = 0; f < 5; ++f) {
        Camera cam = traj.cameraAt(f, test::smallRes());
        Image neo_img = neo_r.renderFrame(scene, cam, f);
        Image base_img = base.render(scene, cam);
        double quality = psnr(base_img, neo_img);
        EXPECT_GT(quality, 30.0) << "frame " << f;
    }
}

TEST(NeoRendererTest, ReportIsPopulated)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    NeoRenderer renderer;
    NeoFrameReport report;
    renderer.renderFrame(scene, traj.cameraAt(0, test::smallRes()), 0,
                         &report);
    EXPECT_TRUE(report.reuse.cold_start);
    EXPECT_GT(report.frame.instances, 0u);
    EXPECT_GT(report.sort.entries_read, 0u);

    renderer.renderFrame(scene, traj.cameraAt(1, test::smallRes()), 1,
                         &report);
    EXPECT_FALSE(report.reuse.cold_start);
}

TEST(NeoRendererTest, WorkloadCarriesDeltas)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    NeoRenderer renderer;
    FrameWorkload w0 =
        renderer.extractWorkload(scene, traj.cameraAt(0, test::smallRes()),
                                 0);
    EXPECT_EQ(w0.incoming_instances, w0.instances); // everything new
    FrameWorkload w1 =
        renderer.extractWorkload(scene, traj.cameraAt(1, test::smallRes()),
                                 1);
    EXPECT_LT(w1.incoming_instances, w1.instances);
    EXPECT_GT(w1.mean_tile_retention, 0.5);
}

TEST(NeoRendererTest, ResetRestartsColdly)
{
    GaussianScene scene = test::tinySyntheticScene(1500);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    NeoRenderer renderer;
    NeoFrameReport report;
    renderer.renderFrame(scene, traj.cameraAt(0, test::smallRes()), 0,
                         &report);
    renderer.renderFrame(scene, traj.cameraAt(1, test::smallRes()), 1,
                         &report);
    EXPECT_FALSE(report.reuse.cold_start);
    renderer.reset();
    renderer.renderFrame(scene, traj.cameraAt(2, test::smallRes()), 2,
                         &report);
    EXPECT_TRUE(report.reuse.cold_start);
}

using FramePath = NeoRenderer::FramePath;

TEST(NeoRendererTest, DirectPathEqualsColdStartRender)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    for (int threads : {1, 2, 8}) {
        PipelineOptions opts = NeoRenderer::neoDefaultOptions();
        opts.threads = threads;
        NeoRenderer warm(opts);
        Image image;
        for (uint64_t f = 0; f < 3; ++f)
            warm.renderFrameInto(image, scene,
                                 traj.cameraAt(static_cast<int>(f),
                                               test::smallRes()),
                                 f);

        // A Direct frame mid-stream ignores the warm tables entirely...
        const Camera cam = traj.cameraAt(3, test::smallRes());
        NeoFrameReport report;
        StageTimings stages;
        warm.renderFrameInto(image, scene, cam, 3, &report, &stages,
                             FramePath::Direct);
        NeoRenderer cold(opts);
        Image cold_image;
        cold.renderFrameInto(cold_image, scene, cam, 3);
        // ...and equals a cold-start render of the same camera.
        EXPECT_EQ(image.contentHash(), cold_image.contentHash())
            << "threads=" << threads;
        EXPECT_FALSE(report.reuse.cold_start);
        EXPECT_EQ(report.reuse.table_entries, 0u);
        EXPECT_EQ(report.sort.entries_read, 0u);
        EXPECT_GT(report.frame.instances, 0u);
    }
}

TEST(NeoRendererTest, StageSinkChangesNoFrameHash)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    NeoRenderer plain;
    NeoRenderer timed;
    Image a, b;
    StageTimings stages;
    for (uint64_t f = 0; f < 6; ++f) {
        // Frame 4 takes the Direct path, as a degraded serving frame does.
        const FramePath path = f == 4 ? FramePath::Direct : FramePath::Reuse;
        if (f == 5) {
            plain.reset();
            timed.reset();
        }
        const Camera cam =
            traj.cameraAt(static_cast<int>(f), test::smallRes());
        plain.renderFrameInto(a, scene, cam, f, nullptr, nullptr, path);
        timed.renderFrameInto(b, scene, cam, f, nullptr, &stages, path);
        EXPECT_EQ(a.contentHash(), b.contentHash()) << "frame " << f;
    }
}

TEST(NeoRendererTest, TrackerTimedOnReuseFramesOnly)
{
    GaussianScene scene = test::tinySyntheticScene(2000);
    Trajectory traj(TrajectoryKind::Orbit, scene);
    NeoRenderer renderer;
    Image image;
    StageTimings stages;
    for (uint64_t f = 0; f < 3; ++f) {
        renderer.renderFrameInto(
            image, scene,
            traj.cameraAt(static_cast<int>(f), test::smallRes()), f,
            nullptr, &stages);
        EXPECT_GT(stages.tracker_ms, 0.0) << "frame " << f;
        EXPECT_GT(stages.bin_ms, 0.0);
        EXPECT_GT(stages.sort_ms, 0.0);
        EXPECT_GT(stages.raster_ms, 0.0);
    }
    stages.tracker_ms = 123.0; // the sink is reset, not accumulated
    renderer.renderFrameInto(image, scene,
                             traj.cameraAt(3, test::smallRes()), 3, nullptr,
                             &stages, FramePath::Direct);
    EXPECT_EQ(stages.tracker_ms, 0.0);
    EXPECT_GT(stages.sort_ms, 0.0);
    EXPECT_GT(stages.raster_ms, 0.0);
}

} // namespace
} // namespace neo
