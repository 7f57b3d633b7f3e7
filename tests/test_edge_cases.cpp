/**
 * @file
 * Edge-case and failure-injection tests across modules: image-boundary
 * tiles, degenerate Gaussians, abrupt camera teleports (§4.1's "even
 * under abrupt camera motion" claim), heavy depth ties, and model
 * monotonicity sweeps across resolutions.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/reuse_update.h"
#include "gs/pipeline.h"
#include "gs/projection.h"
#include "metrics/psnr.h"
#include "sim/gpu_model.h"
#include "sim/gscore_model.h"
#include "sim/neo_model.h"
#include "sort/strategies.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(EdgeCaseTest, ResolutionNotMultipleOfTileSize)
{
    // 250x190 with 64-px tiles leaves ragged edge tiles; rendering must
    // not touch out-of-bounds pixels and must still produce content.
    GaussianScene scene = test::blobScene(300);
    Camera cam(Resolution{250, 190, "ragged"}, deg2rad(50.0f));
    cam.lookAt({0.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 0.0f});
    PipelineOptions opts;
    opts.tile_px = 64;
    Renderer renderer(opts);
    FrameStats stats;
    Image img = renderer.render(scene, cam, &stats);
    EXPECT_GT(stats.raster.blend_ops, 0u);
    EXPECT_GE(img.width(), 250);
    EXPECT_GE(img.height(), 190);
}

TEST(EdgeCaseTest, GaussianExactlyOnTileBorder)
{
    GaussianScene scene;
    scene.gaussians.push_back(
        test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.15f, 0.9f,
                           {0.0f, 1.0f, 0.0f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    // The projected center lands at the image center = a tile corner for
    // 256x192 with 16-px tiles; the Gaussian must be binned into every
    // adjacent tile.
    const std::optional<ProjectedGaussian> pg =
        projectGaussian(scene[0], 0, cam);
    ASSERT_TRUE(pg.has_value());
    TileRect rect = tileRectOf(*pg, frame.grid);
    EXPECT_GE(rect.count(), 4);
}

TEST(EdgeCaseTest, FullyTransparentGaussiansBlendNothing)
{
    GaussianScene scene;
    for (int i = 0; i < 20; ++i) {
        Gaussian g = test::makeGaussian(
            {0.1f * i, 0.0f, 0.0f}, 0.2f, 0.0005f); // below 1/255 thresh
        scene.gaussians.push_back(g);
    }
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    Renderer renderer;
    FrameStats stats;
    Image img = renderer.render(scene, cam, &stats);
    EXPECT_EQ(stats.raster.blend_ops, 0u);
    for (const auto &p : img.pixels())
        EXPECT_FLOAT_EQ(p.x + p.y + p.z, 0.0f);
}

TEST(EdgeCaseTest, ExtremeFovStillProjects)
{
    Camera wide(test::smallRes(), deg2rad(140.0f));
    wide.lookAt({0.0f, 0.0f, -2.0f}, {0.0f, 0.0f, 0.0f});
    Camera narrow(test::smallRes(), deg2rad(5.0f));
    narrow.lookAt({0.0f, 0.0f, -2.0f}, {0.0f, 0.0f, 0.0f});
    Gaussian g = test::makeGaussian({0.0f, 0.0f, 0.0f}, 0.1f);
    auto pw = projectGaussian(g, 0, wide);
    auto pn = projectGaussian(g, 0, narrow);
    ASSERT_TRUE(pw && pn);
    // Narrow FOV magnifies: larger screen radius.
    EXPECT_GT(pn->radius_px, pw->radius_px);
}

TEST(EdgeCaseTest, CameraTeleportRecoversWithinFrames)
{
    // §4.1: "Even under abrupt camera motion, this method recovers the
    // correct ordering within a few frames." Teleport the camera to the
    // opposite side of the scene and verify membership correctness and
    // quality recovery.
    GaussianScene scene = test::tinySyntheticScene(5000, 31);
    PipelineOptions opts;
    opts.tile_px = 32;
    Renderer base(opts);
    ReuseUpdateSorter sorter;

    auto camAt = [&](float angle) {
        Camera cam(test::smallRes(), deg2rad(50.0f));
        float r = 2.0f * scene.bounding_radius;
        cam.lookAt({scene.center.x + r * std::sin(angle),
                    scene.center.y + 0.4f * scene.bounding_radius,
                    scene.center.z - r * std::cos(angle)},
                   scene.center);
        return cam;
    };

    // Settle for two frames, then teleport by ~120 degrees.
    for (int f = 0; f < 2; ++f) {
        BinnedFrame frame = binFrame(scene, camAt(0.01f * f), 32);
        sorter.beginFrame(frame, f);
    }
    double teleport_psnr = 0.0, recovered_psnr = 0.0;
    for (int f = 2; f < 6; ++f) {
        Camera cam = camAt(2.1f + 0.01f * f);
        BinnedFrame frame = binFrame(scene, cam, 32);
        sorter.beginFrame(frame, f);
        Image ref = base.render(scene, cam);
        Image img = base.renderWithOrdering(frame, sorter.orderings());
        double q = psnr(ref, img);
        if (f == 2)
            teleport_psnr = q;
        recovered_psnr = q;
    }
    // Right after the teleport the ordering may be rough, but within a
    // few frames quality must recover to near-reference.
    EXPECT_GT(recovered_psnr, 30.0);
    EXPECT_GE(recovered_psnr + 1e-9, teleport_psnr);
}

TEST(EdgeCaseTest, HeavyDepthTiesSortDeterministically)
{
    std::vector<TileEntry> t;
    for (int i = 999; i >= 0; --i)
        t.push_back({static_cast<GaussianId>(i), 1.0f, true});
    fullSortTable(t);
    for (size_t i = 0; i + 1 < t.size(); ++i)
        EXPECT_LT(t[i].id, t[i + 1].id);
}

TEST(EdgeCaseTest, PeriodicWithPeriodOneIsFullSort)
{
    GaussianScene scene = test::blobScene(200);
    PeriodicSortStrategy periodic(1);
    FullSortStrategy full;
    for (int f = 0; f < 3; ++f) {
        Camera cam = test::frontCamera(5.0f + 0.1f * f);
        BinnedFrame frame = binFrame(scene, cam, 16);
        periodic.beginFrame(frame, f);
        full.beginFrame(frame, f);
        EXPECT_TRUE(periodic.refreshedLastFrame());
        for (int t = 0; t < frame.grid.tileCount(); ++t) {
            const auto &a = periodic.tileOrder(t);
            const auto &b = full.tileOrder(t);
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a[i].id, b[i].id);
        }
    }
}

/** Parameterized monotonicity sweep across resolutions for all models. */
class ModelResolutionTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    static FrameWorkload
    workloadFor(Resolution res, int tile_px)
    {
        FrameWorkload w;
        w.res = res;
        w.tile_size = tile_px;
        w.scene_gaussians = 500000;
        w.visible_gaussians = 300000;
        double dup = (tile_px == 16 ? 5.0 : 1.6) *
                     (static_cast<double>(res.pixels()) / kResHD.pixels());
        w.instances = static_cast<uint64_t>(w.visible_gaussians * dup);
        w.incoming_instances = w.instances / 30;
        w.outgoing_instances = w.instances / 30;
        w.blend_ops = static_cast<uint64_t>(res.pixels() * 35.0);
        w.intersection_tests = w.instances * 16;
        w.tile_lengths.assign(100, static_cast<uint32_t>(w.instances / 100));
        return w;
    }
};

TEST_P(ModelResolutionTest, HigherResolutionNeverFaster)
{
    auto [lo_idx, hi_idx] = GetParam();
    Resolution rs[] = {kResHD, kResFHD, kResQHD};
    Resolution lo = rs[lo_idx], hi = rs[hi_idx];

    EXPECT_GE(GpuModel().simulateFrame(workloadFor(lo, 16)).fps(),
              GpuModel().simulateFrame(workloadFor(hi, 16)).fps());
    EXPECT_GE(GscoreModel().simulateFrame(workloadFor(lo, 16)).fps(),
              GscoreModel().simulateFrame(workloadFor(hi, 16)).fps());
    EXPECT_GE(NeoModel().simulateFrame(workloadFor(lo, 64)).fps(),
              NeoModel().simulateFrame(workloadFor(hi, 64)).fps());

    EXPECT_LE(
        GpuModel().simulateFrame(workloadFor(lo, 16)).traffic.total(),
        GpuModel().simulateFrame(workloadFor(hi, 16)).traffic.total());
    EXPECT_LE(
        NeoModel().simulateFrame(workloadFor(lo, 64)).traffic.total(),
        NeoModel().simulateFrame(workloadFor(hi, 64)).traffic.total());
}

INSTANTIATE_TEST_SUITE_P(Pairs, ModelResolutionTest,
                         ::testing::Values(std::make_tuple(0, 1),
                                           std::make_tuple(1, 2),
                                           std::make_tuple(0, 2)));

TEST(EdgeCaseTest, NeoModelMoreIncomingMoreSortTraffic)
{
    FrameWorkload w;
    w.res = kResQHD;
    w.tile_size = 64;
    w.visible_gaussians = 300000;
    w.instances = 1000000;
    w.blend_ops = 1000000;
    w.intersection_tests = 1000000;
    w.incoming_instances = 1000;
    FrameSim calm = NeoModel().simulateFrame(w);
    w.incoming_instances = 400000;
    FrameSim churny = NeoModel().simulateFrame(w);
    EXPECT_GT(churny.traffic.sorting_bytes, calm.traffic.sorting_bytes);
    EXPECT_GE(churny.latency_s, calm.latency_s);
}

TEST(EdgeCaseTest, EmptyWorkloadIsHarmless)
{
    FrameWorkload w;
    w.res = kResHD;
    FrameSim g = GpuModel().simulateFrame(w);
    FrameSim s = GscoreModel().simulateFrame(w);
    FrameSim n = NeoModel().simulateFrame(w);
    EXPECT_GE(g.latency_s, 0.0);
    EXPECT_GE(s.latency_s, 0.0);
    EXPECT_GE(n.latency_s, 0.0);
}

} // namespace
} // namespace neo
