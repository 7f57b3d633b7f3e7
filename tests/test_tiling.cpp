/**
 * @file
 * Unit tests for tile binning / duplication.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "gs/culling.h"
#include "gs/projection.h"
#include "gs/tiling.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(TileGridTest, DimensionsRoundUp)
{
    TileGrid grid({100, 50, "t"}, 16);
    EXPECT_EQ(grid.tiles_x, 7);
    EXPECT_EQ(grid.tiles_y, 4);
    EXPECT_EQ(grid.tileCount(), 28);
}

TEST(TileGridTest, IndexAndOriginRoundTrip)
{
    TileGrid grid({256, 192, "t"}, 16);
    int idx = grid.tileIndex(3, 2);
    Vec2 origin = grid.tileOrigin(idx);
    EXPECT_FLOAT_EQ(origin.x, 48.0f);
    EXPECT_FLOAT_EQ(origin.y, 32.0f);
}

TEST(TileRectTest, EmptyRect)
{
    TileRect r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.count(), 0);
}

TEST(TileRectTest, CentralGaussianCoversExpectedTiles)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {128.0f, 96.0f};
    pg.radius_px = 20.0f;
    TileRect r = tileRectOf(pg, grid);
    // 128 +- 20 spans pixels 108..148 -> tiles 6..9; 96 +- 20 -> tiles 4..7.
    EXPECT_EQ(r.x0, 6);
    EXPECT_EQ(r.x1, 9);
    EXPECT_EQ(r.y0, 4);
    EXPECT_EQ(r.y1, 7);
    EXPECT_EQ(r.count(), 16);
}

TEST(TileRectTest, ClampsToGrid)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {2.0f, 2.0f};
    pg.radius_px = 100.0f;
    TileRect r = tileRectOf(pg, grid);
    EXPECT_EQ(r.x0, 0);
    EXPECT_EQ(r.y0, 0);
    EXPECT_LE(r.x1, grid.tiles_x - 1);
    EXPECT_LE(r.y1, grid.tiles_y - 1);
}

TEST(TileRectTest, OffscreenGaussianIsEmpty)
{
    TileGrid grid({256, 192, "t"}, 16);
    ProjectedGaussian pg;
    pg.mean2d = {-500.0f, 96.0f};
    pg.radius_px = 10.0f;
    EXPECT_TRUE(tileRectOf(pg, grid).empty());
}

TEST(BinFrameTest, InstancesEqualSumOfTileLists)
{
    GaussianScene scene = test::blobScene(300);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    uint64_t sum = 0;
    for (const auto &t : frame.tiles)
        sum += t.size();
    EXPECT_EQ(sum, frame.instances);
    EXPECT_GT(frame.instances, 0u);
}

TEST(BinFrameTest, DuplicationAtLeastOneTilePerVisible)
{
    GaussianScene scene = test::blobScene(300);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    EXPECT_GE(frame.instances, frame.visible_count);
}

TEST(BinFrameTest, FeatureLookupIsConsistent)
{
    // The feature table is indexed by id: an id is visible exactly when it
    // survives culling and projection with a non-empty tile rectangle, a
    // visible id holds projectGaussian's fields bit for bit, and every
    // other id holds zeros.
    GaussianScene scene = test::blobScene(100);
    const size_t blob = scene.size();
    // Behind the camera (at z = -5, looking toward +z).
    scene.gaussians.push_back(test::makeGaussian({0.0f, 0.0f, -8.0f}));
    // Far off-screen, and just past the right edge of the image.
    scene.gaussians.push_back(test::makeGaussian({40.0f, 0.0f, 0.0f}));
    for (float x : {3.4f, 3.6f, 4.0f})
        scene.gaussians.push_back(test::makeGaussian({x, 0.0f, 0.0f}, 0.02f));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    ASSERT_EQ(frame.visible.size(), scene.size());

    auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
    auto expectVec = [&](Vec3 got, Vec3 want, GaussianId id) {
        EXPECT_EQ(bits(got.x), bits(want.x)) << "id " << id;
        EXPECT_EQ(bits(got.y), bits(want.y)) << "id " << id;
        EXPECT_EQ(bits(got.z), bits(want.z)) << "id " << id;
    };
    uint64_t visible = 0;
    for (GaussianId id = 0; id < scene.size(); ++id) {
        const std::optional<ProjectedGaussian> pg =
            inFrustum(scene[id], cam) ? projectGaussian(scene[id], id, cam)
                                      : std::nullopt;
        const bool expect_visible =
            pg && !tileRectOf(*pg, frame.grid).empty();
        ASSERT_EQ(frame.isVisible(id), expect_visible) << "id " << id;
        if (!expect_visible) {
            EXPECT_GE(id, blob) << "a blob Gaussian was culled";
            expectVec({frame.mean2d[id].x, frame.mean2d[id].y,
                       frame.radius_px[id]},
                      {}, id);
            expectVec({frame.depth[id], frame.opacity[id], 0.0f}, {}, id);
            expectVec(frame.color[id], {}, id);
            expectVec(frame.conic[id], {}, id);
            continue;
        }
        ++visible;
        expectVec({frame.mean2d[id].x, frame.mean2d[id].y,
                   frame.radius_px[id]},
                  {pg->mean2d.x, pg->mean2d.y, pg->radius_px}, id);
        expectVec({frame.depth[id], frame.opacity[id], 0.0f},
                  {pg->depth, pg->opacity, 0.0f}, id);
        expectVec(frame.color[id], pg->color, id);
        expectVec(frame.conic[id], {pg->conic_a, pg->conic_b, pg->conic_c},
                  id);
    }
    EXPECT_EQ(frame.visible_count, visible);
    EXPECT_GE(visible, blob);
    EXPECT_LE(visible, scene.size() - 2) << "nothing was culled";
    // Ids outside the scene read as invisible.
    EXPECT_FALSE(frame.isVisible(static_cast<GaussianId>(scene.size())));
    EXPECT_FALSE(frame.isVisible(0xFFFFFFFFu));
}

TEST(BinFrameTest, EntriesCarryFeatureDepth)
{
    GaussianScene scene = test::blobScene(100);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    for (const auto &tile : frame.tiles)
        for (const auto &e : tile) {
            ASSERT_TRUE(frame.isVisible(e.id));
            EXPECT_FLOAT_EQ(e.depth, frame.depth[e.id]);
            EXPECT_TRUE(e.valid);
        }
}

TEST(BinFrameTest, EveryInstanceIntersectsItsTileRect)
{
    GaussianScene scene = test::blobScene(100);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        Vec2 origin = frame.grid.tileOrigin(tile);
        for (const auto &e : frame.tiles[tile]) {
            const Vec2 mean = frame.mean2d[e.id];
            const float radius = frame.radius_px[e.id];
            // The gaussian's bbox must overlap the tile's pixel rect.
            EXPECT_LE(mean.x - radius, origin.x + frame.grid.tile_size);
            EXPECT_GE(mean.x + radius, origin.x);
            EXPECT_LE(mean.y - radius, origin.y + frame.grid.tile_size);
            EXPECT_GE(mean.y + radius, origin.y);
        }
    }
}

TEST(BinFrameTest, LargerTilesMeanFewerInstances)
{
    GaussianScene scene = test::blobScene(500);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame f16 = binFrame(scene, cam, 16);
    BinnedFrame f64 = binFrame(scene, cam, 64);
    EXPECT_GT(f16.instances, f64.instances);
    EXPECT_EQ(f16.visible_count, f64.visible_count);
}

TEST(BinFrameTest, MeanTileLengthSane)
{
    GaussianScene scene = test::blobScene(500);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 16);
    double mean_len = frame.meanTileLength();
    EXPECT_GT(mean_len, 0.0);
    EXPECT_LE(mean_len, static_cast<double>(frame.instances));
}

/** Parameterized: binning must be self-consistent across tile sizes. */
class TileSizeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TileSizeTest, GridCoversImage)
{
    int tile_px = GetParam();
    GaussianScene scene = test::blobScene(200);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, tile_px);
    EXPECT_GE(frame.grid.tiles_x * tile_px, cam.width());
    EXPECT_GE(frame.grid.tiles_y * tile_px, cam.height());
    EXPECT_EQ(frame.tiles.size(),
              static_cast<size_t>(frame.grid.tileCount()));
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeTest,
                         ::testing::Values(8, 16, 32, 64));

} // namespace
} // namespace neo
