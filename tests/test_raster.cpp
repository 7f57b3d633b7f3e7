/**
 * @file
 * Unit tests for the subtile rasterizer (ITU + SCU functional model).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/neo_renderer.h"
#include "gs/pipeline.h"
#include "gs/raster.h"
#include "gs/raster_masks.h"
#include "test_util.h"

namespace neo
{
namespace
{

/** Single-Gaussian frame helper. */
BinnedFrame
singleGaussianFrame(Vec3 world_pos, float scale, float opacity, Vec3 color,
                    int tile_px = 64)
{
    GaussianScene scene;
    scene.gaussians.push_back(
        test::makeGaussian(world_pos, scale, opacity, color));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    return binFrame(scene, cam, tile_px);
}

TEST(SubtileBitmapTest, CenteredGaussianCoversAllSubtiles)
{
    ProjectedGaussian pg;
    pg.mean2d = {32.0f, 32.0f};
    pg.radius_px = 64.0f;
    SubtileBitmap bm = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_EQ(bm, ~SubtileBitmap{0});
}

TEST(SubtileBitmapTest, FarGaussianCoversNothing)
{
    ProjectedGaussian pg;
    pg.mean2d = {500.0f, 500.0f};
    pg.radius_px = 10.0f;
    EXPECT_EQ(subtileBitmap(pg, {0.0f, 0.0f}, 64, 8), 0u);
}

TEST(SubtileBitmapTest, CornerGaussianCoversCornerOnly)
{
    ProjectedGaussian pg;
    pg.mean2d = {2.0f, 2.0f};
    pg.radius_px = 5.0f;
    SubtileBitmap bm = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_TRUE(bm & 1); // top-left subtile
    EXPECT_EQ(bm & ~SubtileBitmap{1}, 0u); // nothing else
}

TEST(SubtileBitmapTest, BitmapGrowsWithRadius)
{
    ProjectedGaussian pg;
    pg.mean2d = {32.0f, 32.0f};
    pg.radius_px = 4.0f;
    SubtileBitmap small = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    pg.radius_px = 20.0f;
    SubtileBitmap large = subtileBitmap(pg, {0.0f, 0.0f}, 64, 8);
    EXPECT_EQ(small & large, small); // superset
    EXPECT_GT(std::popcount(large), std::popcount(small));
}

/**
 * The full scan over every subtile of the tile: subtileBitmap as it was
 * before its bounded window, kept as the oracle the bounded scan must
 * equal bit for bit.
 */
SubtileBitmap
fullScanBitmap(Vec2 mean2d, float radius_px, Vec2 tile_origin, int tile_size,
               int subtile_size)
{
    const int subtiles = tile_size / subtile_size;
    const float step = static_cast<float>(subtile_size);
    const float r2 = radius_px * radius_px;
    SubtileBitmap bitmap = 0;
    int bit = 0;
    float y0 = tile_origin.y;
    for (int sy = 0; sy < subtiles; ++sy, y0 += step) {
        const float cy = clamp(mean2d.y, y0, y0 + step);
        const float dy = cy - mean2d.y;
        const float dy2 = dy * dy;
        float x0 = tile_origin.x;
        for (int sx = 0; sx < subtiles; ++sx, ++bit, x0 += step) {
            float cx = clamp(mean2d.x, x0, x0 + step);
            float dx = cx - mean2d.x;
            if (dx * dx + dy2 <= r2)
                bitmap |= (SubtileBitmap{1} << bit);
        }
    }
    return bitmap;
}

/** Tile/subtile sizes with at most 64 subtiles, subtiles 4 to 32 px. */
struct BitmapGeometry
{
    int tile;
    int subtile;
};
constexpr BitmapGeometry kBitmapGeometries[] = {
    {16, 4}, {32, 4}, {16, 8}, {32, 8}, {64, 8}, {32, 16}, {64, 16},
    {64, 32}};

/** Interior and edge tiles of a 1280x720 frame (the last row and column
    are partial at 64 px), plus a non-integral origin. */
constexpr Vec2 kBitmapOrigins[] = {{0.0f, 0.0f},      {640.0f, 320.0f},
                                   {1216.0f, 704.0f}, {1216.0f, 0.0f},
                                   {0.0f, 704.0f},    {37.25f, 1000.5f}};

TEST(SubtileBitmapTest, BoundedScanEqualsFullScanRandomized)
{
    Rng rng(4242);
    int hits = 0, calls = 0;
    for (const BitmapGeometry &g : kBitmapGeometries)
        for (const Vec2 o : kBitmapOrigins)
            for (int k = 0; k < 3000; ++k) {
                const float tile = static_cast<float>(g.tile);
                // Centers inside the tile, around it, and far from it.
                const float lo = k % 3 == 0 ? 0.0f
                                            : (k % 3 == 1 ? -tile
                                                          : -20.0f * tile);
                const float hi = tile - lo;
                const Vec2 mean{o.x + rng.uniform(lo, hi),
                                o.y + rng.uniform(lo, hi)};
                // Radii from sub-pixel to several tiles.
                const float r_hi = k % 4 == 0
                                       ? 2.0f
                                       : (k % 4 == 1
                                              ? 2.0f * g.subtile
                                              : (k % 4 == 2 ? 2.0f * tile
                                                            : 1000.0f));
                const float r = rng.uniform(0.0f, r_hi);
                const SubtileBitmap want =
                    fullScanBitmap(mean, r, o, g.tile, g.subtile);
                ASSERT_EQ(subtileBitmap(mean, r, o, g.tile, g.subtile),
                          want)
                    << "mean (" << mean.x << ", " << mean.y << ") r " << r
                    << " origin (" << o.x << ", " << o.y << ") tile "
                    << g.tile << " subtile " << g.subtile;
                hits += want != 0 && want != ~SubtileBitmap{0};
                ++calls;
            }
    // Most draws must produce a partial bitmap, or the window is not
    // being exercised.
    EXPECT_GT(hits, calls / 4);
}

TEST(SubtileBitmapTest, BoundedScanEqualsFullScanOnExactTies)
{
    // Quarter-pixel centers and radii make the test's dx^2 + dy^2 <= r^2
    // land exactly on its boundary for many subtiles: the window must
    // keep every subtile the full scan passes on a tie.
    const float radii[] = {0.0f, 0.25f, 1.0f, 2.5f, 4.0f, 7.75f, 8.0f,
                           12.0f, 16.0f, 24.25f, 33.0f};
    for (const BitmapGeometry &g : kBitmapGeometries)
        for (const Vec2 o : {kBitmapOrigins[0], kBitmapOrigins[2]}) {
            const float margin = 2.0f * g.subtile;
            for (float dx = -margin; dx <= g.tile + margin; dx += 0.25f)
                for (float dy = -margin; dy <= g.tile + margin;
                     dy += 2.75f)
                    for (float r : radii) {
                        const Vec2 mean{o.x + dx, o.y + dy};
                        ASSERT_EQ(
                            subtileBitmap(mean, r, o, g.tile, g.subtile),
                            fullScanBitmap(mean, r, o, g.tile, g.subtile))
                            << "mean (" << mean.x << ", " << mean.y
                            << ") r " << r << " tile " << g.tile
                            << " subtile " << g.subtile;
                    }
        }
}

TEST(SubtileBitmapTest, BoundedScanEqualsFullScanOnNonFiniteAndHugeInputs)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float values[] = {nan,
                            inf,
                            -inf,
                            std::numeric_limits<float>::lowest(),
                            -1e30f,
                            -70000.0f,
                            -65536.0f,
                            -65535.5f,
                            -100.0f,
                            -8.0f,
                            -0.0f,
                            0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            3.5f,
                            31.75f,
                            64.0f,
                            65535.5f,
                            65536.0f,
                            1e30f,
                            std::numeric_limits<float>::max()};
    const Vec2 origins[] = {{0.0f, 0.0f},
                            {1216.0f, 704.0f},
                            {65536.0f, 0.0f},
                            {-1e30f, 64.0f},
                            {nan, 0.0f}};
    for (const BitmapGeometry &g : kBitmapGeometries)
        for (const Vec2 o : origins)
            for (float mx : values)
                for (float my : values)
                    for (float r : values) {
                        const Vec2 mean{mx, my};
                        ASSERT_EQ(
                            subtileBitmap(mean, r, o, g.tile, g.subtile),
                            fullScanBitmap(mean, r, o, g.tile, g.subtile))
                            << "mean (" << mx << ", " << my << ") r " << r
                            << " origin (" << o.x << ", " << o.y
                            << ") tile " << g.tile << " subtile "
                            << g.subtile;
                    }
}

// --- Mask kernels: SSE2 form vs scalar twin ------------------------------
//
// raster_masks.h keeps a scalar twin beside each SSE2 kernel. The twin is
// the reference: the SSE2 form must produce the same bits on every
// input, including the ones where float compares are subtle (NaN, signed
// zeros, infinities, denormals, exact ties with the bound).

/** A random float: mostly uniform in [lo, hi], sometimes a special value
    or one of @p ties, or a random bit pattern (any sign, NaN, denormal). */
float
maskInput(Rng &rng, float lo, float hi, std::initializer_list<float> ties)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              inf,
                              -inf,
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              std::numeric_limits<float>::min() / 4.0f,
                              -std::numeric_limits<float>::min() / 4.0f,
                              1e30f,
                              -1e30f};
    switch (rng.below(8)) {
    case 0:
        return specials[rng.below(std::size(specials))];
    case 1:
    case 2: {
        const float t = *(ties.begin() + rng.below(ties.size()));
        // The tie itself or its neighbour one ulp either side.
        switch (rng.below(3)) {
        case 0:
            return t;
        case 1:
            return std::nextafter(t, inf);
        default:
            return std::nextafter(t, -inf);
        }
    }
    case 3:
        return std::bit_cast<float>(static_cast<uint32_t>(rng.next()));
    default:
        return rng.uniform(lo, hi);
    }
}

TEST(RasterMaskTest, SurvivorMaskMatchesScalarTwin)
{
    // A 1024-pixel plane (16 words, a 32-px subtile) padded to whole
    // 4-pixel groups; random [lo, hi) ranges cover word-aligned,
    // group-aligned, unaligned, single-pixel and empty spans.
    constexpr int kPlane = 1024;
    constexpr uint64_t kSentinel = 0xa5a5a5a5a5a5a5a5ull;
    const float t_cutoff = RasterConfig{}.transmittance_cutoff;
    Rng rng(2029);
    std::vector<float> power(kPlane + 4), t(kPlane + 4);
    for (int iter = 0; iter < 4000; ++iter) {
        const float cut = iter % 50 == 0
                              ? maskInput(rng, -30.0f, 0.0f, {-1.0f})
                              : rng.uniform(-20.0f, -0.5f);
        for (int p = 0; p < kPlane + 4; ++p) {
            power[p] = maskInput(rng, -40.0f, 5.0f, {cut, 0.0f});
            t[p] = maskInput(rng, 0.0f, 1.0f, {t_cutoff, 0.0f, 1.0f});
        }
        int lo = static_cast<int>(rng.below(kPlane + 1));
        int hi = static_cast<int>(rng.below(kPlane + 1));
        if (lo > hi)
            std::swap(lo, hi);
        if (iter % 7 == 0)
            lo &= ~63; // word-aligned start
        if (iter % 11 == 0)
            hi = std::min(kPlane, (hi + 63) & ~63); // word-aligned end
        uint64_t simd[kPlane / 64], twin[kPlane / 64];
        std::fill(std::begin(simd), std::end(simd), kSentinel);
        std::fill(std::begin(twin), std::end(twin), kSentinel);
        const uint64_t any_simd = raster_masks::survivorMask(
            power.data(), t.data(), lo, hi, cut, t_cutoff, simd);
        const uint64_t any_twin = raster_masks::survivorMaskScalar(
            power.data(), t.data(), lo, hi, cut, t_cutoff, twin);
        ASSERT_EQ(any_simd, any_twin) << "lo " << lo << " hi " << hi;
        for (int w = 0; w < kPlane / 64; ++w) {
            ASSERT_EQ(simd[w], twin[w])
                << "word " << w << " lo " << lo << " hi " << hi;
            // Words outside the range are never written.
            if (w < lo >> 6 || w >= (hi + 63) >> 6) {
                ASSERT_EQ(simd[w], kSentinel) << "word " << w;
            }
        }
        // Spot-check the twin's own definition at every pixel.
        for (int p = lo; p < hi; ++p) {
            const bool keep = !(power[p] < cut) && !(power[p] > 0.0f) &&
                              !(t[p] < t_cutoff);
            ASSERT_EQ(twin[p >> 6] >> (p & 63) & 1, keep ? 1u : 0u);
        }
    }
}

TEST(RasterMaskTest, RowMaskMatchesScalarTwin)
{
    Rng rng(2031);
    for (int iter = 0; iter < 200000; ++iter) {
        const int rows = 1 + static_cast<int>(rng.below(64));
        // Pixel-center rows at integer + 0.5; centers and bounds that
        // make (c0 + r - center)^2 == bound exactly for some rows.
        const float c0 = iter % 97 == 0
                             ? maskInput(rng, -100.0f, 100.0f, {0.5f})
                             : static_cast<float>(rng.below(4096)) + 0.5f;
        const float d = static_cast<float>(rng.below(40)) - 20.0f;
        const float center =
            maskInput(rng, c0 - 80.0f, c0 + 80.0f, {c0 + d, c0 + 0.5f});
        const float k = static_cast<float>(rng.below(33));
        const float bound =
            maskInput(rng, 0.0f, 2000.0f, {k * k, 0.25f, 0.0f});
        ASSERT_EQ(raster_masks::rowMask(c0, center, bound, rows),
                  raster_masks::rowMaskScalar(c0, center, bound, rows))
            << "c0 " << c0 << " center " << center << " bound " << bound
            << " rows " << rows;
    }
}

TEST(RasterMaskTest, SubtileBitsMatchScalarTwinAndFullScan)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // 1 to 8 subtiles per side, subtiles of 8 to 64 px.
    const BitmapGeometry geometries[] = {{8, 8},   {16, 8},  {24, 8},
                                         {64, 8},  {64, 16}, {64, 32},
                                         {64, 64}, {48, 16}, {40, 8}};
    const Vec2 origins[] = {{0.0f, 0.0f},       {1216.0f, 704.0f},
                            {37.25f, 1000.5f},  {1e7f, 1e7f},
                            {-1e30f, 64.0f},    {nan, 0.0f},
                            {0.0f, nan}};
    Rng rng(2033);
    for (const BitmapGeometry &g : geometries)
        for (const Vec2 o : origins) {
            const raster_masks::SubtileEdges edges(o, g.tile, g.subtile);
            const float tile = static_cast<float>(g.tile);
            const float x_edge = o.x + static_cast<float>(g.subtile);
            const float y_edge = o.y + static_cast<float>(g.subtile);
            for (int k = 0; k < 4000; ++k) {
                const Vec2 mean{
                    maskInput(rng, o.x - tile, o.x + 2.0f * tile,
                              {o.x, x_edge, o.x + tile}),
                    maskInput(rng, o.y - tile, o.y + 2.0f * tile,
                              {o.y, y_edge, o.y + tile})};
                const float r = maskInput(
                    rng, 0.0f, 2.0f * tile,
                    {static_cast<float>(g.subtile), 0.0f});
                const uint64_t want = fullScanBitmap(mean, r, o, g.tile,
                                                     g.subtile);
                ASSERT_EQ(raster_masks::subtileBitsScalar(edges, mean, r),
                          want)
                    << "mean (" << mean.x << ", " << mean.y << ") r " << r
                    << " origin (" << o.x << ", " << o.y << ") tile "
                    << g.tile << " subtile " << g.subtile;
                ASSERT_EQ(raster_masks::subtileBits(edges, mean, r), want)
                    << "mean (" << mean.x << ", " << mean.y << ") r " << r
                    << " origin (" << o.x << ", " << o.y << ") tile "
                    << g.tile << " subtile " << g.subtile;
            }
        }
}

TEST(RasterizeTest, SingleGaussianColorsCenterPixel)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    ASSERT_EQ(frame.visible_count, 1u);
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tx = static_cast<int>(mean.x) / grid.tile_size;
    int ty = static_cast<int>(mean.y) / grid.tile_size;
    int tile = grid.tileIndex(tx, ty);
    ASSERT_FALSE(frame.tiles[tile].empty());

    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterConfig cfg;
    RasterStats stats = rasterizeTile(frame.tiles[tile], frame, tile, cfg,
                                      &image);
    EXPECT_GT(stats.blend_ops, 0u);
    Vec3 px = image.at(static_cast<int>(mean.x),
                       static_cast<int>(mean.y));
    EXPECT_GT(px.x, 0.5f);
    EXPECT_LT(px.y, 0.1f);
}

TEST(RasterizeTest, FrontGaussianOccludesBack)
{
    GaussianScene scene;
    // Red in front (closer to camera at -5), blue behind, same screen pos.
    scene.gaussians.push_back(test::makeGaussian(
        {0.0f, 0.0f, -1.0f}, 0.3f, 0.95f, {1.0f, 0.0f, 0.0f}));
    scene.gaussians.push_back(test::makeGaussian(
        {0.0f, 0.0f, 1.0f}, 0.3f, 0.95f, {0.0f, 0.0f, 1.0f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);

    // Find the tile containing the screen center and sort it by depth.
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(mean.x) / grid.tile_size,
                              static_cast<int>(mean.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    std::sort(entries.begin(), entries.end(), entryDepthLess);

    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    Vec3 px = image.at(static_cast<int>(mean.x),
                       static_cast<int>(mean.y));
    EXPECT_GT(px.x, 0.6f) << "front (red) should dominate";
    EXPECT_LT(px.z, 0.3f);

    // Reverse the order: blue now wrongly blended first.
    std::reverse(entries.begin(), entries.end());
    Image wrong(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    rasterizeTile(entries, frame, tile, RasterConfig{}, &wrong);
    Vec3 wrong_px = wrong.at(static_cast<int>(mean.x),
                             static_cast<int>(mean.y));
    EXPECT_GT(wrong_px.z, 0.6f) << "reversed order should show blue";
}

TEST(RasterizeTest, InvalidEntriesAreSkipped)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(mean.x) / grid.tile_size,
                              static_cast<int>(mean.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    for (auto &e : entries)
        e.valid = false;
    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterStats stats =
        rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    EXPECT_EQ(stats.blend_ops, 0u);
    EXPECT_EQ(stats.gaussians_blended, 0u);
}

TEST(RasterizeTest, ValidOutReflectsIntersection)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(mean.x) / grid.tile_size,
                              static_cast<int>(mean.y) / grid.tile_size);
    std::vector<uint8_t> valid;
    rasterizeTile(frame.tiles[tile], frame, tile, RasterConfig{}, nullptr,
                  &valid);
    ASSERT_EQ(valid.size(), frame.tiles[tile].size());
    EXPECT_EQ(valid[0], 1);

    // An entry for a Gaussian that does not touch this tile gets valid=0.
    auto entries = frame.tiles[tile];
    // Fake an entry pointing at the same feature but in a distant tile.
    int far_tile = grid.tileIndex(0, 0) == tile ? grid.tileCount() - 1
                                                : grid.tileIndex(0, 0);
    rasterizeTile(entries, frame, far_tile, RasterConfig{}, nullptr, &valid);
    EXPECT_EQ(valid[0], 0);
}

TEST(RasterizeTest, OpaqueWallTerminatesEarly)
{
    // Stack many opaque Gaussians on the same spot: pixels must saturate
    // and terminate, so blend ops stay far below entries * pixels.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(mean.x) / grid.tile_size,
                              static_cast<int>(mean.y) / grid.tile_size);
    auto entries = frame.tiles[tile];
    std::sort(entries.begin(), entries.end(), entryDepthLess);
    Image image(grid.tiles_x * grid.tile_size, grid.tiles_y * grid.tile_size);
    RasterStats stats =
        rasterizeTile(entries, frame, tile, RasterConfig{}, &image);
    EXPECT_GT(stats.pixels_terminated, 0u);
    uint64_t upper = static_cast<uint64_t>(entries.size()) * 64 * 64;
    EXPECT_LT(stats.blend_ops, 3 * upper / 4);
}

TEST(RasterizeTest, EstimateTracksActualWithinFactor)
{
    GaussianScene scene = test::blobScene(400, 17);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);
    RasterConfig cfg;
    uint64_t actual = 0, estimated = 0;
    Image image(frame.grid.tiles_x * 64, frame.grid.tiles_y * 64);
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        auto entries = frame.tiles[tile];
        if (entries.empty())
            continue;
        std::sort(entries.begin(), entries.end(), entryDepthLess);
        actual += rasterizeTile(entries, frame, tile, cfg, &image).blend_ops;
        estimated += estimateTileBlendOps(entries, frame, tile, cfg);
    }
    ASSERT_GT(actual, 0u);
    double ratio = static_cast<double>(estimated) / actual;
    EXPECT_GT(ratio, 0.2) << "estimate too low";
    EXPECT_LT(ratio, 5.0) << "estimate too high";
}

// --- Subtile-blocked kernel vs scalar reference -------------------------
//
// The blocked kernel restructures the blend loop but must reproduce the
// reference bit for bit: identical pixels (frame hash) and identical
// RasterStats, field by field, on every input.

void
expectEqualStats(const RasterStats &a, const RasterStats &b)
{
    EXPECT_EQ(a.gaussians_in, b.gaussians_in);
    EXPECT_EQ(a.intersection_tests, b.intersection_tests);
    EXPECT_EQ(a.gaussians_blended, b.gaussians_blended);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.pixels_terminated, b.pixels_terminated);
}

/**
 * Rasterize every tile of @p frame into an exact-resolution image (which
 * makes the right/bottom tiles partial when the resolution is not a tile
 * multiple) and return the summed stats.
 */
RasterStats
renderAllTiles(const BinnedFrame &frame, const RasterConfig &cfg,
               Resolution res, Image &image)
{
    image = Image(res.width, res.height);
    RasterStats total;
    for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
        auto entries = frame.tiles[tile];
        if (entries.empty())
            continue;
        std::sort(entries.begin(), entries.end(), entryDepthLess);
        total += rasterizeTile(entries, frame, tile, cfg, &image);
    }
    return total;
}

void
expectBlockedMatchesReference(const GaussianScene &scene, Resolution res,
                              int tile_px, int subtile, bool fast_exp)
{
    Camera cam = test::frontCamera(5.0f, res);
    BinnedFrame frame = binFrame(scene, cam, tile_px);

    RasterConfig cfg;
    cfg.subtile_size = subtile;
    cfg.fast_exp = fast_exp;

    RasterConfig ref_cfg = cfg;
    ref_cfg.reference_path = true;

    Image blocked_img, ref_img;
    RasterStats blocked = renderAllTiles(frame, cfg, res, blocked_img);
    RasterStats ref = renderAllTiles(frame, ref_cfg, res, ref_img);

    ASSERT_GT(blocked.blend_ops, 0u);
    expectEqualStats(blocked, ref);
    EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash())
        << "tile=" << tile_px << " subtile=" << subtile
        << " fast_exp=" << fast_exp;
}

TEST(BlockedVsReference, BitIdenticalAcrossSubtileSizes)
{
    GaussianScene scene = test::blobScene(400, 17);
    for (int tile_px : {16, 64})
        for (int subtile : {4, 8, 16}) {
            const int per_side = tile_px / subtile;
            if (per_side * per_side > 64 || per_side < 1)
                continue; // over the 64-bit bitmap (4-px subtiles @ 64)
            expectBlockedMatchesReference(scene, test::smallRes(),
                                          tile_px, subtile, false);
        }
}

TEST(BlockedVsReference, PartialEdgeTilesBitIdentical)
{
    // A resolution that is a multiple of neither tile size: the right and
    // bottom tiles are partial, and with 8-px subtiles their edge blocks
    // are partial too (250 % 8 == 2, 187 % 8 == 3).
    const Resolution res{250, 187, "ragged"};
    GaussianScene scene = test::blobScene(300, 23);
    for (int tile_px : {16, 64})
        expectBlockedMatchesReference(scene, res, tile_px, 8, false);
}

TEST(BlockedVsReference, SaturatedEarlyExitBitIdentical)
{
    // An opaque wall saturates whole subtile blocks: the blocked kernel's
    // block-level retirement must not change any counter or pixel.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera();
    BinnedFrame frame = binFrame(scene, cam, 64);

    RasterConfig cfg;
    RasterConfig ref_cfg;
    ref_cfg.reference_path = true;

    Image blocked_img, ref_img;
    RasterStats blocked =
        renderAllTiles(frame, cfg, test::smallRes(), blocked_img);
    RasterStats ref =
        renderAllTiles(frame, ref_cfg, test::smallRes(), ref_img);

    ASSERT_GT(blocked.pixels_terminated, 0u)
        << "scene must exercise the saturation path";
    expectEqualStats(blocked, ref);
    EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash());
}

TEST(BlockedVsReference, FullRendererAndNeoRendererMatch)
{
    // End to end through both renderers: the blocked default and the
    // reference path must produce bit-identical frames and raster
    // counters, including through reuse-and-update orderings.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();

    PipelineOptions opts;
    PipelineOptions ref_opts;
    ref_opts.raster.reference_path = true;

    FrameStats stats, ref_stats;
    Renderer renderer(opts), reference(ref_opts);
    Image img = renderer.render(scene, cam, &stats);
    Image ref_img = reference.render(scene, cam, &ref_stats);
    EXPECT_EQ(img.contentHash(), ref_img.contentHash());
    expectEqualStats(stats.raster, ref_stats.raster);

    PipelineOptions neo_opts = NeoRenderer::neoDefaultOptions();
    PipelineOptions neo_ref_opts = neo_opts;
    neo_ref_opts.raster.reference_path = true;
    NeoRenderer neo(neo_opts), neo_ref(neo_ref_opts);
    for (uint64_t f = 0; f < 3; ++f) {
        NeoFrameReport rep, ref_rep;
        Image a = neo.renderFrame(scene, cam, f, &rep);
        Image b = neo_ref.renderFrame(scene, cam, f, &ref_rep);
        EXPECT_EQ(a.contentHash(), b.contentHash()) << "frame " << f;
        expectEqualStats(rep.frame.raster, ref_rep.frame.raster);
    }
}

// --- Deterministic polynomial fast-exp ----------------------------------

TEST(FastExpTest, AccuracyBoundAgainstStdExp)
{
    // Dense sweep over the whole falloff range: relative error must stay
    // inside the documented bound.
    float max_rel = 0.0f;
    for (double x = -87.0; x <= 0.0; x += 1.0 / 512.0) {
        const float xf = static_cast<float>(x);
        const float approx = fastExpNegative(xf);
        const float exact = std::exp(xf);
        const float rel = std::fabs(approx - exact) / exact;
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_LE(max_rel, kFastExpMaxRelError);

    // Anchors: exact at 0, flushed to 0 below the underflow point.
    EXPECT_EQ(fastExpNegative(0.0f), 1.0f);
    EXPECT_EQ(fastExpNegative(-90.0f), 0.0f);
    EXPECT_EQ(fastExpNegative(-1000.0f), 0.0f);
}

TEST(FastExpTest, BlockedAndReferencePathsAgree)
{
    // With fast_exp on, pixel values change (within the error bound) but
    // the blocked/reference bit-equality contract must still hold: both
    // paths evaluate the same polynomial.
    GaussianScene scene = test::blobScene(300, 31);
    expectBlockedMatchesReference(scene, test::smallRes(), 16, 8, true);
    expectBlockedMatchesReference(scene, test::smallRes(), 64, 8, true);
}

TEST(FastExpTest, DeterministicAcrossThreadCounts)
{
    // fast_exp is a pure per-pixel function, so the threads∈{1,2,8}
    // bit-equality contract holds with it enabled.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();

    auto hashAt = [&](int threads) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.raster.fast_exp = true;
        Renderer renderer(opts);
        return renderer.render(scene, cam).contentHash();
    };
    const uint64_t serial = hashAt(1);
    EXPECT_EQ(serial, hashAt(2));
    EXPECT_EQ(serial, hashAt(8));
}

TEST(FastExpTest, LaneBitIdenticalToScalar)
{
    // The survivor exp batch evaluates fastExpNegativeLane (branchless,
    // auto-vectorizable); the scalar fastExpNegative is the reference.
    // The bit-equality contract requires them to agree on every input
    // the batch can see: the whole negative range, zero, the underflow
    // boundary, denormals, -inf and NaN (payload preserved).
    auto expectSame = [](float x) {
        const float a = fastExpNegative(x);
        const float b = fastExpNegativeLane(x);
        EXPECT_EQ(std::bit_cast<uint32_t>(a), std::bit_cast<uint32_t>(b))
            << "x=" << x << " scalar=" << a << " lane=" << b;
    };
    for (double x = -100.0; x <= 0.0; x += 1.0 / 1024.0)
        expectSame(static_cast<float>(x));
    expectSame(0.0f);
    expectSame(-0.0f);
    expectSame(-87.0f);
    expectSame(std::nextafter(-87.0f, 0.0f));
    expectSame(std::nextafter(-87.0f, -100.0f));
    expectSame(-1.0f); // the neutral pad lane
    expectSame(-1e30f);
    expectSame(-std::numeric_limits<float>::infinity());
    expectSame(-std::numeric_limits<float>::denorm_min());
    expectSame(std::numeric_limits<float>::quiet_NaN());
    // Random negative bit patterns (incl. NaNs and denormals): the two
    // forms must agree bit for bit everywhere below zero.
    Rng rng(2027);
    for (int i = 0; i < 200000; ++i) {
        const uint32_t bits =
            static_cast<uint32_t>(rng.next()) | 0x80000000u;
        expectSame(std::bit_cast<float>(bits));
    }
}

TEST(FastExpTest, LanePositiveInputsSaturateDefined)
{
    // Positive inputs sit outside the specified (x <= 0) domain; the
    // lane form must still be defined — it clamps them to +0 and
    // saturates to exp(0) == 1 instead of running the scalar form's
    // exponent arithmetic out of range.
    EXPECT_EQ(fastExpNegativeLane(1.0f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(100.0f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(1e30f), 1.0f);
    EXPECT_EQ(fastExpNegativeLane(std::numeric_limits<float>::infinity()),
              1.0f);
    EXPECT_EQ(fastExpNegativeLane(std::numeric_limits<float>::denorm_min()),
              1.0f);
}

// --- Survivor-mask edge cases -------------------------------------------
//
// The mask pipeline (survivor mask -> exp per set bit, or the fast_exp
// batch -> blend in ascending pixel order) has boundary shapes the
// random scenes may not hit reliably: blocks where no pixel survives the
// cut, blocks where every pixel survives, blocks whose pixel count is
// not a multiple of the batch width (tail lanes), blocks that saturate
// midway through a Gaussian's survivors, and subtiles spanning several
// mask words. Each must stay bit-identical to the reference in both
// fast_exp modes.

TEST(BlockedVsReference, AllSkipBlocksBitIdentical)
{
    // Near-threshold opacity: the cut ellipse is much smaller than the
    // 3-sigma circle the phase-1 bitmap tests, so many bucketed
    // Gaussian x block pairs compact to an empty survivor list.
    GaussianScene scene;
    Rng rng(11);
    for (int i = 0; i < 120; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {rng.uniform(-1.2f, 1.2f), rng.uniform(-0.9f, 0.9f),
             rng.uniform(-0.5f, 0.5f)},
            rng.uniform(0.05f, 0.2f), rng.uniform(0.005f, 0.02f),
            {0.9f, 0.4f, 0.1f}));
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, AllPassBlocksBitIdentical)
{
    // Huge opaque splats cover whole tiles: every pixel of every block
    // survives, so the survivor list is the full block (and with an
    // 8-px subtile its length is already a batch-width multiple — the
    // padding loop must run zero times without disturbing anything).
    GaussianScene scene;
    for (int i = 0; i < 8; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.1f * i, -0.05f * i, 0.3f * i}, 1.5f, 0.9f,
            {0.2f, 0.5f, 0.9f}));
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, TailLanesBitIdentical)
{
    // A resolution that is a multiple of neither the tile nor the
    // subtile size: the right/bottom edge blocks are 2x3 pixels, so the
    // survivor batch is shorter than kSurvivorExpBatch and the fast-exp
    // loop runs entirely on a padded tail.
    const Resolution res{250, 187, "ragged"};
    GaussianScene scene = test::blobScene(300, 23);
    for (bool fast_exp : {false, true})
        for (int tile_px : {16, 64})
            expectBlockedMatchesReference(scene, res, tile_px, 8,
                                          fast_exp);
}

TEST(BlockedVsReference, ExtremeAnisotropyBitIdentical)
{
    // Thin, hugely anisotropic splats at oblique rotations: the conic's
    // a*c - b*b cancels catastrophically in float, exactly the case the
    // extent prune's conditioning guard must detect (det below the
    // 2^-10 * a*c floor disables pruning for that Gaussian) so the
    // bit-equality contract survives ill-conditioned covariances.
    GaussianScene scene;
    Rng rng(77);
    for (int i = 0; i < 30; ++i) {
        Gaussian g = test::makeGaussian(
            {rng.uniform(-1.0f, 1.0f), rng.uniform(-0.8f, 0.8f),
             rng.uniform(-0.4f, 0.4f)},
            1.0f, rng.uniform(0.2f, 0.9f), {0.8f, 0.3f, 0.6f});
        g.scale = {rng.uniform(1.0f, 3.0f),
                   rng.uniform(0.001f, 0.004f),
                   rng.uniform(0.005f, 0.02f)};
        const float half = 0.5f * rng.uniform(0.2f, 1.4f);
        g.rotation = {std::cos(half), 0.0f, 0.0f, std::sin(half)};
        scene.gaussians.push_back(g);
    }
    recomputeBounds(scene);
    for (bool fast_exp : {false, true})
        expectBlockedMatchesReference(scene, test::smallRes(), 16, 8,
                                      fast_exp);
}

TEST(BlockedVsReference, SaturatedMidBatchBitIdentical)
{
    // An opaque wall saturates block pixels partway through the
    // front-to-back survivor lists: the per-block live counter must
    // retire the remaining Gaussians at exactly the same point as the
    // reference, in both exp modes.
    GaussianScene scene;
    for (int i = 0; i < 50; ++i)
        scene.gaussians.push_back(test::makeGaussian(
            {0.0f, 0.0f, 0.1f * i}, 0.6f, 0.95f, {0.2f, 0.8f, 0.2f}));
    recomputeBounds(scene);
    Camera cam = test::frontCamera();
    BinnedFrame frame = binFrame(scene, cam, 64);

    for (bool fast_exp : {false, true}) {
        RasterConfig cfg;
        cfg.fast_exp = fast_exp;
        RasterConfig ref_cfg = cfg;
        ref_cfg.reference_path = true;

        Image blocked_img, ref_img;
        RasterStats blocked =
            renderAllTiles(frame, cfg, test::smallRes(), blocked_img);
        RasterStats ref =
            renderAllTiles(frame, ref_cfg, test::smallRes(), ref_img);

        ASSERT_GT(blocked.pixels_terminated, 0u)
            << "scene must exercise the saturation path";
        expectEqualStats(blocked, ref);
        EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash())
            << "fast_exp=" << fast_exp;
    }
}

TEST(BlockedVsReference, WideSubtileMaskWordsBitIdentical)
{
    // 16- and 32-px subtiles give 4 and 16 survivor-mask words per block.
    // A stack of huge opaque layers covers the whole frame: the front
    // layer alone blends every pixel, so every word of every block holds
    // a survivor, and the stack saturates a disc of pixels about 50 px
    // across around the frame center, which spans many 64-pixel words,
    // so pixels drop out of the mask mid-word and on both sides of word
    // boundaries. At 250x187 the last tile column's blocks are 10 and 26
    // px wide, not multiples of the 4-pixel SSE2 group.
    const Resolution res{250, 187, "ragged"};
    const uint64_t pixels = static_cast<uint64_t>(res.width) * res.height;
    auto layer = [](int i) {
        return test::makeGaussian({0.0f, 0.0f, -2.0f + 0.05f * i}, 2.5f,
                                  0.9f, {0.3f + 0.1f * i, 0.5f, 0.2f});
    };
    GaussianScene front;
    front.gaussians.push_back(layer(0));
    recomputeBounds(front);
    GaussianScene scene = test::blobScene(200, 41);
    for (int i = 0; i < 6; ++i)
        scene.gaussians.push_back(layer(i));
    recomputeBounds(scene);
    const Camera cam = test::frontCamera(5.0f, res);
    const BinnedFrame front_frame = binFrame(front, cam, 64);
    const BinnedFrame frame = binFrame(scene, cam, 64);
    for (int subtile : {16, 32})
        for (bool fast_exp : {false, true}) {
            RasterConfig cfg;
            cfg.subtile_size = subtile;
            cfg.fast_exp = fast_exp;
            RasterConfig ref_cfg = cfg;
            ref_cfg.reference_path = true;

            Image img;
            const RasterStats one = renderAllTiles(front_frame, cfg, res, img);
            ASSERT_EQ(one.blend_ops, pixels)
                << "the front layer must blend every pixel";

            Image blocked_img, ref_img;
            const RasterStats blocked =
                renderAllTiles(frame, cfg, res, blocked_img);
            const RasterStats ref =
                renderAllTiles(frame, ref_cfg, res, ref_img);
            ASSERT_GT(blocked.pixels_terminated, 4u * 64u)
                << "the stack must saturate pixels across several words";
            ASSERT_LT(blocked.pixels_terminated, pixels)
                << "saturation must stop short of the frame";
            expectEqualStats(blocked, ref);
            EXPECT_EQ(blocked_img.contentHash(), ref_img.contentHash())
                << "subtile=" << subtile << " fast_exp=" << fast_exp;
        }
}

TEST(RasterizeTest, DryRunDoesOnlyItuWork)
{
    BinnedFrame frame =
        singleGaussianFrame({0.0f, 0.0f, 0.0f}, 0.25f, 0.9f,
                            {1.0f, 0.0f, 0.0f});
    const Vec2 mean = frame.mean2d[0];
    TileGrid grid = frame.grid;
    int tile = grid.tileIndex(static_cast<int>(mean.x) / grid.tile_size,
                              static_cast<int>(mean.y) / grid.tile_size);
    RasterStats stats = rasterizeTile(frame.tiles[tile], frame, tile,
                                      RasterConfig{}, nullptr);
    EXPECT_GT(stats.intersection_tests, 0u);
    EXPECT_EQ(stats.blend_ops, 0u);
}

TEST(RasterizeTest, IdsOutsideTheSceneRasterizeAsInvisible)
{
    // A corrupted tile entry may carry any id. One past the scene and all
    // ones must read as invisible: no subtile test, no blend, valid bit 0,
    // and no index into the id-indexed feature arrays (the sanitizer
    // build checks the last).
    GaussianScene scene = test::blobScene(200, 5);
    Camera cam = test::frontCamera(5.0f);
    BinnedFrame frame = binFrame(scene, cam, 64);
    const GaussianId past_end = static_cast<GaussianId>(scene.size());
    const GaussianId all_ones = 0xFFFFFFFFu;
    uint64_t blended = 0;
    for (bool reference : {false, true}) {
        RasterConfig cfg;
        cfg.reference_path = reference;
        for (int tile = 0; tile < frame.grid.tileCount(); ++tile) {
            auto entries = frame.tiles[tile];
            std::sort(entries.begin(), entries.end(), entryDepthLess);
            auto with = entries;
            with.insert(with.begin(), TileEntry{past_end, 0.0f, true});
            with.insert(with.begin() + static_cast<long>(with.size() / 2),
                        TileEntry{all_ones, 1.0f, true});
            with.push_back(TileEntry{past_end, 100.0f, true});

            Image image(frame.grid.tiles_x * 64, frame.grid.tiles_y * 64);
            Image image_with = image;
            std::vector<uint8_t> valid, valid_with;
            RasterStats stats =
                rasterizeTile(entries, frame, tile, cfg, &image, &valid);
            RasterStats stats_with = rasterizeTile(with, frame, tile, cfg,
                                                   &image_with, &valid_with);
            blended += stats.blend_ops;
            EXPECT_EQ(stats_with.gaussians_in, stats.gaussians_in + 3);
            stats_with.gaussians_in = stats.gaussians_in;
            expectEqualStats(stats_with, stats);
            EXPECT_EQ(image_with.contentHash(), image.contentHash())
                << "tile " << tile << " reference " << reference;
            ASSERT_EQ(valid_with.size(), with.size());
            for (size_t i = 0; i < with.size(); ++i) {
                if (with[i].id == past_end || with[i].id == all_ones) {
                    EXPECT_EQ(valid_with[i], 0) << "tile " << tile;
                }
            }
            EXPECT_EQ(estimateTileBlendOps(with, frame, tile, cfg),
                      estimateTileBlendOps(entries, frame, tile, cfg));
        }
    }
    EXPECT_GT(blended, 0u);
}

} // namespace
} // namespace neo
