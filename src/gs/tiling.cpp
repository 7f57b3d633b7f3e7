#include "gs/tiling.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/frame_arena.h"
#include "common/parallel.h"
#include "gs/culling.h"
#include "gs/projection.h"

namespace neo
{

TileRect
tileRectOf(const ProjectedGaussian &pg, const TileGrid &grid)
{
    TileRect r;
    const float radius = pg.radius_px;
    int x0 = static_cast<int>(
        std::floor((pg.mean2d.x - radius) / grid.tile_size));
    int y0 = static_cast<int>(
        std::floor((pg.mean2d.y - radius) / grid.tile_size));
    int x1 = static_cast<int>(
        std::floor((pg.mean2d.x + radius) / grid.tile_size));
    int y1 = static_cast<int>(
        std::floor((pg.mean2d.y + radius) / grid.tile_size));
    r.x0 = std::max(x0, 0);
    r.y0 = std::max(y0, 0);
    r.x1 = std::min(x1, grid.tiles_x - 1);
    r.y1 = std::min(y1, grid.tiles_y - 1);
    return r;
}

double
BinnedFrame::meanTileLength() const
{
    uint64_t total = 0;
    size_t nonempty = 0;
    for (const auto &t : tiles) {
        if (!t.empty()) {
            total += t.size();
            ++nonempty;
        }
    }
    return nonempty ? static_cast<double>(total) / nonempty : 0.0;
}

size_t
BinnedFrame::capacityBytes() const
{
    size_t total = visible.capacity() * sizeof(uint8_t) +
                   tiles.capacity() * sizeof(std::vector<TileEntry>) +
                   mean2d.capacity() * sizeof(Vec2) +
                   (color.capacity() + conic.capacity()) * sizeof(Vec3) +
                   (radius_px.capacity() + depth.capacity() +
                    opacity.capacity()) *
                       sizeof(float) +
                   rects.capacity() * sizeof(TileRect) +
                   cursors.capacity() * sizeof(uint32_t);
    for (const auto &t : tiles)
        total += t.capacity() * sizeof(TileEntry);
    return total;
}

BinnedFrame
binFrame(const GaussianScene &scene, const Camera &camera, int tile_px,
         int threads)
{
    BinnedFrame out;
    binFrameInto(out, scene, camera, tile_px, threads);
    return out;
}

void
binFrameInto(BinnedFrame &out, const GaussianScene &scene,
             const Camera &camera, int tile_px, int threads)
{
    const int t = resolveThreadCount(threads);
    out.grid = TileGrid(camera.resolution(), tile_px);
    const size_t tile_count = static_cast<size_t>(out.grid.tileCount());
    const size_t n = scene.size();
    clearNested(out.tiles, tile_count);
    out.visible.resize(n);
    out.mean2d.resize(n);
    out.radius_px.resize(n);
    out.depth.resize(n);
    out.opacity.resize(n);
    out.color.resize(n);
    out.conic.resize(n);

    // Duplication runs as a two-phase per-chunk scatter. Each chunk owns a
    // contiguous ascending id range, so concatenating the chunks' tile
    // contributions in chunk order reproduces the historical serial
    // ascending-id pass bit for bit.
    const size_t chunks = parallelChunkCount(n, t);
    std::vector<TileRect> &rects = out.rects;
    rects.resize(n);
    std::vector<uint32_t> &cursors = out.cursors;
    cursors.assign(chunks * tile_count, 0);

    // Phase 1: each chunk culls, projects and SH-shades its Gaussians
    // (pure per-id functions) into their own ids' feature entries, computes
    // their tile rectangles and counts its per-tile instances. Every id
    // is written, so nothing of a previous frame survives. (If this runs
    // nested inside another parallel region the whole range lands in
    // chunk 0; the other rows stay zero, which the prefix pass handles.)
    const Mat3 cam_rotation = camera.worldToCamera().rotationBlock();
    std::atomic<uint64_t> visible_count{0};
    parallelFor(n, t, [&](size_t begin, size_t end, size_t chunk) {
        uint32_t *counts = cursors.data() + chunk * tile_count;
        uint64_t visible = 0;
        for (size_t id = begin; id < end; ++id) {
            const Gaussian &g = scene[id];
            const std::optional<ProjectedGaussian> pg =
                inFrustum(g, camera)
                    ? projectGaussian(g, static_cast<GaussianId>(id),
                                      camera, cam_rotation)
                    : std::nullopt;
            const TileRect rect = pg ? tileRectOf(*pg, out.grid) : TileRect{};
            rects[id] = rect;
            if (rect.empty()) {
                out.visible[id] = 0;
                out.mean2d[id] = {};
                out.radius_px[id] = 0.0f;
                out.depth[id] = 0.0f;
                out.opacity[id] = 0.0f;
                out.color[id] = {};
                out.conic[id] = {};
                continue;
            }
            out.visible[id] = 1;
            out.mean2d[id] = pg->mean2d;
            out.radius_px[id] = pg->radius_px;
            out.depth[id] = pg->depth;
            out.opacity[id] = pg->opacity;
            out.color[id] = pg->color;
            out.conic[id] = {pg->conic_a, pg->conic_b, pg->conic_c};
            ++visible;
            for (int ty = rect.y0; ty <= rect.y1; ++ty)
                for (int tx = rect.x0; tx <= rect.x1; ++tx)
                    ++counts[out.grid.tileIndex(tx, ty)];
        }
        visible_count.fetch_add(visible, std::memory_order_relaxed);
    });
    out.visible_count = visible_count.load(std::memory_order_relaxed);

    // Prefix pass: turn the per-chunk counts into per-chunk write cursors
    // (chunk-order concatenation within each tile) and size every tile
    // list exactly.
    uint64_t instances = 0;
    for (size_t tile = 0; tile < tile_count; ++tile) {
        uint32_t offset = 0;
        for (size_t c = 0; c < chunks; ++c) {
            const uint32_t count = cursors[c * tile_count + tile];
            cursors[c * tile_count + tile] = offset;
            offset += count;
        }
        out.tiles[tile].resize(offset);
        instances += offset;
    }
    out.instances = instances;

    // Phase 2: scatter. Chunks write disjoint index ranges of each tile
    // list, so the parallel writes are race-free and land exactly where
    // the serial pass would have put them.
    parallelFor(n, t, [&](size_t begin, size_t end, size_t chunk) {
        uint32_t *cursor = cursors.data() + chunk * tile_count;
        for (size_t id = begin; id < end; ++id) {
            const TileRect &rect = rects[id];
            if (rect.empty())
                continue;
            const TileEntry entry{static_cast<GaussianId>(id), out.depth[id],
                                  true};
            for (int ty = rect.y0; ty <= rect.y1; ++ty)
                for (int tx = rect.x0; tx <= rect.x1; ++tx) {
                    const int tile = out.grid.tileIndex(tx, ty);
                    out.tiles[tile][cursor[tile]++] = entry;
                }
        }
    });
}

} // namespace neo
