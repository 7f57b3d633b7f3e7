#include "gs/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/frame_arena.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "gs/tile_sort.h"

namespace neo
{

namespace
{

/**
 * Raster batching grain: every non-empty tile is a batch of its own. One
 * tile's blend work dwarfs a cursor claim, and the heaviest-first
 * scheduler balances best when the heavy centre tiles stay separate.
 */
constexpr size_t kRasterBatchGrain = 1;

} // namespace

size_t
RasterState::capacityBytes() const
{
    size_t total =
        plan.capacityBytes() + accums.capacity() * sizeof(RasterAccum);
    for (const RasterAccum &acc : accums)
        total += acc.scratch.capacityBytes();
    return total;
}

uint64_t
FrameWorkload::nonEmptyTiles() const
{
    uint64_t n = 0;
    for (uint32_t len : tile_lengths)
        if (len > 0)
            ++n;
    return n;
}

double
FrameWorkload::meanTileLength() const
{
    uint64_t tiles = nonEmptyTiles();
    return tiles ? static_cast<double>(instances) / tiles : 0.0;
}

BinnedFrame
Renderer::prepare(const GaussianScene &scene, const Camera &camera) const
{
    BinnedFrame frame;
    BatchSortScratch sort_scratch;
    prepareInto(frame, sort_scratch, scene, camera);
    return frame;
}

void
Renderer::prepareInto(BinnedFrame &frame, BatchSortScratch &sort_scratch,
                      const GaussianScene &scene, const Camera &camera) const
{
    const int threads = resolveThreadCount(opts_.threads);
    binFrameInto(frame, scene, camera, opts_.tile_px, threads);
    // Each tile's ordering is independent of every other tile's; tiny
    // tiles fuse into ~256-entry batches so the pool dispatches per
    // batch, and each batch sorts through the key kernel — bit-identical
    // to per-tile std::sort(entryDepthLess) at any thread count.
    sortTablesBatched(frame.tiles, threads, sort_scratch);
}

Image
Renderer::render(const GaussianScene &scene, const Camera &camera,
                 FrameStats *stats) const
{
    BinnedFrame frame = prepare(scene, camera);
    const IntegrityMode mode = resolveIntegrityMode(opts_.integrity);
    if (mode == IntegrityMode::Off)
        return renderWithOrdering(frame, {}, stats ? stats : nullptr);

    // One-shot integrity path: fence the binned tile lists between
    // prepare and rasterization, and let the blocked kernel cross-check
    // its CSR bounds. (The serving loop in NeoRenderer carries a
    // persistent context instead.)
    IntegrityContext ctx;
    ctx.configure(mode);
    ctx.beginFrame(0);
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                  frame.tiles);
    faultinject::corruptTiles(kIntegrityBinTiles, frame.tiles);
    ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                    frame.tiles);
    Image image;
    FrameStats local;
    renderInto(image, frame, {}, &local, nullptr, &ctx);
    ctx.exportStats(local.integrity);
    if (stats)
        *stats = local;
    return image;
}

Image
Renderer::renderWithOrdering(
    const BinnedFrame &frame,
    const std::vector<std::vector<TileEntry>> &orderings,
    FrameStats *stats) const
{
    Image image;
    renderInto(image, frame, orderings, stats, nullptr);
    return image;
}

void
Renderer::renderInto(Image &image, const BinnedFrame &frame,
                     const std::vector<std::vector<TileEntry>> &orderings,
                     FrameStats *stats, RasterState *state,
                     IntegrityContext *integrity) const
{
    if (integrity && !integrity->enabled())
        integrity = nullptr;
    const TileGrid &grid = frame.grid;
    image.reset(grid.tiles_x * grid.tile_size,
                grid.tiles_y * grid.tile_size);

    FrameStats local;
    local.scene_gaussians = frame.visible.size();
    local.visible_gaussians = frame.visible_count;
    local.instances = frame.instances;
    local.mean_tile_length = frame.meanTileLength();

    // Tiles own disjoint pixel rectangles of the framebuffer, so parallel
    // rasterization is race-free. Tiles are scheduled heaviest first
    // (weight = the tile's sorted entry count); the counters accumulate
    // per participant and merge as integer sums, so they do not depend
    // on which participant rasterized which tile.
    const int threads = resolveThreadCount(opts_.threads);
    const size_t tile_count = static_cast<size_t>(grid.tileCount());
    auto tileOrder = [&](size_t t) -> const std::vector<TileEntry> & {
        return (t < orderings.size() && !orderings[t].empty())
                   ? orderings[t]
                   : frame.tiles[t];
    };
    // Steady-state path: the plan and the accumulators (with their
    // ITU/blend scratch) live in the caller's state and are reused frame
    // after frame; a one-shot render keeps them local.
    RasterState local_state;
    RasterState &rs = state ? *state : local_state;
    BatchPlan &plan = rs.plan;
    std::vector<RasterAccum> &accums = rs.accums;
    buildWeightedBatchesInto(plan, tile_count, kRasterBatchGrain,
                             [&](size_t t) { return tileOrder(t).size(); });
    const size_t chunks = parallelChunkCount(plan.size(), threads);
    if (accums.size() < chunks)
        accums.resize(chunks);
    for (RasterAccum &acc : accums)
        acc.stats = RasterStats{};
    parallelForBatched(plan, threads,
                       [&](size_t begin, size_t end, size_t chunk) {
        RasterAccum &acc = accums[chunk];
        for (size_t t = begin; t < end; ++t) {
            const std::vector<TileEntry> &order = tileOrder(t);
            if (order.empty())
                continue;
            acc.stats += rasterizeTile(order, frame, static_cast<int>(t),
                                       opts_.raster, &image, nullptr,
                                       &acc.scratch, integrity);
        }
    });
    if (state)
        growToHighWater(accums, [](RasterAccum &acc) {
            return RasterScratch::buffers(acc.scratch);
        });
    for (const RasterAccum &acc : accums)
        local.raster += acc.stats;
    if (stats)
        *stats = local;
}

FrameWorkload
Renderer::extractWorkload(const GaussianScene &scene,
                          const Camera &camera) const
{
    BinnedFrame frame = prepare(scene, camera);
    return workloadFromBinned(frame, camera.resolution());
}

FrameWorkload
Renderer::workloadFromBinned(const BinnedFrame &frame, Resolution res) const
{
    FrameWorkload w;
    w.res = res;
    w.tile_size = frame.grid.tile_size;
    w.scene_gaussians = frame.visible.size();
    w.visible_gaussians = frame.visible_count;
    w.instances = frame.instances;
    const int subtiles_1d = frame.grid.tile_size / opts_.raster.subtile_size;
    const int threads = resolveThreadCount(opts_.threads);
    const size_t tile_count = static_cast<size_t>(frame.grid.tileCount());
    w.tile_lengths.resize(tile_count);

    struct WorkAccum
    {
        uint64_t blend_ops = 0;
        uint64_t intersection_tests = 0;
    };
    for (const WorkAccum &a : parallelForAccumulate<WorkAccum>(
             tile_count, threads,
             [&](size_t begin, size_t end, WorkAccum &a) {
                 for (size_t t = begin; t < end; ++t) {
                     const auto &entries = frame.tiles[t];
                     w.tile_lengths[t] =
                         static_cast<uint32_t>(entries.size());
                     if (entries.empty())
                         continue;
                     a.blend_ops += estimateTileBlendOps(
                         entries, frame, static_cast<int>(t),
                         opts_.raster);
                     a.intersection_tests +=
                         entries.size() *
                         static_cast<uint64_t>(subtiles_1d) * subtiles_1d;
                 }
             })) {
        w.blend_ops += a.blend_ops;
        w.intersection_tests += a.intersection_tests;
    }
    return w;
}

} // namespace neo
