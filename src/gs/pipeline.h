/**
 * @file
 * End-to-end 3DGS rendering pipeline (culling -> feature extraction ->
 * sorting -> rasterization) with per-frame statistics.
 *
 * Two operating modes:
 *  - render(): full image synthesis (quality experiments, Table 2/Fig 19);
 *  - extractWorkload(): runs culling/projection/binning/sorting and
 *    *estimates* rasterization work without touching pixels. This is what
 *    drives the cycle-level performance models at QHD scale, mirroring how
 *    the paper's cycle-accurate simulator is trace-driven.
 */

#ifndef NEO_GS_PIPELINE_H
#define NEO_GS_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/image.h"
#include "common/integrity.h"
#include "common/parallel.h"
#include "gs/camera.h"
#include "gs/raster.h"
#include "gs/tile_sort.h"
#include "gs/tiling.h"

namespace neo
{

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Tile edge in pixels (Neo paper uses 64, GSCore/3DGS use 16). */
    int tile_px = 16;
    /**
     * Worker threads for the per-Gaussian and per-tile stages.
     * 0 defers to the NEO_THREADS environment variable (default: serial),
     * a positive value is used verbatim, and -1 means one thread per
     * hardware core (see common/parallel.h). Results are bit-identical
     * for every setting — threads only changes wall-clock time.
     */
    int threads = 0;
    RasterConfig raster;
    /**
     * Integrity-hardened serving mode (see common/integrity.h). Unset
     * defers to the NEO_INTEGRITY environment variable (default: off).
     */
    IntegrityMode integrity = IntegrityMode::Unset;
};

/**
 * Per-frame workload descriptor consumed by the timing models in sim/.
 * Everything is a count of functional work; the models turn counts into
 * cycles and DRAM bytes.
 */
struct FrameWorkload
{
    Resolution res;
    int tile_size = 16;
    uint64_t scene_gaussians = 0;   //!< total Gaussians in the scene
    uint64_t visible_gaussians = 0; //!< after frustum culling
    uint64_t instances = 0;         //!< after duplication (sum tile lists)
    std::vector<uint32_t> tile_lengths; //!< per-tile table length
    uint64_t blend_ops = 0;             //!< alpha-blend operations
    uint64_t intersection_tests = 0;    //!< ITU subtile tests

    // Temporal deltas versus the previous frame (zero for the first frame
    // and for from-scratch pipelines that do not track reuse).
    uint64_t incoming_instances = 0; //!< new (tile, id) pairs this frame
    uint64_t outgoing_instances = 0; //!< (tile, id) pairs that vanished
    double mean_tile_retention = 1.0; //!< mean shared fraction per tile

    /** Tiles with at least one Gaussian. */
    uint64_t nonEmptyTiles() const;
    /** Mean table length over non-empty tiles. */
    double meanTileLength() const;
};

/**
 * Per-stage wall-clock of one NeoRenderer frame, each in milliseconds:
 * binning scatter, delta tracking, sort (the reuse-and-update sorter or
 * the direct per-tile sort), and rasterization. Produced per frame by
 * NeoRenderer::renderFrameInto when given a sink; consumed by the
 * serving layer's budget controller (totalMs) and averaged by the
 * staged thread sweep (sim/perf_harness.h).
 */
struct StageTimings
{
    double bin_ms = 0.0;
    double sort_ms = 0.0;
    double raster_ms = 0.0;
    double tracker_ms = 0.0;

    double totalMs() const
    {
        return bin_ms + sort_ms + raster_ms + tracker_ms;
    }
};

/** Counters describing one fully rendered frame. */
struct FrameStats
{
    uint64_t scene_gaussians = 0;
    uint64_t visible_gaussians = 0;
    uint64_t instances = 0;
    RasterStats raster;
    double mean_tile_length = 0.0;
    /** Integrity cross-check summary (mode Off, empty when disabled). */
    IntegrityFrameStats integrity;
};

/** One dispatch participant's raster counters and ITU/blend scratch. */
struct RasterAccum
{
    RasterStats stats;
    RasterScratch scratch;
};

/**
 * Reusable working set of Renderer::renderInto: the heaviest-first tile
 * plan plus one accumulator per dispatch participant, capacity retained
 * across frames so a warm frame loop rasterizes without allocating.
 */
struct RasterState
{
    BatchPlan plan;
    std::vector<RasterAccum> accums;

    /** Heap bytes held, the accumulators' nested scratch included. */
    size_t capacityBytes() const;
};

/** Baseline renderer that re-sorts every tile from scratch each frame. */
class Renderer
{
  public:
    explicit Renderer(PipelineOptions opts = {}) : opts_(opts) {}

    const PipelineOptions &options() const { return opts_; }

    /** Cull, project, bin and depth-sort one frame. */
    BinnedFrame prepare(const GaussianScene &scene,
                        const Camera &camera) const;

    /**
     * prepare() into caller-owned storage: @p frame and the tile-sort
     * scratch @p sort_scratch are refilled with capacity retained, so a
     * warm steady-state loop prepares frames without per-frame heap
     * churn.
     */
    void prepareInto(BinnedFrame &frame, BatchSortScratch &sort_scratch,
                     const GaussianScene &scene, const Camera &camera) const;

    /** Full render with ground-truth per-tile depth sorting. */
    Image render(const GaussianScene &scene, const Camera &camera,
                 FrameStats *stats = nullptr) const;

    /**
     * Rasterize an already-binned frame using caller-provided per-tile
     * orderings (one vector per tile, depth order decided by the caller's
     * sorting strategy). Tiles absent from @p orderings fall back to the
     * frame's own (sorted) lists.
     */
    Image renderWithOrdering(
        const BinnedFrame &frame,
        const std::vector<std::vector<TileEntry>> &orderings,
        FrameStats *stats = nullptr) const;

    /**
     * renderWithOrdering into a caller-owned image. When @p state is
     * non-null the tile plan and the per-participant accumulators live
     * there and are reused across frames; with image and state reused, a
     * warm steady-state render performs zero per-frame heap allocations
     * on the raster path. When @p integrity is non-null and enabled, the
     * blocked kernel cross-checks its CSR bucket bounds and falls back to
     * the scalar reference blend for any tile whose check fails (the
     * fault is detected before any pixel is written).
     */
    void renderInto(Image &image, const BinnedFrame &frame,
                    const std::vector<std::vector<TileEntry>> &orderings,
                    FrameStats *stats = nullptr,
                    RasterState *state = nullptr,
                    IntegrityContext *integrity = nullptr) const;

    /** Workload extraction without pixel work (see file comment). */
    FrameWorkload extractWorkload(const GaussianScene &scene,
                                  const Camera &camera) const;

    /** Derive a workload descriptor from an already-binned frame. */
    FrameWorkload workloadFromBinned(const BinnedFrame &frame,
                                     Resolution res) const;

  private:
    PipelineOptions opts_;
};

} // namespace neo

#endif // NEO_GS_PIPELINE_H
