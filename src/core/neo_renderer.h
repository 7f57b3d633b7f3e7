/**
 * @file
 * NeoRenderer — the full 3DGS pipeline with reuse-and-update sorting in
 * place of per-frame re-sorting. This is the primary user-facing class of
 * the library: feed it a scene and a camera per frame and it returns the
 * rendered image (or, for simulation, the frame's workload descriptor with
 * temporal-delta statistics filled in).
 *
 * Multi-session factoring: everything scene-immutable and stateless lives
 * in RendererShared (the blocked rasterizer, its scalar reference twin,
 * and the pipeline options) and is shared across N renderers via
 * shared_ptr; everything per-stream (the reuse sorter's persistent
 * tables, the delta tracker, the binned frame, the scratch arena, the
 * integrity context) stays inside each NeoRenderer. The serving layer
 * (src/serve/) builds one RendererShared per scene and hands it to every
 * session's renderer.
 */

#ifndef NEO_CORE_NEO_RENDERER_H
#define NEO_CORE_NEO_RENDERER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/frame_arena.h"
#include "core/reuse_update.h"
#include "gs/pipeline.h"
#include "gs/tile_sort.h"

namespace neo
{

/** Everything known about one frame rendered by Neo. */
struct NeoFrameReport
{
    FrameStats frame;           //!< functional pipeline counters
    SortCoreStats sort;         //!< sorting-hardware counters this frame
    ReuseUpdateReport reuse;    //!< reuse-and-update summary
};

/**
 * The scene-immutable half of a NeoRenderer: the stateless rasterizer
 * pair (blocked kernel + scalar reference twin) and the pipeline options
 * they were built with. Renderer::renderInto is const and takes all
 * per-frame state as arguments, so one RendererShared serves any number
 * of concurrently rendering sessions.
 */
class RendererShared
{
  public:
    explicit RendererShared(PipelineOptions opts);

    const PipelineOptions &options() const { return base_.options(); }
    const Renderer &base() const { return base_; }
    /** Scalar reference-path twin of base() (bit-identical output by the
        determinism contract) — the recovery/attestation render target. */
    const Renderer &reference() const { return reference_; }

  private:
    Renderer base_;
    Renderer reference_;
};

/** Renderer built around the reuse-and-update sorting strategy. */
class NeoRenderer
{
  public:
    /**
     * @param opts pipeline options; Neo's hardware default is 64-px tiles
     *        with 8-px subtiles (Table 1), so that is the default here too.
     * @param dps Dynamic Partial Sorting tunables.
     */
    explicit NeoRenderer(PipelineOptions opts = neoDefaultOptions(),
                         DynamicPartialConfig dps = {});

    /**
     * Build a renderer on top of an existing shared half — the
     * multi-session constructor: every session renderer built from the
     * same @p shared reuses its rasterizers, while all mutable per-stream
     * state (sorter tables, tracker, arena, integrity) is private.
     */
    explicit NeoRenderer(std::shared_ptr<const RendererShared> shared,
                         DynamicPartialConfig dps = {});

    /** Paper Table 1 configuration: 64-px tiles, 8-px subtiles. */
    static PipelineOptions neoDefaultOptions();

    /** Render frame @p frame_index of a camera sequence. */
    Image renderFrame(const GaussianScene &scene, const Camera &camera,
                      uint64_t frame_index, NeoFrameReport *report = nullptr);

    /** How renderFrameInto sorts the binned frame. */
    enum class FramePath
    {
        /** Delta tracker + reuse-and-update sorter (the steady state). */
        Reuse,
        /**
         * Degradation path: a plain per-tile depth sort of the freshly
         * binned lists, leaving the sorter's persistent tables and the
         * tracker untouched. The output is bit-identical to a cold-start
         * render of the same camera. The skipped update leaves the
         * tables stale, so the caller must reset() before the next
         * Reuse frame — the serving layer does exactly that, trading one
         * full re-sort for a skipped sorter update under deadline
         * pressure.
         */
        Direct,
    };

    /**
     * renderFrame into a caller-owned image — the one frame loop. The
     * binned frame, the binning/raster scratch, and the sorter's
     * persistent tables all live in this renderer and are refilled with
     * capacity retained, so once warm the loop performs zero per-frame
     * heap allocations on the binning/raster path.
     *
     * With @p stages set, each stage's monotonic wall-clock lands there:
     * bin_ms covers binning plus its fences, tracker_ms the delta
     * tracker (0 on the Direct path), sort_ms the sort plus the sorting
     * fence, raster_ms rasterization plus any recover-mode re-render or
     * attest cross-render. This is what the serving layer's budget
     * controller consumes.
     */
    void renderFrameInto(Image &out, const GaussianScene &scene,
                         const Camera &camera, uint64_t frame_index,
                         NeoFrameReport *report = nullptr,
                         StageTimings *stages = nullptr,
                         FramePath path = FramePath::Reuse);

    /**
     * Run the pipeline without pixel work and emit the workload descriptor
     * (with incoming/outgoing/retention populated) for the timing models.
     */
    FrameWorkload extractWorkload(const GaussianScene &scene,
                                  const Camera &camera,
                                  uint64_t frame_index);

    /** Reset all cross-frame state (e.g., before a new trajectory). */
    void reset()
    {
        sorter_.reset();
        integrity_.forgetSeals();
    }

    /**
     * Adopt @p tables / @p prev_ids as the cross-frame sorter state — the
     * durable-recovery path. Seals from the pre-restore state are
     * forgotten (the restored buffers are re-sealed as the next frame
     * adopts them); a subsequent frame with the same tile count resumes
     * the reuse path bit-identically to an uninterrupted run.
     */
    void restorePersistentState(std::vector<std::vector<TileEntry>> tables,
                                std::vector<std::vector<GaussianId>> prev_ids)
    {
        sorter_.restore(std::move(tables), std::move(prev_ids));
        integrity_.forgetSeals();
    }

    const ReuseUpdateSorter &sorter() const { return sorter_; }
    const Renderer &base() const { return shared_->base(); }

    /** The scene-immutable half (shareable across sessions). */
    const std::shared_ptr<const RendererShared> &shared() const
    {
        return shared_;
    }

    /** Effective integrity mode (resolved at construction). */
    IntegrityMode integrityMode() const { return integrity_.mode(); }

    /** Integrity state of this renderer (checks/faults of the last frame
        are also exported into FrameStats::integrity each frame). */
    const IntegrityContext &integrity() const { return integrity_; }

    /** Mutable integrity context (attest-period tuning in tests). */
    IntegrityContext &integrityMutable() { return integrity_; }

    /** Register a callback invoked for every detected fault. */
    void setFaultHandler(FaultHandler handler)
    {
        integrity_.setFaultHandler(std::move(handler));
    }

    /** Binned frame of the most recent render/extract (reused storage). */
    const BinnedFrame &lastBinnedFrame() const { return frame_; }

    /** Scratch arena of the steady-state loop (exposed for tests). */
    const FrameArena &arena() const { return arena_; }

    /**
     * Bytes of capacity retained by the steady-state loop (binned frame
     * plus arena scratch). Constant across a warm loop — the arena-reuse
     * test asserts no regrowth frame over frame.
     */
    size_t retainedScratchBytes() const
    {
        return frame_.capacityBytes() + arena_.retainedBytes();
    }

  private:
    /** Rebin into the reused storage behind the binning + feature-array
        fences. */
    void binStage(const GaussianScene &scene, const Camera &camera,
                  uint64_t frame_index);
    /** Sort the binned frame along @p path (on the Reuse path after
        sorter_.trackFrame) behind the sorting fence. Returns the sorted
        tables: the sorter's persistent tables on the Reuse path, the
        frame's own tile lists on the Direct path. */
    std::vector<std::vector<TileEntry>> &sortStage(uint64_t frame_index,
                                                   FramePath path);
    /** Rasterize via @p sorted, then run the recover-mode re-render and
        the attest-mode cross-render when due. @p sorted is also what
        the sorting fence sealed, so the recover re-verify targets it. */
    void rasterStage(Image &out, uint64_t frame_index,
                     std::vector<std::vector<TileEntry>> &sorted,
                     FrameStats &stats);
    void finishFrame(FrameStats &stats, NeoFrameReport *report,
                     FramePath path);

    const PipelineOptions &opts() const { return shared_->options(); }

    std::shared_ptr<const RendererShared> shared_;
    ReuseUpdateSorter sorter_;
    /** Reused per-frame binning output (cleared, never reallocated). */
    BinnedFrame frame_;
    /** Reused binning/raster scratch. */
    FrameArena arena_;
    /** Reused per-tile sort scratch of the direct (degraded) path. */
    BatchSortScratch direct_sort_scratch_;
    /** Reused attest-mode cross-render target. */
    Image attest_image_;
    /** Integrity fences, shadow copies and fault reports. */
    IntegrityContext integrity_;
};

} // namespace neo

#endif // NEO_CORE_NEO_RENDERER_H
