#include "core/neo_renderer.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/faultinject.h"

namespace neo
{

PipelineOptions
NeoRenderer::neoDefaultOptions()
{
    PipelineOptions opts;
    opts.tile_px = 64;
    opts.raster.subtile_size = 8;
    return opts;
}

namespace
{

/** base_'s options with the scalar reference blend forced on. */
PipelineOptions
referenceOptions(PipelineOptions opts)
{
    opts.raster.reference_path = true;
    return opts;
}

/** Laps the monotonic clock into a StageTimings sink (zeroed on
    construction); without a sink every call is a no-op. */
class StageClock
{
    using clock = std::chrono::steady_clock;

  public:
    explicit StageClock(StageTimings *sink) : sink_(sink)
    {
        if (sink_) {
            *sink_ = StageTimings{};
            t0_ = clock::now();
        }
    }

    /** Charge the time since the previous lap to @p stage. */
    void lap(double StageTimings::*stage)
    {
        if (!sink_)
            return;
        const clock::time_point now = clock::now();
        sink_->*stage =
            std::chrono::duration<double, std::milli>(now - t0_).count();
        t0_ = now;
    }

  private:
    StageTimings *sink_;
    clock::time_point t0_;
};

} // namespace

NeoRenderer::NeoRenderer(PipelineOptions opts, DynamicPartialConfig dps)
    : base_(opts), reference_(referenceOptions(opts)), sorter_(dps)
{
    // One thread knob drives every stage: binning/projection (binFrame),
    // reuse-and-update sorting (sorter_), and rasterization (base_).
    sorter_.setThreads(opts.threads);
    integrity_.configure(resolveIntegrityMode(opts.integrity));
    if (integrity_.enabled())
        sorter_.setIntegrity(&integrity_);
}

void
NeoRenderer::restorePersistentState(
    std::vector<std::vector<TileEntry>> tables)
{
    std::vector<std::vector<GaussianId>> prev_ids(tables.size());
    for (size_t t = 0; t < tables.size(); ++t) {
        for (const TileEntry &e : tables[t])
            if (e.valid)
                prev_ids[t].push_back(e.id);
        std::sort(prev_ids[t].begin(), prev_ids[t].end());
    }
    sorter_.restore(std::move(tables), std::move(prev_ids));
    integrity_.forgetSeals();
}

Image
NeoRenderer::renderFrame(const GaussianScene &scene, const Camera &camera,
                         uint64_t frame_index, NeoFrameReport *report)
{
    Image image;
    renderFrameInto(image, scene, camera, frame_index, report);
    return image;
}

void
NeoRenderer::binStage(const GaussianScene &scene, const Camera &camera,
                      uint64_t frame_index)
{
    const bool fenced = integrity_.enabled();
    if (fenced)
        integrity_.beginFrame(frame_index);

    binFrameInto(frame_, scene, camera, opts().tile_px, opts().threads);
    if (fenced) {
        // Binning fence: seal the fresh tile lists, expose the injection
        // window, and verify before the sorter consumes them. In recover
        // mode a mismatching tile is restored from the shadow here, so
        // corruption never reaches the persistent tables.
        integrity_.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                             frame_.tiles);
        faultinject::corruptTiles(kIntegrityBinTiles, frame_.tiles);
        integrity_.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles,
                               frame_.tiles);

        // Projection fences: binning fills the id-indexed feature
        // arrays (one entry per scene Gaussian); seal them here and
        // verify before the sorter's deferred depth update copies frame
        // depths into the persistent tables — a corrupted depth caught
        // any later would already have poisoned cross-frame state.
        integrity_.sealSpan(IntegrityStage::Projection,
                            kIntegrityProjMean2d, frame_.mean2d);
        integrity_.sealSpan(IntegrityStage::Projection,
                            kIntegrityProjRadius, frame_.radius_px);
        integrity_.sealSpan(IntegrityStage::Projection, kIntegrityProjDepth,
                            frame_.depth);
        integrity_.sealSpan(IntegrityStage::Projection, kIntegrityProjConic,
                            frame_.conic);
        faultinject::corruptSpan(kIntegrityProjMean2d, frame_.mean2d);
        faultinject::corruptSpan(kIntegrityProjRadius, frame_.radius_px);
        faultinject::corruptSpan(kIntegrityProjDepth, frame_.depth);
        faultinject::corruptSpan(kIntegrityProjConic, frame_.conic);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjMean2d, frame_.mean2d);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjRadius, frame_.radius_px);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjDepth, frame_.depth);
        integrity_.verifySpan(IntegrityStage::Projection,
                              kIntegrityProjConic, frame_.conic);
    }
}

std::vector<std::vector<TileEntry>> &
NeoRenderer::sortStage(uint64_t frame_index, FramePath path)
{
    std::vector<std::vector<TileEntry>> *sorted = &frame_.tiles;
    if (path == FramePath::Reuse) {
        sorter_.sortFrame(frame_, frame_index);
        sorted = &sorter_.mutableTables().tables();
    } else {
        // The persistent tables are neither read nor written, so the
        // reuse sorter carries no trace of this frame.
        sortTablesBatched(frame_.tiles, opts().threads,
                          direct_sort_scratch_);
    }
    if (integrity_.enabled()) {
        // Sorting fence: the sorted tables are final for this frame (the
        // reuse path's deferred depth update runs inside sortFrame); they
        // are the orderings rasterization consumes.
        integrity_.sealTiles(IntegrityStage::Sorting, kIntegritySortTables,
                             *sorted);
        faultinject::corruptTiles(kIntegritySortTables, *sorted);
        integrity_.verifyTiles(IntegrityStage::Sorting,
                               kIntegritySortTables, *sorted);
    }
    return *sorted;
}

void
NeoRenderer::rasterStage(Image &out, uint64_t frame_index,
                         std::vector<std::vector<TileEntry>> &sorted,
                         FrameStats &stats)
{
    IntegrityContext *ctx = integrity_.enabled() ? &integrity_ : nullptr;
    base_.renderInto(out, frame_, sorted, &stats, &raster_, ctx);

    if (integrity_.mode() == IntegrityMode::Recover &&
        integrity_.frameFaulted()) {
        // Every faulted structure has already been restored from its
        // digest-verified shadow (or, for the CSR, the tile fell back to
        // the reference blend before any pixel write). Re-rendering the
        // whole frame through the scalar reference path — bit-identical
        // to the blocked kernel by the determinism contract — and
        // re-verifying the fenced inputs turns that contract into
        // end-to-end attestation: the delivered frame hash equals the
        // uncorrupted reference.
        reference_.renderInto(out, frame_, sorted, &stats, nullptr,
                              &integrity_);
        // Re-verify the fenced inputs. On the Direct path the frame's
        // tile lists were depth-sorted in place after the binning seal,
        // so only the sorting fence (sealed post-sort) still applies —
        // &sorted == &frame_.tiles there.
        if (&sorted != &frame_.tiles)
            integrity_.verifyTiles(IntegrityStage::Binning,
                                   kIntegrityBinTiles, frame_.tiles);
        integrity_.verifyTiles(IntegrityStage::Sorting,
                               kIntegritySortTables, sorted);
        integrity_.markFrameRecovered();
    }

    if (integrity_.attestDue(frame_index)) {
        // Attest-mode cross-render: the delivered frame (after the
        // injection window below, which models corruption of delivered
        // pixels) must hash bit-identically to an independent render
        // through the scalar reference kernel. Detection only — the
        // frame is delivered as-is and the mismatch flows through the
        // normal FaultReport path.
        faultinject::corruptSpan(kIntegrityAttestFrame, out.pixels());
        reference_.renderInto(attest_image_, frame_, sorted, nullptr,
                              nullptr, nullptr);
        const uint64_t expected = attest_image_.contentHash();
        const uint64_t actual = out.contentHash();
        integrity_.noteCheck();
        if (expected != actual)
            integrity_.recordFault(IntegrityStage::Attestation,
                                   kIntegrityAttestFrame, -1, expected,
                                   actual, false);
    }
}

void
NeoRenderer::finishFrame(FrameStats &stats, NeoFrameReport *report,
                         FramePath path)
{
    if (integrity_.enabled())
        integrity_.exportStats(stats.integrity);
    // A Direct frame leaves the sorter untouched: it reports no sort
    // counters and no reuse summary of its own.
    const bool reuse = path == FramePath::Reuse;
    const SortCoreStats sort = reuse ? sorter_.takeStats() : SortCoreStats{};
    if (report) {
        report->frame = stats;
        report->sort = sort;
        report->reuse = reuse ? sorter_.lastReport() : ReuseUpdateReport{};
    }
}

void
NeoRenderer::renderFrameInto(Image &out, const GaussianScene &scene,
                             const Camera &camera, uint64_t frame_index,
                             NeoFrameReport *report, StageTimings *stages,
                             FramePath path)
{
    StageClock clock(stages);
    binStage(scene, camera, frame_index);
    clock.lap(&StageTimings::bin_ms);

    if (path == FramePath::Reuse) {
        // The tracker's prev-id fence runs inside trackFrame: verified on
        // entry to observe(), re-sealed when the new membership is
        // adopted.
        sorter_.trackFrame(frame_);
        clock.lap(&StageTimings::tracker_ms);
    }
    std::vector<std::vector<TileEntry>> &sorted =
        sortStage(frame_index, path);
    clock.lap(&StageTimings::sort_ms);

    FrameStats stats;
    rasterStage(out, frame_index, sorted, stats);
    clock.lap(&StageTimings::raster_ms);

    finishFrame(stats, report, path);
}

FrameWorkload
NeoRenderer::extractWorkload(const GaussianScene &scene,
                             const Camera &camera, uint64_t frame_index)
{
    binStage(scene, camera, frame_index);
    sorter_.trackFrame(frame_);
    sortStage(frame_index, FramePath::Reuse);

    FrameWorkload w = base_.workloadFromBinned(frame_, camera.resolution());
    const FrameDelta &delta = sorter_.lastDelta();
    w.incoming_instances = delta.incoming_total;
    w.outgoing_instances = delta.outgoing_total;
    w.mean_tile_retention = delta.meanRetention();
    return w;
}

} // namespace neo
