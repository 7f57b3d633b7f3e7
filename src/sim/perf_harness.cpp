#include "sim/perf_harness.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/delta_tracker.h"
#include "core/neo_renderer.h"
#include "gs/tiling.h"

namespace neo
{

double
SequenceResult::meanFps() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &f : frames)
        total += f.latency_s;
    return total > 0.0 ? static_cast<double>(frames.size()) / total : 0.0;
}

double
SequenceResult::totalTrafficGB() const
{
    return traffic().totalGB();
}

TrafficBreakdown
SequenceResult::traffic() const
{
    TrafficBreakdown t;
    for (const auto &f : frames)
        t += f.traffic;
    return t;
}

double
SequenceResult::trafficGBPer60Frames() const
{
    if (frames.empty())
        return 0.0;
    return totalTrafficGB() * 60.0 / static_cast<double>(frames.size());
}

double
SequenceResult::meanLatencyMs() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &f : frames)
        total += f.latency_s;
    return total * 1e3 / static_cast<double>(frames.size());
}

double
SequenceResult::maxLatencyMs() const
{
    double mx = 0.0;
    for (const auto &f : frames)
        mx = std::max(mx, f.latency_s);
    return mx * 1e3;
}

namespace
{

/** Extract one tile-geometry sequence with delta tracking. */
std::vector<FrameWorkload>
extractOne(const GaussianScene &scene, const Trajectory &trajectory,
           Resolution res, int frames, int tile_px, int threads)
{
    PipelineOptions opts;
    opts.tile_px = tile_px;
    opts.threads = threads;
    Renderer renderer(opts);
    DeltaTracker tracker;
    tracker.setThreads(threads);

    // Steady-state extraction: the binned frame (scatter scratch
    // included), the tile-sort scratch and the delta buffers persist
    // across the frame loop with capacity retained.
    BinnedFrame frame;
    BatchSortScratch sort_scratch;
    FrameDelta delta;

    std::vector<FrameWorkload> out;
    out.reserve(frames);
    for (int f = 0; f < frames; ++f) {
        Camera cam = trajectory.cameraAt(f, res);
        renderer.prepareInto(frame, sort_scratch, scene, cam);
        tracker.observe(frame, delta);
        FrameWorkload w = renderer.workloadFromBinned(frame, res);
        w.incoming_instances = delta.incoming_total;
        w.outgoing_instances = delta.outgoing_total;
        w.mean_tile_retention = delta.meanRetention();
        out.push_back(std::move(w));
    }
    return out;
}

} // namespace

WorkloadSequences
extractSequences(const GaussianScene &scene, const Trajectory &trajectory,
                 Resolution res, int frames, bool want16, bool want64,
                 int threads)
{
    WorkloadSequences seqs;
    if (want16)
        seqs.tile16 =
            extractOne(scene, trajectory, res, frames, 16, threads);
    if (want64)
        seqs.tile64 =
            extractOne(scene, trajectory, res, frames, 64, threads);
    return seqs;
}

std::vector<ThreadScalingPoint>
sweepRenderThreadsStaged(const GaussianScene &scene,
                         const Trajectory &trajectory, Resolution res,
                         int frames, const std::vector<int> &thread_counts,
                         PipelineOptions opts)
{
    using clock = std::chrono::steady_clock;
    auto ms_since = [](clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(clock::now() - t0)
            .count();
    };
    frames = std::max(frames, 1);

    std::vector<ThreadScalingPoint> points;
    points.reserve(thread_counts.size());
    for (int requested : thread_counts) {
        opts.threads = requested;
        NeoRenderer renderer(opts);
        Image image;
        NeoFrameReport report;
        StageTimings stages;
        ThreadScalingPoint p;
        p.threads = resolveThreadCount(requested);
        p.frame_hashes.reserve(static_cast<size_t>(frames));

        // Untimed cold start: pool spin-up, scene faults, buffer growth
        // and the full first-frame sort.
        renderer.renderFrameInto(image, scene, trajectory.cameraAt(0, res),
                                 0);

        const clock::time_point wall0 = clock::now();
        for (int f = 1; f <= frames; ++f) {
            renderer.renderFrameInto(image, scene,
                                     trajectory.cameraAt(f, res),
                                     static_cast<uint64_t>(f), &report,
                                     &stages);
            // The serving layer hashes every delivered frame.
            const clock::time_point h0 = clock::now();
            p.frame_hashes.push_back(image.contentHash());
            p.hash_ms += ms_since(h0);
            p.stages.bin_ms += stages.bin_ms;
            p.stages.tracker_ms += stages.tracker_ms;
            p.stages.sort_ms += stages.sort_ms;
            p.stages.raster_ms += stages.raster_ms;
        }
        p.ms_per_frame = ms_since(wall0) / frames;

        p.stages.bin_ms /= frames;
        p.stages.tracker_ms /= frames;
        p.stages.sort_ms /= frames;
        p.stages.raster_ms /= frames;
        p.hash_ms /= frames;
        p.last_frame = report.frame;
        p.last_sort = report.sort;
        p.speedup = points.empty()
                        ? 1.0
                        : points.front().ms_per_frame / p.ms_per_frame;
        points.push_back(std::move(p));
    }
    return points;
}

SequenceResult
simulateGpu(const GpuModel &model, const std::vector<FrameWorkload> &seq)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (const auto &w : seq)
        r.frames.push_back(model.simulateFrame(w));
    return r;
}

SequenceResult
simulateGscore(const GscoreModel &model,
               const std::vector<FrameWorkload> &seq)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (const auto &w : seq)
        r.frames.push_back(model.simulateFrame(w));
    return r;
}

SequenceResult
simulateNeo(const NeoModel &model, const std::vector<FrameWorkload> &seq,
            bool first_is_cold)
{
    SequenceResult r;
    r.frames.reserve(seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
        bool cold = first_is_cold && i == 0;
        r.frames.push_back(model.simulateFrame(seq[i], cold));
    }
    return r;
}

} // namespace neo
