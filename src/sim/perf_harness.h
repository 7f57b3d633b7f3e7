/**
 * @file
 * Trajectory-level simulation harness shared by the paper-reproduction
 * benches: extracts per-frame workload descriptors for a scene+trajectory
 * at a given resolution (once per tile geometry) and feeds them through
 * the GPU / GSCore / Neo models; plus the staged thread-scaling sweep
 * that times the served NeoRenderer frame loop stage by stage.
 */

#ifndef NEO_SIM_PERF_HARNESS_H
#define NEO_SIM_PERF_HARNESS_H

#include <cstdint>
#include <vector>

#include "gs/pipeline.h"
#include "scene/trajectory.h"
#include "sim/gpu_model.h"
#include "sim/gscore_model.h"
#include "sim/neo_model.h"
#include "sort/chunk_sort.h"

namespace neo
{

/** Simulation results over a frame sequence. */
struct SequenceResult
{
    std::vector<FrameSim> frames;

    /** Throughput over the sequence (frames / total seconds). */
    double meanFps() const;
    /** Total attributed DRAM traffic in GB. */
    double totalTrafficGB() const;
    /** Per-stage traffic sums. */
    TrafficBreakdown traffic() const;
    /** Traffic normalized to the paper's 60-rendered-frames convention. */
    double trafficGBPer60Frames() const;
    /** Mean per-frame latency in milliseconds. */
    double meanLatencyMs() const;
    /** Maximum per-frame latency in milliseconds. */
    double maxLatencyMs() const;
};

/**
 * Per-frame workloads for one scene/trajectory/resolution, extracted at
 * both tile geometries used by the systems under study.
 */
struct WorkloadSequences
{
    std::vector<FrameWorkload> tile16; //!< GPU and GSCore geometry
    std::vector<FrameWorkload> tile64; //!< Neo geometry (with deltas)
};

/**
 * Run the functional pipeline over @p frames frames of @p trajectory and
 * collect workload descriptors. Temporal deltas (incoming/outgoing and
 * retention) are tracked for both tile geometries.
 *
 * @param want16 extract the 16-px tile sequence (GPU/GSCore)
 * @param want64 extract the 64-px tile sequence (Neo)
 * @param threads worker threads for the functional pipeline
 *        (resolveThreadCount semantics: 0 defers to NEO_THREADS); the
 *        extracted workloads are bit-identical for any value
 */
WorkloadSequences extractSequences(const GaussianScene &scene,
                                   const Trajectory &trajectory,
                                   Resolution res, int frames,
                                   bool want16 = true, bool want64 = true,
                                   int threads = 0);

/** One measurement of the staged thread-scaling sweep. */
struct ThreadScalingPoint
{
    int threads = 1;          //!< effective worker-thread count
    double ms_per_frame = 0;  //!< mean wall-clock per timed frame
    double speedup = 1.0;     //!< vs the sweep's first (baseline) point
    StageTimings stages;      //!< mean per-stage ms per timed frame
    double hash_ms = 0;       //!< mean Image::contentHash ms per frame
    /** contentHash of every timed frame, in frame order. */
    std::vector<uint64_t> frame_hashes;
    /**
     * Functional counters of the last rendered frame. The
     * blocked/reference rasterizer A/B in bench_scaling compares these
     * field by field — the two paths must agree exactly, not just on
     * the frame hashes.
     */
    FrameStats last_frame;
    /** Sort-core counters of the last rendered frame (exact work). */
    SortCoreStats last_sort;
};

/**
 * Thread-scaling sweep over the served frame loop (not the cycle
 * models): at each requested thread count a fresh NeoRenderer walks
 * @p trajectory through NeoRenderer::renderFrameInto, exactly as a
 * serving session does. Frame 0 is an untimed cold start; frames
 * 1..@p frames are timed reuse frames, each with its per-stage
 * breakdown and its Image::contentHash (timed as hash_ms, since the
 * serving layer hashes every delivered frame). ms_per_frame is the
 * wall clock of those frames; the stage means plus hash_ms account for
 * all of it but the per-frame camera set-up. Frame hashes must be
 * identical across all points (determinism contract). The first entry
 * of @p thread_counts is the speedup baseline.
 *
 * @param opts pipeline options of the renderer (tile geometry,
 *        raster/integrity modes); opts.threads is overridden by each
 *        sweep point
 */
std::vector<ThreadScalingPoint>
sweepRenderThreadsStaged(const GaussianScene &scene,
                         const Trajectory &trajectory, Resolution res,
                         int frames, const std::vector<int> &thread_counts,
                         PipelineOptions opts);

/** Simulate a workload sequence on the GPU model. */
SequenceResult simulateGpu(const GpuModel &model,
                           const std::vector<FrameWorkload> &seq);

/** Simulate a workload sequence on the GSCore model. */
SequenceResult simulateGscore(const GscoreModel &model,
                              const std::vector<FrameWorkload> &seq);

/**
 * Simulate a workload sequence on the Neo model. The first frame is
 * treated as a cold start (conventional full sort) unless
 * @p first_is_cold is false.
 */
SequenceResult simulateNeo(const NeoModel &model,
                           const std::vector<FrameWorkload> &seq,
                           bool first_is_cold = true);

} // namespace neo

#endif // NEO_SIM_PERF_HARNESS_H
