/**
 * @file
 * Determinism guard: the whole synthetic-scene pipeline must be a pure
 * function of the RNG seed. Two independent runs with the same seed have
 * to produce bit-identical frames and workload descriptors, so any future
 * parallelism PR that introduces nondeterministic reduction order trips
 * this test instead of silently perturbing the paper's figures.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta_tracker.h"
#include "common/rng.h"
#include "core/neo_renderer.h"
#include "gs/pipeline.h"
#include "scene/synthetic.h"
#include "sort/merge_unit.h"
#include "test_util.h"

namespace neo::test
{
namespace
{

/** Canonical bit-pattern hash shared with the scaling bench. */
uint64_t
hashImage(const Image &img)
{
    return img.contentHash();
}

struct RunResult
{
    uint64_t frame_hash;
    FrameStats stats;
    FrameWorkload workload;
};

RunResult
runPipeline(uint64_t seed, int threads = 1, bool reference_raster = false)
{
    SyntheticSceneParams params;
    params.seed = seed;
    params.count = 4000;
    params.name = "determinism";
    GaussianScene scene = generateScene(params);

    PipelineOptions opts;
    opts.threads = threads;
    opts.raster.reference_path = reference_raster;
    Renderer renderer(opts);
    Camera cam = frontCamera();

    RunResult out;
    out.frame_hash = hashImage(renderer.render(scene, cam, &out.stats));
    out.workload = renderer.extractWorkload(scene, cam);
    return out;
}

void
expectEqualRuns(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.frame_hash, b.frame_hash);
    EXPECT_EQ(a.stats.scene_gaussians, b.stats.scene_gaussians);
    EXPECT_EQ(a.stats.visible_gaussians, b.stats.visible_gaussians);
    EXPECT_EQ(a.stats.instances, b.stats.instances);
    EXPECT_EQ(a.stats.raster.gaussians_in, b.stats.raster.gaussians_in);
    EXPECT_EQ(a.stats.raster.intersection_tests,
              b.stats.raster.intersection_tests);
    EXPECT_EQ(a.stats.raster.gaussians_blended,
              b.stats.raster.gaussians_blended);
    EXPECT_EQ(a.stats.raster.blend_ops, b.stats.raster.blend_ops);
    EXPECT_EQ(a.stats.raster.pixels_terminated,
              b.stats.raster.pixels_terminated);
    EXPECT_EQ(a.workload.instances, b.workload.instances);
    EXPECT_EQ(a.workload.blend_ops, b.workload.blend_ops);
    EXPECT_EQ(a.workload.intersection_tests,
              b.workload.intersection_tests);
    EXPECT_EQ(a.workload.tile_lengths, b.workload.tile_lengths);
}

void
expectEqualSortStats(const SortCoreStats &a, const SortCoreStats &b)
{
    EXPECT_EQ(a.bsu.subchunks, b.bsu.subchunks);
    EXPECT_EQ(a.bsu.compare_exchanges, b.bsu.compare_exchanges);
    EXPECT_EQ(a.bsu.stages, b.bsu.stages);
    EXPECT_EQ(a.msu.merges, b.msu.merges);
    EXPECT_EQ(a.msu.elements_processed, b.msu.elements_processed);
    EXPECT_EQ(a.msu.compares, b.msu.compares);
    EXPECT_EQ(a.msu.filtered_invalid, b.msu.filtered_invalid);
    EXPECT_EQ(a.chunk_loads, b.chunk_loads);
    EXPECT_EQ(a.chunk_stores, b.chunk_stores);
    EXPECT_EQ(a.entries_read, b.entries_read);
    EXPECT_EQ(a.entries_written, b.entries_written);
    EXPECT_EQ(a.global_merge_passes, b.global_merge_passes);
}

TEST(Determinism, SameSeedBitIdenticalFrames)
{
    const RunResult a = runPipeline(42);
    const RunResult b = runPipeline(42);
    expectEqualRuns(a, b);
}

TEST(Determinism, ThreadCountDoesNotChangeAnyBit)
{
    // The determinism contract of common/parallel.h: the whole pipeline
    // (frame pixels, FrameWorkload, raster counters) is bit-identical for
    // threads in {1, 2, 8}, including 8 threads on fewer cores.
    const RunResult serial = runPipeline(42, 1);
    expectEqualRuns(serial, runPipeline(42, 2));
    expectEqualRuns(serial, runPipeline(42, 8));
}

TEST(Determinism, BlockedAndReferenceRasterizersInterchangeable)
{
    // The two blend implementations and the thread count can be varied
    // together without changing a bit: the serial blocked run is the
    // anchor, compared against the scalar reference at 1 and 8 threads.
    const RunResult blocked = runPipeline(42, 1, false);
    expectEqualRuns(blocked, runPipeline(42, 1, true));
    expectEqualRuns(blocked, runPipeline(42, 8, true));
}

void
expectEqualBinned(const BinnedFrame &a, const BinnedFrame &b)
{
    EXPECT_EQ(a.grid.tiles_x, b.grid.tiles_x);
    EXPECT_EQ(a.grid.tiles_y, b.grid.tiles_y);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.visible, b.visible);
    EXPECT_EQ(a.visible_count, b.visible_count);
    // Bit patterns, not float ==: the arrays must match bit for bit.
    auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
    const size_t n = a.visible.size();
    ASSERT_EQ(b.visible.size(), n);
    ASSERT_EQ(a.mean2d.size(), n);
    ASSERT_EQ(b.mean2d.size(), n);
    ASSERT_EQ(a.radius_px.size(), n);
    ASSERT_EQ(b.radius_px.size(), n);
    ASSERT_EQ(a.depth.size(), n);
    ASSERT_EQ(b.depth.size(), n);
    ASSERT_EQ(a.opacity.size(), n);
    ASSERT_EQ(b.opacity.size(), n);
    ASSERT_EQ(a.color.size(), n);
    ASSERT_EQ(b.color.size(), n);
    ASSERT_EQ(a.conic.size(), n);
    ASSERT_EQ(b.conic.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(a.mean2d[i].x), bits(b.mean2d[i].x)) << "id " << i;
        EXPECT_EQ(bits(a.mean2d[i].y), bits(b.mean2d[i].y)) << "id " << i;
        EXPECT_EQ(bits(a.radius_px[i]), bits(b.radius_px[i])) << "id " << i;
        EXPECT_EQ(bits(a.depth[i]), bits(b.depth[i])) << "id " << i;
        EXPECT_EQ(bits(a.opacity[i]), bits(b.opacity[i])) << "id " << i;
        for (const auto &[va, vb] : {std::pair{a.color[i], b.color[i]},
                                     std::pair{a.conic[i], b.conic[i]}}) {
            EXPECT_EQ(bits(va.x), bits(vb.x)) << "id " << i;
            EXPECT_EQ(bits(va.y), bits(vb.y)) << "id " << i;
            EXPECT_EQ(bits(va.z), bits(vb.z)) << "id " << i;
        }
    }
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (size_t t = 0; t < a.tiles.size(); ++t) {
        ASSERT_EQ(a.tiles[t].size(), b.tiles[t].size()) << "tile " << t;
        for (size_t i = 0; i < a.tiles[t].size(); ++i) {
            EXPECT_EQ(a.tiles[t][i].id, b.tiles[t][i].id);
            EXPECT_EQ(a.tiles[t][i].depth, b.tiles[t][i].depth);
            EXPECT_EQ(a.tiles[t][i].valid, b.tiles[t][i].valid);
        }
    }
}

TEST(Determinism, ParallelBinningScatterBitIdentical)
{
    // The per-chunk scatter with chunk-order concatenation must reproduce
    // the serial ascending-id pass exactly: every id's features and
    // visibility, and every tile list in ascending id order.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();
    for (int tile_px : {16, 64}) {
        const BinnedFrame serial = binFrame(scene, cam, tile_px, 1);
        for (int threads : {2, 8})
            expectEqualBinned(serial,
                              binFrame(scene, cam, tile_px, threads));
    }
}

TEST(Determinism, ParallelMsuMergeBitIdentical)
{
    // The MSU merge tree and the two-way update merge across threads:
    // identical entries AND identical hardware counters.
    auto table = test::randomTable(16384, 97);
    for (size_t i = 0; i < table.size(); i += 71)
        table[i].valid = false;

    auto serial = table;
    MsuStats serial_stats;
    msuMergeRuns(serial, 0, serial.size(), 1, &serial_stats, 1);

    auto incoming = test::randomTable(3000, 98);
    for (auto &e : incoming)
        e.id += 1 << 20;
    std::sort(incoming.begin(), incoming.end(), entryDepthLess);
    std::vector<TileEntry> serial_merged;
    MsuStats serial_update;
    msuUpdateTable(serial, incoming, serial_merged, &serial_update, 1);

    for (int threads : {2, 8}) {
        auto t = table;
        MsuStats stats;
        msuMergeRuns(t, 0, t.size(), 1, &stats, threads);
        ASSERT_EQ(serial.size(), t.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].id, t[i].id);
            EXPECT_EQ(serial[i].depth, t[i].depth);
            EXPECT_EQ(serial[i].valid, t[i].valid);
        }
        EXPECT_EQ(serial_stats.compares, stats.compares);
        EXPECT_EQ(serial_stats.merges, stats.merges);
        EXPECT_EQ(serial_stats.elements_processed,
                  stats.elements_processed);
        EXPECT_EQ(serial_stats.filtered_invalid, stats.filtered_invalid);

        std::vector<TileEntry> merged;
        MsuStats update;
        msuUpdateTable(t, incoming, merged, &update, threads);
        ASSERT_EQ(serial_merged.size(), merged.size());
        for (size_t i = 0; i < merged.size(); ++i)
            EXPECT_EQ(serial_merged[i].id, merged[i].id);
        EXPECT_EQ(serial_update.compares, update.compares);
        EXPECT_EQ(serial_update.filtered_invalid, update.filtered_invalid);
    }
}

TEST(Determinism, ParallelDeltaTrackerBitIdentical)
{
    // tile_retention is the Fig. 6 sample set: sequence order (tile-index
    // order) and every double must match the serial pass exactly.
    GaussianScene scene = test::tinySyntheticScene();
    std::vector<Camera> cams;
    for (int f = 0; f < 3; ++f) {
        Camera cam(test::smallRes(), deg2rad(50.0f));
        const float angle = 0.04f * f;
        cam.lookAt({6.0f * std::sin(angle), 0.5f, -6.0f * std::cos(angle)},
                   {0.0f, 0.0f, 0.0f});
        cams.push_back(cam);
    }

    auto run = [&](int threads) {
        DeltaTracker tracker;
        tracker.setThreads(threads);
        std::vector<FrameDelta> deltas;
        for (const Camera &cam : cams)
            deltas.push_back(tracker.observe(binFrame(scene, cam, 16, 1)));
        return deltas;
    };

    const auto serial = run(1);
    for (int threads : {2, 8}) {
        const auto parallel = run(threads);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t f = 0; f < serial.size(); ++f) {
            EXPECT_EQ(serial[f].incoming_total, parallel[f].incoming_total);
            EXPECT_EQ(serial[f].outgoing_total, parallel[f].outgoing_total);
            EXPECT_EQ(serial[f].tile_retention, parallel[f].tile_retention);
            EXPECT_EQ(serial[f].meanRetention(),
                      parallel[f].meanRetention());
        }
    }
}

TEST(Determinism, NeoRendererThreadInvariantAcrossFrames)
{
    // Reuse-and-update sorting carries per-tile tables across frames, so
    // drive several frames and require identical frame hashes, workloads
    // and sorting-hardware counters for threads in {1, 2, 8}.
    SyntheticSceneParams params;
    params.seed = 42;
    params.count = 4000;
    params.name = "determinism-neo";
    GaussianScene scene = generateScene(params);
    Camera cam = frontCamera();

    struct NeoRun
    {
        std::vector<uint64_t> frame_hashes;
        std::vector<SortCoreStats> sort_stats;
        std::vector<std::vector<double>> retention_seqs;
        FrameWorkload last_workload;
    };
    auto run = [&](int threads) {
        PipelineOptions opts = NeoRenderer::neoDefaultOptions();
        opts.threads = threads;
        NeoRenderer renderer(opts);
        NeoRun out;
        for (uint64_t f = 0; f < 4; ++f) {
            NeoFrameReport report;
            out.frame_hashes.push_back(
                hashImage(renderer.renderFrame(scene, cam, f, &report)));
            out.sort_stats.push_back(report.sort);
            out.retention_seqs.push_back(
                renderer.sorter().lastDelta().tile_retention);
        }
        NeoRenderer extract(opts);
        for (uint64_t f = 0; f < 4; ++f)
            out.last_workload = extract.extractWorkload(scene, cam, f);
        return out;
    };

    const NeoRun serial = run(1);
    for (int threads : {2, 8}) {
        const NeoRun parallel = run(threads);
        EXPECT_EQ(serial.frame_hashes, parallel.frame_hashes)
            << "threads=" << threads;
        EXPECT_EQ(serial.retention_seqs, parallel.retention_seqs)
            << "threads=" << threads;
        ASSERT_EQ(serial.sort_stats.size(), parallel.sort_stats.size());
        for (size_t f = 0; f < serial.sort_stats.size(); ++f)
            expectEqualSortStats(serial.sort_stats[f],
                                 parallel.sort_stats[f]);
        EXPECT_EQ(serial.last_workload.instances,
                  parallel.last_workload.instances);
        EXPECT_EQ(serial.last_workload.blend_ops,
                  parallel.last_workload.blend_ops);
        EXPECT_EQ(serial.last_workload.tile_lengths,
                  parallel.last_workload.tile_lengths);
        EXPECT_EQ(serial.last_workload.incoming_instances,
                  parallel.last_workload.incoming_instances);
        EXPECT_EQ(serial.last_workload.outgoing_instances,
                  parallel.last_workload.outgoing_instances);
        EXPECT_EQ(serial.last_workload.mean_tile_retention,
                  parallel.last_workload.mean_tile_retention);
    }
}

TEST(Determinism, SkewedFrameThreadInvariantUnderHeaviestFirstScheduling)
{
    // Heaviest-first scheduling hands tiles to whichever participant is
    // free, so the tile -> thread mapping changes run to run. On a frame
    // whose centre tile holds most of the entries that mapping is as
    // uneven as it gets; frame hashes and every counter must still be
    // independent of the thread count.
    Rng rng(2026);
    GaussianScene scene;
    scene.name = "skewed-centre";
    for (int i = 0; i < 3000; ++i) // dense cluster inside one tile
        scene.gaussians.push_back(makeGaussian(
            {0.39f + rng.uniform(-0.1f, 0.1f),
             0.39f + rng.uniform(-0.1f, 0.1f), rng.uniform(-0.3f, 0.3f)},
            rng.uniform(0.005f, 0.02f), rng.uniform(0.3f, 0.9f),
            {rng.uniform(0.1f, 1.0f), rng.uniform(0.1f, 1.0f),
             rng.uniform(0.1f, 1.0f)}));
    for (int i = 0; i < 600; ++i) // sparse background
        scene.gaussians.push_back(makeGaussian(
            {rng.uniform(-2.5f, 2.5f), rng.uniform(-1.8f, 1.8f),
             rng.uniform(-1.0f, 1.0f)},
            rng.uniform(0.03f, 0.12f), rng.uniform(0.3f, 0.9f),
            {rng.uniform(0.1f, 1.0f), rng.uniform(0.1f, 1.0f),
             rng.uniform(0.1f, 1.0f)}));
    recomputeBounds(scene);
    const Resolution res{512, 384, "skewed"};
    auto cameraAt = [&](uint64_t f) {
        Camera cam(res, deg2rad(50.0f));
        const float s = static_cast<float>(f);
        cam.lookAt({0.04f * s, -0.03f * s, -5.0f}, {0.0f, 0.0f, 0.0f});
        return cam;
    };

    struct SkewedRun
    {
        std::vector<uint64_t> hashes;
        std::vector<RasterStats> raster;
        std::vector<SortCoreStats> sort;
        std::vector<ReuseUpdateReport> reuse;
    };
    constexpr uint64_t kFrames = 9; // a cold start, then 8 reuse frames
    auto run = [&](int threads) {
        PipelineOptions opts = NeoRenderer::neoDefaultOptions();
        opts.threads = threads;
        NeoRenderer renderer(opts);
        SkewedRun out;
        Image image;
        for (uint64_t f = 0; f < kFrames; ++f) {
            NeoFrameReport report;
            renderer.renderFrameInto(image, scene, cameraAt(f), f, &report);
            out.hashes.push_back(hashImage(image));
            out.raster.push_back(report.frame.raster);
            out.sort.push_back(report.sort);
            out.reuse.push_back(report.reuse);
            if (f == 0) {
                // The premise: one tile carries most of the frame.
                size_t heaviest = 0;
                for (const auto &tile : renderer.lastBinnedFrame().tiles)
                    heaviest = std::max(heaviest, tile.size());
                EXPECT_GT(2 * heaviest, report.frame.instances)
                    << "the centre tile must hold most of the entries";
            }
        }
        return out;
    };

    const SkewedRun serial = run(1);
    for (uint64_t f = 1; f < kFrames; ++f) {
        EXPECT_FALSE(serial.reuse[f].cold_start);
        EXPECT_GT(serial.reuse[f].incoming, 0u) << "frame " << f;
    }
    for (int threads : {2, 3, 4, 8}) {
        const SkewedRun parallel = run(threads);
        EXPECT_EQ(serial.hashes, parallel.hashes) << "threads=" << threads;
        for (uint64_t f = 0; f < kFrames; ++f) {
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " frame=" << f);
            const RasterStats &a = serial.raster[f];
            const RasterStats &b = parallel.raster[f];
            EXPECT_EQ(a.gaussians_in, b.gaussians_in);
            EXPECT_EQ(a.intersection_tests, b.intersection_tests);
            EXPECT_EQ(a.gaussians_blended, b.gaussians_blended);
            EXPECT_EQ(a.blend_ops, b.blend_ops);
            EXPECT_EQ(a.pixels_terminated, b.pixels_terminated);
            expectEqualSortStats(serial.sort[f], parallel.sort[f]);
            const ReuseUpdateReport &x = serial.reuse[f];
            const ReuseUpdateReport &y = parallel.reuse[f];
            EXPECT_EQ(x.table_entries, y.table_entries);
            EXPECT_EQ(x.incoming, y.incoming);
            EXPECT_EQ(x.outgoing_marked, y.outgoing_marked);
            EXPECT_EQ(x.deleted, y.deleted);
            EXPECT_EQ(x.mean_retention, y.mean_retention);
            EXPECT_EQ(x.cold_start, y.cold_start);
        }
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    const RunResult a = runPipeline(42);
    const RunResult b = runPipeline(43);

    // A different seed must actually change the scene; otherwise the
    // bit-identical check above would be vacuous.
    EXPECT_NE(a.frame_hash, b.frame_hash);
}

} // namespace
} // namespace neo::test
