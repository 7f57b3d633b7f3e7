/**
 * @file
 * Scratch-reuse helpers and steady-state allocation tests. Two
 * guarantees:
 *
 *  1. No capacity regrowth: once warm, the buffers retained by the
 *     steady-state frame loop (binned frame, scatter/raster scratch)
 *     never grow again when the workload is stable.
 *  2. Zero per-frame heap allocations on the binning/raster path and on
 *     the served NeoRenderer reuse loop, verified by counting every
 *     operator new call during the warm frames — at threads == 1
 *     (serial inline path) and at threads 2 and 4 (pooled path: the
 *     preallocated job slot and fn-pointer dispatch of ThreadPool::run
 *     make parallel sections allocation-free too, and the high-water
 *     pass keeps per-participant scratch from regrowing whichever tiles
 *     a participant claims).
 *
 * This translation unit overrides the global allocation functions to
 * count calls; the override is per-executable, so it cannot leak into
 * other tests.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/frame_arena.h"
#include "common/image.h"
#include "core/neo_renderer.h"
#include "gs/pipeline.h"
#include "test_util.h"

namespace
{

std::atomic<uint64_t> g_news{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The replacement operator new above allocates with std::malloc, so the
// std::free in these deletes is the matching deallocator; GCC's
// -Wmismatched-new-delete cannot see through the override once
// sanitizer instrumentation (-fsanitize=thread) changes its inlining
// view, and flags the pairing as mismatched.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace neo
{
namespace
{

TEST(FrameArenaTest, ClearNestedKeepsInnerCapacity)
{
    std::vector<std::vector<int>> vv;
    clearNested(vv, 4);
    vv[2].assign(500, 1);
    const size_t cap = vv[2].capacity();
    const int *data = vv[2].data();
    clearNested(vv, 4);
    EXPECT_TRUE(vv[2].empty());
    EXPECT_EQ(vv[2].capacity(), cap);
    EXPECT_EQ(vv[2].data(), data);
}

TEST(FrameArenaTest, GrowToHighWaterSharesTheLargestCapacity)
{
    struct Scratch
    {
        std::vector<int> a;
        std::vector<double> b;
    };
    std::vector<Scratch> s(3);
    s[0].a.reserve(10);
    s[1].a.reserve(40);
    s[1].b.reserve(5);
    s[2].b.reserve(70);
    auto buffers = [](Scratch &x) { return std::tie(x.a, x.b); };
    growToHighWater(s, buffers);
    for (const Scratch &x : s) {
        EXPECT_EQ(x.a.capacity(), 40u);
        EXPECT_EQ(x.b.capacity(), 70u);
    }
    EXPECT_EQ(buffersCapacityBytes(buffers(s[2])),
              40 * sizeof(int) + 70 * sizeof(double));

    // Once every participant holds the high-water mark, the pass is
    // allocation-free.
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    growToHighWater(s, buffers);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed), before);
}

TEST(ArenaReuseTest, NoCapacityRegrowthAcrossTenFrames)
{
    // A static viewpoint makes every frame's working set identical, so
    // after the warm-up frames the retained capacity must never move —
    // with or without the serving layer's stage-timing sink, and at any
    // thread count: which participant rasterizes which tile depends on
    // timing, so only the high-water pass keeps this stable.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();
    for (int threads : {1, 2, 4}) {
        for (bool timed : {false, true}) {
            PipelineOptions opts = NeoRenderer::neoDefaultOptions();
            opts.threads = threads;
            NeoRenderer renderer(opts);
            Image image;
            StageTimings stages;
            StageTimings *sink = timed ? &stages : nullptr;
            renderer.renderFrameInto(image, scene, cam, 0, nullptr, sink);
            renderer.renderFrameInto(image, scene, cam, 1, nullptr, sink);
            const size_t warm = renderer.retainedScratchBytes();
            EXPECT_GT(warm, 0u);
            for (uint64_t f = 2; f < 10; ++f) {
                renderer.renderFrameInto(image, scene, cam, f, nullptr,
                                         sink);
                EXPECT_EQ(renderer.retainedScratchBytes(), warm)
                    << "threads=" << threads << " timed=" << timed
                    << " frame=" << f;
            }
        }
    }
}

TEST(ArenaReuseTest, SteadyStateBinRasterPathIsAllocationFree)
{
    // The acceptance bar of the allocation-free frame loop: a warm
    // prepareInto + renderInto loop must perform zero heap allocations —
    // serially (threads == 1) and through the pool (threads >= 2), whose
    // dispatch path reuses a preallocated job slot instead of allocating
    // a job record + std::function per parallel section.
    GaussianScene scene = test::tinySyntheticScene();
    Camera cam = test::frontCamera();
    for (int threads : {1, 2, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        Renderer renderer(opts);
        BinnedFrame frame;
        BatchSortScratch sort_scratch;
        RasterState raster;
        Image image;
        const std::vector<std::vector<TileEntry>> no_orderings;

        auto renderOnce = [&] {
            renderer.prepareInto(frame, sort_scratch, scene, cam);
            renderer.renderInto(image, frame, no_orderings, nullptr,
                                &raster);
        };

        // Warm-up: spawn pool workers, grow every reused buffer.
        renderOnce();
        renderOnce();
        const uint64_t warm = g_news.load(std::memory_order_relaxed);
        for (int f = 0; f < 8; ++f)
            renderOnce();
        const uint64_t after = g_news.load(std::memory_order_relaxed);
        EXPECT_EQ(after - warm, 0u)
            << "threads=" << threads << ": steady-state frames allocated "
            << (after - warm) << " times";
    }

    // The served frame loop: NeoRenderer reuse frames (binning, delta
    // tracker, reuse-and-update sort, deferred depth update, raster),
    // with the serving layer's report and stage-timing sink.
    for (int threads : {1, 2, 4}) {
        PipelineOptions opts = NeoRenderer::neoDefaultOptions();
        opts.threads = threads;
        NeoRenderer renderer(opts);
        Image image;
        NeoFrameReport report;
        StageTimings stages;
        uint64_t f = 0;
        auto renderOnce = [&] {
            renderer.renderFrameInto(image, scene, cam, f++, &report,
                                     &stages);
        };

        renderOnce(); // cold start
        renderOnce();
        renderOnce();
        const uint64_t warm = g_news.load(std::memory_order_relaxed);
        for (int i = 0; i < 8; ++i)
            renderOnce();
        const uint64_t after = g_news.load(std::memory_order_relaxed);
        EXPECT_FALSE(report.reuse.cold_start);
        EXPECT_EQ(after - warm, 0u)
            << "NeoRenderer threads=" << threads
            << ": steady-state reuse frames allocated " << (after - warm)
            << " times";
    }
}

} // namespace
} // namespace neo
