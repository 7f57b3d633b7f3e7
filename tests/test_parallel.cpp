/**
 * @file
 * Unit tests for the deterministic parallel execution layer: static chunk
 * boundaries, parallelFor edge cases (0 items, fewer items than threads),
 * weighted batching and heaviest-first scheduling, thread-count
 * resolution, and pool behaviour under oversubscription.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/parallel.h"

namespace neo::test
{
namespace
{

TEST(ParallelChunking, ZeroItemsYieldZeroChunks)
{
    EXPECT_EQ(parallelChunkCount(0, 1), 0u);
    EXPECT_EQ(parallelChunkCount(0, 8), 0u);
}

TEST(ParallelChunking, FewerItemsThanThreadsOneChunkPerItem)
{
    EXPECT_EQ(parallelChunkCount(3, 8), 3u);
    for (size_t c = 0; c < 3; ++c) {
        ParallelRange r = parallelChunkRange(3, 3, c);
        EXPECT_EQ(r.begin, c);
        EXPECT_EQ(r.end, c + 1);
    }
}

TEST(ParallelChunking, ChunksAreContiguousBalancedAndExhaustive)
{
    for (size_t n : {1u, 2u, 7u, 10u, 64u, 1000u, 1001u}) {
        for (int threads : {1, 2, 3, 7, 8, 16}) {
            const size_t chunks = parallelChunkCount(n, threads);
            ASSERT_GE(chunks, 1u);
            ASSERT_LE(chunks, n);
            size_t expect_begin = 0;
            size_t min_size = n, max_size = 0;
            for (size_t c = 0; c < chunks; ++c) {
                ParallelRange r = parallelChunkRange(n, chunks, c);
                EXPECT_EQ(r.begin, expect_begin)
                    << "n=" << n << " chunks=" << chunks << " c=" << c;
                EXPECT_GT(r.size(), 0u);
                min_size = std::min(min_size, r.size());
                max_size = std::max(max_size, r.size());
                expect_begin = r.end;
            }
            EXPECT_EQ(expect_begin, n);
            EXPECT_LE(max_size - min_size, 1u)
                << "static chunks must be balanced";
        }
    }
}

TEST(ParallelChunking, OutOfRangeChunkIsEmpty)
{
    EXPECT_EQ(parallelChunkRange(10, 4, 4).size(), 0u);
    EXPECT_EQ(parallelChunkRange(10, 0, 0).size(), 0u);
}

TEST(ParallelFor, ZeroItemsNeverInvokesBody)
{
    int calls = 0;
    parallelFor(0, 8, [&](size_t, size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SerialFallbackIsSingleInlineChunk)
{
    std::vector<size_t> chunk_of(5, 99);
    parallelFor(5, 1, [&](size_t begin, size_t end, size_t chunk) {
        for (size_t i = begin; i < end; ++i)
            chunk_of[i] = chunk;
    });
    for (size_t c : chunk_of)
        EXPECT_EQ(c, 0u);
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce)
{
    const size_t n = 1000;
    for (int threads : {2, 3, 8, 16}) {
        std::vector<std::atomic<int>> visits(n);
        parallelFor(n, threads, [&](size_t begin, size_t end, size_t) {
            for (size_t i = begin; i < end; ++i)
                visits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, FewerItemsThanThreadsStillCoversAll)
{
    std::vector<std::atomic<int>> visits(3);
    parallelFor(3, 16, [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i)
            visits[i].fetch_add(1);
    });
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PerChunkAccumulatorsMergeToSerialResult)
{
    const size_t n = 4096;
    std::vector<uint64_t> values(n);
    std::iota(values.begin(), values.end(), 1);
    const uint64_t serial =
        std::accumulate(values.begin(), values.end(), uint64_t{0});

    const int threads = 8;
    const size_t chunks = parallelChunkCount(n, threads);
    std::vector<uint64_t> partial(chunks, 0);
    parallelFor(n, threads, [&](size_t begin, size_t end, size_t chunk) {
        for (size_t i = begin; i < end; ++i)
            partial[chunk] += values[i];
    });
    uint64_t merged = 0;
    for (uint64_t p : partial)
        merged += p;
    EXPECT_EQ(merged, serial);
}

TEST(ParallelFor, NestedCallRunsInline)
{
    // A body that itself calls parallelFor must not deadlock the pool;
    // the inner loop degrades to inline execution.
    std::vector<std::atomic<int>> visits(64);
    parallelFor(8, 4, [&](size_t begin, size_t end, size_t) {
        for (size_t outer = begin; outer < end; ++outer) {
            parallelFor(8, 4, [&](size_t b, size_t e, size_t) {
                for (size_t inner = b; inner < e; ++inner)
                    visits[outer * 8 + inner].fetch_add(1);
            });
        }
    });
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForEach, VisitsEachIndexOnce)
{
    std::vector<std::atomic<int>> visits(100);
    parallelForEach(100, 8, [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(visits[i].load(), 1);
}

TEST(ResolveThreadCount, ExplicitRequestWinsAndIsCapped)
{
    EXPECT_EQ(resolveThreadCount(4), 4);
    EXPECT_EQ(resolveThreadCount(1), 1);
    EXPECT_EQ(resolveThreadCount(kMaxThreads + 50), kMaxThreads);
}

TEST(ResolveThreadCount, NegativeMeansHardware)
{
    EXPECT_EQ(resolveThreadCount(-1), hardwareThreadCount());
    EXPECT_GE(hardwareThreadCount(), 1);
}

TEST(ResolveThreadCount, ZeroDefersToEnvironment)
{
    // Guard the process-global env var; tests in this binary run serially.
    const char *saved = std::getenv("NEO_THREADS");
    std::string saved_copy = saved ? saved : "";

    unsetenv("NEO_THREADS");
    EXPECT_EQ(resolveThreadCount(0), 1);

    setenv("NEO_THREADS", "3", 1);
    EXPECT_EQ(resolveThreadCount(0), 3);

    setenv("NEO_THREADS", "auto", 1);
    EXPECT_EQ(resolveThreadCount(0), hardwareThreadCount());

    setenv("NEO_THREADS", "garbage", 1);
    EXPECT_EQ(resolveThreadCount(0), 1);

    if (saved)
        setenv("NEO_THREADS", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREADS");
}

TEST(ResolveThreadCount, PartiallyNumericEnvFallsBackToOneThread)
{
    // Regression: atoi-style parsing accepted "4garbage" as 4 threads.
    // Full-string consumption must reject trailing junk (warn-once) and
    // run serial rather than silently honouring the numeric prefix.
    const char *saved = std::getenv("NEO_THREADS");
    const std::string saved_copy = saved ? saved : "";

    setenv("NEO_THREADS", "4garbage", 1);
    EXPECT_EQ(resolveThreadCount(0), 1);
    setenv("NEO_THREADS", "2.5", 1);
    EXPECT_EQ(resolveThreadCount(0), 1);
    setenv("NEO_THREADS", "-3", 1);
    EXPECT_EQ(resolveThreadCount(0), 1);
    setenv("NEO_THREADS", " 4", 1);
    EXPECT_EQ(resolveThreadCount(0), 4); // strtol skips leading space
    setenv("NEO_THREADS", "4 ", 1);
    EXPECT_EQ(resolveThreadCount(0), 1); // trailing space is junk

    if (saved)
        setenv("NEO_THREADS", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREADS");
}

TEST(ParallelForAccumulate, ChunkOrderMergeMatchesSerial)
{
    const size_t n = 777;
    std::vector<uint64_t> values(n);
    std::iota(values.begin(), values.end(), 1);
    const uint64_t serial =
        std::accumulate(values.begin(), values.end(), uint64_t{0});

    auto partial = parallelForAccumulate<uint64_t>(
        n, 8, [&](size_t begin, size_t end, uint64_t &acc) {
            for (size_t i = begin; i < end; ++i)
                acc += values[i];
        });
    EXPECT_EQ(partial.size(), parallelChunkCount(n, 8));
    uint64_t merged = 0;
    for (uint64_t p : partial)
        merged += p;
    EXPECT_EQ(merged, serial);

    // Zero items: no accumulators, body never runs.
    auto empty = parallelForAccumulate<uint64_t>(
        0, 8, [&](size_t, size_t, uint64_t &) { FAIL(); });
    EXPECT_TRUE(empty.empty());
}

TEST(ThreadPool, ConcurrentDispatchersSerializeSafely)
{
    // Two application threads each drive their own parallel loops against
    // the shared pool; jobs must not corrupt each other.
    std::atomic<uint64_t> total{0};
    auto worker = [&] {
        for (int round = 0; round < 20; ++round) {
            auto partial = parallelForAccumulate<uint64_t>(
                64, 4, [&](size_t begin, size_t end, uint64_t &acc) {
                    for (size_t i = begin; i < end; ++i)
                        acc += i;
                });
            uint64_t sum = 0;
            for (uint64_t p : partial)
                sum += p;
            total.fetch_add(sum);
        }
    };
    std::thread a(worker), b(worker);
    a.join();
    b.join();
    // Each loop sums 0..63 = 2016; 2 threads x 20 rounds.
    EXPECT_EQ(total.load(), 2016u * 40u);
}

TEST(ThreadPool, RepeatedJobsReuseWorkers)
{
    // Dispatch many small jobs back to back; worker count must stay
    // bounded by the largest request, not grow per job.
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        parallelForEach(16, 4, [&](size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        EXPECT_EQ(sum.load(), 120);
    }
    EXPECT_LE(ThreadPool::shared().workerCount(), kMaxThreads - 1);
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller)
{
    EXPECT_THROW(
        parallelForEach(8, 4,
                        [&](size_t i) {
                            if (i == 5)
                                throw std::runtime_error("boom");
                        }),
        std::runtime_error);

    // The pool must stay usable afterwards.
    std::atomic<int> visits{0};
    parallelForEach(8, 4, [&](size_t) { visits.fetch_add(1); });
    EXPECT_EQ(visits.load(), 8);
}

// --- Opt-in worker CPU affinity -----------------------------------------

TEST(ThreadAffinity, ParseRecognizesModes)
{
    EXPECT_EQ(parseThreadAffinity("compact"), ThreadAffinity::Compact);
    EXPECT_EQ(parseThreadAffinity("scatter"), ThreadAffinity::Scatter);
    EXPECT_EQ(parseThreadAffinity(""), ThreadAffinity::None);
    EXPECT_EQ(parseThreadAffinity("garbage"), ThreadAffinity::None);
    EXPECT_EQ(parseThreadAffinity(nullptr), ThreadAffinity::None);
}

TEST(ThreadAffinity, UnrecognizedEnvValueRunsUnpinned)
{
    // Regression: a typo like "compat" must degrade to None (with a
    // once-only diagnostic), never crash or pin arbitrarily.
    const char *saved = std::getenv("NEO_THREAD_AFFINITY");
    const std::string saved_copy = saved ? saved : "";

    setenv("NEO_THREAD_AFFINITY", "compat", 1);
    EXPECT_EQ(threadAffinityMode(), ThreadAffinity::None);
    setenv("NEO_THREAD_AFFINITY", "none", 1);
    EXPECT_EQ(threadAffinityMode(), ThreadAffinity::None);
    setenv("NEO_THREAD_AFFINITY", "scatter", 1);
    EXPECT_EQ(threadAffinityMode(), ThreadAffinity::Scatter);

    if (saved)
        setenv("NEO_THREAD_AFFINITY", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREAD_AFFINITY");
}

TEST(ThreadAffinity, MalformedEnvWarnsOnceThroughSharedRegistry)
{
    // Regression for the common/env migration: the affinity knob now
    // parses via envChoice, so its one-shot diagnostic lives in the
    // shared warn-once registry and env::resetWarnings() re-arms it.
    const char *saved = std::getenv("NEO_THREAD_AFFINITY");
    const std::string saved_copy = saved ? saved : "";

    env::resetWarnings();
    setenv("NEO_THREAD_AFFINITY", "compat", 1);
    EXPECT_EQ(threadAffinityMode(), ThreadAffinity::None);
    // The first resolution consumed the knob's single warning slot...
    EXPECT_FALSE(env::shouldWarnOnce("NEO_THREAD_AFFINITY"));
    // ...and later resolutions still fall back, now silently.
    EXPECT_EQ(threadAffinityMode(), ThreadAffinity::None);

    env::resetWarnings();
    EXPECT_TRUE(env::shouldWarnOnce("NEO_THREAD_AFFINITY"))
        << "resetWarnings must re-arm the diagnostic";

    if (saved)
        setenv("NEO_THREAD_AFFINITY", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREAD_AFFINITY");
    env::resetWarnings();
}

TEST(ResolveThreadCount, MalformedEnvWarnsOnceThroughSharedRegistry)
{
    // NEO_THREADS keeps its hand-rolled parse (the "auto" special case)
    // but its diagnostic moved into the same registry.
    const char *saved = std::getenv("NEO_THREADS");
    const std::string saved_copy = saved ? saved : "";

    env::resetWarnings();
    setenv("NEO_THREADS", "garbage", 1);
    EXPECT_EQ(resolveThreadCount(0), 1);
    EXPECT_FALSE(env::shouldWarnOnce("NEO_THREADS"));
    EXPECT_EQ(resolveThreadCount(0), 1);

    if (saved)
        setenv("NEO_THREADS", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREADS");
    env::resetWarnings();
}

TEST(ThreadAffinity, CompactMapsConsecutiveCpusSkippingSlotZero)
{
    // Worker w lands on cpu (w + 1) % cpus: consecutive cores, cpu 0
    // left to the dispatching thread until the range wraps.
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 0, 8), 1);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 1, 8), 2);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 6, 8), 7);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 7, 8), 0);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 0, 2), 1);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Compact, 1, 2), 0);
}

TEST(ThreadAffinity, ScatterAlternatesIndexRangeHalves)
{
    // Odd slots take the upper half, even slots the lower half, each
    // walked in order — alternating sockets on the common two-socket
    // cpu enumeration.
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Scatter, 0, 8), 4);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Scatter, 1, 8), 1);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Scatter, 2, 8), 5);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Scatter, 3, 8), 2);
    EXPECT_EQ(affinityCpuForWorker(ThreadAffinity::Scatter, 4, 8), 6);

    // Odd cpu counts: each half wraps within itself, so the first
    // (cpus - 1) workers land on distinct cpus — no worker pair shares
    // a core while another core sits idle.
    std::vector<int> seen;
    for (int w = 0; w < 6; ++w)
        seen.push_back(
            affinityCpuForWorker(ThreadAffinity::Scatter, w, 7));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(ThreadAffinity, SingleCpuAlwaysZero)
{
    for (auto mode : {ThreadAffinity::None, ThreadAffinity::Compact,
                      ThreadAffinity::Scatter})
        for (int w : {0, 1, 5})
            EXPECT_EQ(affinityCpuForWorker(mode, w, 1), 0);
}

// --- fused weighted batching (buildWeightedBatchesInto) ---

BatchPlan
batchesFor(const std::vector<size_t> &weights, size_t grain)
{
    BatchPlan out;
    buildWeightedBatchesInto(out, weights.size(), grain,
                             [&](size_t i) { return weights[i]; });
    return out;
}

/** Every batching must partition [0, n) into contiguous non-empty runs
    whose weights sum their items'. */
void
expectPartition(const BatchPlan &plan, size_t n,
                const std::vector<size_t> *weights = nullptr)
{
    size_t cursor = 0;
    for (const WeightedBatch &b : plan.batches) {
        EXPECT_EQ(b.begin, cursor);
        EXPECT_GT(b.end, b.begin);
        if (weights) {
            EXPECT_EQ(b.weight,
                      std::accumulate(weights->begin() + b.begin,
                                      weights->begin() + b.end,
                                      size_t{0}));
        }
        cursor = b.end;
    }
    EXPECT_EQ(cursor, n);
    EXPECT_EQ(plan.claim_order.size(), plan.size());
}

TEST(WeightedBatches, EmptyInputYieldsNoBatches)
{
    EXPECT_EQ(batchesFor({}, 256).size(), 0u);
}

TEST(WeightedBatches, TinyItemsFuseUpToGrain)
{
    // 100 items of weight 1, grain 10 -> exactly 10 batches of 10.
    auto batches = batchesFor(std::vector<size_t>(100, 1), 10);
    expectPartition(batches, 100);
    ASSERT_EQ(batches.size(), 10u);
    for (const WeightedBatch &b : batches.batches) {
        EXPECT_EQ(b.size(), 10u);
        EXPECT_EQ(b.weight, 10u);
    }
}

TEST(WeightedBatches, HeavyItemIsItsOwnBatch)
{
    // A grain-clearing item must not drag neighbors into its batch.
    auto batches = batchesFor({1, 1, 500, 1, 1}, 10);
    expectPartition(batches, 5);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches.batches[1].begin, 2u);
    EXPECT_EQ(batches.batches[1].end, 3u);
    EXPECT_EQ(batches.claim_order.front(), 1u);
}

TEST(WeightedBatches, ZeroWeightItemsJoinTheCurrentBatch)
{
    // All-zero weights (a frame of empty tiles) collapse to one batch.
    auto batches = batchesFor(std::vector<size_t>(50, 0), 256);
    expectPartition(batches, 50);
    EXPECT_EQ(batches.size(), 1u);
}

TEST(WeightedBatches, PartitionHoldsForMixedWeights)
{
    std::vector<size_t> weights;
    for (size_t i = 0; i < 400; ++i)
        weights.push_back(i % 7 == 0 ? 300 : i % 7);
    for (size_t grain : {size_t{1}, size_t{64}, size_t{256},
                         size_t{1u << 20}}) {
        auto batches = batchesFor(weights, grain);
        expectPartition(batches, weights.size(), &weights);
    }
}

TEST(WeightedBatches, BatchBoundariesIgnoreThreadCount)
{
    // Determinism hinges on batches being a pure function of
    // (n, grain, weights); parallelForBatched must visit every item of
    // every batch exactly once at any thread count.
    std::vector<size_t> weights;
    for (size_t i = 0; i < 300; ++i)
        weights.push_back(1 + i % 9);
    auto batches = batchesFor(weights, 64);
    expectPartition(batches, weights.size(), &weights);

    for (int threads : {1, 2, 8}) {
        std::vector<int> visits(weights.size(), 0);
        parallelForBatched(batches, threads,
                           [&](size_t begin, size_t end, size_t chunk) {
                               EXPECT_LT(chunk,
                                         parallelChunkCount(batches.size(),
                                                            threads));
                               for (size_t i = begin; i < end; ++i)
                                   ++visits[i];
                           });
        for (size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i], 1) << "threads " << threads << " item "
                                    << i;
    }
}

// --- heaviest-first scheduling (parallelForBatched) ---

/** A skewed frame: a few heavy "centre" items among many light ones. */
std::vector<size_t>
skewedWeights()
{
    std::vector<size_t> w(60);
    for (size_t i = 0; i < w.size(); ++i)
        w[i] = 5 + (i * 37) % 50;
    w[27] = 4000;
    w[28] = 3500;
    w[33] = 4000;
    w[34] = 1200;
    return w;
}

TEST(HeaviestFirstScheduling, ClaimOrderIsAPureFunctionOfTheWeights)
{
    // Grain 1: every item is its own batch, so the order is directly
    // checkable — heaviest first, ties by the lower index.
    const BatchPlan plan = batchesFor({5, 9, 5, 1, 9, 7}, 1);
    EXPECT_EQ(plan.claim_order, (std::vector<size_t>{1, 4, 5, 0, 2, 3}));

    // Fused batches: the order equals a stable sort of the batch indices
    // by descending weight, and rebuilding from the same weights into a
    // used plan reproduces it.
    const std::vector<size_t> weights = skewedWeights();
    BatchPlan a = batchesFor(weights, 64);
    std::vector<size_t> expect(a.size());
    std::iota(expect.begin(), expect.end(), size_t{0});
    std::stable_sort(expect.begin(), expect.end(),
                     [&](size_t x, size_t y) {
                         return a.batches[x].weight > a.batches[y].weight;
                     });
    EXPECT_EQ(a.claim_order, expect);
    BatchPlan b = batchesFor({1, 2, 3}, 1);
    buildWeightedBatchesInto(b, weights.size(), 64,
                             [&](size_t i) { return weights[i]; });
    EXPECT_EQ(b.claim_order, a.claim_order);
}

TEST(HeaviestFirstScheduling, EveryBatchRunsExactlyOnce)
{
    const std::vector<size_t> weights = skewedWeights();
    const BatchPlan plan = batchesFor(weights, 64);
    for (int threads : {1, 2, 3, 4, 8}) {
        std::vector<std::atomic<int>> runs(plan.size());
        std::vector<std::atomic<int>> visits(weights.size());
        parallelForBatched(plan, threads,
                           [&](size_t begin, size_t end, size_t) {
                               for (size_t b = 0; b < plan.size(); ++b)
                                   if (plan.batches[b].begin == begin) {
                                       EXPECT_EQ(plan.batches[b].end, end);
                                       runs[b].fetch_add(1);
                                   }
                               for (size_t i = begin; i < end; ++i)
                                   visits[i].fetch_add(1);
                           });
        for (size_t b = 0; b < runs.size(); ++b)
            EXPECT_EQ(runs[b].load(), 1)
                << "threads " << threads << " batch " << b;
        for (size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "threads " << threads << " item " << i;
    }
}

TEST(HeaviestFirstScheduling, AtMostThreadsChunkIndicesEvenOnAGrownPool)
{
    // A threads=8 job grows the shared pool to 7 workers; later jobs at
    // fewer threads must still run under at most `threads` chunk
    // indices, each below parallelChunkCount — the per-chunk scratch
    // sizing contract.
    const BatchPlan plan = batchesFor(std::vector<size_t>(64, 10), 1);
    for (int threads : {8, 2, 3, 4, 8, 1}) {
        const size_t participants =
            parallelChunkCount(plan.size(), threads);
        std::vector<std::atomic<int>> used(plan.size());
        parallelForBatched(plan, threads,
                           [&](size_t begin, size_t, size_t chunk) {
                               ASSERT_LT(chunk, participants);
                               used[chunk].fetch_add(1);
                               // Give every participant a chance to join.
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(20 + begin));
                           });
        size_t distinct = 0;
        for (const std::atomic<int> &u : used)
            distinct += u.load() > 0 ? 1 : 0;
        EXPECT_GE(distinct, 1u);
        EXPECT_LE(distinct, static_cast<size_t>(threads))
            << "threads " << threads;
        if (threads == 8) {
            EXPECT_GE(ThreadPool::shared().workerCount(), 7);
        }
    }
}

TEST(HeaviestFirstScheduling, NestedCallRunsInline)
{
    const BatchPlan outer = batchesFor(skewedWeights(), 64);
    const BatchPlan inner = batchesFor(std::vector<size_t>(16, 3), 4);
    const size_t n_outer = skewedWeights().size();
    std::vector<std::atomic<int>> visits(n_outer * 16);
    parallelForBatched(outer, 4, [&](size_t begin, size_t end, size_t) {
        for (size_t o = begin; o < end; ++o)
            parallelForBatched(inner, 4,
                               [&](size_t b, size_t e, size_t chunk) {
                                   EXPECT_EQ(chunk, 0u);
                                   EXPECT_TRUE(
                                       ThreadPool::insideParallelRegion());
                                   for (size_t i = b; i < e; ++i)
                                       visits[o * 16 + i].fetch_add(1);
                               });
    });
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(HeaviestFirstScheduling, ExceptionIsRethrownAfterTheJoin)
{
    const std::vector<size_t> weights = skewedWeights();
    const BatchPlan plan = batchesFor(weights, 1);
    const size_t bad = 33;
    std::vector<std::atomic<int>> visits(weights.size());
    EXPECT_THROW(parallelForBatched(plan, 4,
                                    [&](size_t begin, size_t end, size_t) {
                                        for (size_t i = begin; i < end; ++i)
                                            if (i == bad)
                                                throw std::runtime_error(
                                                    "boom");
                                        for (size_t i = begin; i < end; ++i)
                                            visits[i].fetch_add(1);
                                    }),
                 std::runtime_error);
    // Only the throwing batch is lost: the other participants keep
    // claiming until the cursor runs out.
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), i == bad ? 0 : 1) << "item " << i;

    // The pool stays usable.
    std::atomic<int> after{0};
    parallelForBatched(plan, 4, [&](size_t begin, size_t end, size_t) {
        after.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(after.load(), static_cast<int>(weights.size()));
}

TEST(HeaviestFirstScheduling, SingleThreadRunsInlineInIndexOrder)
{
    const BatchPlan plan = batchesFor(skewedWeights(), 64);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> begins;
    parallelForBatched(plan, 1, [&](size_t begin, size_t, size_t chunk) {
        EXPECT_EQ(chunk, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_FALSE(ThreadPool::insideParallelRegion());
        begins.push_back(begin);
    });
    ASSERT_EQ(begins.size(), plan.size());
    for (size_t b = 0; b < plan.size(); ++b)
        EXPECT_EQ(begins[b], plan.batches[b].begin);
}

TEST(ThreadAffinity, PinnedPoolStillComputesCorrectly)
{
    // Smoke test: with NEO_THREAD_AFFINITY set, a fresh pool spawns
    // pinned workers (sampled at spawn time) and the deterministic
    // chunking contract is untouched. Results must be identical either
    // way — pinning is scheduling-only.
    const char *saved = std::getenv("NEO_THREAD_AFFINITY");
    const std::string saved_copy = saved ? saved : "";
    for (const char *mode : {"compact", "scatter"}) {
        setenv("NEO_THREAD_AFFINITY", mode, 1);
        ThreadPool pool;
        std::vector<int> hits(16, 0);
        pool.run(hits.size(), [&](size_t chunk) { hits[chunk] = 1; });
        EXPECT_GT(pool.workerCount(), 0) << mode;
        for (size_t c = 0; c < hits.size(); ++c)
            EXPECT_EQ(hits[c], 1) << mode << " chunk " << c;
    }
    if (saved)
        setenv("NEO_THREAD_AFFINITY", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_THREAD_AFFINITY");
}

} // namespace
} // namespace neo::test
