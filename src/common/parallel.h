/**
 * @file
 * Deterministic tile-parallel execution layer: a small persistent thread
 * pool, parallelFor with *static* chunking for loops of uniform per-item
 * cost, and parallelForBatched with *heaviest-first self-scheduling* for
 * the per-tile stages, whose cost is skewed (a few centre tiles can carry
 * half of a frame's raster work).
 *
 * Determinism contract (guarded by tests/test_determinism.cpp): for any
 * thread count, every parallel section of the pipeline produces bit-exact
 * the same results as the serial path, because
 *  - parallelFor splits the iteration space into at most `threads`
 *    contiguous chunks whose boundaries depend only on (n, threads);
 *    parallelForBatched's batches and claim order depend only on the
 *    item weights. Which thread runs which chunk or batch is decided at
 *    run time and is *not* deterministic;
 *  - bodies write disjoint outputs (tiles own disjoint pixel rectangles
 *    and tables, per-Gaussian slots are index-addressed);
 *  - accumulators are kept per chunk and merged after the join. Under
 *    parallelFor a chunk always covers the same items, so any merge in
 *    fixed chunk order is deterministic; under parallelForBatched a
 *    chunk covers whichever batches it claimed, so its accumulators
 *    must merge order-independently (integer sums).
 * With threads == 1 the body runs inline on the caller thread and the pool
 * is never touched, reproducing the historical serial path bit for bit.
 *
 * Thread count resolution: an explicit positive request wins; a request of
 * 0 defers to the NEO_THREADS environment variable ("auto" or a positive
 * integer); otherwise the pipeline stays serial. A negative request asks
 * for one thread per hardware core.
 */

#ifndef NEO_COMMON_PARALLEL_H
#define NEO_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace neo
{

/** Upper bound on worker threads (sanity cap for bad NEO_THREADS values). */
constexpr int kMaxThreads = 256;

/** Number of hardware threads, at least 1. */
int hardwareThreadCount();

/**
 * Resolve a requested thread count to an effective one in [1, kMaxThreads]:
 * requested > 0 uses it verbatim (capped); requested == 0 consults
 * NEO_THREADS (positive integer, or "auto"/"0" for all hardware threads)
 * and defaults to 1; requested < 0 uses all hardware threads.
 */
int resolveThreadCount(int requested);

/** Half-open index range owned by one chunk of a parallel loop. */
struct ParallelRange
{
    size_t begin = 0;
    size_t end = 0;

    size_t size() const { return end - begin; }
};

/**
 * Number of chunks parallelFor uses for @p n items on @p threads threads:
 * min(n, max(1, threads)). Callers sizing per-chunk accumulators must use
 * this exact function so accumulator indices match body chunk indices.
 */
size_t parallelChunkCount(size_t n, int threads);

/**
 * Boundaries of chunk @p chunk of @p n items split into @p chunks
 * contiguous chunks whose sizes differ by at most one (the first
 * n % chunks chunks get the extra item). Pure function of its arguments.
 */
ParallelRange parallelChunkRange(size_t n, size_t chunks, size_t chunk);

/**
 * Persistent worker pool. One process-wide instance is shared by all
 * renderers (ThreadPool::shared()); workers are spawned lazily on first
 * use and park on a condition variable between jobs, so an idle pool
 * costs nothing and threads == 1 never creates any.
 *
 * Dispatch is heap-allocation-free: the one-at-a-time job lives in a
 * preallocated slot inside the pool (no per-run job record), and the
 * chunk body is passed as a function pointer plus context pointer (no
 * std::function), so the steady-state frame loop performs zero
 * allocations per parallel section at any thread count (guarded by
 * tests/test_frame_arena.cpp).
 */
class ThreadPool
{
  public:
    /** Chunk body: fn(ctx, chunk). */
    using JobFn = void (*)(void *ctx, size_t chunk);

    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers currently spawned (excludes the calling thread). */
    int workerCount() const;

    /**
     * Execute fn(ctx, chunk) for every chunk in [0, chunks) and block
     * until all complete. The caller participates as a worker. Chunk
     * assignment is dynamic (work claiming), which is safe because chunk
     * bodies only touch chunk-indexed state. The first exception thrown
     * by any chunk is rethrown here after the join; only claimants of the
     * current job can record one, so concurrent callers cannot observe
     * each other's exceptions.
     *
     * Safe to call from multiple application threads: concurrent run()
     * calls serialize on an internal dispatch lock (one job at a time).
     * Not reentrant from inside a chunk body — use parallelFor, which
     * detects that case via insideParallelRegion() and runs inline.
     */
    void run(size_t chunks, JobFn fn, void *ctx);

    /** Allocation-free convenience overload for any callable. */
    template <typename F>
    void run(size_t chunks, F &&f)
    {
        using Fn = std::remove_reference_t<F>;
        run(chunks,
            [](void *ctx, size_t chunk) {
                (*static_cast<Fn *>(ctx))(chunk);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(f))));
    }

    /** Process-wide shared pool. */
    static ThreadPool &shared();

    /** True while the current thread is executing a chunk body. */
    static bool insideParallelRegion();

  private:
    /** Bits of the claim word holding the next-chunk counter. */
    static constexpr int kClaimChunkBits = 20;

    void ensureWorkers(size_t wanted);
    void workerLoop();
    /** Claim and execute chunks of the job tagged @p epoch. */
    void drainJob(JobFn fn, void *ctx, size_t chunks, uint64_t epoch);

    /** Serializes whole jobs: one dispatching thread at a time. */
    std::mutex dispatch_mutex_;
    mutable std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;

    // Preallocated job slot, reused by every dispatch. fn_/ctx_/chunks_
    // are written before the generation bump under mutex_, so a worker
    // that wakes for generation G reads G's fields. claim_ packs
    // {epoch : 64 - kClaimChunkBits, next_chunk : kClaimChunkBits}; the
    // epoch-checked CAS in drainJob guarantees a worker holding a stale
    // snapshot can never claim (or account against) a newer job that
    // reuses the slot.
    JobFn fn_ = nullptr;
    void *ctx_ = nullptr;
    size_t chunks_ = 0;
    std::atomic<uint64_t> claim_{0};
    std::atomic<size_t> remaining_{0};
    std::mutex error_mutex_;
    /** First exception thrown by any chunk of the current job. */
    std::exception_ptr error_;
    uint64_t generation_ = 0;
    bool stop_ = false;
};

/**
 * Deterministic statically-chunked parallel loop: invoke
 * body(begin, end, chunk) for every chunk of [0, n). With an effective
 * thread count <= 1 (or n <= 1, or when already inside a parallel region)
 * the body runs inline as body(0, n, 0) without touching the pool.
 *
 * Implemented as a template so the serial path is a direct call, and the
 * pooled path hands the pool a function pointer + context (never a
 * std::function), so the steady-state frame loop performs no per-call
 * heap allocations at any thread count.
 *
 * @param n iteration count
 * @param threads effective thread count (callers resolve requests via
 *        resolveThreadCount; values <= 1 mean serial)
 * @param body chunk body; must only write chunk-owned state
 */
template <typename Body>
void
parallelFor(size_t n, int threads, Body &&body)
{
    if (n == 0)
        return;
    const size_t chunks = parallelChunkCount(n, threads);
    if (chunks <= 1 || ThreadPool::insideParallelRegion()) {
        body(size_t{0}, n, size_t{0});
        return;
    }
    ThreadPool::shared().run(chunks, [&](size_t chunk) {
        ParallelRange r = parallelChunkRange(n, chunks, chunk);
        body(r.begin, r.end, chunk);
    });
}

/** Element-wise convenience wrapper over parallelFor: body(i) per index. */
template <typename Body>
void
parallelForEach(size_t n, int threads, Body &&body)
{
    parallelFor(n, threads, [&](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i)
            body(i);
    });
}

/** One fused batch: the items [begin, end) and their summed weight. */
struct WeightedBatch
{
    size_t begin = 0;
    size_t end = 0;
    size_t weight = 0;

    size_t size() const { return end - begin; }
};

/**
 * The batches of one parallelForBatched dispatch and the order its
 * participants claim them in. Filled by buildWeightedBatchesInto; both
 * vectors keep their capacity, so a warm frame loop rebuilds its plan
 * without allocating.
 */
struct BatchPlan
{
    /** Contiguous batches partitioning [0, n), in item order. */
    std::vector<WeightedBatch> batches;
    /** Batch indices heaviest first, ties broken by the lower index. */
    std::vector<size_t> claim_order;

    size_t size() const { return batches.size(); }

    /** Heap capacity, summed into its owner's capacityBytes(). */
    size_t capacityBytes() const
    {
        return batches.capacity() * sizeof(WeightedBatch) +
               claim_order.capacity() * sizeof(size_t);
    }
};

/**
 * Rebuild @p plan's claim order from its batches' weights: descending
 * weight, ties by ascending index. A pure function of the weights.
 */
void orderHeaviestFirst(BatchPlan &plan);

/**
 * Pack the items of [0, n) into contiguous weighted batches: each batch
 * is either a single item whose weight reaches @p grain on its own, or a
 * maximal run of smaller items whose combined weight stays at (about)
 * @p grain. Each batch keeps its summed weight, and the plan's claim
 * order is rebuilt from those weights (orderHeaviestFirst). Batches and
 * order are a pure function of (n, grain, weights) — they never depend
 * on the thread count. @p out is reused (cleared first); zero-weight
 * items simply join the current batch, and a batch always holds at
 * least one item.
 *
 * This is the dispatch-granularity fix for stages made of thousands of
 * tiny independent problems (per-tile sorts): instead of one work item
 * per tile — where the per-item bookkeeping dwarfs a 3-entry sort — the
 * pool sees fused ~grain-sized batches, while a heavy tile stays a batch
 * of its own that the scheduler can start first.
 */
template <typename WeightFn>
void
buildWeightedBatchesInto(BatchPlan &out, size_t n, size_t grain,
                         WeightFn &&weight)
{
    out.batches.clear();
    size_t begin = 0;
    size_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        const size_t w = weight(i);
        if (i > begin && acc + w > grain) {
            out.batches.push_back({begin, i, acc});
            begin = i;
            acc = 0;
        }
        acc += w;
        if (acc >= grain) {
            out.batches.push_back({begin, i + 1, acc});
            begin = i + 1;
            acc = 0;
        }
    }
    if (begin < n)
        out.batches.push_back({begin, n, acc});
    orderHeaviestFirst(out);
}

/**
 * Heaviest-first self-scheduled dispatch: invoke body(begin, end, chunk)
 * once per batch of @p plan. Exactly parallelChunkCount(plan.size(),
 * threads) participants run, each under its own chunk index — the index
 * callers use for per-chunk scratch and accumulators, sized with that
 * same count. Participants claim batches from one shared cursor over the
 * plan's claim order, so the heaviest batches start first and the light
 * ones fill in behind them: the stage finishes when its work runs out,
 * not when its unluckiest static chunk does.
 *
 * Which participant runs which batch depends on timing. Bodies must
 * therefore write only batch-owned outputs, and per-chunk accumulators
 * must merge order-independently (integer sums). Per-chunk scratch that
 * is reused across frames should be grown to one shared capacity after
 * the dispatch (growToHighWater in common/frame_arena.h), so retained
 * capacity does not depend on which participant drew the largest batch.
 *
 * With threads <= 1, a single batch, or when already inside a parallel
 * region, the batches run inline in index order under chunk 0. The first
 * exception thrown by any batch is rethrown after the join; the batches
 * other participants claim still run.
 */
template <typename Body>
void
parallelForBatched(const BatchPlan &plan, int threads, Body &&body)
{
    const size_t n = plan.size();
    const size_t participants = parallelChunkCount(n, threads);
    if (participants <= 1 || ThreadPool::insideParallelRegion()) {
        for (const WeightedBatch &b : plan.batches)
            body(b.begin, b.end, size_t{0});
        return;
    }
    std::atomic<size_t> cursor{0};
    ThreadPool::shared().run(participants, [&](size_t chunk) {
        for (size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
             k < n; k = cursor.fetch_add(1, std::memory_order_relaxed)) {
            const WeightedBatch &b = plan.batches[plan.claim_order[k]];
            body(b.begin, b.end, chunk);
        }
    });
}

/**
 * parallelFor with one default-constructed accumulator per chunk:
 * body(begin, end, acc) runs once per chunk with exclusive access to its
 * accumulator (counters, scratch buffers, ...). Returns the accumulators
 * in chunk order so the caller merges them deterministically. The vector
 * is sized with parallelChunkCount, keeping the accumulator-per-chunk
 * invariant single-sourced.
 */
template <typename Accum, typename Body>
std::vector<Accum>
parallelForAccumulate(size_t n, int threads, Body &&body)
{
    std::vector<Accum> acc(parallelChunkCount(n, threads));
    parallelFor(n, threads, [&](size_t begin, size_t end, size_t chunk) {
        body(begin, end, acc[chunk]);
    });
    return acc;
}

} // namespace neo

#endif // NEO_COMMON_PARALLEL_H
