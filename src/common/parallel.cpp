#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "common/env.h"
#include "common/logging.h"

namespace neo
{

namespace
{

thread_local bool t_inside_parallel = false;

/** RAII marker for "this thread is executing a chunk body". */
struct ParallelRegionGuard
{
    ParallelRegionGuard() { t_inside_parallel = true; }
    ~ParallelRegionGuard() { t_inside_parallel = false; }
};

} // namespace

int
hardwareThreadCount()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(std::min<unsigned>(n, kMaxThreads));
}

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return std::min(requested, kMaxThreads);
    if (requested < 0)
        return hardwareThreadCount();

    const char *env = std::getenv("NEO_THREADS");
    if (!env || !*env)
        return 1;
    if (std::strcmp(env, "auto") == 0 || std::strcmp(env, "0") == 0)
        return hardwareThreadCount();
    long v = 0;
    // Full-string consumption (common/env): "4garbage" must not silently
    // run with 4 threads (nor "garbage" with 1 and no diagnostic). The
    // "auto" special case above keeps this off envLong, but the warn-once
    // state lives in env's registry so resetWarnings() covers it.
    if (!neo::env::parseLong(env, &v) || v <= 0) {
        if (neo::env::shouldWarnOnce("NEO_THREADS"))
            warn("NEO_THREADS=%s is not a positive integer or \"auto\"; "
                 "using 1 thread",
                 env);
        return 1;
    }
    return std::min(static_cast<int>(std::min<long>(v, kMaxThreads)),
                    kMaxThreads);
}

size_t
parallelChunkCount(size_t n, int threads)
{
    size_t t = threads < 1
                   ? 1
                   : static_cast<size_t>(std::min(threads, kMaxThreads));
    return std::min(n, t);
}

ParallelRange
parallelChunkRange(size_t n, size_t chunks, size_t chunk)
{
    ParallelRange r;
    if (chunks == 0 || chunk >= chunks)
        return r;
    const size_t base = n / chunks;
    const size_t extra = n % chunks;
    r.begin = chunk * base + std::min(chunk, extra);
    r.end = r.begin + base + (chunk < extra ? 1 : 0);
    return r;
}

void
orderHeaviestFirst(BatchPlan &plan)
{
    plan.claim_order.resize(plan.batches.size());
    std::iota(plan.claim_order.begin(), plan.claim_order.end(), size_t{0});
    // A strict total order (no two indices compare equal), so the
    // permutation is fully determined by the weights.
    std::sort(plan.claim_order.begin(), plan.claim_order.end(),
              [&](size_t a, size_t b) {
                  const size_t wa = plan.batches[a].weight;
                  const size_t wb = plan.batches[b].weight;
                  return wa != wb ? wa > wb : a < b;
              });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

int
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size());
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::insideParallelRegion()
{
    return t_inside_parallel;
}

void
ThreadPool::ensureWorkers(size_t wanted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    wanted = std::min(wanted, static_cast<size_t>(kMaxThreads - 1));
    while (workers_.size() < wanted)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::drainJob(JobFn fn, void *ctx, size_t chunks, uint64_t epoch)
{
    // Truncate to the epoch bits actually stored in the claim word.
    epoch &= (uint64_t{1} << (64 - kClaimChunkBits)) - 1;
    uint64_t cur = claim_.load(std::memory_order_relaxed);
    for (;;) {
        // The claim word packs {epoch, next chunk}. A successful CAS both
        // claims a chunk and proves the slot still holds the job this
        // thread saw — once the slot is reused for a newer job the epoch
        // bits differ, the CAS cannot succeed, and this thread backs out
        // without ever touching the new job's counters.
        if ((cur >> kClaimChunkBits) != epoch)
            return;
        const size_t chunk =
            cur & ((uint64_t{1} << kClaimChunkBits) - 1);
        if (chunk >= chunks)
            return;
        if (!claim_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed))
            continue; // cur reloaded by the failed CAS
        try {
            ParallelRegionGuard guard;
            fn(ctx, chunk);
        } catch (...) {
            // Only current-epoch claimants reach here, so this records
            // into the job that is actually running.
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last chunk done: wake the dispatching thread. The empty
            // critical section orders the notify after its wait() check.
            std::lock_guard<std::mutex> lock(mutex_);
            done_cv_.notify_all();
        }
        cur = claim_.load(std::memory_order_relaxed);
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen_generation = 0;
    for (;;) {
        JobFn fn = nullptr;
        void *ctx = nullptr;
        size_t chunks = 0;
        uint64_t epoch = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen_generation;
            });
            if (stop_)
                return;
            seen_generation = generation_;
            epoch = generation_;
            fn = fn_;
            ctx = ctx_;
            chunks = chunks_;
        }
        if (fn)
            drainJob(fn, ctx, chunks, epoch);
    }
}

void
ThreadPool::run(size_t chunks, JobFn fn, void *ctx)
{
    if (chunks == 0)
        return;
    if (chunks == 1) {
        ParallelRegionGuard guard;
        fn(ctx, 0);
        return;
    }
    if (chunks >= (uint64_t{1} << kClaimChunkBits))
        panic("ThreadPool::run: chunk count %zu exceeds the claim-word "
              "limit",
              chunks);

    // One job at a time: concurrent dispatching threads (e.g. two
    // renderers owned by different application threads) queue here
    // instead of clobbering each other's job state.
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);

    ensureWorkers(chunks - 1);

    // Refill the preallocated job slot *inside* the lock: workers only
    // read the slot fields under mutex_ (on wake), but a freshly spawned
    // or spuriously woken worker may do so at any moment — writing the
    // fields and bumping the generation in one critical section
    // guarantees every snapshot is internally consistent. A consistent
    // snapshot of an already-completed job is harmless: its claim word
    // is saturated (next == chunks) until this store replaces it, so the
    // epoch-checked CAS in drainJob can never claim through it.
    uint64_t epoch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn_ = fn;
        ctx_ = ctx;
        chunks_ = chunks;
        error_ = nullptr;
        remaining_.store(chunks, std::memory_order_relaxed);
        epoch = ++generation_;
        claim_.store(epoch << kClaimChunkBits,
                     std::memory_order_release);
    }
    wake_cv_.notify_all();

    drainJob(fn, ctx, chunks, epoch);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] {
            return remaining_.load(std::memory_order_acquire) == 0;
        });
    }
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
}

} // namespace neo
