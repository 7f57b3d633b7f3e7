/**
 * @file
 * Fused cross-tile depth sorting: the per-tile orderings a frame needs
 * are thousands of small independent sorts, so the pipeline packs them
 * into ~256-entry weighted batches (one pool dispatch per batch instead
 * of per tile) and sorts each tile through a packed-key kernel that is
 * bit-identical to std::sort(entryDepthLess). Lives in gs/ — below the
 * sorting-core models of sort/, which reuse it — because the renderer's
 * prepare path is its hottest caller.
 */

#ifndef NEO_GS_TILE_SORT_H
#define NEO_GS_TILE_SORT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "gs/tiling.h"

namespace neo
{

/**
 * Batching threshold of the fused cross-tile sort path: tiles smaller
 * than this pack together until a batch reaches ~one hardware chunk of
 * entries, so the pool dispatches per ~256-entry batch instead of per
 * 3-entry tile. Mirrors the sorting core's chunk capacity (kChunkSize in
 * sort/chunk_sort.h, static_assert-ed there) on purpose — it is the size
 * below which per-problem bookkeeping dominates the sort itself.
 */
constexpr size_t kSortBatchGrain = 256;

/** Reusable per-worker scratch of the key-sort kernel (the packed keys). */
struct TileSortScratch
{
    std::vector<uint64_t> keys;

    /** Nested heap capacity, surfaced to FrameArena::retainedBytes. */
    size_t capacityBytes() const
    {
        return keys.capacity() * sizeof(uint64_t);
    }
};

/**
 * Reusable working set of sortTablesBatched: the fused batch plan plus
 * one TileSortScratch per dispatch participant, both capacity-retained
 * across frames so the steady-state loop allocates nothing.
 */
struct BatchSortScratch
{
    BatchPlan batches;
    std::vector<TileSortScratch> per_chunk;

    size_t capacityBytes() const
    {
        size_t total = batches.capacityBytes() +
                       per_chunk.capacity() * sizeof(TileSortScratch);
        for (const TileSortScratch &s : per_chunk)
            total += s.capacityBytes();
        return total;
    }
};

/**
 * Sort @p table into exactly the permutation std::sort(entryDepthLess)
 * produces, but through packed 64-bit keys: {depth bits flipped to
 * unsigned order : 32 | id : 32}, sorted with a branchless integer
 * compare and unpacked back. Bit-identical to the comparator sort
 * because entryDepthLess *is* the lexicographic (depth, id) order and
 * ids are unique within a tile.
 *
 * Irregular inputs — a cleared valid bit (whose placement the key cannot
 * carry) or a -0.0f depth (equal to +0.0f under the comparator but
 * distinct in key space) — are detected during key packing and take the
 * comparator path, so the kernel is unconditionally exact. Neither
 * occurs in freshly binned tiles, the fast path's call sites.
 */
void keySortTable(std::vector<TileEntry> &table, TileSortScratch &scratch);

/**
 * Sort every table with the key-sort kernel through one fused batched
 * dispatch: small tiles pack into ~kSortBatchGrain-entry batches
 * (buildWeightedBatchesInto) and the pool executes batches, heaviest
 * first (parallelForBatched). Output is bit-identical to per-tile
 * std::sort(entryDepthLess) at any thread count; each tile's result
 * lands in place. @p grain is the batching threshold knob (entries per
 * fused batch); @p scratch is reused across frames, its per-participant
 * key buffers grown to one shared high-water capacity after each call.
 */
void sortTablesBatched(std::vector<std::vector<TileEntry>> &tables,
                       int threads, BatchSortScratch &scratch,
                       size_t grain = kSortBatchGrain);

} // namespace neo

#endif // NEO_GS_TILE_SORT_H
