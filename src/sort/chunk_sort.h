/**
 * @file
 * Chunk-granular sorting as performed by one Neo Sorting Core: a 256-entry
 * chunk is loaded into the input buffer, cut into 16-entry sub-chunks
 * sorted by the BSU, and merged into a fully sorted chunk by the MSU+.
 * Conventional (from-scratch) sorting of a whole table additionally runs a
 * global merge across chunks, which costs extra off-chip passes — the very
 * traffic Dynamic Partial Sorting avoids.
 */

#ifndef NEO_SORT_CHUNK_SORT_H
#define NEO_SORT_CHUNK_SORT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "gs/tile_sort.h"
#include "sort/bitonic.h"
#include "sort/merge_unit.h"

namespace neo
{

/** Default hardware chunk capacity (entries), per the paper. */
constexpr size_t kChunkSize = 256;

// The fused cross-tile batching grain (gs/tile_sort.h) deliberately
// reuses the chunk-sort granularity: one batch ≈ one hardware chunk of
// entries, the size below which per-problem bookkeeping dominates the
// sort itself. Keep the two in lockstep.
static_assert(kSortBatchGrain == kChunkSize,
              "fused sort batches must stay chunk-sized");

/** Combined counters of a sorting-core operation. */
struct SortCoreStats
{
    BsuStats bsu;
    MsuStats msu;
    uint64_t chunk_loads = 0;   //!< 256-entry chunk reads from DRAM
    uint64_t chunk_stores = 0;  //!< chunk writes back to DRAM
    uint64_t entries_read = 0;  //!< off-chip table entries read
    uint64_t entries_written = 0; //!< off-chip table entries written
    uint64_t global_merge_passes = 0; //!< extra off-chip passes

    SortCoreStats &operator+=(const SortCoreStats &o);
};

/**
 * Sort one chunk of @p entries in place (the [first, first+count) slice,
 * count <= kChunkSize) using the BSU + MSU pipeline. Counts one chunk load
 * and one chunk store. @p scratch, when given, is the MSU merge staging
 * buffer (see msuMergeRuns), reused across calls.
 */
void sortChunk(std::vector<TileEntry> &entries, size_t first, size_t count,
               SortCoreStats *stats = nullptr,
               std::vector<TileEntry> *scratch = nullptr);

/**
 * Conventional full sort of an entire tile table: chunk-sort every chunk,
 * then merge chunks globally. The global merge is modeled functionally
 * (result is fully sorted) and its off-chip cost is recorded as
 * ceil(log2(num_chunks)) extra read+write passes over the table.
 *
 * With @p threads > 1, long tables split across workers: the independent
 * 256-entry chunk sorts fan out over the pool, and the global merge runs
 * the parallel MSU+ merge tree (msuMergeRuns). Results and counters are
 * bit-identical for any thread count. The serial path stages its merges
 * in @p scratch when given (see msuMergeRuns).
 */
void fullSortTable(std::vector<TileEntry> &table,
                   SortCoreStats *stats = nullptr, int threads = 1,
                   std::vector<TileEntry> *scratch = nullptr);

} // namespace neo

#endif // NEO_SORT_CHUNK_SORT_H
