#include "gs/tile_sort.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/frame_arena.h"

namespace neo
{

namespace
{

/**
 * Map float bits to a uint32 whose unsigned order equals the float's
 * numeric order: negative values flip every bit (reversing their order),
 * non-negative values flip only the sign bit (lifting them above all
 * negatives).
 */
inline uint32_t
flipDepth(uint32_t bits)
{
    return bits ^
           (static_cast<uint32_t>(static_cast<int32_t>(bits) >> 31) |
            0x80000000u);
}

/** Inverse of flipDepth (the sign information lives in the top bit). */
inline uint32_t
unflipDepth(uint32_t flipped)
{
    return flipped ^
           (static_cast<uint32_t>(static_cast<int32_t>(~flipped) >> 31) |
            0x80000000u);
}

} // namespace

void
keySortTable(std::vector<TileEntry> &table, TileSortScratch &scratch)
{
    const size_t n = table.size();
    if (n <= 1)
        return;

    scratch.keys.resize(n);
    uint64_t *k = scratch.keys.data();
    const TileEntry *e = table.data();
    // Pack {flipped depth : 32 | id : 32}; a single u64 compare is then
    // exactly entryDepthLess. The irregular accumulator arms the
    // comparator fallback: -0.0f depths would order below the +0.0f ties
    // the comparator considers equal, and a cleared valid bit has no key
    // bits to ride in.
    bool irregular = false;
    for (size_t i = 0; i < n; ++i) {
        const uint32_t bits = std::bit_cast<uint32_t>(e[i].depth);
        irregular |= (bits == 0x80000000u) | !e[i].valid;
        k[i] = (static_cast<uint64_t>(flipDepth(bits)) << 32) |
               static_cast<uint64_t>(e[i].id);
    }
    if (irregular) {
        std::sort(table.begin(), table.end(), entryDepthLess);
        return;
    }

    std::sort(k, k + n);

    TileEntry *out = table.data();
    for (size_t i = 0; i < n; ++i) {
        out[i].id = static_cast<uint32_t>(k[i]);
        out[i].depth = std::bit_cast<float>(
            unflipDepth(static_cast<uint32_t>(k[i] >> 32)));
        out[i].valid = true;
    }
}

void
sortTablesBatched(std::vector<std::vector<TileEntry>> &tables, int threads,
                  BatchSortScratch &scratch, size_t grain)
{
    const size_t n = tables.size();
    if (n == 0)
        return;
    buildWeightedBatchesInto(scratch.batches, n, grain,
                             [&](size_t t) { return tables[t].size(); });
    const size_t chunks =
        parallelChunkCount(scratch.batches.size(), threads);
    if (scratch.per_chunk.size() < chunks)
        scratch.per_chunk.resize(chunks);
    parallelForBatched(scratch.batches, threads,
                       [&](size_t begin, size_t end, size_t chunk) {
                           TileSortScratch &s = scratch.per_chunk[chunk];
                           for (size_t t = begin; t < end; ++t)
                               keySortTable(tables[t], s);
                       });
    growToHighWater(scratch.per_chunk,
                    [](TileSortScratch &s) { return std::tie(s.keys); });
}

} // namespace neo
