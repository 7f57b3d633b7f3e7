/**
 * @file
 * Dynamic Partial Sorting — Algorithm 1 of the Neo paper.
 *
 * A tile's Gaussian table carried over from the previous frame is almost
 * sorted; rather than re-sorting globally, the algorithm sorts it chunk by
 * chunk (each chunk fits on-chip), reading and writing every entry exactly
 * once per frame. To let entries migrate across chunk boundaries over
 * time, the chunk grid is shifted by half a chunk on alternate frames
 * ("interleaved sorting boundaries", Fig. 9).
 */

#ifndef NEO_SORT_DYNAMIC_PARTIAL_H
#define NEO_SORT_DYNAMIC_PARTIAL_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sort/chunk_sort.h"

namespace neo
{

/** Tunables of Dynamic Partial Sorting. */
struct DynamicPartialConfig
{
    /** On-chip chunk capacity in entries (paper: 256). */
    size_t chunk = kChunkSize;
    /** Shift chunk boundaries by chunk/2 on even frames (paper: on). */
    bool interleave = true;
    /**
     * Off-chip sorting passes per frame. The paper adopts a single pass
     * (>=2 passes buy <0.1 dB quality for proportional extra traffic).
     */
    int passes = 1;
};

/**
 * Chunk boundaries for a table of length @p len on frame @p frame_index:
 * returns consecutive [start, end) offsets. With interleaving enabled,
 * even frames use a grid shifted by chunk/2 (the first chunk is a
 * half-chunk), which is how the algorithm's "range" update is realized.
 */
std::vector<std::pair<size_t, size_t>>
dynamicPartialBoundaries(size_t len, uint64_t frame_index,
                         const DynamicPartialConfig &cfg);

/**
 * Run Dynamic Partial Sorting on @p table in place.
 *
 * @param table previous frame's table with refreshed depth values
 * @param frame_index current frame number (selects boundary phase)
 * @param cfg tunables
 * @param stats optional hardware counters (chunk loads/stores, BSU/MSU ops)
 * @param scratch optional MSU merge staging buffer (see sortChunk); a warm
 *        one makes the call allocation-free
 */
void dynamicPartialSort(std::vector<TileEntry> &table, uint64_t frame_index,
                        const DynamicPartialConfig &cfg = {},
                        SortCoreStats *stats = nullptr,
                        std::vector<TileEntry> *scratch = nullptr);

/**
 * Sortedness metric: fraction of adjacent pairs in depth order. 1.0 for a
 * sorted table; used by tests and the accuracy-restoration experiments.
 */
double sortedFraction(const std::vector<TileEntry> &table);

/**
 * Mean absolute displacement between each entry's position and its
 * position in the fully sorted permutation (0 for a sorted table).
 */
double meanDisplacement(const std::vector<TileEntry> &table);

} // namespace neo

#endif // NEO_SORT_DYNAMIC_PARTIAL_H
