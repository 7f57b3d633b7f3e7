/**
 * @file
 * Capacity-retaining reuse of per-frame scratch — the helpers behind the
 * allocation-free steady-state frame loop. Every stage's scratch is a
 * typed member of its owner (the binned frame's scatter rectangles and
 * cursors, the renderer's RasterState, the sorter's per-participant
 * buffers, the integrity context's shadow copies) and is refilled frame
 * after frame with clear()/resize()/assign(): the first frame grows each
 * vector to its working size, and every later frame reuses that
 * capacity, so the binning/raster path performs zero per-frame heap
 * allocations once warm.
 */

#ifndef NEO_COMMON_FRAME_ARENA_H
#define NEO_COMMON_FRAME_ARENA_H

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <vector>

namespace neo
{

/**
 * Resize a nested vector to @p n outer elements and clear every inner
 * vector while keeping its capacity — the canonical per-frame reset of
 * per-tile lists.
 */
template <typename T>
void
clearNested(std::vector<std::vector<T>> &vv, size_t n)
{
    if (vv.size() != n)
        vv.resize(n);
    for (auto &v : vv)
        v.clear();
}

/**
 * Heap bytes held by a tuple of vectors — a scratch struct's buffers as
 * std::tie'd references (see growToHighWater).
 */
template <typename Tuple>
size_t
buffersCapacityBytes(const Tuple &buffers)
{
    return std::apply(
        [](const auto &...v) {
            return (size_t{0} + ... +
                    (v.capacity() *
                     sizeof(typename std::remove_cvref_t<
                            decltype(v)>::value_type)));
        },
        buffers);
}

/**
 * The high-water pass that follows a self-scheduled dispatch
 * (parallelForBatched): grow each buffer of every participant's scratch
 * to the largest capacity any participant holds for it. Which
 * participant claims which batch depends on timing, so without this pass
 * a participant regrows the first time it happens to draw a larger
 * batch — frames later, at a moment scheduling decides. After the pass
 * every participant can hold any batch seen so far, and a steady
 * workload never regrows. @p buffers(s) returns a std::tie of one
 * scratch's reusable vectors.
 */
template <typename Scratch, typename Buffers>
void
growToHighWater(std::vector<Scratch> &scratch, Buffers &&buffers)
{
    // dst's I-th buffer reserves src's I-th buffer's capacity, for all I.
    auto reserveLike = [](auto dst, auto src) {
        std::apply(
            [&](auto &...d) {
                std::apply([&](auto &...s) { (d.reserve(s.capacity()), ...); },
                           src);
            },
            dst);
    };
    // Collect the per-buffer maximum into the first participant, then
    // hand it to the rest; once warm every reserve is a no-op.
    for (size_t p = 1; p < scratch.size(); ++p)
        reserveLike(buffers(scratch.front()), buffers(scratch[p]));
    for (size_t p = 1; p < scratch.size(); ++p)
        reserveLike(buffers(scratch[p]), buffers(scratch.front()));
}

} // namespace neo

#endif // NEO_COMMON_FRAME_ARENA_H
