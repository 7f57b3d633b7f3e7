/**
 * @file
 * Fixed-width mask kernels of the rasterizer (raster.cpp): the separable
 * subtile intersection test, the blend's row prune, and its per-pixel
 * survivor mask. Each comes in two forms that compute the same bits:
 *
 *  - an SSE2 form (SSE2 is part of the x86-64 baseline, so no compile
 *    flag is needed), used when the target has __SSE2__;
 *  - a scalar twin, always compiled: it runs on every other target, and
 *    the tests hold the SSE2 form to it bit for bit.
 *
 * Both evaluate the float operations of the plain per-subtile and
 * per-pixel loops, operand for operand, so every bit is what such a loop
 * computes for any input, NaN and infinities included. SSE2's ordered compares are false
 * on NaN exactly as C++'s <, > and <= are, and the negated forms
 * (cmpnlt, cmpngt) are true on NaN exactly as !(a < b) and !(a > b) are.
 * The clamp is built from compares and selects, never from min/max:
 * clamp(v, NaN, NaN) is v, while _mm_min_ps(_mm_max_ps(v, lo), hi) is
 * NaN.
 */

#ifndef NEO_GS_RASTER_MASKS_H
#define NEO_GS_RASTER_MASKS_H

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/math.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace neo::raster_masks
{

/**
 * One tile's subtile edges along both axes, set up once per tile. The
 * edges come from repeated addition of the subtile size to the tile
 * origin, as a plain double loop over the subtiles steps them (so the
 * bitmap equals that loop's bit for bit): subtile s spans
 * [lo[s], hi[s]] with hi[s] = lo[s] + step. Lanes at and past
 * `subtiles` are zero and never reach a result bit.
 */
struct SubtileEdges
{
    alignas(16) float x_lo[8] = {};
    alignas(16) float x_hi[8] = {};
    alignas(16) float y_lo[8] = {};
    alignas(16) float y_hi[8] = {};
    int subtiles; //!< per side, at most 8 (a 64-bit bitmap)

    SubtileEdges(Vec2 origin, int tile_size, int subtile_size)
        : subtiles(tile_size / subtile_size)
    {
        if (subtiles > 8) // subtiles^2 > 64, without the overflow
            panic("rasterizer: more than 64 subtiles per tile");
        const float step = static_cast<float>(subtile_size);
        float x0 = origin.x;
        float y0 = origin.y;
        for (int s = 0; s < subtiles; ++s, x0 += step, y0 += step) {
            x_lo[s] = x0;
            x_hi[s] = x0 + step;
            y_lo[s] = y0;
            y_hi[s] = y0 + step;
        }
    }
};

/**
 * Scalar twin of subtileBits: bit sy * subtiles + sx is set when the
 * closest point of subtile (sx, sy) to @p mean lies within @p radius,
 * i.e. dx^2 + dy^2 <= r^2 with dx^2 computed once per column and dy^2
 * once per row.
 */
inline uint64_t
subtileBitsScalar(const SubtileEdges &e, Vec2 mean, float radius)
{
    const float r2 = radius * radius;
    float dx2[8] = {};
    float dy2[8] = {};
    for (int s = 0; s < e.subtiles; ++s) {
        const float dx = clamp(mean.x, e.x_lo[s], e.x_hi[s]) - mean.x;
        const float dy = clamp(mean.y, e.y_lo[s], e.y_hi[s]) - mean.y;
        dx2[s] = dx * dx;
        dy2[s] = dy * dy;
    }
    uint64_t bits = 0;
    for (int sy = 0; sy < e.subtiles; ++sy)
        for (int sx = 0; sx < e.subtiles; ++sx)
            bits |= static_cast<uint64_t>(dx2[sx] + dy2[sy] <= r2)
                    << (sy * e.subtiles + sx);
    return bits;
}

/**
 * Scalar twin of rowMask: bit r (r < @p rows <= 64) is set unless the
 * row at c0 + r lies provably outside the bound, i.e. unless
 * ((c0 + r) - center)^2 > bound_sq. NaN keeps the row.
 */
inline uint64_t
rowMaskScalar(float c0, float center, float bound_sq, int rows)
{
    uint64_t bits = 0;
    for (int r = 0; r < rows; ++r) {
        const float d = (c0 + static_cast<float>(r)) - center;
        bits |= static_cast<uint64_t>(!(d * d > bound_sq)) << r;
    }
    return bits;
}

/**
 * Scalar twin of survivorMask: for every pixel p in [lo, hi), bit p & 63
 * of words[p >> 6] is set when
 * !(power[p] < cut) & !(power[p] > 0) & !(t[p] < t_cutoff); NaN powers
 * survive. Writes words [lo >> 6, (hi + 63) >> 6), with every bit outside
 * [lo, hi) clear, and returns their OR.
 */
inline uint64_t
survivorMaskScalar(const float *power, const float *t, int lo, int hi,
                   float cut, float t_cutoff, uint64_t *words)
{
    for (int w = lo >> 6; w < (hi + 63) >> 6; ++w)
        words[w] = 0;
    uint64_t any = 0;
    for (int p = lo; p < hi; ++p) {
        const uint64_t keep = static_cast<uint64_t>(!(power[p] < cut)) &
                              static_cast<uint64_t>(!(power[p] > 0.0f)) &
                              static_cast<uint64_t>(!(t[p] < t_cutoff));
        words[p >> 6] |= keep << (p & 63);
        any |= keep << (p & 63);
    }
    return any;
}

#if defined(__SSE2__)

namespace detail
{

/** Lane-wise m ? a : b. */
inline __m128
select(__m128 m, __m128 a, __m128 b)
{
    return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
}

/** Lane-wise (clamp(v, lo, hi) - v)^2, with clamp's own selects. */
inline __m128
clampDist2(__m128 v, const float *lo, const float *hi)
{
    const __m128 l = _mm_load_ps(lo);
    const __m128 h = _mm_load_ps(hi);
    // clamp(v, lo, hi) = v < lo ? lo : (v > hi ? hi : v)
    const __m128 c = select(_mm_cmplt_ps(v, l), l,
                            select(_mm_cmpgt_ps(v, h), h, v));
    const __m128 d = _mm_sub_ps(c, v);
    return _mm_mul_ps(d, d);
}

} // namespace detail

#endif // __SSE2__

/**
 * Subtile intersection bitmap of a footprint (@p mean, @p radius)
 * against the tile of @p e; the bits of subtileBitsScalar, with the
 * column and row squared distances four lanes at a time and each row's
 * bits from one compare across all columns.
 */
inline uint64_t
subtileBits(const SubtileEdges &e, Vec2 mean, float radius)
{
#if defined(__SSE2__)
    const float r2 = radius * radius;
    const __m128 vx = _mm_set1_ps(mean.x);
    const __m128 vy = _mm_set1_ps(mean.y);
    const __m128 dx2_lo = detail::clampDist2(vx, e.x_lo, e.x_hi);
    const __m128 dx2_hi = detail::clampDist2(vx, e.x_lo + 4, e.x_hi + 4);
    alignas(16) float dy2[8];
    _mm_store_ps(dy2, detail::clampDist2(vy, e.y_lo, e.y_hi));
    _mm_store_ps(dy2 + 4, detail::clampDist2(vy, e.y_lo + 4, e.y_hi + 4));
    const __m128 vr2 = _mm_set1_ps(r2);
    const uint32_t cols = (1u << e.subtiles) - 1;
    uint64_t bits = 0;
    for (int sy = 0; sy < e.subtiles; ++sy) {
        const __m128 d = _mm_set1_ps(dy2[sy]);
        const uint32_t row =
            static_cast<uint32_t>(
                _mm_movemask_ps(_mm_cmple_ps(_mm_add_ps(dx2_lo, d), vr2))) |
            static_cast<uint32_t>(
                _mm_movemask_ps(_mm_cmple_ps(_mm_add_ps(dx2_hi, d), vr2)))
                << 4;
        bits |= static_cast<uint64_t>(row & cols) << (sy * e.subtiles);
    }
    return bits;
#else
    return subtileBitsScalar(e, mean, radius);
#endif
}

/** Row prune mask of a block: the bits of rowMaskScalar, four rows per
    compare. */
inline uint64_t
rowMask(float c0, float center, float bound_sq, int rows)
{
#if defined(__SSE2__)
    const __m128 vc0 = _mm_set1_ps(c0);
    const __m128 vc = _mm_set1_ps(center);
    const __m128 vb = _mm_set1_ps(bound_sq);
    const __m128 four = _mm_set1_ps(4.0f);
    __m128 r = _mm_setr_ps(0.0f, 1.0f, 2.0f, 3.0f); // exact small integers
    uint64_t bits = 0;
    for (int g = 0; g < rows; g += 4, r = _mm_add_ps(r, four)) {
        const __m128 d = _mm_sub_ps(_mm_add_ps(vc0, r), vc);
        bits |= static_cast<uint64_t>(
                    _mm_movemask_ps(_mm_cmpngt_ps(_mm_mul_ps(d, d), vb)))
                << g;
    }
    return rows < 64 ? bits & ((uint64_t{1} << rows) - 1) : bits;
#else
    return rowMaskScalar(c0, center, bound_sq, rows);
#endif
}

/**
 * Survivor mask of one Gaussian over a block's pixels [lo, hi): see
 * survivorMaskScalar for the bits. The SSE2 form tests whole 4-pixel
 * groups, so it reads @p power and @p t up to the end of the group
 * holding pixel hi - 1: both planes must be padded to a multiple of 4
 * floats. Lanes outside [lo, hi) are cleared, whatever they hold.
 */
inline uint64_t
survivorMask(const float *power, const float *t, int lo, int hi, float cut,
             float t_cutoff, uint64_t *words)
{
#if defined(__SSE2__)
    const __m128 vcut = _mm_set1_ps(cut);
    const __m128 zero = _mm_setzero_ps();
    const __m128 vtc = _mm_set1_ps(t_cutoff);
    uint64_t any = 0;
    for (int w = lo >> 6; w < (hi + 63) >> 6; ++w) {
        const int base = w << 6;
        const int a = std::max(lo, base);
        const int b = std::min(hi, base + 64);
        uint64_t acc = 0;
        for (int g = a & ~3; g < b; g += 4) {
            const __m128 p = _mm_loadu_ps(power + g);
            const __m128 keep = _mm_and_ps(
                _mm_and_ps(_mm_cmpnlt_ps(p, vcut), _mm_cmpngt_ps(p, zero)),
                _mm_cmpnlt_ps(_mm_loadu_ps(t + g), vtc));
            acc |= static_cast<uint64_t>(_mm_movemask_ps(keep))
                   << (g - base);
        }
        // Both shifts are in [0, 63]: base <= a < b <= base + 64.
        acc &= (~uint64_t{0} << (a - base)) &
               (~uint64_t{0} >> (base + 64 - b));
        words[w] = acc;
        any |= acc;
    }
    return any;
#else
    return survivorMaskScalar(power, t, lo, hi, cut, t_cutoff, words);
#endif
}

} // namespace neo::raster_masks

#endif // NEO_GS_RASTER_MASKS_H
