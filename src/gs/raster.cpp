#include "gs/raster.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/frame_arena.h"
#include "common/integrity.h"
#include "common/logging.h"
#include "gs/raster_masks.h"

namespace neo
{

using raster_masks::SubtileEdges;

SubtileBitmap
subtileBitmap(Vec2 mean2d, float radius_px, Vec2 tile_origin, int tile_size,
              int subtile_size)
{
    return raster_masks::subtileBits(
        SubtileEdges(tile_origin, tile_size, subtile_size), mean2d,
        radius_px);
}

float
fastExpNegative(float x)
{
    // exp(-87.3) already underflows float; below that the answer is 0.
    // (The negated comparison also catches NaN, which propagates as in
    // std::exp.)
    if (!(x >= -87.0f))
        return x != x ? x : 0.0f;

    // exp(x) = 2^n * e^u with n = round(x log2 e) and u = x - n ln 2
    // reduced Cody-Waite style (ln 2 split into an exactly-representable
    // high part and a small correction, so u keeps full precision even
    // when |x| is large); e^u is a degree-6 Taylor polynomial
    // (|u| <= 0.347, truncation ~1e-8) and 2^n comes from the exponent
    // bits. Every operation is plain float arithmetic in a fixed order,
    // so the result is a pure function of x on any thread.
    const float n = std::floor(x * 1.44269504f + 0.5f); // log2(e)
    const float u = (x - n * 0.693359375f) + n * 2.12194440e-4f;
    float p = 1.38888889e-3f;               // 1/720
    p = p * u + 8.33333333e-3f;             // 1/120
    p = p * u + 4.16666667e-2f;             // 1/24
    p = p * u + 1.66666667e-1f;             // 1/6
    p = p * u + 0.5f;
    p = p * u + 1.0f;
    p = p * u + 1.0f;
    const int32_t ni = static_cast<int32_t>(n); // in [-126, 1]
    const float scale =
        std::bit_cast<float>(static_cast<uint32_t>(127 + ni) << 23);
    return p * scale;
}

size_t
RasterScratch::capacityBytes() const
{
    return buffersCapacityBytes(buffers(*this));
}

namespace
{

/**
 * Scalar Gaussian-major blend loop — the historical implementation, kept
 * behind RasterConfig::reference_path as the A/B baseline and as the
 * fallback when the subtile size does not divide the tile size (or is
 * wider than 64 px) and when the blocked kernel's CSR fence trips.
 */
void
blendReference(const std::vector<TileEntry> &entries,
               const BinnedFrame &frame, const RasterConfig &cfg,
               Image *image, RasterScratch &scr, RasterStats &stats,
               int px0, int py0, int w, int h, int subtiles)
{
    const std::vector<SubtileBitmap> &bitmaps = scr.bitmaps;

    std::vector<float> &transmittance = scr.transmittance;
    std::vector<Vec3> &accum = scr.accum;
    std::vector<uint8_t> &done = scr.done;
    transmittance.assign(static_cast<size_t>(w) * h, 1.0f);
    accum.assign(static_cast<size_t>(w) * h, Vec3{});
    done.assign(static_cast<size_t>(w) * h, 0);
    size_t live_pixels = static_cast<size_t>(w) * h;

    for (size_t i = 0; i < entries.size() && live_pixels > 0; ++i) {
        if (!bitmaps[i])
            continue;
        const GaussianId id = entries[i].id;
        const Vec2 mean = frame.mean2d[id];
        const Vec3 conic = frame.conic[id];
        const float opacity = frame.opacity[id];
        const Vec3 color = frame.color[id];
        for (int y = 0; y < h; ++y) {
            int sub_y = y / cfg.subtile_size;
            for (int x = 0; x < w; ++x) {
                int sub_x = x / cfg.subtile_size;
                int bit = sub_y * subtiles + sub_x;
                if (!(bitmaps[i] >> bit & 1))
                    continue;
                size_t pi = static_cast<size_t>(y) * w + x;
                if (done[pi])
                    continue;
                float dx = (px0 + x + 0.5f) - mean.x;
                float dy = (py0 + y + 0.5f) - mean.y;
                float power =
                    conicPower(conic.x, conic.y, conic.z, dx, dy);
                float falloff =
                    power > 0.0f
                        ? 0.0f
                        : (cfg.fast_exp ? fastExpNegative(power)
                                        : std::exp(power));
                float alpha = opacity * falloff;
                if (alpha < cfg.alpha_threshold)
                    continue;
                alpha = std::min(alpha, cfg.alpha_max);
                ++stats.blend_ops;
                accum[pi] += color * (alpha * transmittance[pi]);
                transmittance[pi] *= (1.0f - alpha);
                if (transmittance[pi] < cfg.transmittance_cutoff) {
                    done[pi] = 1;
                    --live_pixels;
                    ++stats.pixels_terminated;
                }
            }
        }
    }

    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            image->at(px0 + x, py0 + y) =
                accum[static_cast<size_t>(y) * w + x];
}

/**
 * Grow every compacted-Gaussian array of @p scr to hold @p n entries.
 * Never shrinks, so a warm worker resizes nothing; the arrays' sizes are
 * capacities and the tile's compacted count travels separately.
 */
void
reserveCompacted(RasterScratch &scr, size_t n)
{
    if (scr.gauss_bitmap.size() >= n)
        return;
    scr.gauss_mean_x.resize(n);
    scr.gauss_mean_y.resize(n);
    scr.gauss_conic_a.resize(n);
    scr.gauss_conic_b.resize(n);
    scr.gauss_conic_c.resize(n);
    scr.gauss_opacity.resize(n);
    scr.gauss_power_cut.resize(n);
    scr.gauss_dx_bound_sq.resize(n);
    scr.gauss_dy_bound_sq.resize(n);
    scr.gauss_color.resize(n);
    scr.gauss_bitmap.resize(n);
}

/**
 * Append Gaussian @p id, whose subtile bitmap is @p bm, as compacted
 * entry @p j of the blocked kernel: its hot fields, skip cut and
 * ellipse-extent bounds (see blendBlocked).
 *
 * The skip cut: power < log(threshold / opacity) - 1/16 guarantees
 * alpha < threshold, so skipping the exp there cannot change which
 * pixels blend. The 2^-4 margin (exact in float) is ~4 orders of
 * magnitude above everything it must swamp — the <= 1-ulp rounding of
 * the two logs and the subtractions, and the relative error of the
 * falloff exp itself (std::exp <= 1 ulp, fastExpNegative <=
 * kFastExpMaxRelError = 2e-6): a skipped pixel's alpha is below
 * e^(-1/16) * threshold * (1 + ~1e-5) < 0.94 * threshold.
 */
void
compactGaussian(const BinnedFrame &frame, GaussianId id, SubtileBitmap bm,
                float log_threshold, RasterScratch &scr, uint32_t j)
{
    const float opacity = frame.opacity[id];
    const Vec2 mean = frame.mean2d[id];
    const Vec3 conic = frame.conic[id];
    scr.gauss_mean_x[j] = mean.x;
    scr.gauss_mean_y[j] = mean.y;
    scr.gauss_conic_a[j] = conic.x;
    scr.gauss_conic_b[j] = conic.y;
    scr.gauss_conic_c[j] = conic.z;
    scr.gauss_opacity[j] = opacity;
    scr.gauss_color[j] = frame.color[id];
    scr.gauss_bitmap[j] = bm;
    const float cut_j = log_threshold - std::log(opacity) - 0.0625f;
    scr.gauss_power_cut[j] = cut_j;
    // Conservative squared half-extents of the cut ellipse: for a fixed
    // dy the power maximizes (over real dx) at -dy^2 * det / (2a), so
    // rows with dy^2 > -2a*cut/det cannot contain a pixel reaching the
    // cut (columns symmetrically with c). Two safeguards keep the prune
    // strictly conservative against float rounding of the kernel's
    // power evaluation: the products and det are computed in double
    // (exact for float inputs, so the notorious a*c - b*b cancellation
    // cannot amplify error), and pruning is enabled only when
    // det >= 2^-10 * (a*c). That conditioning guard bounds the magnitude
    // of the power terms at any near-cut pixel by
    // ~2 * (a*c/det) * |cut| <= 2^11 * |cut|; with ~8 roundings of
    // <= 2^-24 each in conicPower, the float evaluation's absolute error
    // stays below ~2^-10 * |cut|, and the 1 + 2^-7 bound inflation
    // leaves an 8x margin over that worst case (|cut| >= the 2^-4 cut
    // margin by construction). Ill-conditioned, degenerate or NaN conics
    // get infinite bounds (no pruning) and flow through the full-block
    // path.
    const double ad = conic.x, bd = conic.y, cd = conic.z;
    const double det = ad * cd - bd * bd;
    float dx_bound_sq = std::numeric_limits<float>::infinity();
    float dy_bound_sq = dx_bound_sq;
    if (conic.x > 0.0f && conic.z > 0.0f && det > 0x1p-10 * (ad * cd) &&
        cut_j < 0.0f) {
        const double s = -2.0 * static_cast<double>(cut_j) / det * 1.0078125;
        dy_bound_sq = static_cast<float>(ad * s);
        dx_bound_sq = static_cast<float>(cd * s);
    }
    scr.gauss_dx_bound_sq[j] = dx_bound_sq;
    scr.gauss_dy_bound_sq[j] = dy_bound_sq;
}

/**
 * Calls @p f(p) for every set bit p of @p words [w_lo, w_hi), in
 * ascending order (bit p & 63 of word p >> 6 is pixel p).
 */
template <typename F>
inline void
forEachBit(const uint64_t *words, int w_lo, int w_hi, F &&f)
{
    for (int w = w_lo; w < w_hi; ++w)
        for (uint64_t bits = words[w]; bits; bits &= bits - 1)
            f((w << 6) + std::countr_zero(bits));
}

/**
 * Subtile-blocked blend kernel. Instead of scanning every tile pixel for
 * every Gaussian, the tile's valid entries are bucketed per subtile
 * (CSR, driven by the phase-1 bitmaps) and each subtile's pixel block is
 * blended to completion in contiguous SoA planes:
 *
 *  1. the @p active covering Gaussians arrive compacted into per-field
 *     arrays (front-to-back order preserved) by rasterizeTile's ITU pass,
 *     which gathered each entry's features once; the CSR buckets are
 *     built from their compacted bitmaps;
 *  2. per block and Gaussian, a mask pipeline replaces the historical
 *     test->exp->blend pixel loop:
 *       a. the ellipse-extent prune: the nearest column decides whether
 *          the block can hold a survivor at all, and one row mask
 *          (raster_masks::rowMask) bounds the rows to evaluate by its
 *          first and last set bits;
 *       b. one vectorizable pass evaluates the conic power for the
 *          pixels of those rows from precomputed pixel-center
 *          coordinates (no divides, no bitmap tests in the inner loop);
 *       c. one SIMD pass (raster_masks::survivorMask) turns the pixels
 *          that reach the exp — inside the log-domain threshold cut, not
 *          above zero and not yet saturated — into survivor mask words,
 *          one bit per pixel and one word per 64 pixels;
 *       d. the blend walks the set bits in ascending order. The exact
 *          path evaluates std::exp per bit; with fast_exp the bits first
 *          pack the survivors' powers into a dense list tail-padded with
 *          neutral lanes to a kSurvivorExpBatch multiple, and the
 *          branchless fastExpNegativeLane polynomial runs over it in
 *          fixed-width groups, no scalar epilogue (the SIMD target of
 *          bench/check_vectorization.sh);
 *  3. a per-block live counter retires all remaining Gaussians at once
 *     when every pixel of the block has saturated.
 *
 * Per-pixel blend order and arithmetic are exactly those of
 * blendReference — a pixel's result depends only on the ordered set of
 * Gaussians covering its subtile, which the buckets preserve, and the
 * bit walk visits each pixel at most once per Gaussian, in ascending
 * order, so splitting the test from the blend cannot reorder or change
 * any float operation — and pixels and stats come out bit-identical (the
 * done[] test is replaced by the equivalent transmittance < cutoff
 * predicate, applied in the mask).
 *
 * Integrity: with an enabled context, the CSR bucket bounds are fenced
 * right after the scatter (digest recomputation plus monotonicity /
 * bounds invariants). A corrupted CSR cannot be consumed safely — its
 * bounds index the bucket array — so on mismatch the function records
 * the fault and returns false *before any pixel write*; the caller then
 * blends the tile through the scalar reference path, which depends only
 * on the (separately fenced) tile entry list and produces bit-identical
 * pixels. Returns true when the tile was blended here.
 */
bool
blendBlocked(uint32_t active, const RasterConfig &cfg, Image *image,
             RasterScratch &scr, RasterStats &stats, int px0, int py0, int w,
             int h, int subtiles, int tile, IntegrityContext *integrity)
{
    const int sub = cfg.subtile_size;
    const int subtile_count = subtiles * subtiles;
    const size_t block_cap = static_cast<size_t>(sub) * sub;
    const SubtileBitmap *const bitmaps = scr.gauss_bitmap.data();

    // --- Bucket sizes over the compacted Gaussians, then the scatter in
    // their (front-to-back) order; afterwards bucket b spans
    // [b ? offsets[b-1] : 0, offsets[b]).
    std::vector<uint32_t> &offsets = scr.bucket_offsets;
    offsets.assign(static_cast<size_t>(subtile_count) + 1, 0);
    for (uint32_t j = 0; j < active; ++j)
        for (SubtileBitmap bm = bitmaps[j]; bm; bm &= bm - 1)
            ++offsets[std::countr_zero(bm) + 1];
    for (int b = 0; b < subtile_count; ++b)
        offsets[b + 1] += offsets[b];
    const uint32_t total_refs = offsets[subtile_count];
    scr.bucket_entries.resize(total_refs);
    for (uint32_t j = 0; j < active; ++j)
        for (SubtileBitmap bm = bitmaps[j]; bm; bm &= bm - 1)
            scr.bucket_entries[offsets[std::countr_zero(bm)]++] = j;

    if (integrity) {
        // CSR fence: duplicate-compute the bounds digest across the
        // injection window, then check the structural invariants the
        // block loops rely on. Everything below is O(subtiles + refs)
        // over data already hot in cache.
        const uint64_t d0 = digestSpan(offsets.data(), offsets.size());
        faultinject::corrupt(kIntegrityRasterCsr, tile, offsets.data(),
                             offsets.size(), sizeof(uint32_t),
                             sizeof(uint32_t));
        const uint64_t d1 = digestSpan(offsets.data(), offsets.size());
        bool ok = d0 == d1;
        // After the scatter, bucket b spans [b ? offsets[b-1] : 0,
        // offsets[b]): bounds must be monotone, end at total_refs, and
        // every bucket entry must index a compacted Gaussian.
        uint32_t prev = 0;
        for (int b = 0; ok && b < subtile_count; ++b) {
            if (offsets[b] < prev || offsets[b] > total_refs)
                ok = false;
            prev = offsets[b];
        }
        ok = ok && offsets[subtile_count] == total_refs;
        for (uint32_t k = 0; ok && k < total_refs; ++k)
            if (scr.bucket_entries[k] >= active)
                ok = false;
        if (!ok) {
            // Detected before any pixel write; the reference fallback
            // re-blends the tile from intact inputs, so the tile is
            // recovered regardless of mode.
            integrity->recordFault(IntegrityStage::Raster,
                                   kIntegrityRasterCsr, tile, d0, d1,
                                   true);
            return false;
        }
        integrity->noteCheck();
    }

    // The pixel planes are padded to whole 64-pixel mask words, so the
    // survivor mask's 4-pixel groups never read past them.
    const size_t plane = (block_cap + 63) & ~size_t{63};
    scr.block_power.resize(plane);
    scr.block_t.resize(plane);
    scr.block_r.resize(plane);
    scr.block_g.resize(plane);
    scr.block_b.resize(plane);
    scr.block_cx.resize(plane);
    scr.block_cy.resize(plane);
    scr.block_mask.resize(plane / 64);
    // Survivor exp batch, with slack for the neutral tail padding.
    scr.surv_exp.resize(block_cap + kSurvivorExpBatch);

    const int sub_cols = (w + sub - 1) / sub;
    const int sub_rows = (h + sub - 1) / sub;
    for (int sy = 0; sy < sub_rows; ++sy) {
        const int y0 = sy * sub;
        const int bh = std::min(sub, h - y0);
        for (int sx = 0; sx < sub_cols; ++sx) {
            const int x0 = sx * sub;
            const int bw = std::min(sub, w - x0);
            const int npix = bw * bh;
            const int bit = sy * subtiles + sx;
            const uint32_t begin = bit ? offsets[bit - 1] : 0;
            const uint32_t end = offsets[bit];

            if (begin == end) {
                // No Gaussian covers this subtile: background pixels.
                for (int by = 0; by < bh; ++by) {
                    Vec3 *row = &image->at(px0 + x0, py0 + y0 + by);
                    std::fill_n(row, bw, Vec3{});
                }
                continue;
            }

            // Pixel-center coordinates of the block, flattened row-major.
            // Same construction as the reference ((int + int) converted,
            // then + 0.5f), so the centers are bit-identical.
            float *const __restrict cx = scr.block_cx.data();
            float *const __restrict cy = scr.block_cy.data();
            for (int by = 0; by < bh; ++by) {
                const float fy =
                    static_cast<float>(py0 + y0 + by) + 0.5f;
                for (int bx = 0; bx < bw; ++bx) {
                    cx[by * bw + bx] =
                        static_cast<float>(px0 + x0 + bx) + 0.5f;
                    cy[by * bw + bx] = fy;
                }
            }

            // __restrict: the scratch planes are distinct vectors, and
            // telling the compiler so spares every vectorized loop its
            // runtime aliasing version.
            float *const __restrict pw = scr.block_power.data();
            float *const __restrict bt = scr.block_t.data();
            float *const __restrict br = scr.block_r.data();
            float *const __restrict bg = scr.block_g.data();
            float *const __restrict bb = scr.block_b.data();
            float *const __restrict sexp = scr.surv_exp.data();
            uint64_t *const words = scr.block_mask.data();
            const float cx0f = static_cast<float>(px0 + x0) + 0.5f;
            const float cy0f = static_cast<float>(py0 + y0) + 0.5f;
            std::fill_n(bt, npix, 1.0f);
            std::fill_n(br, npix, 0.0f);
            std::fill_n(bg, npix, 0.0f);
            std::fill_n(bb, npix, 0.0f);
            int live = npix;

            for (uint32_t k = begin; k < end; ++k) {
                const uint32_t g = scr.bucket_entries[k];
                const float mx = scr.gauss_mean_x[g];
                const float my = scr.gauss_mean_y[g];
                const float ca = scr.gauss_conic_a[g];
                const float cb = scr.gauss_conic_b[g];
                const float cc = scr.gauss_conic_c[g];
                const float opacity = scr.gauss_opacity[g];
                const float cut = scr.gauss_power_cut[g];

                // Ellipse-extent prune. The phase-1 bitmap tests the
                // circumscribed 3-sigma circle, but the conic is
                // anisotropic — a thin ellipse often misses most (or
                // all) pixels of a subtile whose corner clips the
                // circle. The conservative squared half-extents bound
                // which pixels can reach the cut: first the nearest
                // column decides whether the block can contain a
                // survivor at all, then the row mask's first and last
                // set bits narrow the pixel range to the rows the cut
                // ellipse touches — all before any power is evaluated.
                // Every comparison is written so NaN keeps the pixel
                // (prune only on a provable miss).
                const float dxn =
                    clamp(mx, cx0f,
                          cx0f + static_cast<float>(bw - 1)) -
                    mx;
                if (dxn * dxn > scr.gauss_dx_bound_sq[g])
                    continue; // no column can reach the cut
                const uint64_t rows = raster_masks::rowMask(
                    cy0f, my, scr.gauss_dy_bound_sq[g], bh);
                if (!rows)
                    continue; // no row can reach the cut
                const int p_lo = std::countr_zero(rows) * bw;
                const int p_hi = (64 - std::countl_zero(rows)) * bw;

                // Conic power for every candidate pixel: contiguous
                // streams, no branches — an auto-vectorization target
                // (see bench/check_vectorization.sh).
                for (int p = p_lo; p < p_hi; ++p) {
                    const float dx = cx[p] - mx;
                    const float dy = cy[p] - my;
                    const float power = conicPower(ca, cb, cc, dx, dy);
                    pw[p] = power;
                }

                // Survivor mask: the pixels that reach the exp. Below
                // the cut alpha cannot reach the threshold; above zero
                // the falloff is defined as 0; a saturated pixel (== the
                // reference's done[] test) never blends. NaN fails every
                // < / > test and so survives, flowing through the exact
                // path as in the reference.
                if (!raster_masks::survivorMask(pw, bt, p_lo, p_hi, cut,
                                                cfg.transmittance_cutoff,
                                                words))
                    continue;
                const int w_lo = p_lo >> 6;
                const int w_hi = (p_hi + 63) >> 6;

                // Blend the set bits in ascending pixel order — the
                // identical per-pixel float sequence as the historical
                // fused loop, only the already-false tests are gone.
                const Vec3 color = scr.gauss_color[g];
                uint64_t ops = 0;
                const auto blendPixel = [&](int p, float falloff) {
                    float alpha = opacity * falloff;
                    if (alpha < cfg.alpha_threshold)
                        return;
                    alpha = std::min(alpha, cfg.alpha_max);
                    ++ops;
                    const float t = bt[p];
                    const float wgt = alpha * t;
                    br[p] += color.x * wgt;
                    bg[p] += color.y * wgt;
                    bb[p] += color.z * wgt;
                    const float nt = t * (1.0f - alpha);
                    bt[p] = nt;
                    if (nt < cfg.transmittance_cutoff) {
                        --live;
                        ++stats.pixels_terminated;
                    }
                };
                if (cfg.fast_exp) {
                    // Pack the survivors' powers dense and pad the tail
                    // with neutral lanes up to a kSurvivorExpBatch
                    // multiple, so the polynomial loop runs whole
                    // fixed-width groups in place — the
                    // auto-vectorization target (see
                    // bench/check_vectorization.sh).
                    uint32_t n_surv = 0;
                    forEachBit(words, w_lo, w_hi,
                               [&](int p) { sexp[n_surv++] = pw[p]; });
                    const uint32_t n_pad =
                        (n_surv + kSurvivorExpBatch - 1) &
                        ~(kSurvivorExpBatch - 1);
                    for (uint32_t i = n_surv; i < n_pad; ++i)
                        sexp[i] = -1.0f;
                    // One flat loop over the padded batch: GCC 12
                    // vectorizes this form, but not a nested
                    // fixed-width-inner version (the unrolled inner
                    // body defeats its data-ref analysis).
                    for (uint32_t i = 0; i < n_pad; ++i)
                        sexp[i] = fastExpNegativeLane(sexp[i]);
                    uint32_t i = 0;
                    forEachBit(words, w_lo, w_hi,
                               [&](int p) { blendPixel(p, sexp[i++]); });
                } else {
                    forEachBit(words, w_lo, w_hi, [&](int p) {
                        blendPixel(p, std::exp(pw[p]));
                    });
                }
                stats.blend_ops += ops;
                if (live == 0)
                    break; // block saturated: retire the remaining list
            }

            for (int by = 0; by < bh; ++by) {
                Vec3 *row = &image->at(px0 + x0, py0 + y0 + by);
                for (int bx = 0; bx < bw; ++bx) {
                    const int p = by * bw + bx;
                    row[bx] = Vec3{br[p], bg[p], bb[p]};
                }
            }
        }
    }
    return true;
}

} // namespace

RasterStats
rasterizeTile(const std::vector<TileEntry> &entries, const BinnedFrame &frame,
              int tile, const RasterConfig &cfg, Image *image,
              std::vector<uint8_t> *valid_out, RasterScratch *scratch,
              IntegrityContext *integrity)
{
    if (integrity && !integrity->enabled())
        integrity = nullptr;
    RasterStats stats;
    const TileGrid &grid = frame.grid;
    const Vec2 origin = grid.tileOrigin(tile);
    const int tile_size = grid.tile_size;
    // Panics past 64 subtiles per tile (the bitmap is one word).
    const SubtileEdges edges(origin, tile_size, cfg.subtile_size);
    const int subtiles = edges.subtiles;

    const size_t n = entries.size();
    stats.gaussians_in = n;
    if (valid_out)
        valid_out->assign(n, 0);

    RasterScratch local;
    RasterScratch &scr = scratch ? *scratch : local;

    // The tile's pixel rectangle (empty for a stats-only dry run), known
    // up front so the ITU pass can feed the blocked kernel directly.
    const int px0 = static_cast<int>(origin.x);
    const int py0 = static_cast<int>(origin.y);
    const int w = image ? std::min(tile_size, image->width() - px0) : 0;
    const int h = image ? std::min(tile_size, image->height() - py0) : 0;
    const bool blend = w > 0 && h > 0;
    // The blocked kernel's row mask is one word: subtiles of at most 64
    // rows (any larger block takes the bit-identical reference blend).
    const bool blocked = blend && !cfg.reference_path &&
                         tile_size % cfg.subtile_size == 0 &&
                         cfg.subtile_size <= 64;

    // Phase 1 (ITU): one walk over the entries gathers each entry's
    // features by id once and computes its subtile bitmap and valid bit.
    // On the blocked path the same walk compacts every entry that can
    // blend into the kernel's SoA arrays: it must hit a subtile, and its
    // peak alpha must reach the threshold (opacity < threshold implies
    // alpha = opacity * falloff <= opacity for falloff in [0, 1], so the
    // reference loop never blends it either). The per-entry bitmaps stay
    // for the reference blend, which is also the blocked kernel's
    // fallback.
    std::vector<SubtileBitmap> &bitmaps = scr.bitmaps;
    bitmaps.resize(n);
    if (blocked)
        reserveCompacted(scr, n);
    const float log_threshold = std::log(cfg.alpha_threshold);
    uint32_t active = 0;
    for (size_t i = 0; i < n; ++i) {
        prefetchGather(frame, entries, i, [&](GaussianId ahead) {
            prefetchRead(&frame.mean2d[ahead]);
            prefetchRead(&frame.radius_px[ahead]);
            if (blocked) {
                prefetchRead(&frame.opacity[ahead]);
                prefetchRead(&frame.conic[ahead]);
                prefetchRead(&frame.color[ahead]);
            }
        });
        bitmaps[i] = 0;
        const GaussianId id = entries[i].id;
        if (!entries[i].valid || !frame.isVisible(id))
            continue;
        const SubtileBitmap bm = raster_masks::subtileBits(
            edges, frame.mean2d[id], frame.radius_px[id]);
        bitmaps[i] = bm;
        stats.intersection_tests +=
            static_cast<uint64_t>(subtiles) * subtiles;
        if (!bm)
            continue;
        ++stats.gaussians_blended;
        if (valid_out)
            (*valid_out)[i] = 1;
        if (blocked && !(frame.opacity[id] < cfg.alpha_threshold))
            compactGaussian(frame, id, bm, log_threshold, scr, active++);
    }

    if (!blend) {
        // Dry run (or a tile outside the image): ITU work only.
        return stats;
    }

    // Phase 2 (SCU): per-pixel front-to-back alpha blending.
    // blendBlocked returns false only when its integrity fence caught a
    // corrupted CSR (before any pixel write); the reference blend then
    // re-renders the tile from the intact entry list.
    if (!blocked ||
        !blendBlocked(active, cfg, image, scr, stats, px0, py0, w, h,
                      subtiles, tile, integrity))
        blendReference(entries, frame, cfg, image, scr, stats, px0, py0,
                       w, h, subtiles);
    return stats;
}

uint64_t
estimateTileBlendOps(const std::vector<TileEntry> &entries,
                     const BinnedFrame &frame, int tile,
                     const RasterConfig &cfg)
{
    const TileGrid &grid = frame.grid;
    const Vec2 origin = grid.tileOrigin(tile);
    const int tile_size = grid.tile_size;
    const int subtiles_1d = tile_size / cfg.subtile_size;
    const int subtile_count = subtiles_1d * subtiles_1d;
    const double tile_pixels = static_cast<double>(tile_size) * tile_size;

    // Walk sorted entries front to back tracking a tile-mean transmittance.
    // Each entry contributes blends over the pixels of its covered subtiles
    // that are still live; the mean alpha over a Gaussian footprint is
    // opacity * E[falloff] with E[falloff] ~= 0.45 for a 3-sigma splat.
    constexpr double kMeanFalloff = 0.45;
    const SubtileEdges edges(origin, tile_size, cfg.subtile_size);
    double transmittance = 1.0;
    double blend_ops = 0.0;
    for (const TileEntry &e : entries) {
        if (transmittance < cfg.transmittance_cutoff)
            break;
        if (!e.valid || !frame.isVisible(e.id))
            continue;
        const float opacity = frame.opacity[e.id];
        SubtileBitmap bm = raster_masks::subtileBits(
            edges, frame.mean2d[e.id], frame.radius_px[e.id]);
        if (!bm)
            continue;
        double coverage =
            static_cast<double>(std::popcount(bm)) / subtile_count;
        double alpha_eff = std::min(
            static_cast<double>(opacity) * kMeanFalloff,
            static_cast<double>(cfg.alpha_max));
        if (alpha_eff < cfg.alpha_threshold)
            continue;
        blend_ops += coverage * tile_pixels;
        // Only the covered fraction of the tile attenuates.
        transmittance *= (1.0 - coverage * alpha_eff);
    }
    return static_cast<uint64_t>(blend_ops);
}

} // namespace neo
