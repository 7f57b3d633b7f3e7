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

namespace neo
{

SubtileBitmap
subtileBitmap(Vec2 mean2d, float radius_px, Vec2 tile_origin, int tile_size,
              int subtile_size)
{
    const int subtiles = tile_size / subtile_size;
    const float step = static_cast<float>(subtile_size);
    const float r2 = radius_px * radius_px;
    SubtileBitmap bitmap = 0;
    int bit = 0;
    float y0 = tile_origin.y;
    for (int sy = 0; sy < subtiles; ++sy, y0 += step) {
        // Closest point of the subtile rectangle to the Gaussian center;
        // the y term is constant across the inner row.
        const float cy = clamp(mean2d.y, y0, y0 + step);
        const float dy = cy - mean2d.y;
        const float dy2 = dy * dy;
        float x0 = tile_origin.x;
        for (int sx = 0; sx < subtiles; ++sx, ++bit, x0 += step) {
            float cx = clamp(mean2d.x, x0, x0 + step);
            float dx = cx - mean2d.x;
            if (dx * dx + dy2 <= r2)
                bitmap |= (SubtileBitmap{1} << bit);
        }
    }
    return bitmap;
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
 * fallback when the frame has no SoA feature arrays or the subtile size
 * does not divide the tile size.
 */
void
blendReference(const std::vector<TileEntry> &entries,
               const BinnedFrame &frame, const RasterConfig &cfg,
               Image *image, RasterScratch &scr, RasterStats &stats,
               int px0, int py0, int w, int h, int subtiles)
{
    const bool soa = frame.hasFeatureArrays();
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
        const int32_t slot = frame.slotOf(entries[i].id);
        const ProjectedGaussian &pg = frame.features[slot];
        const Vec2 mean = soa ? frame.mean2d[slot] : pg.mean2d;
        const Vec3 conic = soa ? frame.conic[slot]
                               : Vec3{pg.conic_a, pg.conic_b, pg.conic_c};
        const float opacity = soa ? frame.opacity[slot] : pg.opacity;
        const Vec3 color = soa ? frame.color[slot] : pg.color;
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
 * Subtile-blocked blend kernel. Instead of scanning every tile pixel for
 * every Gaussian, the tile's valid entries are bucketed per subtile
 * (CSR, driven by the phase-1 bitmaps) and each subtile's pixel block is
 * blended to completion in contiguous SoA planes:
 *
 *  1. compact the covering Gaussians' hot fields into per-field arrays
 *     (front-to-back order preserved) and build the CSR buckets;
 *  2. per block and Gaussian, a survivor-batched pipeline replaces the
 *     historical test->exp->blend pixel loop:
 *       a. one vectorizable pass evaluates the conic power for all block
 *          pixels from precomputed pixel-center coordinates (no divides,
 *          no bitmap tests in the inner loop);
 *       b. a branch-free compaction gathers the indices and powers of
 *          the pixels that reach the exp — inside the log-domain
 *          threshold cut and not yet saturated — into a dense survivor
 *          list;
 *       c. the falloff exp is evaluated over the whole survivor batch in
 *          one contiguous loop: with fast_exp the branchless
 *          fastExpNegativeLane polynomial over lists tail-padded with
 *          neutral lanes to a kSurvivorExpBatch multiple (fixed-width
 *          groups, no scalar epilogue — the SIMD target of
 *          bench/check_vectorization.sh), otherwise std::exp over the
 *          same dense list;
 *       d. alpha/transmittance/color blends apply in survivor order.
 *  3. a per-block live counter retires all remaining Gaussians at once
 *     when every pixel of the block has saturated.
 *
 * Per-pixel blend order and arithmetic are exactly those of
 * blendReference — a pixel's result depends only on the ordered set of
 * Gaussians covering its subtile, which the buckets preserve, and the
 * survivor list keeps ascending pixel order with each pixel appearing at
 * most once per Gaussian, so splitting the test from the blend cannot
 * reorder or change any float operation — and pixels and stats come out
 * bit-identical (the done[] test is replaced by the equivalent
 * transmittance < cutoff predicate, applied at compaction time).
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
blendBlocked(const std::vector<TileEntry> &entries, const BinnedFrame &frame,
             const RasterConfig &cfg, Image *image, RasterScratch &scr,
             RasterStats &stats, int px0, int py0, int w, int h,
             int subtiles, int tile, IntegrityContext *integrity)
{
    const std::vector<SubtileBitmap> &bitmaps = scr.bitmaps;
    const int sub = cfg.subtile_size;
    const int subtile_count = subtiles * subtiles;
    const size_t block_cap = static_cast<size_t>(sub) * sub;

    // --- Bucket sizes and the compacted-Gaussian count. Entries whose
    // peak alpha cannot reach the threshold (opacity < threshold implies
    // alpha = opacity * falloff <= opacity for falloff in [0, 1]) never
    // blend in the reference loop either and are dropped here.
    std::vector<uint32_t> &offsets = scr.bucket_offsets;
    offsets.assign(static_cast<size_t>(subtile_count) + 1, 0);
    uint32_t active = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        SubtileBitmap bm = bitmaps[i];
        if (!bm)
            continue;
        if (frame.opacity[frame.slotOf(entries[i].id)] <
            cfg.alpha_threshold)
            continue;
        ++active;
        while (bm) {
            ++offsets[std::countr_zero(bm) + 1];
            bm &= bm - 1;
        }
    }
    for (int b = 0; b < subtile_count; ++b)
        offsets[b + 1] += offsets[b];
    const uint32_t total_refs = offsets[subtile_count];

    // --- Compact the hot Gaussian fields into SoA arrays (front-to-back
    // order) and scatter the bucket entries; afterwards bucket b spans
    // [b ? offsets[b-1] : 0, offsets[b]).
    scr.gauss_mean_x.resize(active);
    scr.gauss_mean_y.resize(active);
    scr.gauss_conic_a.resize(active);
    scr.gauss_conic_b.resize(active);
    scr.gauss_conic_c.resize(active);
    scr.gauss_opacity.resize(active);
    scr.gauss_power_cut.resize(active);
    scr.gauss_dx_bound_sq.resize(active);
    scr.gauss_dy_bound_sq.resize(active);
    scr.gauss_color.resize(active);
    scr.bucket_entries.resize(total_refs);
    // The skip cut: power < log(threshold / opacity) - 1/16 guarantees
    // alpha < threshold, so skipping the exp there cannot change which
    // pixels blend. The 2^-4 margin (exact in float) is ~4 orders of
    // magnitude above everything it must swamp — the <= 1-ulp rounding
    // of the two logs and the subtractions, and the relative error of
    // the falloff exp itself (std::exp <= 1 ulp, fastExpNegative <=
    // kFastExpMaxRelError = 2e-6): a skipped pixel's alpha is below
    // e^(-1/16) * threshold * (1 + ~1e-5) < 0.94 * threshold.
    const float log_threshold = std::log(cfg.alpha_threshold);
    uint32_t j = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        SubtileBitmap bm = bitmaps[i];
        if (!bm)
            continue;
        const int32_t slot = frame.slotOf(entries[i].id);
        const float opacity = frame.opacity[slot];
        if (opacity < cfg.alpha_threshold)
            continue;
        const Vec2 mean = frame.mean2d[slot];
        const Vec3 conic = frame.conic[slot];
        scr.gauss_mean_x[j] = mean.x;
        scr.gauss_mean_y[j] = mean.y;
        scr.gauss_conic_a[j] = conic.x;
        scr.gauss_conic_b[j] = conic.y;
        scr.gauss_conic_c[j] = conic.z;
        scr.gauss_opacity[j] = opacity;
        scr.gauss_color[j] = frame.color[slot];
        const float cut_j = log_threshold - std::log(opacity) - 0.0625f;
        scr.gauss_power_cut[j] = cut_j;
        // Conservative squared half-extents of the cut ellipse: for a
        // fixed dy the power maximizes (over real dx) at
        // -dy^2 * det / (2a), so rows with dy^2 > -2a*cut/det cannot
        // contain a pixel reaching the cut (columns symmetrically with
        // c). Two safeguards keep the prune strictly conservative
        // against float rounding of the kernel's power evaluation:
        // the products and det are computed in double (exact for float
        // inputs, so the notorious a*c - b*b cancellation cannot
        // amplify error), and pruning is enabled only when
        // det >= 2^-10 * (a*c). That conditioning guard bounds the
        // magnitude of the power terms at any near-cut pixel by
        // ~2 * (a*c/det) * |cut| <= 2^11 * |cut|; with ~8 roundings of
        // <= 2^-24 each in conicPower, the float evaluation's absolute
        // error stays below ~2^-10 * |cut|, and the 1 + 2^-7 bound
        // inflation leaves an 8x margin over that worst case (|cut| >=
        // the 2^-4 cut margin by construction). Ill-conditioned,
        // degenerate or NaN conics get infinite bounds (no pruning)
        // and flow through the full-block path.
        const double ad = conic.x, bd = conic.y, cd = conic.z;
        const double det = ad * cd - bd * bd;
        float dx_bound_sq = std::numeric_limits<float>::infinity();
        float dy_bound_sq = dx_bound_sq;
        if (conic.x > 0.0f && conic.z > 0.0f &&
            det > 0x1p-10 * (ad * cd) && cut_j < 0.0f) {
            const double s =
                -2.0 * static_cast<double>(cut_j) / det * 1.0078125;
            dy_bound_sq = static_cast<float>(ad * s);
            dx_bound_sq = static_cast<float>(cd * s);
        }
        scr.gauss_dx_bound_sq[j] = dx_bound_sq;
        scr.gauss_dy_bound_sq[j] = dy_bound_sq;
        while (bm) {
            scr.bucket_entries[offsets[std::countr_zero(bm)]++] = j;
            bm &= bm - 1;
        }
        ++j;
    }

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

    scr.block_power.resize(block_cap);
    scr.block_t.resize(block_cap);
    scr.block_r.resize(block_cap);
    scr.block_g.resize(block_cap);
    scr.block_b.resize(block_cap);
    scr.block_cx.resize(block_cap);
    scr.block_cy.resize(block_cap);
    // Survivor batch, with slack for the neutral tail padding.
    scr.surv_idx.resize(block_cap + kSurvivorExpBatch);
    scr.surv_pow.resize(block_cap + kSurvivorExpBatch);
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
            uint32_t *const __restrict sidx = scr.surv_idx.data();
            float *const __restrict spow = scr.surv_pow.data();
            float *const __restrict sexp = scr.surv_exp.data();
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
                // survivor at all, then the row scan narrows the pixel
                // range to the rows the cut ellipse touches — all
                // before any power is evaluated. Every comparison is
                // written so NaN keeps the pixel (prune only on a
                // provable miss).
                const float dxn =
                    clamp(mx, cx0f,
                          cx0f + static_cast<float>(bw - 1)) -
                    mx;
                if (dxn * dxn > scr.gauss_dx_bound_sq[g])
                    continue; // no column can reach the cut
                const float dy_bsq = scr.gauss_dy_bound_sq[g];
                int by_lo = 0;
                while (by_lo < bh) {
                    const float dy =
                        (cy0f + static_cast<float>(by_lo)) - my;
                    if (!(dy * dy > dy_bsq))
                        break;
                    ++by_lo;
                }
                if (by_lo == bh)
                    continue; // no row can reach the cut
                int by_hi = bh - 1;
                while (by_hi > by_lo) {
                    const float dy =
                        (cy0f + static_cast<float>(by_hi)) - my;
                    if (!(dy * dy > dy_bsq))
                        break;
                    --by_hi;
                }
                const int p_lo = by_lo * bw;
                const int p_hi = (by_hi + 1) * bw;

                // Conic power for every candidate pixel: contiguous
                // streams, no branches — an auto-vectorization target
                // (see bench/check_vectorization.sh). The same pass
                // OR-folds the block-level retire predicate for the
                // rows that survived the extent prune; NaN powers
                // conservatively read as reaching (!(NaN < cut) is
                // true), exactly like the per-pixel test below.
                unsigned any_reach = 0;
                for (int p = p_lo; p < p_hi; ++p) {
                    const float dx = cx[p] - mx;
                    const float dy = cy[p] - my;
                    const float power = conicPower(ca, cb, cc, dx, dy);
                    pw[p] = power;
                    any_reach |= static_cast<unsigned>(!(power < cut));
                }
                if (!any_reach)
                    continue;

                // Survivor compaction: gather the pixels that reach the
                // exp. Below the cut alpha cannot reach the threshold;
                // above zero the falloff is defined as 0; a saturated
                // pixel (== the reference's done[] test) never blends.
                // NaN fails every < / > test and so survives, flowing
                // through the exact path as in the reference. The write
                // is unconditional and the index advances by the
                // predicate — no branch to mispredict, and each pixel
                // appears at most once, in ascending order.
                uint32_t n_surv = 0;
                for (int p = p_lo; p < p_hi; ++p) {
                    const float power = pw[p];
                    const unsigned keep =
                        static_cast<unsigned>(!(power < cut)) &
                        static_cast<unsigned>(!(power > 0.0f)) &
                        static_cast<unsigned>(
                            !(bt[p] < cfg.transmittance_cutoff));
                    sidx[n_surv] = static_cast<uint32_t>(p);
                    spow[n_surv] = power;
                    n_surv += keep;
                }
                if (n_surv == 0)
                    continue;

                // Falloff exp across the whole survivor batch. The fast
                // path pads the tail with neutral lanes up to a
                // kSurvivorExpBatch multiple, so the polynomial loop
                // runs whole fixed-width groups — the auto-vectorization
                // target (see bench/check_vectorization.sh). The exact
                // path calls std::exp over the same dense list (scalar,
                // but with the test branches already resolved).
                if (cfg.fast_exp) {
                    const uint32_t n_pad =
                        (n_surv + kSurvivorExpBatch - 1) &
                        ~(kSurvivorExpBatch - 1);
                    for (uint32_t i = n_surv; i < n_pad; ++i)
                        spow[i] = -1.0f;
                    // One flat loop over the padded batch: GCC 12
                    // vectorizes this form, but not a nested
                    // fixed-width-inner version (the unrolled inner
                    // body defeats its data-ref analysis).
                    for (uint32_t i = 0; i < n_pad; ++i)
                        sexp[i] = fastExpNegativeLane(spow[i]);
                } else {
                    for (uint32_t i = 0; i < n_surv; ++i)
                        sexp[i] = std::exp(spow[i]);
                }

                // Blend in survivor order — identical per-pixel float
                // sequence as the historical fused loop, only the
                // already-false tests are gone.
                const Vec3 color = scr.gauss_color[g];
                uint64_t ops = 0;
                for (uint32_t i = 0; i < n_surv; ++i) {
                    const uint32_t p = sidx[i];
                    float alpha = opacity * sexp[i];
                    if (alpha < cfg.alpha_threshold)
                        continue;
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
    const int subtiles = tile_size / cfg.subtile_size;
    if (subtiles * subtiles > 64)
        panic("rasterizeTile: more than 64 subtiles per tile");

    stats.gaussians_in = entries.size();
    if (valid_out)
        valid_out->assign(entries.size(), 0);

    RasterScratch local;
    RasterScratch &scr = scratch ? *scratch : local;

    // SoA footprint arrays when in sync (always, for binFrame output);
    // fall back to the AoS feature records otherwise.
    const bool soa = frame.hasFeatureArrays();

    // Phase 1 (ITU): subtile bitmaps and valid bits.
    std::vector<SubtileBitmap> &bitmaps = scr.bitmaps;
    bitmaps.assign(entries.size(), 0);
    for (size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid || !frame.isVisible(entries[i].id))
            continue;
        const int32_t slot = frame.slotOf(entries[i].id);
        const Vec2 mean = soa ? frame.mean2d[slot]
                              : frame.features[slot].mean2d;
        const float radius = soa ? frame.radius_px[slot]
                                 : frame.features[slot].radius_px;
        bitmaps[i] =
            subtileBitmap(mean, radius, origin, tile_size,
                          cfg.subtile_size);
        stats.intersection_tests +=
            static_cast<uint64_t>(subtiles) * subtiles;
        if (bitmaps[i]) {
            ++stats.gaussians_blended;
            if (valid_out)
                (*valid_out)[i] = 1;
        }
    }

    if (!image) {
        // Dry run: ITU work only.
        return stats;
    }

    // Phase 2 (SCU): per-pixel front-to-back alpha blending.
    const int img_w = image->width();
    const int img_h = image->height();
    const int px0 = static_cast<int>(origin.x);
    const int py0 = static_cast<int>(origin.y);
    const int w = std::min(tile_size, img_w - px0);
    const int h = std::min(tile_size, img_h - py0);
    if (w <= 0 || h <= 0)
        return stats;

    const bool blocked = soa && !cfg.reference_path &&
                         tile_size % cfg.subtile_size == 0;
    // blendBlocked returns false only when its integrity fence caught a
    // corrupted CSR (before any pixel write); the reference blend then
    // re-renders the tile from the intact entry list.
    if (!blocked ||
        !blendBlocked(entries, frame, cfg, image, scr, stats, px0, py0, w,
                      h, subtiles, tile, integrity))
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
    const bool soa = frame.hasFeatureArrays();
    double transmittance = 1.0;
    double blend_ops = 0.0;
    for (const TileEntry &e : entries) {
        if (transmittance < cfg.transmittance_cutoff)
            break;
        if (!e.valid || !frame.isVisible(e.id))
            continue;
        const int32_t slot = frame.slotOf(e.id);
        const float opacity =
            soa ? frame.opacity[slot] : frame.features[slot].opacity;
        SubtileBitmap bm = subtileBitmap(
            soa ? frame.mean2d[slot] : frame.features[slot].mean2d,
            soa ? frame.radius_px[slot] : frame.features[slot].radius_px,
            origin, tile_size, cfg.subtile_size);
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
