/**
 * @file
 * Tile rasterization — stage 4 of the 3DGS pipeline. Depth-sorted Gaussians
 * are alpha-blended front to back per pixel, with early termination once a
 * pixel's transmittance drops below a cutoff.
 *
 * The rasterizer implements the subtile optimization of GSCore/Neo: each
 * tile is subdivided into subtiles, a per-Gaussian intersection bitmap is
 * computed (the Intersection Test Unit in hardware), and per-pixel work is
 * skipped for subtiles the Gaussian does not touch. The cumulative OR of
 * the bitmaps yields the valid bit Neo uses to flag outgoing Gaussians.
 * The bitmap test is separable: a squared distance per subtile column and
 * per subtile row, then one SIMD compare per row (gs/raster_masks.h).
 *
 * Two software implementations of the blend phase share that contract:
 *
 *  - the **subtile-blocked kernel** (default): entries are bucketed per
 *    subtile from the bitmaps, and each subtile's pixel block is blended
 *    to completion in contiguous SoA scratch planes through a mask
 *    pipeline — a row mask from the ellipse-extent prune, a vectorized
 *    conic-power plane, one SIMD pass that turns it into a survivor
 *    bitmask (one bit per pixel, one word per 64 pixels), then a blend
 *    that walks the set bits in ascending order (see raster.cpp);
 *  - the **scalar reference** (RasterConfig::reference_path): the
 *    historical Gaussian-major full-tile scan, kept for A/B testing.
 *
 * Both produce bit-identical pixels and RasterStats for any input; the
 * blocked-vs-reference tests in tests/test_raster.cpp pin that down.
 */

#ifndef NEO_GS_RASTER_H
#define NEO_GS_RASTER_H

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/image.h"
#include "gs/tiling.h"

namespace neo
{

/** Rasterizer configuration (defaults follow the Neo paper, Table 1). */
struct RasterConfig
{
    /** Subtile edge length in pixels (paper: 8x8). */
    int subtile_size = 8;
    /** Minimum per-pixel alpha for a Gaussian to contribute (1/255). */
    float alpha_threshold = 1.0f / 255.0f;
    /** Stop blending a pixel when transmittance falls below this. */
    float transmittance_cutoff = 1e-4f;
    /** Alpha is clamped to this maximum, as in the reference renderer. */
    float alpha_max = 0.99f;
    /**
     * Evaluate the falloff exponential with the deterministic polynomial
     * fastExpNegative() instead of std::exp. Changes pixel values within
     * the tested relative-error bound, but is a pure per-pixel function,
     * so frames stay bit-identical across thread counts and across the
     * blocked/reference paths (both honor the knob).
     */
    bool fast_exp = false;
    /**
     * Force the scalar Gaussian-major reference blend loop instead of the
     * subtile-blocked kernel (A/B testing and perf archaeology). Output
     * is bit-identical either way.
     */
    bool reference_path = false;
};

/** Work counters produced by rasterizing one tile. */
struct RasterStats
{
    uint64_t gaussians_in = 0;        //!< entries presented to the core
    uint64_t intersection_tests = 0;  //!< ITU subtile tests
    uint64_t gaussians_blended = 0;   //!< entries with >=1 subtile hit
    uint64_t blend_ops = 0;           //!< per-pixel alpha-blend operations
    uint64_t pixels_terminated = 0;   //!< pixels that hit the cutoff

    RasterStats &
    operator+=(const RasterStats &o)
    {
        gaussians_in += o.gaussians_in;
        intersection_tests += o.intersection_tests;
        gaussians_blended += o.gaussians_blended;
        blend_ops += o.blend_ops;
        pixels_terminated += o.pixels_terminated;
        return *this;
    }
};

/**
 * Per-Gaussian subtile intersection bitmap. Bit i corresponds to subtile i
 * in row-major order within the tile; a zero bitmap means the Gaussian
 * touches no subtile (it is "outgoing" for reuse-and-update sorting).
 */
using SubtileBitmap = uint64_t;

/**
 * Intersection Test Unit model: conservative test of a Gaussian footprint
 * (screen center + radius) against every subtile of a tile. A subtile
 * passes when its closest point to the center lies within the radius,
 * dx^2 + dy^2 <= r^2. The test is separable: dx^2 is computed once per
 * subtile column and dy^2 once per row, with the subtile edges stepped
 * by repeated addition from the tile origin, and each row's bits come
 * from one SIMD compare across all columns (raster_masks::subtileBits).
 * These are the float operations of the plain per-subtile double loop,
 * operand for operand, so the bitmap equals it for every input.
 */
SubtileBitmap subtileBitmap(Vec2 mean2d, float radius_px, Vec2 tile_origin,
                            int tile_size, int subtile_size);

/** Convenience overload reading the footprint from @p pg. */
inline SubtileBitmap
subtileBitmap(const ProjectedGaussian &pg, Vec2 tile_origin, int tile_size,
              int subtile_size)
{
    return subtileBitmap(pg.mean2d, pg.radius_px, tile_origin, tile_size,
                         subtile_size);
}

/**
 * Deterministic polynomial approximation of std::exp for x <= 0, used by
 * the blend loops when RasterConfig::fast_exp is set. Pure float
 * arithmetic in a fixed operation order — the result depends only on x,
 * never on thread count or call site. Relative error is bounded by
 * kFastExpMaxRelError (asserted by tests against std::exp over the whole
 * falloff range); exact at x == 0 and exactly 0 below the flush point.
 */
float fastExpNegative(float x);

/** Tested relative-error bound of fastExpNegative on [-87, 0]. */
constexpr float kFastExpMaxRelError = 2e-6f;

/**
 * Lane width (floats) the fast_exp survivor batch is padded to: the
 * blocked kernel rounds each dense survivor list up to a multiple of
 * this with neutral lanes, so the batch loop runs whole fixed-width
 * groups and the compiler vectorizes it without a scalar epilogue.
 */
constexpr uint32_t kSurvivorExpBatch = 8;

/**
 * Branchless single-lane form of fastExpNegative, bit-identical to it
 * on the function's whole specified domain — x <= 0 (including -0.0,
 * denormals and -inf) and NaN — which is asserted exhaustively by
 * tests; that is also the only domain the survivor batch can produce
 * (the survivor mask rejects positive powers). Written so the
 * exp batch loop of the blocked kernel auto-vectorizes: the range/NaN
 * conditionals are explicit bit-mask selects (a plain ternary is
 * turned back into a branch by GCC, which then refuses to vectorize
 * the loop), and std::floor is replaced by the exact
 * truncate-and-adjust idiom — everything lowers to SIMD compares,
 * logicals and integer conversions. Defined for every input: underflow
 * and NaN lanes run the polynomial on a clamped stand-in (keeping the
 * float->int conversion defined) with the genuine result (0, or the
 * propagated NaN with its payload) selected at the end, and positive
 * inputs — outside the specified domain, where the scalar form would
 * overflow its exponent arithmetic — clamp to +0 and so saturate to
 * exp(0) == 1.
 */
inline float
fastExpNegativeLane(float x)
{
    // All-ones when the polynomial path applies (false for NaN too).
    const uint32_t in_range = 0u - static_cast<uint32_t>(x >= -87.0f);
    // All-ones for positive x (out of domain): clamped to +0 below.
    const uint32_t positive = 0u - static_cast<uint32_t>(x > 0.0f);
    // xs = positive ? +0.0f : (in_range ? x : -1.0f), as bits.
    const float xs = std::bit_cast<float>(
        ((std::bit_cast<uint32_t>(x) & in_range) |
         (std::bit_cast<uint32_t>(-1.0f) & ~in_range)) &
        ~positive);
    const float y = xs * 1.44269504f + 0.5f; // x * log2(e), pre-floor
    int32_t ni = static_cast<int32_t>(y);    // truncation toward zero
    ni -= static_cast<float>(ni) > y;        // exact floor for y < 2^31
    const float n = static_cast<float>(ni);
    const float u = (xs - n * 0.693359375f) + n * 2.12194440e-4f;
    float p = 1.38888889e-3f;               // 1/720
    p = p * u + 8.33333333e-3f;             // 1/120
    p = p * u + 4.16666667e-2f;             // 1/24
    p = p * u + 1.66666667e-1f;             // 1/6
    p = p * u + 0.5f;
    p = p * u + 1.0f;
    p = p * u + 1.0f;
    const float scale =
        std::bit_cast<float>(static_cast<uint32_t>(127 + ni) << 23);
    const float r = p * scale;
    // Select: in-range -> r, underflow -> +0.0f, NaN -> x (payload kept,
    // as in std::exp).
    const uint32_t nan_mask = 0u - static_cast<uint32_t>(x != x);
    const uint32_t ri =
        (std::bit_cast<uint32_t>(r) & in_range & ~nan_mask) |
        (std::bit_cast<uint32_t>(x) & nan_mask);
    return std::bit_cast<float>(ri);
}

/**
 * Identifier of the blocked blend kernel generation, recorded in the
 * trajectory JSON (bench_scaling --json) so every BENCH_PR<n>.json is
 * self-describing about which kernel produced its numbers.
 */
constexpr const char *kRasterKernelVariant =
    "subtile-blocked/survivor-mask";

/**
 * Reusable working memory of rasterizeTile. One instance per worker
 * thread (or one for the serial path) amortizes the per-call vector
 * allocations across all tiles the worker rasterizes; every element is
 * overwritten before use, so reuse cannot change results.
 *
 * The first block of vectors serves the ITU pass and the scalar reference
 * blend; the rest is the subtile-blocked kernel's working set: one SoA
 * array per hot Gaussian field (compacted over the entries that hit at
 * least one subtile and can reach the alpha threshold, filled by the
 * ITU pass itself, so each entry's features are gathered once), the CSR
 * subtile buckets, the per-block pixel planes (transmittance / r / g /
 * b / falloff power / pixel centers), each subtile_size^2 floats padded
 * to whole 64-pixel words, the block's survivor mask words, and the
 * fast_exp survivor batch.
 */
struct RasterScratch
{
    std::vector<SubtileBitmap> bitmaps;
    // Scalar reference blend planes.
    std::vector<float> transmittance;
    std::vector<Vec3> accum;
    std::vector<uint8_t> done;
    // Blocked kernel: compacted per-Gaussian SoA (front-to-back order).
    std::vector<float> gauss_mean_x;
    std::vector<float> gauss_mean_y;
    std::vector<float> gauss_conic_a;
    std::vector<float> gauss_conic_b;
    std::vector<float> gauss_conic_c;
    std::vector<float> gauss_opacity;
    std::vector<float> gauss_power_cut;
    // Conservative squared half-extents of the cut ellipse (see
    // blendBlocked): pixels farther than these from the center along an
    // axis provably cannot reach the skip cut.
    std::vector<float> gauss_dx_bound_sq;
    std::vector<float> gauss_dy_bound_sq;
    std::vector<Vec3> gauss_color;
    std::vector<SubtileBitmap> gauss_bitmap;
    // Blocked kernel: CSR buckets mapping subtile -> covering Gaussians.
    std::vector<uint32_t> bucket_offsets;
    std::vector<uint32_t> bucket_entries;
    // Blocked kernel, fast_exp: the survivors' powers packed dense
    // (tail-padded to kSurvivorExpBatch), then their falloffs in place.
    std::vector<float> surv_exp;
    // Blocked kernel: per-block SoA pixel planes and pixel-center coords,
    // padded to whole 64-pixel words, and the block's survivor mask (one
    // bit per pixel).
    std::vector<float> block_power;
    std::vector<float> block_t;
    std::vector<float> block_r;
    std::vector<float> block_g;
    std::vector<float> block_b;
    std::vector<float> block_cx;
    std::vector<float> block_cy;
    std::vector<uint64_t> block_mask;

    /**
     * Every member vector of @p s, as a std::tie of references: the one
     * list capacityBytes and the raster stage's high-water pass
     * (growToHighWater) walk.
     */
    template <typename Self>
    static auto buffers(Self &s)
    {
        return std::tie(s.bitmaps, s.transmittance, s.accum, s.done,
                        s.gauss_mean_x, s.gauss_mean_y, s.gauss_conic_a,
                        s.gauss_conic_b, s.gauss_conic_c, s.gauss_opacity,
                        s.gauss_power_cut, s.gauss_dx_bound_sq,
                        s.gauss_dy_bound_sq, s.gauss_color,
                        s.gauss_bitmap, s.bucket_offsets, s.bucket_entries,
                        s.surv_exp, s.block_power, s.block_t, s.block_r,
                        s.block_g, s.block_b, s.block_cx, s.block_cy,
                        s.block_mask);
    }

    /**
     * Bytes of heap capacity currently held by every member vector.
     * Summed into RasterState::capacityBytes (and so into
     * NeoRenderer::retainedScratchBytes), so the steady-state
     * no-regrowth test also covers this nested scratch.
     */
    size_t capacityBytes() const;
};

/**
 * Rasterize one tile.
 *
 * Blend order is per pixel, front to back in entry order; the blocked and
 * reference paths produce bit-identical pixels and stats (see file
 * comment). The blocked kernel requires a subtile size of at most 64 px
 * dividing the tile size; otherwise the call falls back to the reference
 * loop. An entry whose id is outside the frame's scene, or invisible in
 * it, never hits a subtile and never blends.
 *
 * @param entries depth-sorted tile entries (front to back)
 * @param frame binned frame carrying the id-indexed feature table
 * @param tile index of the tile in the frame's grid
 * @param cfg rasterizer configuration
 * @param image output framebuffer, or nullptr for a stats-only dry run
 * @param valid_out when non-null, resized to entries.size() and set to the
 *        per-entry valid bit (>=1 subtile intersection)
 * @param scratch optional reusable working memory; nullptr allocates
 *        locally (one-shot callers, tests)
 * @param integrity when non-null and enabled, the blocked kernel fences
 *        its CSR bucket bounds (digest + monotonicity/bounds invariants)
 *        after the scatter and falls back to the scalar reference blend
 *        on mismatch — before any pixel is written, so a corrupted CSR is
 *        never consumed
 * @return work counters for the tile
 */
class IntegrityContext;

RasterStats rasterizeTile(const std::vector<TileEntry> &entries,
                          const BinnedFrame &frame, int tile,
                          const RasterConfig &cfg, Image *image,
                          std::vector<uint8_t> *valid_out = nullptr,
                          RasterScratch *scratch = nullptr,
                          IntegrityContext *integrity = nullptr);

/**
 * Estimate the blend work of a tile without touching pixels. Used by the
 * workload-extraction path where full rasterization would dominate runtime.
 * The estimate walks the sorted entries once, tracking mean transmittance
 * with per-entry coverage from the subtile bitmap.
 */
uint64_t estimateTileBlendOps(const std::vector<TileEntry> &entries,
                              const BinnedFrame &frame, int tile,
                              const RasterConfig &cfg);

} // namespace neo

#endif // NEO_GS_RASTER_H
