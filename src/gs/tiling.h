/**
 * @file
 * Tile binning (the "duplication" step): the image plane is subdivided into
 * square tiles and every projected Gaussian is replicated into each tile
 * its screen-space footprint touches. The per-tile (id, depth) lists are
 * the input of the sorting stage; persistent per-tile tables in core/ are
 * derived from the same structures.
 */

#ifndef NEO_GS_TILING_H
#define NEO_GS_TILING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/digest.h"
#include "common/faultinject.h"
#include "gs/camera.h"
#include "gs/gaussian.h"

namespace neo
{

/** One entry of a per-tile Gaussian list / table. */
struct TileEntry
{
    GaussianId id = 0;
    float depth = 0.0f;
    /** Cleared by rasterization when the Gaussian leaves the tile. */
    bool valid = true;

    /**
     * Integrity digest over the semantic fields only — the struct has
     * three padding bytes after `valid`, so hashing raw object bytes
     * would fold indeterminate memory into the digest.
     */
    void digestInto(Digest64 &d) const
    {
        d.u64v(static_cast<uint64_t>(id) |
               (static_cast<uint64_t>(std::bit_cast<uint32_t>(depth))
                << 32));
        d.flag(valid);
    }
};

/**
 * Bit flips are injected into the id/depth fields only: the padding
 * bytes are invisible to the field-aware digest, and a multi-bit bool
 * is undefined behavior — neither is a meaningful fault-model target.
 */
template <>
struct faultinject::SemanticBytes<TileEntry>
{
    static constexpr size_t value = 8;
};

// The projection/feature SoA arrays are fenced as raw bytes: Vec2/Vec3
// are padding-free float aggregates, so their object bytes are a
// deterministic function of their value (what the fence compares) even
// though the unique-object-representations trait rejects floats.
static_assert(sizeof(Vec2) == 2 * sizeof(float) &&
                  sizeof(Vec3) == 3 * sizeof(float),
              "feature-array fences assume padding-free vectors");

template <>
struct DigestAsRawBytes<Vec2> : std::true_type
{
};

template <>
struct DigestAsRawBytes<Vec3> : std::true_type
{
};

/** Depth-ascending comparison used everywhere a tile list is sorted. */
inline bool
entryDepthLess(const TileEntry &a, const TileEntry &b)
{
    if (a.depth != b.depth)
        return a.depth < b.depth;
    return a.id < b.id; // deterministic tie-break
}

/** Tile decomposition of a render target. */
struct TileGrid
{
    int tile_size = 16;
    int tiles_x = 0;
    int tiles_y = 0;

    TileGrid() = default;
    TileGrid(Resolution res, int tile_px)
        : tile_size(tile_px),
          tiles_x((res.width + tile_px - 1) / tile_px),
          tiles_y((res.height + tile_px - 1) / tile_px)
    {
    }

    int tileCount() const { return tiles_x * tiles_y; }
    int tileIndex(int tx, int ty) const { return ty * tiles_x + tx; }

    /** Pixel origin (top-left) of a tile. */
    Vec2 tileOrigin(int tile) const
    {
        int tx = tile % tiles_x;
        int ty = tile / tiles_x;
        return {static_cast<float>(tx * tile_size),
                static_cast<float>(ty * tile_size)};
    }
};

/** Inclusive tile-coordinate rectangle covered by a projected Gaussian. */
struct TileRect
{
    int x0 = 0, y0 = 0, x1 = -1, y1 = -1; // empty when x1 < x0

    bool empty() const { return x1 < x0 || y1 < y0; }
    long count() const
    {
        return empty() ? 0 : static_cast<long>(x1 - x0 + 1) * (y1 - y0 + 1);
    }
};

/** Compute the clamped tile rectangle touched by @p pg. */
TileRect tileRectOf(const ProjectedGaussian &pg, const TileGrid &grid);

/** Result of binning one frame. */
struct BinnedFrame
{
    TileGrid grid;
    /** Per-tile (id, depth) lists, unsorted. */
    std::vector<std::vector<TileEntry>> tiles;
    /** Total duplicated instances (= sum of tile list lengths). */
    uint64_t instances = 0;

    // The frame's feature table: one entry per scene Gaussian, indexed by
    // GaussianId. A Gaussian is visible when it survives culling and
    // projection and its footprint touches at least one tile; every other
    // id holds zeros, so each array is a pure function of (scene, camera).
    // The intersection-test, depth-refresh and blend loops gather these
    // small contiguous arrays by the id a tile entry carries.
    std::vector<uint8_t> visible; //!< 1 when the id has a tile entry
    uint64_t visible_count = 0;   //!< number of visible ids
    std::vector<Vec2> mean2d;     //!< screen-space centers
    std::vector<float> radius_px; //!< 3-sigma screen radii
    std::vector<float> depth;     //!< camera-space depths
    std::vector<float> opacity;   //!< blend opacities
    std::vector<Vec3> color;      //!< view-dependent RGB from SH
    std::vector<Vec3> conic;      //!< inverse-covariance (a, b, c)

    // Binning's scatter scratch, refilled every frame with capacity
    // retained (see binFrameInto).
    std::vector<TileRect> rects;   //!< per id: its tile rectangle
    std::vector<uint32_t> cursors; //!< chunks x tiles counts, then cursors

    /**
     * Bounds-checked: an id outside the scene (only a corrupted entry
     * carries one) reads as invisible and never indexes the arrays.
     */
    bool isVisible(GaussianId id) const
    {
        return id < visible.size() && visible[id] != 0;
    }

    /** Mean tile-list length over non-empty tiles. */
    double meanTileLength() const;

    /**
     * Bytes of vector capacity currently held (outer containers, per-tile
     * lists and the scatter scratch). Constant across a warm steady-state
     * frame loop; the arena-reuse test pins that down.
     */
    size_t capacityBytes() const;
};

/** Cache hint: start loading the line at @p p for reading. */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

/**
 * How far ahead of a walk over tile entries the feature lines are
 * requested. A tile's entries are in depth or id order, so consecutive
 * entries' features sit on unrelated cache lines.
 */
constexpr size_t kFeaturePrefetchAhead = 8;

/**
 * Prefetch for step @p i of a walk over @p entries that gathers
 * @p frame's features by id: when entry i + kFeaturePrefetchAhead carries
 * an id inside the scene, calls @p feature_lines(id) to request its
 * feature lines. A hint only: it never changes what the walk computes.
 */
template <typename FeatureLines>
inline void
prefetchGather(const BinnedFrame &frame, const std::vector<TileEntry> &entries,
               size_t i, FeatureLines &&feature_lines)
{
    if (i + kFeaturePrefetchAhead < entries.size()) {
        const GaussianId id = entries[i + kFeaturePrefetchAhead].id;
        if (id < frame.visible.size())
            feature_lines(id);
    }
}

/**
 * Run culling + feature extraction + duplication for one frame as a
 * two-phase per-chunk pass over contiguous id ranges. Phase 1 culls,
 * projects and SH-shades each Gaussian into its own id's feature entries
 * and counts its tile instances; phase 2 scatters the tile entries, with
 * a deterministic per-tile concatenation in chunk order, so every tile
 * list comes out in ascending id order — bit-identical to the historical
 * serial pass for any thread count.
 *
 * @param scene the scene
 * @param camera viewing camera
 * @param tile_px tile edge length in pixels
 * @param threads requested thread count (resolveThreadCount semantics:
 *        0 defers to NEO_THREADS, default serial)
 */
BinnedFrame binFrame(const GaussianScene &scene, const Camera &camera,
                     int tile_px, int threads = 0);

/**
 * binFrame into caller-owned storage: @p out, its scatter scratch
 * included, is cleared and refilled with capacity retained, so a warm
 * steady-state loop re-bins without any per-frame heap allocation.
 * Results are bit-identical to binFrame for any thread count.
 */
void binFrameInto(BinnedFrame &out, const GaussianScene &scene,
                  const Camera &camera, int tile_px, int threads = 0);

} // namespace neo

#endif // NEO_GS_TILING_H
