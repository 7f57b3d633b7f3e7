/**
 * @file
 * Integrity-hardened serving mode — application-level selective
 * duplication in the spirit of ASPIS, applied to the renderer's
 * control-critical per-frame state rather than to every instruction.
 *
 * Fault model: random single/few-bit corruption of in-memory control
 * state (SEUs, stray writes) between the point where a pipeline stage
 * produces a structure and the point where the next stage consumes it.
 * Pixel data is excluded by design — a flipped pixel is transient and
 * self-healing next frame, while a flipped control word (a tile-table id,
 * a CSR bucket bound, a tracker membership id) silently corrupts every
 * subsequent frame through the reuse-and-update state.
 *
 * Mechanism: each protected structure is *sealed* at its producer fence
 * (per-tile Digest64 digests; in recover mode also a full shadow copy
 * of its bytes, owned by the structure's seal record) and *verified* at
 * its consumer fence. On mismatch a FaultReport is recorded into
 * FrameStats and the registered FaultHandler runs; in recover mode the
 * structure is first restored from the digest-verified shadow copy and
 * the frame is re-rendered through the retained scalar reference
 * rasterizer (bit-identical to the blocked kernel by the repo's
 * determinism contract), so the delivered frame hash equals the
 * uncorrupted reference. The existing frame content hash doubles as
 * end-to-end attestation.
 *
 * Selected by NEO_INTEGRITY={off,check,recover,attest} or
 * programmatically via PipelineOptions::integrity. Attest layers periodic
 * end-to-end cross-rendering on top of the check fences: every Nth frame
 * (NEO_INTEGRITY_ATTEST_PERIOD) is also rendered through the scalar
 * reference kernel and the two frame hashes compared. Off costs nothing:
 * every fence is behind an enabled() branch on the caller side.
 */

#ifndef NEO_COMMON_INTEGRITY_H
#define NEO_COMMON_INTEGRITY_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "common/digest.h"

namespace neo
{

/** Operating mode of the integrity machinery. */
enum class IntegrityMode : uint8_t
{
    /** Defer to the NEO_INTEGRITY environment variable (options default). */
    Unset,
    /** No duplication, no checks — zero overhead (the default). */
    Off,
    /** Digest fences at stage boundaries; faults are recorded and the
        frame continues with the corrupted (memory-safe) data. */
    Check,
    /** Check plus shadow copies: faulted structures are restored from the
        verified shadow and the frame is re-rendered through the scalar
        reference path. */
    Recover,
    /** Check plus periodic end-to-end attestation: every Nth frame
        (NEO_INTEGRITY_ATTEST_PERIOD, default 4) is cross-rendered through
        the scalar reference kernel and the two frame hashes compared; a
        mismatch is recorded as an Attestation fault. Detection only — the
        delivered frame is not replaced. */
    Attest,
};

/** Parse an NEO_INTEGRITY value; Unset for an unrecognized non-empty one. */
IntegrityMode parseIntegrityMode(const char *value);

/** Mode from the environment (Off when unset; warns once on unknown). */
IntegrityMode integrityModeFromEnv();

/** Resolve a requested mode: Unset defers to NEO_INTEGRITY. */
IntegrityMode resolveIntegrityMode(IntegrityMode requested);

/** Lower-case mode name ("off", "check", "recover", "attest"). */
const char *integrityModeName(IntegrityMode mode);

/**
 * Attestation period from NEO_INTEGRITY_ATTEST_PERIOD (frames between
 * cross-rendered frames in attest mode). Validated strtol parse — a
 * malformed or non-positive value warns once and falls back to the
 * default of 4.
 */
int integrityAttestPeriodFromEnv();

/** Pipeline stage a fence (and hence a detected fault) belongs to. */
enum class IntegrityStage : uint8_t
{
    Projection,  //!< id-indexed feature arrays (mean2d/radius/depth/conic)
    Binning,     //!< per-tile binned (id, depth) lists
    Sorting,     //!< persistent sorted tables / per-tile permutations
    Tracking,    //!< DeltaTracker previous-frame membership ids
    Raster,      //!< CSR subtile bucket bounds inside the blocked kernel
    Attestation, //!< end-to-end frame-hash comparison
};

/** Stage name for reports and logs. */
const char *integrityStageName(IntegrityStage stage);

/** One detected cross-check mismatch. */
struct FaultReport
{
    IntegrityStage stage = IntegrityStage::Binning;
    const char *structure = "";  //!< canonical structure name
    uint64_t frame_index = 0;    //!< frame whose fence detected it
    int tile = -1;               //!< tile index, -1 when frame-global
    uint64_t expected_digest = 0;
    uint64_t actual_digest = 0;
    /** True when the structure was restored from its verified shadow (or
        the faulted tile was re-rendered through the reference path). */
    bool recovered = false;
};

/** Callback invoked (on the detecting thread) for every fault. */
using FaultHandler = std::function<void(const FaultReport &)>;

/** Per-frame integrity summary, carried inside FrameStats. */
struct IntegrityFrameStats
{
    IntegrityMode mode = IntegrityMode::Off;
    uint32_t checks = 0; //!< fences verified this frame
    uint32_t faults = 0; //!< mismatches detected this frame
    /** True when the whole frame was re-rendered through the reference
        path after a detected fault (recover mode). */
    bool frame_recovered = false;
    std::vector<FaultReport> reports;
};

// Canonical structure names — also the fault-injection point names
// (see common/faultinject.h).
inline constexpr const char *kIntegrityBinTiles = "bin.tiles";
inline constexpr const char *kIntegritySortTables = "sort.tables";
inline constexpr const char *kIntegrityTrackerPrevIds = "tracker.prev_ids";
inline constexpr const char *kIntegrityRasterCsr = "raster.csr";
// Projected feature SoA arrays (flat spans, sealed after binning fills
// them and verified before the sorter consumes depths).
inline constexpr const char *kIntegrityProjMean2d = "project.mean2d";
inline constexpr const char *kIntegrityProjRadius = "project.radius_px";
inline constexpr const char *kIntegrityProjDepth = "project.depth";
inline constexpr const char *kIntegrityProjConic = "project.conic";
// Delivered frame pixels — attest-mode end-to-end injection point.
inline constexpr const char *kIntegrityAttestFrame = "attest.frame";

/**
 * Per-renderer integrity state: the seal/verify fences over per-tile
 * structures, the shadow copies (one per structure, capacity retained
 * across frames), and the frame's fault reports.
 *
 * Seal/verify run on the frame-control thread; recordFault()/noteCheck()
 * are additionally safe from inside parallel raster regions.
 */
class IntegrityContext
{
  public:
    /** Set the mode; attest mode also resolves its period from the
        environment (override with setAttestPeriod). */
    void configure(IntegrityMode mode)
    {
        mode_ = mode;
        if (mode_ == IntegrityMode::Attest)
            attest_period_ = integrityAttestPeriodFromEnv();
    }
    IntegrityMode mode() const { return mode_; }
    bool enabled() const
    {
        return mode_ == IntegrityMode::Check ||
               mode_ == IntegrityMode::Recover ||
               mode_ == IntegrityMode::Attest;
    }

    /** Frames between attest cross-renders (attest mode only). */
    void setAttestPeriod(int period)
    {
        attest_period_ = period > 0 ? period : 1;
    }
    int attestPeriod() const { return attest_period_; }

    /** True when attest mode cross-renders frame @p frame_index. */
    bool attestDue(uint64_t frame_index) const
    {
        return mode_ == IntegrityMode::Attest &&
               frame_index % static_cast<uint64_t>(attest_period_) == 0;
    }

    /** Register the fault callback (replaces any previous one). */
    void setFaultHandler(FaultHandler handler);

    /** Start a frame: reset the per-frame counters and reports. */
    void beginFrame(uint64_t frame_index);

    /**
     * Producer fence: record per-tile digests of @p tiles under @p name
     * (and, in recover mode, refresh its shadow copy). Overwrites the
     * previous seal of the same structure.
     */
    template <typename T>
    void sealTiles(IntegrityStage stage, const char *name,
                   const std::vector<std::vector<T>> &tiles);

    /**
     * Consumer fence: recompute the per-tile digests of @p tiles and
     * compare against the seal. Every mismatching tile is reported (and,
     * in recover mode, restored from the shadow copy first — restoration
     * only happens when the shadow itself still matches the sealed
     * digest, so a doubly-corrupted structure is reported as
     * unrecovered). A structure that was never sealed, or whose tile
     * count changed (reset, resolution change), passes vacuously.
     * Returns true when everything matched.
     */
    template <typename T>
    bool verifyTiles(IntegrityStage stage, const char *name,
                     std::vector<std::vector<T>> &tiles);

    /**
     * Producer fence over a flat array (the projected feature SoA
     * arrays): one digest over the whole span (and, in recover mode, a
     * full shadow copy). Overwrites the previous seal of the same name.
     */
    template <typename T>
    void sealSpan(IntegrityStage stage, const char *name,
                  const std::vector<T> &data);

    /**
     * Consumer fence for sealSpan: recompute the digest and compare. On
     * mismatch one frame-global fault (tile = -1) is reported; in
     * recover mode the whole span is first restored from its
     * digest-verified shadow. A span that was never sealed or whose
     * length changed passes vacuously. Returns true when it matched.
     */
    template <typename T>
    bool verifySpan(IntegrityStage stage, const char *name,
                    std::vector<T> &data);

    /** Record one fault and invoke the handler (thread-safe). */
    void recordFault(IntegrityStage stage, const char *structure, int tile,
                     uint64_t expected, uint64_t actual, bool recovered);

    /** Count one passed cross-check (thread-safe). */
    void noteCheck() { checks_.fetch_add(1, std::memory_order_relaxed); }

    /** True when any fault was recorded since beginFrame(). */
    bool frameFaulted() const;

    /** Mark that the frame was re-rendered through the reference path. */
    void markFrameRecovered() { frame_recovered_ = true; }

    uint64_t frameIndex() const { return frame_index_; }

    /** Copy the frame's counters and reports into @p out. */
    void exportStats(IntegrityFrameStats &out) const;

    /** Drop all seals (renderer reset / new trajectory). */
    void forgetSeals();

  private:
    /** Seal record of one protected structure. */
    struct Structure
    {
        const char *name = "";
        IntegrityStage stage = IntegrityStage::Binning;
        bool sealed = false;
        std::vector<uint64_t> digests; //!< per tile
        std::vector<uint32_t> sizes;   //!< per tile element counts
        /** Recover-mode shadow: the sealed elements' bytes, every tile
            concatenated (a span is one run). */
        std::vector<std::byte> shadow;
        /** Element offset of each tile in the shadow, plus the total
            (tiles only). */
        std::vector<uint64_t> shadow_offsets;
    };

    Structure &structureFor(IntegrityStage stage, const char *name);
    Structure *findStructure(const char *name);

    /** Copy @p n elements at @p src into @p s's shadow, starting at
        element @p at (the shadow is already sized). */
    template <typename T>
    static void copyToShadow(Structure &s, size_t at, const T *src,
                             size_t n)
    {
        // Every fenced type (TileEntry, GaussianId, float, Vec2, Vec3)
        // is trivially copyable, so its bytes are the element.
        static_assert(std::is_trivially_copyable_v<T>);
        if (n)
            std::memcpy(s.shadow.data() + at * sizeof(T), src,
                        n * sizeof(T));
    }

    /** The shadow's elements (nullptr when it is empty). copyToShadow's
        memcpy implicitly created them there: a trivially copyable type
        has implicit lifetime. */
    template <typename T>
    static const T *shadowElements(const Structure &s)
    {
        return s.shadow.empty() ? nullptr
                                : std::launder(reinterpret_cast<const T *>(
                                      s.shadow.data()));
    }

    template <typename T>
    bool restoreTile(Structure &s, size_t t,
                     std::vector<std::vector<T>> &tiles);

    IntegrityMode mode_ = IntegrityMode::Off;
    int attest_period_ = 4;
    uint64_t frame_index_ = 0;
    std::atomic<uint32_t> checks_{0};
    bool frame_recovered_ = false;
    std::vector<Structure> structures_;
    mutable std::mutex fault_mutex_;
    FaultHandler handler_;
    std::vector<FaultReport> faults_;
};

template <typename T>
void
IntegrityContext::sealTiles(IntegrityStage stage, const char *name,
                            const std::vector<std::vector<T>> &tiles)
{
    if (!enabled())
        return;
    Structure &s = structureFor(stage, name);
    const size_t n = tiles.size();
    s.digests.resize(n);
    s.sizes.resize(n);
    for (size_t t = 0; t < n; ++t) {
        s.digests[t] = digestSpan(tiles[t].data(), tiles[t].size());
        s.sizes[t] = static_cast<uint32_t>(tiles[t].size());
    }
    if (mode_ == IntegrityMode::Recover) {
        // Shadow layout: one concatenated element array plus tile offsets,
        // both reused frame over frame with capacity retained.
        s.shadow_offsets.resize(n + 1);
        uint64_t total = 0;
        for (size_t t = 0; t < n; ++t) {
            s.shadow_offsets[t] = total;
            total += tiles[t].size();
        }
        s.shadow_offsets[n] = total;
        s.shadow.resize(total * sizeof(T));
        for (size_t t = 0; t < n; ++t)
            copyToShadow(s, s.shadow_offsets[t], tiles[t].data(),
                         tiles[t].size());
    }
    s.sealed = true;
}

template <typename T>
bool
IntegrityContext::verifyTiles(IntegrityStage stage, const char *name,
                              std::vector<std::vector<T>> &tiles)
{
    if (!enabled())
        return true;
    Structure *s = findStructure(name);
    if (!s || !s->sealed || s->sizes.size() != tiles.size())
        return true; // never sealed, or legitimately reshaped
    bool ok = true;
    for (size_t t = 0; t < tiles.size(); ++t) {
        const uint64_t d = digestSpan(tiles[t].data(), tiles[t].size());
        if (d == s->digests[t] &&
            tiles[t].size() == s->sizes[t])
            continue;
        ok = false;
        bool restored = false;
        if (mode_ == IntegrityMode::Recover)
            restored = restoreTile(*s, t, tiles);
        recordFault(stage, name, static_cast<int>(t), s->digests[t], d,
                    restored);
    }
    noteCheck();
    return ok;
}

template <typename T>
void
IntegrityContext::sealSpan(IntegrityStage stage, const char *name,
                           const std::vector<T> &data)
{
    if (!enabled())
        return;
    Structure &s = structureFor(stage, name);
    s.digests.assign(1, digestSpan(data.data(), data.size()));
    s.sizes.assign(1, static_cast<uint32_t>(data.size()));
    if (mode_ == IntegrityMode::Recover) {
        s.shadow.resize(data.size() * sizeof(T));
        copyToShadow(s, 0, data.data(), data.size());
    }
    s.sealed = true;
}

template <typename T>
bool
IntegrityContext::verifySpan(IntegrityStage stage, const char *name,
                             std::vector<T> &data)
{
    if (!enabled())
        return true;
    Structure *s = findStructure(name);
    if (!s || !s->sealed || s->sizes.size() != 1 ||
        s->sizes[0] != data.size())
        return true; // never sealed, or legitimately reshaped
    const uint64_t d = digestSpan(data.data(), data.size());
    noteCheck();
    if (d == s->digests[0])
        return true;
    bool restored = false;
    const T *shadow = shadowElements<T>(*s);
    if (mode_ == IntegrityMode::Recover &&
        s->shadow.size() == data.size() * sizeof(T) &&
        digestSpan(shadow, data.size()) == s->digests[0]) {
        data.assign(shadow, shadow + data.size());
        restored = true;
    }
    recordFault(stage, name, -1, s->digests[0], d, restored);
    return false;
}

template <typename T>
bool
IntegrityContext::restoreTile(Structure &s, size_t t,
                              std::vector<std::vector<T>> &tiles)
{
    const std::vector<uint64_t> &offsets = s.shadow_offsets;
    if (offsets.size() != s.sizes.size() + 1 || t + 1 >= offsets.size())
        return false;
    const uint64_t begin = offsets[t];
    const uint64_t end = offsets[t + 1];
    if (end < begin || end > s.shadow.size() / sizeof(T) ||
        end - begin != s.sizes[t])
        return false;
    const T *shadow = shadowElements<T>(s) + begin;
    const size_t count = static_cast<size_t>(end - begin);
    if (digestSpan(shadow, count) != s.digests[t])
        return false; // shadow corrupted too: unrecoverable
    tiles[t].assign(shadow, shadow + count);
    return true;
}

} // namespace neo

#endif // NEO_COMMON_INTEGRITY_H
