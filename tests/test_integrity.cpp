/**
 * @file
 * Integrity-hardened serving mode tests: Digest64 sensitivity, the
 * deterministic fault-injection hook, IntegrityContext seal/verify/restore
 * semantics, and the end-to-end bit-flip injection matrix — one flip into
 * each duplicated control structure, at thread counts {1, 2, 8} and both
 * raster kernels, asserting that check mode reports the exact stage and
 * that recover mode delivers the bit-identical uncorrupted frame hash.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "common/env.h"
#include "common/faultinject.h"
#include "common/integrity.h"
#include "common/parallel.h"
#include "gs/tile_sort.h"
#include "core/neo_renderer.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace neo::test
{
namespace
{

// --- Digest64 ----------------------------------------------------------

TEST(Digest64Test, AnySingleBitFlipChangesRawSpanDigest)
{
    // 16 bytes stay on the word-at-a-time path; 108 bytes also run
    // bytes()'s four-word loop (three times), then a word and a tail.
    std::vector<uint32_t> wide(27);
    for (size_t e = 0; e < wide.size(); ++e)
        wide[e] = static_cast<uint32_t>(e) * 0x9e3779b9u;
    for (std::vector<uint32_t> data :
         {std::vector<uint32_t>{0u, 1u, 0xdeadbeefu, 0xffffffffu}, wide}) {
        const uint64_t clean = digestSpan(data.data(), data.size());
        for (size_t e = 0; e < data.size(); ++e)
            for (int bit = 0; bit < 32; ++bit) {
                data[e] ^= 1u << bit;
                EXPECT_NE(digestSpan(data.data(), data.size()), clean)
                    << data.size() << " elems, elem " << e << " bit "
                    << bit;
                data[e] ^= 1u << bit;
            }
        EXPECT_EQ(digestSpan(data.data(), data.size()), clean);
    }
}

TEST(Digest64Test, FourWordLoopMatchesWordAtATime)
{
    // bytes() must equal its definition: every full 8-byte word through
    // u64v in order, then the zero-extended tail as one more word. Cover
    // every length across the four-word loop's edges, every lane phase
    // it can start in, and an aligned and a misaligned pointer.
    alignas(8) unsigned char buf[216];
    for (size_t i = 0; i < sizeof buf; ++i)
        buf[i] = static_cast<unsigned char>(i * 131u + 7u);
    for (size_t offset : {size_t{0}, size_t{3}}) {
        const unsigned char *p = buf + offset;
        for (int phase = 0; phase < 4; ++phase)
            for (size_t n = 0; n <= 200; ++n) {
                Digest64 fast;
                Digest64 ref;
                for (int w = 0; w < phase; ++w) {
                    fast.u64v(0x1000u + static_cast<uint64_t>(w));
                    ref.u64v(0x1000u + static_cast<uint64_t>(w));
                }
                fast.bytes(p, n);
                size_t i = 0;
                for (; i + 8 <= n; i += 8) {
                    uint64_t v = 0;
                    std::memcpy(&v, p + i, 8);
                    ref.u64v(v);
                }
                if (i < n) {
                    uint64_t tail = 0;
                    for (int shift = 0; i < n; ++i, shift += 8)
                        tail |= static_cast<uint64_t>(p[i]) << shift;
                    ref.u64v(tail);
                }
                EXPECT_EQ(fast.finish(), ref.finish())
                    << "offset " << offset << " phase " << phase << " n "
                    << n;
                // The lane the next word lands in must agree too.
                fast.u64v(0xabcdefu);
                ref.u64v(0xabcdefu);
                EXPECT_EQ(fast.finish(), ref.finish())
                    << "offset " << offset << " phase " << phase << " n "
                    << n << " (one word later)";
            }
    }
}

TEST(Digest64Test, ElementCountIsPartOfTheDigest)
{
    std::vector<uint32_t> data = {1u, 2u, 3u};
    EXPECT_NE(digestSpan(data.data(), 2), digestSpan(data.data(), 3));
    // An empty span digests to a value distinct from one zero element.
    const uint32_t zero = 0;
    EXPECT_NE(digestSpan(&zero, 0), digestSpan(&zero, 1));
}

TEST(Digest64Test, TileEntryDigestCoversEveryField)
{
    std::vector<TileEntry> t = randomTable(16);
    const uint64_t clean = digestSpan(t.data(), t.size());

    t[3].id ^= 1u << 17;
    EXPECT_NE(digestSpan(t.data(), t.size()), clean);
    t[3].id ^= 1u << 17;

    t[7].depth = t[7].depth + 0.5f;
    EXPECT_NE(digestSpan(t.data(), t.size()), clean);

    t = randomTable(16);
    t[0].valid = false;
    EXPECT_NE(digestSpan(t.data(), t.size()), clean);
}

TEST(Digest64Test, TileEntryPaddingBytesAreInvisible)
{
    // The field-aware digestInto must make two entries with identical
    // fields but different padding bytes digest equal — otherwise every
    // seal would false-positive on uninitialized padding.
    unsigned char raw_a[sizeof(TileEntry)];
    unsigned char raw_b[sizeof(TileEntry)];
    std::memset(raw_a, 0x00, sizeof raw_a);
    std::memset(raw_b, 0xAB, sizeof raw_b);
    TileEntry fields;
    fields.id = 1234;
    fields.depth = 7.25f;
    fields.valid = true;
    auto imprint = [&](unsigned char *raw) {
        std::memcpy(raw + offsetof(TileEntry, id), &fields.id,
                    sizeof fields.id);
        std::memcpy(raw + offsetof(TileEntry, depth), &fields.depth,
                    sizeof fields.depth);
        std::memcpy(raw + offsetof(TileEntry, valid), &fields.valid,
                    sizeof fields.valid);
    };
    imprint(raw_a);
    imprint(raw_b);
    TileEntry a, b;
    std::memcpy(&a, raw_a, sizeof a);
    std::memcpy(&b, raw_b, sizeof b);
    EXPECT_EQ(digestSpan(&a, 1), digestSpan(&b, 1));
}

// --- faultinject -------------------------------------------------------

TEST(FaultInjectTest, FlipIsDeterministicInSeed)
{
    std::vector<uint32_t> a = {10u, 20u, 30u, 40u};
    std::vector<uint32_t> b = a;

    faultinject::armBitFlip("test.point", -1, 99);
    faultinject::corrupt("test.point", 0, a.data(), a.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    faultinject::Injection first;
    ASSERT_TRUE(faultinject::lastInjection(&first));

    faultinject::armBitFlip("test.point", -1, 99);
    faultinject::corrupt("test.point", 0, b.data(), b.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    faultinject::Injection second;
    ASSERT_TRUE(faultinject::lastInjection(&second));

    EXPECT_EQ(first.elem, second.elem);
    EXPECT_EQ(first.byte, second.byte);
    EXPECT_EQ(first.bit, second.bit);
    EXPECT_EQ(a, b); // same flip, same result
    EXPECT_NE(a, (std::vector<uint32_t>{10u, 20u, 30u, 40u}));
}

TEST(FaultInjectTest, FiresOnceThenDisarms)
{
    std::vector<uint32_t> data = {1u, 2u, 3u};
    const uint64_t count0 = faultinject::injectionCount();

    faultinject::armBitFlip("test.once", -1, 5);
    EXPECT_TRUE(faultinject::pending());
    faultinject::corrupt("test.once", 0, data.data(), data.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    EXPECT_FALSE(faultinject::pending());
    EXPECT_EQ(faultinject::injectionCount(), count0 + 1);

    // A second execution of the point is a no-op.
    const std::vector<uint32_t> after = data;
    faultinject::corrupt("test.once", 0, data.data(), data.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    EXPECT_EQ(data, after);
    EXPECT_EQ(faultinject::injectionCount(), count0 + 1);
}

TEST(FaultInjectTest, PointAndIndexMustMatch)
{
    std::vector<uint32_t> data = {1u, 2u, 3u};
    const std::vector<uint32_t> orig = data;

    faultinject::armBitFlip("test.match", 7, 1);
    faultinject::corrupt("test.other", 7, data.data(), data.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    EXPECT_EQ(data, orig) << "wrong point must not fire";
    faultinject::corrupt("test.match", 3, data.data(), data.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    EXPECT_EQ(data, orig) << "wrong index must not fire";
    EXPECT_TRUE(faultinject::pending());

    faultinject::corrupt("test.match", 7, data.data(), data.size(),
                         sizeof(uint32_t), sizeof(uint32_t));
    EXPECT_NE(data, orig);
    EXPECT_FALSE(faultinject::pending());
    faultinject::disarm();
}

TEST(FaultInjectTest, TileEntryFlipsLandInSemanticBytes)
{
    // SemanticBytes<TileEntry> restricts flips to the first 8 bytes
    // (id + depth): padding is invisible to the digest and a multi-bit
    // bool is UB, so neither is a legitimate target.
    static_assert(faultinject::SemanticBytes<TileEntry>::value == 8);
    std::vector<std::vector<TileEntry>> tiles(3);
    tiles[1] = randomTable(32, 21);
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        faultinject::armBitFlip(kIntegrityBinTiles, -1, seed);
        faultinject::corruptTiles(kIntegrityBinTiles, tiles);
        faultinject::Injection inj;
        ASSERT_TRUE(faultinject::lastInjection(&inj));
        EXPECT_EQ(inj.index, 1) << "first non-empty tile";
        EXPECT_LT(inj.byte, 8u) << "seed " << seed;
    }
    faultinject::disarm();
}

// --- Mode parsing ------------------------------------------------------

TEST(IntegrityModeTest, ParseRecognizesModes)
{
    EXPECT_EQ(parseIntegrityMode("off"), IntegrityMode::Off);
    EXPECT_EQ(parseIntegrityMode("check"), IntegrityMode::Check);
    EXPECT_EQ(parseIntegrityMode("recover"), IntegrityMode::Recover);
    EXPECT_EQ(parseIntegrityMode("attest"), IntegrityMode::Attest);
    EXPECT_EQ(parseIntegrityMode(nullptr), IntegrityMode::Off);
    EXPECT_EQ(parseIntegrityMode(""), IntegrityMode::Off);
    EXPECT_EQ(parseIntegrityMode("paranoid"), IntegrityMode::Unset);
    EXPECT_STREQ(integrityModeName(IntegrityMode::Attest), "attest");
}

TEST(IntegrityModeTest, AttestDueFollowsPeriodAndModeGating)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Attest);
    ctx.setAttestPeriod(3);
    EXPECT_TRUE(ctx.attestDue(0));
    EXPECT_FALSE(ctx.attestDue(1));
    EXPECT_FALSE(ctx.attestDue(2));
    EXPECT_TRUE(ctx.attestDue(3));
    EXPECT_TRUE(ctx.attestDue(6));

    ctx.setAttestPeriod(0); // clamps to every frame
    EXPECT_EQ(ctx.attestPeriod(), 1);
    EXPECT_TRUE(ctx.attestDue(5));

    // Only attest mode cross-renders, whatever the period says.
    ctx.configure(IntegrityMode::Check);
    EXPECT_FALSE(ctx.attestDue(0));
}

TEST(IntegrityModeTest, AttestPeriodEnvParseIsValidated)
{
    const char *saved = std::getenv("NEO_INTEGRITY_ATTEST_PERIOD");
    const std::string saved_copy = saved ? saved : "";

    unsetenv("NEO_INTEGRITY_ATTEST_PERIOD");
    EXPECT_EQ(integrityAttestPeriodFromEnv(), 4);

    setenv("NEO_INTEGRITY_ATTEST_PERIOD", "7", 1);
    EXPECT_EQ(integrityAttestPeriodFromEnv(), 7);

    // Malformed or non-positive values keep the default.
    setenv("NEO_INTEGRITY_ATTEST_PERIOD", "7x", 1);
    EXPECT_EQ(integrityAttestPeriodFromEnv(), 4);
    setenv("NEO_INTEGRITY_ATTEST_PERIOD", "0", 1);
    EXPECT_EQ(integrityAttestPeriodFromEnv(), 4);
    setenv("NEO_INTEGRITY_ATTEST_PERIOD", "-2", 1);
    EXPECT_EQ(integrityAttestPeriodFromEnv(), 4);

    if (saved)
        setenv("NEO_INTEGRITY_ATTEST_PERIOD", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_INTEGRITY_ATTEST_PERIOD");
}

TEST(IntegrityModeTest, ResolveDefersToEnvironmentOnlyWhenUnset)
{
    const char *saved = std::getenv("NEO_INTEGRITY");
    const std::string saved_copy = saved ? saved : "";

    setenv("NEO_INTEGRITY", "check", 1);
    EXPECT_EQ(resolveIntegrityMode(IntegrityMode::Unset),
              IntegrityMode::Check);
    EXPECT_EQ(resolveIntegrityMode(IntegrityMode::Off), IntegrityMode::Off);
    EXPECT_EQ(resolveIntegrityMode(IntegrityMode::Recover),
              IntegrityMode::Recover);

    setenv("NEO_INTEGRITY", "bogus", 1);
    EXPECT_EQ(resolveIntegrityMode(IntegrityMode::Unset), IntegrityMode::Off);
    unsetenv("NEO_INTEGRITY");
    EXPECT_EQ(resolveIntegrityMode(IntegrityMode::Unset), IntegrityMode::Off);

    if (saved)
        setenv("NEO_INTEGRITY", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_INTEGRITY");
}

TEST(IntegrityModeTest, MalformedEnvWarnsOnceThroughSharedRegistry)
{
    // Regression for the common/env migration: NEO_INTEGRITY parses via
    // envChoice, so an unrecognized value warns exactly once (shared
    // registry, re-armed by env::resetWarnings()) and keeps integrity
    // off rather than silently doing nothing.
    const char *saved = std::getenv("NEO_INTEGRITY");
    const std::string saved_copy = saved ? saved : "";

    env::resetWarnings();
    setenv("NEO_INTEGRITY", "paranoid", 1);
    EXPECT_EQ(integrityModeFromEnv(), IntegrityMode::Off);
    EXPECT_FALSE(env::shouldWarnOnce("NEO_INTEGRITY"))
        << "the first parse consumed the knob's single warning slot";
    EXPECT_EQ(integrityModeFromEnv(), IntegrityMode::Off);

    env::resetWarnings();
    EXPECT_TRUE(env::shouldWarnOnce("NEO_INTEGRITY"))
        << "resetWarnings must re-arm the diagnostic";

    if (saved)
        setenv("NEO_INTEGRITY", saved_copy.c_str(), 1);
    else
        unsetenv("NEO_INTEGRITY");
    env::resetWarnings();
}

// --- IntegrityContext seal/verify/restore ------------------------------

std::vector<std::vector<TileEntry>>
sampleTiles()
{
    std::vector<std::vector<TileEntry>> tiles(4);
    tiles[0] = randomTable(8, 31);
    tiles[2] = randomTable(40, 32);
    tiles[3] = randomTable(3, 33);
    return tiles;
}

TEST(IntegrityContextTest, CleanVerifyPassesAndCountsOneCheck)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Check);
    ctx.beginFrame(0);
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    EXPECT_TRUE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));
    IntegrityFrameStats stats;
    ctx.exportStats(stats);
    EXPECT_EQ(stats.mode, IntegrityMode::Check);
    EXPECT_EQ(stats.checks, 1u);
    EXPECT_EQ(stats.faults, 0u);
    EXPECT_FALSE(stats.frame_recovered);
}

TEST(IntegrityContextTest, CheckModeReportsTileAndKeepsData)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Check);
    ctx.beginFrame(5);
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Sorting, kIntegritySortTables, tiles);

    tiles[2][10].id ^= 1u << 4;
    const uint32_t corrupted_id = tiles[2][10].id;
    EXPECT_FALSE(ctx.verifyTiles(IntegrityStage::Sorting,
                                 kIntegritySortTables, tiles));

    IntegrityFrameStats stats;
    ctx.exportStats(stats);
    ASSERT_EQ(stats.faults, 1u);
    const FaultReport &r = stats.reports[0];
    EXPECT_EQ(r.stage, IntegrityStage::Sorting);
    EXPECT_STREQ(r.structure, kIntegritySortTables);
    EXPECT_EQ(r.frame_index, 5u);
    EXPECT_EQ(r.tile, 2);
    EXPECT_NE(r.expected_digest, r.actual_digest);
    EXPECT_FALSE(r.recovered);
    // Check mode observes; it does not mutate the data.
    EXPECT_EQ(tiles[2][10].id, corrupted_id);
}

/** Flip bit @p bit of @p v's object bytes. */
template <typename T>
void
flipBit(T &v, size_t bit)
{
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    std::memcpy(&v, bytes, sizeof(T));
}

/** True when @p a and @p b hold the same elements bit for bit. */
template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/** Seal @p data as span @p name, flip one bit of its element @p at, and
    expect the verify to restore it bit for bit from the shadow. */
template <typename T>
void
expectSpanRestored(IntegrityContext &ctx, const char *name,
                   std::vector<T> data, size_t at)
{
    const std::vector<T> original = data;
    ctx.sealSpan(IntegrityStage::Projection, name, data);
    flipBit(data[at], 8 * sizeof(T) - 2);
    EXPECT_FALSE(ctx.verifySpan(IntegrityStage::Projection, name, data));
    EXPECT_TRUE(sameBits(data, original)) << name;
    EXPECT_TRUE(ctx.verifySpan(IntegrityStage::Projection, name, data));
}

TEST(IntegrityContextTest, RecoverModeRestoresFromShadow)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Recover);
    ctx.beginFrame(0);
    auto tiles = sampleTiles();
    const auto original = tiles;
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);

    tiles[2][10].id ^= 1u << 4;
    tiles[0][1].depth += 1.0f;
    EXPECT_FALSE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));

    // Both faulted tiles restored bit-identically from the shadow copy.
    for (size_t t = 0; t < tiles.size(); ++t) {
        ASSERT_EQ(tiles[t].size(), original[t].size());
        EXPECT_EQ(digestSpan(tiles[t].data(), tiles[t].size()),
                  digestSpan(original[t].data(), original[t].size()))
            << "tile " << t;
    }
    // Restored data passes a re-verify.
    EXPECT_TRUE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));

    // Every other fenced element type restores bit for bit too: the
    // tracker's id tiles (one of them truncated) and the feature spans.
    std::vector<std::vector<GaussianId>> ids = {{3, 9, 40}, {}, {1, 7}};
    const auto ids_original = ids;
    ctx.sealTiles(IntegrityStage::Tracking, kIntegrityTrackerPrevIds, ids);
    ids[0][1] ^= 1u << 9;
    ids[2].pop_back();
    EXPECT_FALSE(ctx.verifyTiles(IntegrityStage::Tracking,
                                 kIntegrityTrackerPrevIds, ids));
    EXPECT_EQ(ids, ids_original);
    expectSpanRestored(ctx, kIntegrityProjRadius,
                       std::vector<float>{1.5f, 2.25f, 0.0f, 8.0f}, 3);
    expectSpanRestored(ctx, kIntegrityProjMean2d,
                       std::vector<Vec2>{{1.0f, 2.0f}, {-3.5f, 4.0f}}, 1);
    expectSpanRestored(
        ctx, kIntegrityProjConic,
        std::vector<Vec3>{{0.5f, -0.25f, 2.0f}, {1.0f, 0.0f, 3.0f}}, 0);

    IntegrityFrameStats stats;
    ctx.exportStats(stats);
    EXPECT_EQ(stats.faults, 7u);
    for (const FaultReport &r : stats.reports)
        EXPECT_TRUE(r.recovered) << r.structure << " tile " << r.tile;
}

TEST(IntegrityContextTest, ReshapedStructurePassesVacuously)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Check);
    ctx.beginFrame(0);
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    tiles.resize(2); // legal reshape: reset / resolution change
    EXPECT_TRUE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));
    IntegrityFrameStats stats;
    ctx.exportStats(stats);
    EXPECT_EQ(stats.faults, 0u);
}

TEST(IntegrityContextTest, ForgottenSealPassesVacuously)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Check);
    ctx.beginFrame(0);
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    ctx.forgetSeals();
    tiles[2][10].id ^= 1u;
    EXPECT_TRUE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));
}

TEST(IntegrityContextTest, OffModeDoesNothing)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Off);
    EXPECT_FALSE(ctx.enabled());
    ctx.beginFrame(0);
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    tiles[2][10].id ^= 1u;
    EXPECT_TRUE(
        ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles));
    IntegrityFrameStats stats;
    ctx.exportStats(stats);
    EXPECT_EQ(stats.checks, 0u);
    EXPECT_EQ(stats.faults, 0u);
}

TEST(IntegrityContextTest, FaultHandlerSeesEveryFault)
{
    IntegrityContext ctx;
    ctx.configure(IntegrityMode::Check);
    ctx.beginFrame(9);
    std::vector<FaultReport> seen;
    ctx.setFaultHandler([&](const FaultReport &r) { seen.push_back(r); });
    auto tiles = sampleTiles();
    ctx.sealTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    tiles[0][0].id ^= 1u;
    tiles[3][2].id ^= 1u << 8;
    ctx.verifyTiles(IntegrityStage::Binning, kIntegrityBinTiles, tiles);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].tile, 0);
    EXPECT_EQ(seen[1].tile, 3);
    EXPECT_EQ(seen[0].frame_index, 9u);
}

// --- End-to-end injection matrix ---------------------------------------

const GaussianScene &
integrityScene()
{
    static const GaussianScene scene = tinySyntheticScene(1500, 77);
    return scene;
}

PipelineOptions
integrityOpts(int threads, bool reference, IntegrityMode mode)
{
    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    opts.threads = threads;
    opts.raster.reference_path = reference;
    opts.integrity = mode;
    return opts;
}

constexpr int kMatrixFrames = 3;

/** Frame hashes of the uncorrupted sequence (determinism contract:
    identical at every thread count and for both raster kernels). */
const std::vector<uint64_t> &
cleanFrameHashes()
{
    static const std::vector<uint64_t> hashes = [] {
        const GaussianScene &scene = integrityScene();
        Trajectory traj(TrajectoryKind::Orbit, scene);
        NeoRenderer r(integrityOpts(1, false, IntegrityMode::Off));
        std::vector<uint64_t> h;
        for (int f = 0; f < kMatrixFrames; ++f) {
            Image img = r.renderFrame(
                scene, traj.cameraAt(f, smallRes()), f);
            h.push_back(img.contentHash());
        }
        return h;
    }();
    return hashes;
}

struct MatrixConfig
{
    int threads;
    bool reference;
    IntegrityMode mode;
};

std::vector<MatrixConfig>
matrixConfigs(bool include_reference_kernel)
{
    std::vector<MatrixConfig> configs;
    for (int threads : {1, 2, 8})
        for (int ref = 0; ref <= (include_reference_kernel ? 1 : 0); ++ref)
            for (IntegrityMode mode :
                 {IntegrityMode::Check, IntegrityMode::Recover})
                configs.push_back({threads, ref != 0, mode});
    return configs;
}

std::string
configName(const MatrixConfig &c)
{
    return std::string("threads=") + std::to_string(c.threads) +
           (c.reference ? " kernel=reference" : " kernel=blocked") +
           " mode=" + integrityModeName(c.mode);
}

/**
 * Run the shared matrix body for a structure whose flip is injected
 * before frame 1 and detected at @p detect_frame: renders the sequence,
 * asserts the flip fired exactly once, was reported at the expected
 * stage/structure on the detection frame and nowhere else, and that
 * recover mode delivers the uncorrupted frame hash on every frame.
 */
void
runInjectionMatrix(const char *structure, IntegrityStage stage,
                   int detect_frame, bool include_reference_kernel,
                   bool check_hash_on_detect_frame, int64_t inject_index,
                   uint64_t seed)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    for (const MatrixConfig &c : matrixConfigs(include_reference_kernel)) {
        SCOPED_TRACE(std::string(structure) + " " + configName(c));
        NeoRenderer renderer(integrityOpts(c.threads, c.reference, c.mode));
        Image img;
        NeoFrameReport report;

        const uint64_t count0 = faultinject::injectionCount();
        for (int f = 0; f < kMatrixFrames; ++f) {
            if (f == 1)
                faultinject::armBitFlip(structure, inject_index, seed);
            renderer.renderFrameInto(img, scene,
                                     traj.cameraAt(f, smallRes()),
                                     static_cast<uint64_t>(f), &report);
            const IntegrityFrameStats &stats = report.frame.integrity;
            EXPECT_EQ(stats.mode, c.mode);
            if (f >= 1) {
                EXPECT_EQ(faultinject::injectionCount(), count0 + 1)
                    << "frame " << f << ": the armed flip must fire "
                    << "exactly once, in frame 1's injection window";
            }

            if (f == detect_frame) {
                ASSERT_EQ(stats.faults, 1u) << "frame " << f;
                const FaultReport &r = stats.reports[0];
                EXPECT_EQ(r.stage, stage);
                EXPECT_STREQ(r.structure, structure);
                EXPECT_EQ(r.frame_index, static_cast<uint64_t>(f));
                EXPECT_GE(r.tile, 0);
                if (c.mode == IntegrityMode::Recover) {
                    EXPECT_TRUE(r.recovered);
                    EXPECT_TRUE(stats.frame_recovered);
                }
            } else {
                EXPECT_EQ(stats.faults, 0u)
                    << "frame " << f << ": no fault outside the "
                    << "detection frame (stale seals must not re-report)";
            }
            EXPECT_GT(stats.checks, 0u) << "frame " << f;

            // Recover mode's contract: every delivered frame is
            // bit-identical to the uncorrupted reference. Before the
            // detection frame the corruption is invisible either way.
            if (c.mode == IntegrityMode::Recover || f < detect_frame ||
                (f == detect_frame && check_hash_on_detect_frame &&
                 c.mode == IntegrityMode::Check)) {
                EXPECT_EQ(img.contentHash(), clean[static_cast<size_t>(f)])
                    << "frame " << f;
            }
        }
        faultinject::disarm();
    }
}

TEST(IntegrityInjectionMatrix, BinTilesFlipDetectedAtBinningFence)
{
    runInjectionMatrix(kIntegrityBinTiles, IntegrityStage::Binning,
                       /*detect_frame=*/1,
                       /*include_reference_kernel=*/true,
                       /*check_hash_on_detect_frame=*/false,
                       /*inject_index=*/-1, /*seed=*/101);
}

TEST(IntegrityInjectionMatrix, SortTablesFlipDetectedAtSortingFence)
{
    runInjectionMatrix(kIntegritySortTables, IntegrityStage::Sorting,
                       /*detect_frame=*/1,
                       /*include_reference_kernel=*/true,
                       /*check_hash_on_detect_frame=*/false,
                       /*inject_index=*/-1, /*seed=*/202);
}

TEST(IntegrityInjectionMatrix, SortTablesFlipInsideFusedBatchDetected)
{
    // The sort stage now dispatches small tiles in fused cross-tile
    // batches (gs/tile_sort.h): runs of tiny tables share one parallel
    // invocation instead of getting a chunk each. The sort.tables fence
    // must still attribute a flip landing in one of those fused tiles.
    // Pin the flip to an explicit tile index — the fused dispatch runs
    // inside a parallel region, where "first execution wins" would race
    // between workers, while a pinned (point, tile) lands identically at
    // any thread count.
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);

    // Probe frame 1's tile sizes, recompute the weighted batch packing
    // the sorter uses, and pick a non-empty tile from a batch that fused
    // at least two tiles.
    int64_t fused_tile = -1;
    {
        NeoRenderer probe(integrityOpts(1, false, IntegrityMode::Off));
        Image img;
        for (int f = 0; f <= 1; ++f)
            probe.renderFrameInto(img, scene,
                                  traj.cameraAt(f, smallRes()),
                                  static_cast<uint64_t>(f));
        const auto &tiles = probe.lastBinnedFrame().tiles;
        BatchPlan batches;
        buildWeightedBatchesInto(
            batches, tiles.size(), kSortBatchGrain,
            [&](size_t t) { return tiles[t].size(); });
        for (const WeightedBatch &b : batches.batches) {
            if (b.size() < 2)
                continue;
            for (size_t t = b.begin; t < b.end; ++t)
                if (!tiles[t].empty()) {
                    fused_tile = static_cast<int64_t>(t);
                    break;
                }
            if (fused_tile >= 0)
                break;
        }
        ASSERT_GE(fused_tile, 0)
            << "frame 1 packs no multi-tile sort batch with a non-empty "
            << "tile; the fused-batch injection case needs one";
        ASSERT_LT(tiles[static_cast<size_t>(fused_tile)].size(),
                  kSortBatchGrain);
    }

    runInjectionMatrix(kIntegritySortTables, IntegrityStage::Sorting,
                       /*detect_frame=*/1,
                       /*include_reference_kernel=*/true,
                       /*check_hash_on_detect_frame=*/false,
                       /*inject_index=*/fused_tile, /*seed=*/505);

    // The flip really landed in the pinned fused tile.
    faultinject::Injection last;
    ASSERT_TRUE(faultinject::lastInjection(&last));
    EXPECT_EQ(last.point, kIntegritySortTables);
    EXPECT_EQ(last.index, fused_tile);
}

TEST(IntegrityInjectionMatrix, TrackerPrevIdsFlipDetectedNextFrame)
{
    // The tracker fence spans the inter-frame window: the flip lands in
    // frame 1's seal window (after observe adopts the new membership) and
    // the consumer fence at frame 2's observe entry detects it.
    runInjectionMatrix(kIntegrityTrackerPrevIds, IntegrityStage::Tracking,
                       /*detect_frame=*/2,
                       /*include_reference_kernel=*/true,
                       /*check_hash_on_detect_frame=*/false,
                       /*inject_index=*/-1, /*seed=*/303);
}

TEST(IntegrityInjectionMatrix, RasterCsrFlipFallsBackBitIdentically)
{
    // The CSR bounds exist only inside the blocked kernel, so the
    // reference-kernel column is vacuous and skipped. A corrupted CSR is
    // never consumed: the fence fires before any pixel write and the tile
    // falls back to the reference blend, so even *check* mode delivers
    // the bit-identical frame. Inject into a specific tile: under
    // parallel raster "first execution wins" would race, a pinned
    // (point, tile) lands identically at any thread count.
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);

    // Probe: the busiest tile of frame 1 (deterministic across configs).
    int64_t target_tile = -1;
    {
        NeoRenderer probe(integrityOpts(1, false, IntegrityMode::Off));
        Image img;
        for (int f = 0; f <= 1; ++f)
            probe.renderFrameInto(img, scene,
                                  traj.cameraAt(f, smallRes()),
                                  static_cast<uint64_t>(f));
        const auto &tiles = probe.lastBinnedFrame().tiles;
        size_t best = 0;
        for (size_t t = 0; t < tiles.size(); ++t)
            if (tiles[t].size() > best) {
                best = tiles[t].size();
                target_tile = static_cast<int64_t>(t);
            }
    }
    ASSERT_GE(target_tile, 0) << "probe found no non-empty tile";

    runInjectionMatrix(kIntegrityRasterCsr, IntegrityStage::Raster,
                       /*detect_frame=*/1,
                       /*include_reference_kernel=*/false,
                       /*check_hash_on_detect_frame=*/true,
                       /*inject_index=*/target_tile, /*seed=*/404);
}

TEST(IntegrityInjectionMatrix, CleanRunReportsNoFaults)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    for (IntegrityMode mode :
         {IntegrityMode::Check, IntegrityMode::Recover}) {
        SCOPED_TRACE(integrityModeName(mode));
        NeoRenderer renderer(integrityOpts(2, false, mode));
        Image img;
        NeoFrameReport report;
        for (int f = 0; f < kMatrixFrames; ++f) {
            renderer.renderFrameInto(img, scene,
                                     traj.cameraAt(f, smallRes()),
                                     static_cast<uint64_t>(f), &report);
            EXPECT_EQ(report.frame.integrity.faults, 0u) << "frame " << f;
            EXPECT_GT(report.frame.integrity.checks, 0u) << "frame " << f;
            EXPECT_FALSE(report.frame.integrity.frame_recovered);
            EXPECT_EQ(img.contentHash(), clean[static_cast<size_t>(f)])
                << "frame " << f << ": fences must not perturb output";
        }
    }
}

TEST(IntegrityInjectionMatrix, FaultHandlerFiresOnInjectedFlip)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);

    NeoRenderer renderer(integrityOpts(1, false, IntegrityMode::Check));
    std::vector<FaultReport> seen;
    renderer.setFaultHandler(
        [&](const FaultReport &r) { seen.push_back(r); });

    Image img;
    renderer.renderFrameInto(img, scene, traj.cameraAt(0, smallRes()), 0);
    EXPECT_TRUE(seen.empty());
    faultinject::armBitFlip(kIntegrityBinTiles, -1, 11);
    renderer.renderFrameInto(img, scene, traj.cameraAt(1, smallRes()), 1);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].stage, IntegrityStage::Binning);
    EXPECT_STREQ(seen[0].structure, kIntegrityBinTiles);
    faultinject::disarm();
}

TEST(IntegrityInjectionMatrix, OffModeRunsNoChecksAndIgnoresArmedFlips)
{
    // With integrity off nothing calls the injection points either, so an
    // armed flip stays pending — the hook costs one atomic load and the
    // output is untouched.
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    NeoRenderer renderer(integrityOpts(1, false, IntegrityMode::Off));
    EXPECT_EQ(renderer.integrityMode(), IntegrityMode::Off);
    Image img;
    NeoFrameReport report;
    const uint64_t count0 = faultinject::injectionCount();
    faultinject::armBitFlip(kIntegrityBinTiles, -1, 1);
    for (int f = 0; f < kMatrixFrames; ++f) {
        renderer.renderFrameInto(img, scene, traj.cameraAt(f, smallRes()),
                                 static_cast<uint64_t>(f), &report);
        EXPECT_EQ(report.frame.integrity.checks, 0u);
        EXPECT_EQ(img.contentHash(), clean[static_cast<size_t>(f)]);
    }
    EXPECT_EQ(faultinject::injectionCount(), count0);
    EXPECT_TRUE(faultinject::pending());
    faultinject::disarm();
}

// --- Projection span fences --------------------------------------------

/**
 * Span-fence variant of runInjectionMatrix: the projected feature SoA
 * arrays are sealed as flat spans, so a detected fault is frame-global
 * (tile == -1) rather than per-tile — the shared matrix body's
 * EXPECT_GE(tile, 0) cannot be reused. The flip is injected before
 * frame 1 and must be detected at frame 1's consumer fence; recover mode
 * restores the span before the sorter consumes it, so every delivered
 * frame hash stays clean.
 */
void
runSpanInjectionMatrix(const char *structure, uint64_t seed)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    for (const MatrixConfig &c : matrixConfigs(false)) {
        SCOPED_TRACE(std::string(structure) + " " + configName(c));
        NeoRenderer renderer(integrityOpts(c.threads, c.reference, c.mode));
        Image img;
        NeoFrameReport report;

        const uint64_t count0 = faultinject::injectionCount();
        for (int f = 0; f < kMatrixFrames; ++f) {
            if (f == 1)
                faultinject::armBitFlip(structure, -1, seed);
            renderer.renderFrameInto(img, scene,
                                     traj.cameraAt(f, smallRes()),
                                     static_cast<uint64_t>(f), &report);
            const IntegrityFrameStats &stats = report.frame.integrity;
            if (f >= 1) {
                EXPECT_EQ(faultinject::injectionCount(), count0 + 1)
                    << "frame " << f;
            }

            if (f == 1) {
                ASSERT_EQ(stats.faults, 1u);
                const FaultReport &r = stats.reports[0];
                EXPECT_EQ(r.stage, IntegrityStage::Projection);
                EXPECT_STREQ(r.structure, structure);
                EXPECT_EQ(r.frame_index, 1u);
                EXPECT_EQ(r.tile, -1) << "span faults are frame-global";
                EXPECT_NE(r.expected_digest, r.actual_digest);
                EXPECT_EQ(r.recovered, c.mode == IntegrityMode::Recover);
            } else {
                EXPECT_EQ(stats.faults, 0u) << "frame " << f;
            }

            // The projection arrays are rebuilt every frame, so in
            // recover mode (span restored before any consumer ran) the
            // delivered hash is clean on every frame; in check mode only
            // until the corrupted span is consumed.
            if (c.mode == IntegrityMode::Recover || f < 1) {
                EXPECT_EQ(img.contentHash(), clean[static_cast<size_t>(f)])
                    << "frame " << f;
            }
        }
        faultinject::disarm();
    }
}

TEST(IntegrityInjectionMatrix, ProjectionMean2dSpanFlipDetected)
{
    runSpanInjectionMatrix(kIntegrityProjMean2d, 601);
}

TEST(IntegrityInjectionMatrix, ProjectionRadiusSpanFlipDetected)
{
    runSpanInjectionMatrix(kIntegrityProjRadius, 602);
}

TEST(IntegrityInjectionMatrix, ProjectionDepthSpanFlipDetected)
{
    runSpanInjectionMatrix(kIntegrityProjDepth, 603);
}

TEST(IntegrityInjectionMatrix, ProjectionConicSpanFlipDetected)
{
    runSpanInjectionMatrix(kIntegrityProjConic, 604);
}

// --- Attest mode -------------------------------------------------------

TEST(IntegrityAttestTest, CleanAttestFramesAreNonPerturbing)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        NeoRenderer renderer(
            integrityOpts(threads, false, IntegrityMode::Attest));
        EXPECT_EQ(renderer.integrityMode(), IntegrityMode::Attest);
        Image img;
        NeoFrameReport report;
        for (int f = 0; f < kMatrixFrames; ++f) {
            renderer.renderFrameInto(img, scene,
                                     traj.cameraAt(f, smallRes()),
                                     static_cast<uint64_t>(f), &report);
            EXPECT_EQ(report.frame.integrity.mode, IntegrityMode::Attest);
            EXPECT_EQ(report.frame.integrity.faults, 0u) << "frame " << f;
            EXPECT_GT(report.frame.integrity.checks, 0u) << "frame " << f;
            EXPECT_EQ(img.contentHash(), clean[static_cast<size_t>(f)])
                << "frame " << f
                << ": the cross-render must not perturb the output";
        }
    }
}

TEST(IntegrityAttestTest, CorruptedFrameCaughtByCrossRender)
{
    const GaussianScene &scene = integrityScene();
    Trajectory traj(TrajectoryKind::Orbit, scene);
    const std::vector<uint64_t> &clean = cleanFrameHashes();

    NeoRenderer renderer(integrityOpts(2, false, IntegrityMode::Attest));
    Image img;
    NeoFrameReport report;

    // Frame 0 is attest-due (0 % period == 0): a flip in the delivered
    // pixels is invisible to every structural fence but caught by the
    // end-to-end reference cross-render.
    faultinject::armBitFlip(kIntegrityAttestFrame, -1, 777);
    renderer.renderFrameInto(img, scene, traj.cameraAt(0, smallRes()), 0,
                             &report);
    ASSERT_EQ(report.frame.integrity.faults, 1u);
    const FaultReport &r = report.frame.integrity.reports[0];
    EXPECT_EQ(r.stage, IntegrityStage::Attestation);
    EXPECT_STREQ(r.structure, kIntegrityAttestFrame);
    EXPECT_EQ(r.tile, -1);
    EXPECT_FALSE(r.recovered) << "attest is detection-only";
    EXPECT_FALSE(report.frame.integrity.frame_recovered);
    EXPECT_NE(img.contentHash(), clean[0])
        << "the corrupted frame is delivered as-is";

    // The next frame is not attest-due: an armed pixel flip has no
    // injection point to fire at and stays pending.
    const uint64_t count0 = faultinject::injectionCount();
    faultinject::armBitFlip(kIntegrityAttestFrame, -1, 778);
    renderer.renderFrameInto(img, scene, traj.cameraAt(1, smallRes()), 1,
                             &report);
    EXPECT_EQ(report.frame.integrity.faults, 0u);
    EXPECT_EQ(faultinject::injectionCount(), count0);
    EXPECT_TRUE(faultinject::pending());
    EXPECT_EQ(img.contentHash(), clean[1]);
    faultinject::disarm();
}

} // namespace
} // namespace neo::test
