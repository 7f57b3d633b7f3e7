/**
 * @file
 * Multi-session serving layer tests: admission control, the three queue
 * drop policies, staleness shedding, deadline-driven degradation (with
 * the bit-exactness contract of the direct path), fault-triggered
 * quarantine and cold recovery, the terminal Degraded ladder, attest-mode
 * faults flowing through quarantine, and the fault-isolation contract —
 * healthy sessions' frame hashes bit-identical to solo runs at thread
 * counts {1, 2, 8} while a sibling faults.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/faultinject.h"
#include "common/integrity.h"
#include "serve/server.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace neo::serve::test
{
namespace
{

using neo::test::smallRes;
using neo::test::tinySyntheticScene;

std::shared_ptr<const GaussianScene>
sharedScene()
{
    static const auto scene = std::make_shared<const GaussianScene>(
        tinySyntheticScene(1500, 77));
    return scene;
}

/** Hermetic server config: integrity off, env-independent defaults. */
ServerConfig
baseConfig(int threads = 1)
{
    ServerConfig cfg;
    cfg.pipeline = NeoRenderer::neoDefaultOptions();
    cfg.pipeline.threads = threads;
    cfg.pipeline.integrity = IntegrityMode::Off;
    return cfg;
}

Trajectory
orbitAt(float speed = 1.0f)
{
    return Trajectory(TrajectoryKind::Orbit, *sharedScene(), speed);
}

/** Solo frame hashes of a trajectory (bit-identical at any thread
    count, so one serial run is ground truth for every config). */
std::vector<uint64_t>
soloHashes(const Trajectory &traj, int frames, Resolution res,
           const PipelineOptions &opts)
{
    PipelineOptions solo_opts = opts;
    solo_opts.threads = 1;
    NeoRenderer solo(solo_opts);
    Image img;
    std::vector<uint64_t> hashes;
    for (int f = 0; f < frames; ++f) {
        solo.renderFrameInto(img, *sharedScene(), traj.cameraAt(f, res),
                             static_cast<uint64_t>(f));
        hashes.push_back(img.contentHash());
    }
    return hashes;
}

/** Hash of one frame rendered by a brand-new renderer (cold start) —
    the ground truth for post-rebuild and direct-path frames. */
uint64_t
coldFrameHash(const Camera &camera, uint64_t frame_index,
              const PipelineOptions &opts)
{
    PipelineOptions solo_opts = opts;
    solo_opts.threads = 1;
    NeoRenderer solo(solo_opts);
    Image img;
    solo.renderFrameInto(img, *sharedScene(), camera, frame_index);
    return img.contentHash();
}

// --- Admission control -------------------------------------------------

TEST(ServerAdmissionTest, CapsLiveSessionsAndRecyclesSlots)
{
    ServerConfig cfg = baseConfig();
    cfg.max_sessions = 2;
    NeoServer server(sharedScene(), cfg);

    const AdmitResult a = server.open(orbitAt(), smallRes());
    const AdmitResult b = server.open(orbitAt(), smallRes());
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    EXPECT_NE(a.session_id, b.session_id);
    EXPECT_EQ(server.liveSessions(), 2u);

    const AdmitResult c = server.open(orbitAt(), smallRes());
    EXPECT_FALSE(c.admitted);
    EXPECT_STREQ(c.reason, "server full");

    EXPECT_TRUE(server.close(a.session_id));
    EXPECT_FALSE(server.close(a.session_id)) << "double close";
    EXPECT_EQ(server.session(a.session_id), nullptr);
    EXPECT_EQ(server.liveSessions(), 1u);

    const AdmitResult d = server.open(orbitAt(), smallRes());
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.session_id, a.session_id) << "freed slot is recycled";
}

// --- Queue policies ----------------------------------------------------

TEST(SessionQueueTest, DropOldestDisplacesTheFront)
{
    ServerConfig cfg = baseConfig();
    cfg.default_qos.queue_capacity = 2;
    cfg.default_qos.drop_policy = DropPolicy::DropOldest;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);

    EXPECT_TRUE(s->submit(0).accepted);
    EXPECT_TRUE(s->submit(1).accepted);
    const SubmitResult r = s->submit(2);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(r.dropped_oldest);
    EXPECT_EQ(s->queueDepth(), 2u);

    FrameOutcome o;
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 1u) << "frame 0 was displaced";
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 2u);
    EXPECT_EQ(s->stats().dropped_oldest, 1u);
}

TEST(SessionQueueTest, RejectBackoffKeepsQueueAndHintsRetry)
{
    ServerConfig cfg = baseConfig();
    cfg.default_qos.queue_capacity = 2;
    cfg.default_qos.drop_policy = DropPolicy::RejectBackoff;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);

    EXPECT_TRUE(s->submit(0).accepted);
    EXPECT_TRUE(s->submit(1).accepted);
    const SubmitResult r = s->submit(2);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.retry_after_frames, 2) << "queue depth is the hint";
    EXPECT_EQ(s->queueDepth(), 2u);

    FrameOutcome o;
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 0u) << "queued requests were not disturbed";
    EXPECT_EQ(s->stats().rejected, 1u);
}

TEST(SessionQueueTest, CoalesceLatestReplacesTheNewest)
{
    ServerConfig cfg = baseConfig();
    cfg.default_qos.queue_capacity = 2;
    cfg.default_qos.drop_policy = DropPolicy::CoalesceLatest;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);

    EXPECT_TRUE(s->submit(0).accepted);
    EXPECT_TRUE(s->submit(1).accepted);
    const SubmitResult r = s->submit(2);
    EXPECT_TRUE(r.accepted);
    EXPECT_TRUE(r.coalesced);

    FrameOutcome o;
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 0u);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 2u) << "frame 1 coalesced into frame 2";
    EXPECT_FALSE(s->step(&o));
    EXPECT_EQ(s->stats().coalesced, 1u);
}

TEST(SessionQueueTest, StaleRequestsAreShedAtDequeue)
{
    ServerConfig cfg = baseConfig();
    cfg.default_qos.queue_capacity = 8;
    cfg.default_qos.max_staleness = 2;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);

    for (uint64_t f = 0; f < 5; ++f)
        EXPECT_TRUE(s->submit(f).accepted);
    // submit_seq is 5; requests with seq 1..2 are older than 2
    // submissions and shed, seq 3..5 (frames 2..4) survive.
    FrameOutcome o;
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.request, 2u);
    EXPECT_EQ(s->stats().dropped_stale, 2u);
    EXPECT_EQ(s->drain(), 2u);
    EXPECT_EQ(s->stats().rendered, 3u);
}

// --- Bit-exactness of served frames ------------------------------------

TEST(ServerIsolationTest, ServedFramesMatchSoloRenderer)
{
    const int frames = 4;
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ServerConfig cfg = baseConfig(threads);
        NeoServer server(sharedScene(), cfg);
        Session *s =
            server.session(server.open(orbitAt(), smallRes()).session_id);
        const std::vector<uint64_t> solo =
            soloHashes(orbitAt(), frames, smallRes(), cfg.pipeline);

        for (int f = 0; f < frames; ++f) {
            s->submit(static_cast<uint64_t>(f));
            FrameOutcome o;
            ASSERT_TRUE(s->step(&o));
            ASSERT_TRUE(o.rendered);
            EXPECT_EQ(o.frame_hash, solo[static_cast<size_t>(f)])
                << "frame " << f;
            EXPECT_EQ(o.resolution_drop, 0);
            EXPECT_FALSE(o.direct_path);
        }
    }
}

// --- Deadline-driven degradation ---------------------------------------

TEST(SessionDegradationTest, ImpossibleDeadlineWalksTheLadder)
{
    ServerConfig cfg = baseConfig();
    QosTarget qos;
    qos.deadline_ms = 1e-6; // everything misses
    qos.max_resolution_drop = 1;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(
        server.open(orbitAt(), smallRes(), qos).session_id);

    // Frame 0 renders native (no prediction yet); the first miss drops
    // the tier, the second escalates to skipping the sorter update.
    FrameOutcome o;
    s->submit(0);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.resolution_drop, 0);
    EXPECT_TRUE(o.deadline_missed);

    s->submit(1);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.resolution_drop, 1);
    EXPECT_FALSE(o.direct_path);

    s->submit(2);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.resolution_drop, 1) << "tier capped at max_resolution_drop";
    EXPECT_TRUE(o.direct_path) << "ladder escalates to sorter skip";

    const SessionStats stats = s->stats();
    EXPECT_EQ(stats.deadline_misses, 3u);
    EXPECT_EQ(stats.degraded_frames, 2u);
    EXPECT_EQ(s->state(), SessionState::Healthy)
        << "degradation is not a fault";
}

TEST(SessionDegradationTest, DegradedFramesStayBitExactForTheirTier)
{
    // The degradation ladder trades resolution/sort freshness, never
    // determinism: a tier-dropped frame equals a solo render at the tier
    // resolution, and a direct-path frame equals a cold-start render.
    ServerConfig cfg = baseConfig();
    QosTarget qos;
    qos.deadline_ms = 1e-6;
    qos.max_resolution_drop = 1;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(
        server.open(orbitAt(), smallRes(), qos).session_id);

    FrameOutcome o;
    for (uint64_t f = 0; f <= 3; ++f) {
        s->submit(f);
        ASSERT_TRUE(s->step(&o));
        Resolution res = smallRes();
        res.width = std::max(res.width >> o.resolution_drop, 32);
        res.height = std::max(res.height >> o.resolution_drop, 32);
        if (o.direct_path || f == 0 || o.resolution_drop > 0) {
            // Tier changes cold-start the sorter (table shape changes),
            // and the direct path is defined as the cold-start render.
            EXPECT_EQ(o.frame_hash,
                      coldFrameHash(orbitAt().cameraAt(
                                        static_cast<int>(f), res),
                                    f, cfg.pipeline))
                << "frame " << f;
        }
    }
}

// --- Fault-triggered quarantine and cold recovery ----------------------

TEST(SessionQuarantineTest, FaultQuarantinesAndRecoversCold)
{
    ServerConfig cfg = baseConfig();
    cfg.pipeline.integrity = IntegrityMode::Check;
    cfg.backoff_base = 1;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);

    // Warm the reuse sorter with healthy frames.
    FrameOutcome o;
    for (uint64_t f = 0; f < 4; ++f) {
        s->submit(f);
        ASSERT_TRUE(s->step(&o));
        EXPECT_EQ(o.state, SessionState::Healthy);
    }

    // One corrupted bin-tile fence in this session's domain -> quarantine.
    faultinject::armBitFlip(kIntegrityBinTiles, -1, 7,
                            static_cast<int64_t>(s->id()));
    s->submit(4);
    ASSERT_TRUE(s->step(&o));
    EXPECT_GT(o.faults, 0u);
    EXPECT_EQ(o.state, SessionState::Quarantined);
    EXPECT_EQ(s->stats().faults, o.faults);
    EXPECT_EQ(s->stats().quarantines, 1u);

    // backoff_base=1: the next request burns the ladder step...
    s->submit(5);
    ASSERT_TRUE(s->step(&o));
    EXPECT_FALSE(o.rendered);
    EXPECT_EQ(o.state, SessionState::Quarantined);
    EXPECT_EQ(s->stats().backoff_skips, 1u);

    // ...and the one after that is the recovery attempt: rebuilt
    // renderer, cold-start render, bit-identical to a fresh renderer.
    s->submit(6);
    ASSERT_TRUE(s->step(&o));
    ASSERT_TRUE(o.rendered);
    EXPECT_EQ(o.state, SessionState::Healthy);
    EXPECT_EQ(o.rebuilds, 1u);
    EXPECT_EQ(s->stats().recoveries, 1u);
    EXPECT_EQ(o.frame_hash,
              coldFrameHash(orbitAt().cameraAt(6, smallRes()), 6,
                            cfg.pipeline));

    // Healthy again: subsequent frames keep serving.
    s->submit(7);
    ASSERT_TRUE(s->step(&o));
    EXPECT_TRUE(o.rendered);
    EXPECT_EQ(o.state, SessionState::Healthy);
    faultinject::disarm();
}

TEST(SessionQuarantineTest, PersistentFaultClimbsLadderToDegraded)
{
    ServerConfig cfg = baseConfig();
    cfg.pipeline.integrity = IntegrityMode::Check;
    cfg.quarantine_max_failures = 2;
    cfg.backoff_base = 1;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);
    const uint64_t domain = s->id();

    FrameOutcome o;
    s->submit(0);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.state, SessionState::Healthy);

    // Fault 1: quarantine.
    faultinject::armBitFlip(kIntegrityBinTiles, -1, 7,
                            static_cast<int64_t>(domain));
    s->submit(1);
    ASSERT_TRUE(s->step(&o));
    EXPECT_GT(o.faults, 0u);
    EXPECT_EQ(o.state, SessionState::Quarantined);

    // Backoff step.
    s->submit(2);
    ASSERT_TRUE(s->step(&o));
    EXPECT_FALSE(o.rendered);

    // Recovery attempt faults again -> failures reach
    // quarantine_max_failures -> terminal Degraded.
    faultinject::armBitFlip(kIntegrityBinTiles, -1, 8,
                            static_cast<int64_t>(domain));
    s->submit(3);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.state, SessionState::Degraded);
    EXPECT_EQ(s->stats().faults, 2u);

    // Degraded is terminal: submissions reject with a reconnect hint,
    // queued requests drop.
    const SubmitResult r = s->submit(4);
    EXPECT_FALSE(r.accepted);
    EXPECT_GT(r.retry_after_frames, 0);
    EXPECT_EQ(s->state(), SessionState::Degraded);
    faultinject::disarm();
}

// --- Attest mode flows through quarantine ------------------------------

TEST(SessionAttestTest, AttestMismatchQuarantinesTheSession)
{
    ServerConfig cfg = baseConfig();
    cfg.pipeline.integrity = IntegrityMode::Attest;
    cfg.backoff_base = 1;
    NeoServer server(sharedScene(), cfg);
    Session *s = server.session(server.open(orbitAt(), smallRes()).session_id);
    const std::vector<uint64_t> solo =
        soloHashes(orbitAt(), 3, smallRes(), cfg.pipeline);

    // Clean attest frames are non-perturbing and fault-free.
    FrameOutcome o;
    for (uint64_t f = 0; f < 3; ++f) {
        s->submit(f);
        ASSERT_TRUE(s->step(&o));
        EXPECT_EQ(o.faults, 0u) << "frame " << f;
        EXPECT_EQ(o.frame_hash, solo[static_cast<size_t>(f)]);
    }

    // Corrupt the delivered framebuffer on an attest-due frame (default
    // period 4: frame 4 is due): the cross-render catches it and the
    // fault quarantines the session like any other FaultReport.
    faultinject::armBitFlip(kIntegrityAttestFrame, -1, 9,
                            static_cast<int64_t>(s->id()));
    s->submit(4);
    ASSERT_TRUE(s->step(&o));
    EXPECT_GT(o.faults, 0u);
    EXPECT_EQ(o.state, SessionState::Quarantined);
    EXPECT_NE(o.frame_hash, coldFrameHash(orbitAt().cameraAt(4, smallRes()),
                                          4, cfg.pipeline))
        << "attest is detection-only: the delivered frame stays corrupted";

    // Recovery: backoff, rebuild, healthy.
    s->submit(5);
    ASSERT_TRUE(s->step(&o));
    EXPECT_FALSE(o.rendered);
    s->submit(6);
    ASSERT_TRUE(s->step(&o));
    EXPECT_EQ(o.state, SessionState::Healthy);
    faultinject::disarm();
}

// --- Fault isolation across sessions -----------------------------------

TEST(ServerIsolationTest, VictimFaultsNeverPerturbHealthySessions)
{
    const int frames = 6;
    const std::vector<Trajectory> trajectories = {orbitAt(1.0f),
                                                  orbitAt(1.5f),
                                                  orbitAt(2.0f)};
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ServerConfig cfg = baseConfig(threads);
        cfg.pipeline.integrity = IntegrityMode::Check;
        cfg.backoff_base = 1;
        cfg.quarantine_max_failures = 64; // never terminal in this test
        NeoServer server(sharedScene(), cfg);

        std::vector<Session *> sessions;
        std::vector<std::vector<uint64_t>> solo;
        for (const Trajectory &t : trajectories) {
            sessions.push_back(
                server.session(server.open(t, smallRes()).session_id));
            solo.push_back(
                soloHashes(t, frames, smallRes(), cfg.pipeline));
        }
        Session *victim = sessions[1];

        for (int f = 0; f < frames; ++f) {
            // A fresh fault aimed at the victim every frame, pinned to
            // its injection domain so a healthy session can never
            // consume it.
            faultinject::armBitFlip(kIntegrityBinTiles, -1,
                                    static_cast<uint64_t>(100 + f),
                                    static_cast<int64_t>(victim->id()));
            for (Session *s : sessions)
                s->submit(static_cast<uint64_t>(f));
            server.pump();

            for (size_t i = 0; i < sessions.size(); ++i) {
                if (sessions[i] == victim)
                    continue;
                // Healthy sessions delivered this frame bit-identically
                // to their solo runs, no matter what the victim did.
                EXPECT_EQ(sessions[i]->lastImage().contentHash(),
                          solo[i][static_cast<size_t>(f)])
                    << "session " << i << " frame " << f;
                EXPECT_EQ(sessions[i]->state(), SessionState::Healthy);
                EXPECT_EQ(sessions[i]->stats().faults, 0u);
            }
        }
        faultinject::disarm();

        // The victim took faults and quarantined along the way...
        EXPECT_GT(victim->stats().faults, 0u);
        EXPECT_GT(victim->stats().quarantines, 0u);

        // ...and converges back to Healthy once the faults stop. The
        // recovery frame (the render that flips the state back) runs on
        // a rebuilt renderer, so it is bit-identical to a cold-start
        // render; frames after it are warm reuse frames with no solo
        // ground truth, and only need to stay fault-free.
        uint64_t f = frames;
        FrameOutcome recovery;
        bool saw_recovery = false;
        FrameOutcome o;
        for (int i = 0; i < 16 && victim->state() != SessionState::Healthy;
             ++i, ++f) {
            victim->submit(f);
            victim->step(&o);
            if (o.rendered) {
                recovery = o;
                saw_recovery = true;
            }
        }
        ASSERT_EQ(victim->state(), SessionState::Healthy);
        ASSERT_TRUE(saw_recovery);
        EXPECT_EQ(recovery.frame_hash,
                  coldFrameHash(trajectories[1].cameraAt(
                                    static_cast<int>(recovery.request),
                                    smallRes()),
                                recovery.request, cfg.pipeline));
        victim->submit(f);
        ASSERT_TRUE(victim->step(&o));
        ASSERT_TRUE(o.rendered);
        EXPECT_EQ(o.faults, 0u);
    }
}

// --- Concurrent drain --------------------------------------------------

TEST(ServerConcurrencyTest, ConcurrentDrainMatchesSoloHashes)
{
    const int frames = 4;
    const std::vector<Trajectory> trajectories = {
        orbitAt(1.0f), orbitAt(1.25f), orbitAt(1.5f), orbitAt(1.75f)};
    for (int drivers : {1, 2, 8}) {
        SCOPED_TRACE("drivers=" + std::to_string(drivers));
        ServerConfig cfg = baseConfig(2);
        NeoServer server(sharedScene(), cfg);

        std::vector<Session *> sessions;
        for (const Trajectory &t : trajectories)
            sessions.push_back(
                server.session(server.open(t, smallRes()).session_id));

        for (int f = 0; f < frames; ++f)
            for (Session *s : sessions)
                s->submit(static_cast<uint64_t>(f));
        EXPECT_EQ(server.drainConcurrent(drivers),
                  static_cast<size_t>(frames) * sessions.size());

        // Every session's last frame matches its solo run — driver
        // partitioning and pool-dispatch interleaving are invisible.
        for (size_t i = 0; i < sessions.size(); ++i) {
            const std::vector<uint64_t> solo = soloHashes(
                trajectories[i], frames, smallRes(), cfg.pipeline);
            EXPECT_EQ(sessions[i]->lastImage().contentHash(),
                      solo.back())
                << "session " << i;
            EXPECT_EQ(sessions[i]->stats().rendered,
                      static_cast<uint64_t>(frames));
        }
    }
}

} // namespace
} // namespace neo::serve::test
