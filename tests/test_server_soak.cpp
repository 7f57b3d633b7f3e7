/**
 * @file
 * Randomized multi-session soak: K sessions served concurrently from
 * persistent driver threads while one victim session takes shuffled
 * per-frame fault injection (bit flips across every control-thread fence
 * point, including attest-frame corruption). The contract under test is
 * the serving layer's strongest claim: the healthy sessions' delivered
 * frame hashes are bit-identical to solo single-session runs for every
 * frame at every thread count, and the victim converges back to Healthy
 * once the fault source stops.
 *
 * Runs under both the `server` and `integrity` ctest labels.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
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

/** Every injection point that executes on the frame's control thread —
    the set a domain-pinned flip can actually land in. */
const char *const kSoakPoints[] = {
    kIntegrityBinTiles,    kIntegritySortTables, kIntegrityProjMean2d,
    kIntegrityProjRadius,  kIntegrityProjDepth,  kIntegrityProjConic,
    kIntegrityAttestFrame,
};

TEST(ServerSoakTest, HealthySessionsSurviveARandomlyFaultingSibling)
{
    const int frames = 10;
    const size_t victim_index = 1;
    const auto scene = std::make_shared<const GaussianScene>(
        tinySyntheticScene(1500, 77));
    const std::vector<Trajectory> trajectories = {
        Trajectory(TrajectoryKind::Orbit, *scene),
        Trajectory(TrajectoryKind::Dolly, *scene),
        Trajectory(TrajectoryKind::Walk, *scene),
    };

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ServerConfig cfg;
        cfg.pipeline = NeoRenderer::neoDefaultOptions();
        cfg.pipeline.threads = threads;
        // Attest mode keeps every fence point (projection spans, bin
        // tiles, sort tables, attest cross-render) live, so each
        // shuffled injection point can actually fire.
        cfg.pipeline.integrity = IntegrityMode::Attest;
        cfg.backoff_base = 1;
        cfg.backoff_cap = 2;
        // The ladder must never turn terminal in this test: the victim
        // has to keep attempting recovery so it can converge at the end.
        cfg.quarantine_max_failures = 64;
        NeoServer server(scene, cfg);

        std::vector<Session *> sessions;
        std::vector<std::vector<uint64_t>> solo;
        for (const Trajectory &t : trajectories) {
            const AdmitResult admit = server.open(t, smallRes());
            ASSERT_TRUE(admit.admitted);
            sessions.push_back(server.session(admit.session_id));

            PipelineOptions solo_opts = cfg.pipeline;
            solo_opts.threads = 1;
            NeoRenderer solo_renderer(solo_opts);
            Image img;
            std::vector<uint64_t> hashes;
            for (int f = 0; f < frames; ++f) {
                solo_renderer.renderFrameInto(
                    img, *scene, t.cameraAt(f, smallRes()),
                    static_cast<uint64_t>(f));
                hashes.push_back(img.contentHash());
            }
            solo.push_back(std::move(hashes));
        }
        Session *victim = sessions[victim_index];

        // Soak: one persistent driver thread per session. The main
        // thread paces the frames and aims a freshly shuffled fault at
        // the victim before each one; healthy drivers record their
        // delivered hashes for post-join comparison (no ASSERTs off the
        // main thread).
        std::mt19937 rng(0xa5f00du + static_cast<unsigned>(threads));
        std::vector<std::vector<uint64_t>> delivered(sessions.size());
        for (auto &d : delivered)
            d.assign(static_cast<size_t>(frames), 0);

        for (int f = 0; f < frames; ++f) {
            const char *point =
                kSoakPoints[rng() % std::size(kSoakPoints)];
            faultinject::armBitFlip(
                point, -1, rng(),
                static_cast<int64_t>(victim->id()));

            std::vector<std::thread> drivers;
            for (size_t i = 0; i < sessions.size(); ++i) {
                drivers.emplace_back([&, i, f] {
                    sessions[i]->submit(static_cast<uint64_t>(f));
                    FrameOutcome o;
                    sessions[i]->step(&o);
                    if (o.rendered)
                        delivered[i][static_cast<size_t>(f)] =
                            o.frame_hash;
                });
            }
            for (auto &d : drivers)
                d.join();
        }
        faultinject::disarm();

        // Healthy sessions: every delivered frame bit-identical to the
        // solo run, no faults, no state excursions.
        for (size_t i = 0; i < sessions.size(); ++i) {
            if (i == victim_index)
                continue;
            for (int f = 0; f < frames; ++f)
                EXPECT_EQ(delivered[i][static_cast<size_t>(f)],
                          solo[i][static_cast<size_t>(f)])
                    << "session " << i << " frame " << f;
            EXPECT_EQ(sessions[i]->state(), SessionState::Healthy);
            EXPECT_EQ(sessions[i]->stats().faults, 0u);
            EXPECT_EQ(sessions[i]->stats().quarantines, 0u);
        }

        // The victim saw real trouble...
        EXPECT_GT(victim->stats().faults, 0u);

        // ...and converges back to Healthy once the faults stop. The
        // recovery frame runs on a rebuilt renderer (cold start), so its
        // hash is bit-identical to a fresh solo render of that frame;
        // warm reuse frames after it only need to stay fault-free.
        uint64_t f = static_cast<uint64_t>(frames);
        FrameOutcome recovery;
        bool saw_recovery = false;
        FrameOutcome o;
        for (int i = 0;
             i < 32 && victim->state() != SessionState::Healthy;
             ++i, ++f) {
            victim->submit(f);
            victim->step(&o);
            if (o.rendered) {
                recovery = o;
                saw_recovery = true;
            }
        }
        ASSERT_EQ(victim->state(), SessionState::Healthy)
            << "victim failed to converge after the fault source stopped";
        victim->submit(f);
        ASSERT_TRUE(victim->step(&o));
        ASSERT_TRUE(o.rendered);
        EXPECT_EQ(o.faults, 0u);

        if (saw_recovery) {
            PipelineOptions solo_opts = cfg.pipeline;
            solo_opts.threads = 1;
            NeoRenderer cold(solo_opts);
            Image img;
            cold.renderFrameInto(img, *scene,
                                 trajectories[victim_index].cameraAt(
                                     static_cast<int>(recovery.request),
                                     smallRes()),
                                 recovery.request);
            EXPECT_EQ(recovery.frame_hash, img.contentHash());
        }
    }
}

} // namespace
} // namespace neo::serve::test
