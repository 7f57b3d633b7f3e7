/**
 * @file
 * Multi-session serving demo: one NeoServer, three camera streams with
 * different QoS targets, an overloaded queue, an injected bit flip that
 * the integrity fences catch and that quarantines its session, and the
 * cold rebuild back to Healthy — while the other sessions' frames stay
 * bit-identical to solo runs.
 *
 *   ./multi_session_server [--threads N]
 *
 * Server policy knobs come from the NEO_SERVER_* environment variables
 * (see serve/qos.h); this demo overrides a few per session to show the
 * drop policies and the degradation ladder.
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/faultinject.h"
#include "common/integrity.h"
#include "common/parallel.h"
#include "example_args.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"
#include "serve/server.h"

using namespace neo;
using namespace neo::serve;

int
main(int argc, char **argv)
{
    constexpr const char *kUsage =
        "usage: multi_session_server [--threads N]\n";
    const examples::ArgParser args{"multi_session_server", kUsage};
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<int>(
                args.integer("--threads", argv[++i], -1, kMaxThreads));
        } else {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }
    }

    // One scene shared (immutably) by every session.
    SyntheticSceneParams params;
    params.count = 20000;
    params.clusters = 6;
    params.extent = 8.0f;
    params.seed = 2026;
    auto scene =
        std::make_shared<const GaussianScene>(generateScene(params));
    std::printf("scene: %zu gaussians shared across sessions\n",
                scene->size());

    ServerConfig cfg = serverConfigFromEnv();
    cfg.max_sessions = 3;
    cfg.pipeline.threads = threads;
    // Integrity fences on, so the injected bit flip below is caught.
    cfg.pipeline.integrity = IntegrityMode::Check;
    // Small ladder so the demo's quarantine recovers within a few frames.
    cfg.quarantine_max_failures = 3;
    cfg.backoff_base = 1;
    cfg.backoff_cap = 4;
    NeoServer server(scene, cfg);

    const Resolution res{480, 270, "demo"};

    // Session A: interactive viewer — the queue coalesces to the latest
    // camera and a deadline drives the degradation ladder.
    QosTarget interactive;
    interactive.target_fps = 120.0; // aggressive: forces degradation
    interactive.queue_capacity = 2;
    interactive.drop_policy = DropPolicy::CoalesceLatest;
    interactive.restore_after = 2;

    // Session B: offline exporter — no deadline, never degrades, frames
    // stay bit-identical to a solo run by construction.
    QosTarget exact; // defaults: no deadline, drop-oldest

    // Session C: best-effort stream with a reject-backoff queue.
    QosTarget besteffort;
    besteffort.queue_capacity = 2;
    besteffort.drop_policy = DropPolicy::RejectBackoff;

    const AdmitResult a = server.open(
        Trajectory(TrajectoryKind::Orbit, *scene), res, interactive);
    const AdmitResult b = server.open(
        Trajectory(TrajectoryKind::Dolly, *scene), res, exact);
    const AdmitResult c = server.open(
        Trajectory(TrajectoryKind::Walk, *scene), res, besteffort);
    if (!a.admitted || !b.admitted || !c.admitted) {
        std::fprintf(stderr, "admission failed\n");
        return 1;
    }
    // A fourth stream bounces off admission control.
    const AdmitResult full =
        server.open(Trajectory(TrajectoryKind::Orbit, *scene), res);
    std::printf("admission: a=%u b=%u c=%u, fourth open -> %s\n",
                a.session_id, b.session_id, c.session_id,
                full.admitted ? "admitted?!" : full.reason);

    // Flip one bit of session A's binned tiles mid-run: the binning
    // fence catches it, A is quarantined and rebuilt cold; B and C never
    // notice (the flip is pinned to A's fault domain).
    Session *sa = server.session(a.session_id);
    Session *sb = server.session(b.session_id);
    Session *sc = server.session(c.session_id);

    for (int f = 0; f < 24; ++f) {
        if (f == 12)
            faultinject::armBitFlip(kIntegrityBinTiles, -1, 12,
                                    static_cast<int64_t>(sa->id()));
        // Overload: three submissions per pump into bounded queues.
        for (int burst = 0; burst < 3; ++burst) {
            sa->submit(static_cast<uint64_t>(f));
            sb->submit(static_cast<uint64_t>(f));
            sc->submit(static_cast<uint64_t>(f));
        }
        server.pump();
        std::printf("pump %2d: a=%-11s b=%-11s c=%-11s (a rebuilds %u)\n",
                    f, sessionStateName(sa->state()),
                    sessionStateName(sb->state()),
                    sessionStateName(sc->state()), sa->rebuilds());
    }
    server.drain();

    const SessionStats sas = sa->stats();
    const SessionStats sbs = sb->stats();
    const SessionStats scs = sc->stats();
    std::printf("\nsession a: %llu rendered, %llu coalesced, %llu "
                "degraded frames, %llu faults, %llu quarantines, %llu "
                "recoveries\n",
                static_cast<unsigned long long>(sas.rendered),
                static_cast<unsigned long long>(sas.coalesced),
                static_cast<unsigned long long>(sas.degraded_frames),
                static_cast<unsigned long long>(sas.faults),
                static_cast<unsigned long long>(sas.quarantines),
                static_cast<unsigned long long>(sas.recoveries));
    std::printf("session b: %llu rendered, %llu dropped-oldest, "
                "%llu degraded frames (exact stream: must be 0)\n",
                static_cast<unsigned long long>(sbs.rendered),
                static_cast<unsigned long long>(sbs.dropped_oldest),
                static_cast<unsigned long long>(sbs.degraded_frames));
    std::printf("session c: %llu rendered, %llu rejected with backoff "
                "hints\n",
                static_cast<unsigned long long>(scs.rendered),
                static_cast<unsigned long long>(scs.rejected));

    const bool ok = sa->state() == SessionState::Healthy &&
                    sas.faults > 0 && sas.recoveries >= 1 &&
                    sbs.degraded_frames == 0;
    std::printf("\n%s\n", ok ? "demo OK: fault contained to session a"
                             : "demo FAILED");
    return ok ? 0 : 1;
}
