/**
 * @file
 * Socket front end demo/smoke server: one NeoServer behind the framed
 * TCP protocol (serve/net/), serving loopback clients until a Shutdown
 * request drains it.
 *
 *   ./neo_serve_net [--threads N] [--port P] [--print-solo N]
 *                   [--state-dir PATH]
 *
 * --state-dir enables durable sessions (serve/durable/): state is
 * checkpointed + journaled under PATH, and on startup the server
 * recovers whatever a previous incarnation persisted, printing
 * "recovered sessions=N snapshot=S replayed=R skipped=K" for the
 * crash-recovery smoke to parse.
 *
 * Numeric flags must be whole integers in range (--threads -1..256,
 * --port 0..65535, --print-solo 0..2^20); anything else, or an unknown
 * flag, prints the usage line and exits 2.
 *
 * Prints "listening on 127.0.0.1:PORT" once bound (PORT is ephemeral
 * unless --port/NEO_SERVER_NET_PORT pins it) — the CI smoke parses that
 * line, drives the server with neo_serve_net_client, and compares the
 * served frame hashes against the "solo F HASH" lines --print-solo
 * emits from an in-process reference render of the same trajectory.
 * Exits 0 only after a graceful drain completes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/env.h"
#include "common/parallel.h"
#include "core/neo_renderer.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"
#include "serve/net/frontend.h"
#include "serve/server.h"

using namespace neo;
using namespace neo::serve;

namespace
{

constexpr const char *kUsage = "usage: neo_serve_net [--threads N] "
                               "[--port P] [--print-solo N] "
                               "[--state-dir PATH]\n";

/** Full-string integer in [@p lo, @p hi] for @p flag, or usage + exit 2. */
long
parseArg(const char *flag, const char *text, long lo, long hi)
{
    long v = 0;
    if (!env::parseLong(text, &v) || v < lo || v > hi) {
        std::fprintf(stderr,
                     "neo_serve_net: %s '%s' is not an integer in "
                     "[%ld, %ld]\n%s",
                     flag, text, lo, hi, kUsage);
        std::exit(2);
    }
    return v;
}

/** The scene/trajectory contract shared with neo_serve_net_client: the
    client opens an orbit at speed 1.0 and 256x192, which is exactly
    what the solo reference below renders. */
std::shared_ptr<const GaussianScene>
demoScene()
{
    SyntheticSceneParams params;
    params.count = 8000;
    params.clusters = 6;
    params.extent = 8.0f;
    params.seed = 2026;
    params.name = "net-demo";
    return std::make_shared<const GaussianScene>(generateScene(params));
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    int port = -1;
    int print_solo = 0;
    const char *state_dir = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }
        const char *value = argv[++i];
        if (std::strcmp(flag, "--threads") == 0) {
            threads = static_cast<int>(parseArg(flag, value, -1, kMaxThreads));
        } else if (std::strcmp(flag, "--port") == 0) {
            port = static_cast<int>(parseArg(flag, value, 0, 65535));
        } else if (std::strcmp(flag, "--print-solo") == 0) {
            print_solo = static_cast<int>(parseArg(flag, value, 0, 1L << 20));
        } else if (std::strcmp(flag, "--state-dir") == 0) {
            state_dir = value;
        } else {
            std::fprintf(stderr, "%s", kUsage);
            return 2;
        }
    }

    auto scene = demoScene();
    ServerConfig cfg = serverConfigFromEnv();
    cfg.pipeline.threads = threads;
    NeoServer server(scene, cfg);

    if (print_solo > 0) {
        // Ground truth for the smoke: what a solo renderer produces for
        // the trajectory the client will open over the wire.
        const Trajectory traj(TrajectoryKind::Orbit, *scene, 1.0f);
        const Resolution res{256, 192, "net"};
        PipelineOptions solo_opts = cfg.pipeline;
        solo_opts.threads = 1;
        NeoRenderer solo(solo_opts);
        Image img;
        for (int f = 0; f < print_solo; ++f) {
            solo.renderFrameInto(img, *scene, traj.cameraAt(f, res),
                                 static_cast<uint64_t>(f));
            std::printf("solo %d %016llx\n", f,
                        static_cast<unsigned long long>(
                            img.contentHash()));
        }
    }

    if (state_dir) {
        if (!server.enableDurability(
                serve::durable::durableConfigFromEnv(state_dir))) {
            std::fprintf(stderr,
                         "neo_serve_net: durable mode failed for %s\n",
                         state_dir);
            return 1;
        }
        const serve::durable::RecoveryStatus &rec = server.recovery();
        std::printf("recovered sessions=%u snapshot=%llu replayed=%llu "
                    "skipped=%u\n",
                    rec.sessions_restored,
                    static_cast<unsigned long long>(rec.snapshot_seq),
                    static_cast<unsigned long long>(rec.journal_replayed),
                    rec.generations_skipped);
        std::fflush(stdout);
    }

    net::NetConfig ncfg = net::netConfigFromEnv();
    if (port >= 0)
        ncfg.port = port;
    net::NetFrontend frontend(server, ncfg);
    if (!frontend.start()) {
        std::fprintf(stderr, "neo_serve_net: bind/listen failed\n");
        return 1;
    }
    std::printf("listening on 127.0.0.1:%d\n", frontend.port());
    std::fflush(stdout); // the CI smoke parses the port from a pipe

    frontend.run(); // returns after a drain completes (Shutdown frame)

    const net::NetCounters &c = frontend.counters();
    std::printf("served %llu requests over %llu connections "
                "(%llu frames in, %llu out, %llu protocol errors)\n",
                static_cast<unsigned long long>(c.requests_served),
                static_cast<unsigned long long>(c.accepted),
                static_cast<unsigned long long>(c.frames_in),
                static_cast<unsigned long long>(c.frames_out),
                static_cast<unsigned long long>(c.protocol_errors));
    if (!frontend.drained()) {
        std::fprintf(stderr, "neo_serve_net: exited without a completed "
                             "drain\n");
        return 1;
    }
    std::printf("drained cleanly\n");
    return 0;
}
