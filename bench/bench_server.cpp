/**
 * @file
 * Multi-session serving bench — the serving layer's throughput and
 * isolation entry point.
 *
 * Opens N sessions against one shared const scene and drives
 * each from its own driver thread over the same synthetic orbit the
 * thread-scaling bench renders (same scene parameters, resolution and
 * frame count), sweeping sessions x pipeline worker threads. Every
 * delivered frame's hash is compared against a solo single-session
 * renderer walking the same trajectory: the fault-isolation contract
 * says concurrent siblings must not change a single bit, so a mismatch
 * fails the run. The 1-session / threads=1 point runs the same frames
 * through the same code as bench_scaling's threads=1 point — one
 * NeoRenderer frame loop, an untimed cold-start frame 0, then timed
 * reuse frames 1..N each hashed — so bench/diff_bench.sh gates the
 * serving-layer overhead (queues, QoS) as their difference.
 *
 *   ./bench_server [--json out.json] [--gaussians N] [--frames N]
 *                  [--sessions-list 1,2,4] [--threads-list 1,2,4,8]
 *                  [--pr N] [--net] [--checkpoint]
 *
 * Numeric values (list entries included) must be whole positive
 * integers in range; anything else, or an unknown flag, prints the
 * usage line and exits 2.
 *
 * --net additionally measures the socket front end: a NetFrontend on an
 * ephemeral loopback port over the same scene, driven by the blocking
 * NetClient one request per frame, at each thread count. Next to the
 * end-to-end net ms/frame, the wire overhead is measured directly as
 * the mean round-trip of a no-render Stats request — the full framed
 * path (encode, CRC, two loopback hops, poll dispatch, decode) without
 * a render inside, so the number is not a difference of two large
 * jittery frame times. Net points land in a separate "net_points" JSON
 * array whose lines carry no "sessions" key, so bench/diff_bench.sh's
 * in-process extraction is untouched.
 *
 * --checkpoint measures durable-mode overhead (serve/durable/): per
 * thread count, kDurablePairs pairs of the same 1-session workload, one
 * run plain and one with checkpointing + write-ahead journaling
 * (fdatasync every record, snapshot cadence mid-run) into a fresh
 * scratch state directory. The order within a pair swaps every pair,
 * so a host that speeds up or slows down during the sweep loads both
 * sides alike. Every run's hashes are still compared against solo.
 * Each pair is printed, and the medians over the pairs land in a
 * "durable_points" array (again no "sessions" key); diff_bench.sh
 * gates durable vs plain within the same file at <=10%.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"
#include "serve/durable/durable.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"
#include "serve/server.h"

using namespace neo;

namespace
{

struct Args
{
    std::string json_path;
    size_t gaussians = 30000;
    int frames = 5;
    int pr = 8;
    std::vector<int> sessions = {1, 2, 4};
    std::vector<int> threads = {1, 2, 4, 8};
    bool net = false;
    bool checkpoint = false;
};

constexpr const char *kUsage =
    "usage: bench_server [--json out.json] [--gaussians N] [--frames N] "
    "[--sessions-list 1,2,4] [--threads-list 1,2,4,8] [--pr N] [--net] "
    "[--checkpoint]\n";

[[noreturn]] void
usageExit(const char *why, const char *flag)
{
    std::fprintf(stderr, "bench_server: %s '%s'\n%s", why, flag, kUsage);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    using bench::parsePositiveArg;
    using bench::parsePositiveList;
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (std::strcmp(flag, "--net") == 0) {
            a.net = true;
            continue;
        }
        if (std::strcmp(flag, "--checkpoint") == 0) {
            a.checkpoint = true;
            continue;
        }
        if (i + 1 >= argc)
            usageExit("missing value for", flag);
        const char *value = argv[++i];
        if (std::strcmp(flag, "--json") == 0)
            a.json_path = value;
        else if (std::strcmp(flag, "--gaussians") == 0)
            a.gaussians = static_cast<size_t>(
                parsePositiveArg(flag, value, 1L << 30, kUsage));
        else if (std::strcmp(flag, "--frames") == 0)
            a.frames = static_cast<int>(
                parsePositiveArg(flag, value, 1 << 20, kUsage));
        else if (std::strcmp(flag, "--sessions-list") == 0)
            a.sessions = parsePositiveList(flag, value, kMaxThreads, kUsage);
        else if (std::strcmp(flag, "--threads-list") == 0)
            a.threads = parsePositiveList(flag, value, kMaxThreads, kUsage);
        else if (std::strcmp(flag, "--pr") == 0)
            a.pr = static_cast<int>(
                parsePositiveArg(flag, value, 1 << 20, kUsage));
        else
            usageExit("unknown flag", flag);
    }
    return a;
}

struct PointResult
{
    int sessions = 0;
    int threads = 0;
    /** Wall-clock per delivered frame across all sessions. */
    double ms_per_frame = 0.0;
    /** Every delivered hash matched the solo run. */
    bool isolated = true;
};

/** One --net sweep point: a single session driven over the loopback
    socket, request per frame, against the in-process baseline at the
    same thread count. Carries no "sessions" field on purpose — the
    JSON line must not match diff_bench.sh's in-process extraction. */
struct NetPointResult
{
    int threads = 0;
    /** Wall-clock per served frame including both loopback hops. */
    double net_ms_per_frame = 0.0;
    /** Mean round-trip of a no-render Stats request, in microseconds —
        the framed wire path with no frame render inside. */
    double wire_overhead_us = 0.0;
    /** Every served hash matched the solo run. */
    bool isolated = true;
};

/** Plain/durable run pairs per --checkpoint point. One short pair
    reads the host's drift as often as the journal's cost; the median of
    several alternating pairs reads the journal. */
constexpr int kDurablePairs = 5;

/** One --checkpoint sweep point: the 1-session workload plain vs with
    durable checkpointing + journaling. No "sessions" key, same reason
    as NetPointResult. */
struct DurablePointResult
{
    int threads = 0;
    /** Median wall-clock per frame without durability. */
    double base_ms_per_frame = 0.0;
    /** Median of the same workload with write-ahead journaling
        (fdatasync per record) and mid-run snapshot checkpoints. */
    double durable_ms_per_frame = 0.0;
    /** Every hash (both runs) matched the solo run. */
    bool isolated = true;
};

/** Scratch durable state directory; removed with its contents. */
class ScratchStateDir
{
  public:
    ScratchStateDir()
    {
        char tmpl[] = "bench-durable-XXXXXX";
        const char *dir = mkdtemp(tmpl);
        path_ = dir ? dir : "";
    }

    ~ScratchStateDir()
    {
        if (path_.empty())
            return;
        if (DIR *d = opendir(path_.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((path_ + "/" + name).c_str());
            }
            closedir(d);
        }
        ::rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
writeJson(const std::string &path, const Args &args, Resolution res,
          const std::vector<PointResult> &points,
          const std::vector<NetPointResult> &net_points,
          const std::vector<DurablePointResult> &durable_points,
          bool isolated_all)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"server\",\n");
    std::fprintf(f, "  \"pr\": %d,\n", args.pr);
    std::fprintf(f, "  \"scene\": \"synthetic-orbit\",\n");
    std::fprintf(f, "  \"gaussians\": %zu,\n", args.gaussians);
    std::fprintf(f, "  \"resolution\": \"%dx%d\",\n", res.width,
                 res.height);
    std::fprintf(f, "  \"frames\": %d,\n", args.frames);
    std::fprintf(f, "  \"machine_cores\": %d,\n", hardwareThreadCount());
    std::fprintf(f, "  \"isolation\": \"delivered frame hashes "
                    "bit-identical to solo renderers\",\n");
    std::fprintf(f, "  \"isolated_all\": %s,\n",
                 isolated_all ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        std::fprintf(f,
                     "    {\"sessions\": %d, \"threads\": %d, "
                     "\"ms_per_frame\": %.3f, \"isolated\": %s}%s\n",
                     p.sessions, p.threads, p.ms_per_frame,
                     p.isolated ? "true" : "false",
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n",
                 net_points.empty() && durable_points.empty() ? "" : ",");
    if (!net_points.empty()) {
        // Socket-front-end points: no "sessions" key, so
        // bench/diff_bench.sh's grep for the in-process
        // 1-session/threads=1 line cannot land here.
        std::fprintf(f, "  \"net_points\": [\n");
        for (size_t i = 0; i < net_points.size(); ++i) {
            const NetPointResult &p = net_points[i];
            std::fprintf(f,
                         "    {\"threads\": %d, "
                         "\"net_ms_per_frame\": %.3f, "
                         "\"wire_overhead_us\": %.1f, "
                         "\"isolated\": %s}%s\n",
                         p.threads, p.net_ms_per_frame,
                         p.wire_overhead_us,
                         p.isolated ? "true" : "false",
                         i + 1 < net_points.size() ? "," : "");
        }
        std::fprintf(f, "  ]%s\n", durable_points.empty() ? "" : ",");
    }
    if (!durable_points.empty()) {
        // Durable-mode pairs: again no "sessions" key. diff_bench.sh
        // gates durable vs base within each threads=1 line.
        std::fprintf(f, "  \"durable_points\": [\n");
        for (size_t i = 0; i < durable_points.size(); ++i) {
            const DurablePointResult &p = durable_points[i];
            const double pct =
                p.base_ms_per_frame > 0.0
                    ? (p.durable_ms_per_frame - p.base_ms_per_frame) *
                          100.0 / p.base_ms_per_frame
                    : 0.0;
            std::fprintf(f,
                         "    {\"threads\": %d, "
                         "\"base_ms_per_frame\": %.3f, "
                         "\"durable_ms_per_frame\": %.3f, "
                         "\"checkpoint_overhead_pct\": %.1f, "
                         "\"isolated\": %s}%s\n",
                         p.threads, p.base_ms_per_frame,
                         p.durable_ms_per_frame, pct,
                         p.isolated ? "true" : "false",
                         i + 1 < durable_points.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);

    bench::banner("Multi-session serving throughput and isolation",
                  "serving-layer trajectory",
                  "healthy sessions bit-identical to solo runs at every "
                  "sessions x threads point");

    SyntheticSceneParams params;
    params.count = args.gaussians;
    params.clusters = 8;
    params.extent = 8.0f;
    params.seed = 2026;
    params.name = "scaling";
    auto scene =
        std::make_shared<const GaussianScene>(generateScene(params));
    const Resolution res{640, 384, "bench"};

    int max_sessions = 1;
    for (int s : args.sessions)
        max_sessions = std::max(max_sessions, s);

    // Session i orbits at its own speed: distinct camera streams, so an
    // accidental cross-session state leak cannot hide behind identical
    // inputs. Session 0 matches bench_scaling's orbit exactly.
    std::vector<Trajectory> trajectories;
    trajectories.reserve(static_cast<size_t>(max_sessions));
    for (int i = 0; i < max_sessions; ++i)
        trajectories.emplace_back(TrajectoryKind::Orbit, *scene,
                                  1.0f + 0.25f * static_cast<float>(i));

    std::printf("scene: %zu gaussians, %d frames @ %dx%d, machine has "
                "%d hardware thread(s)\n\n",
                scene->size(), args.frames, res.width, res.height,
                hardwareThreadCount());

    // Solo ground truth per trajectory: frame hashes are bit-identical
    // at every thread count (determinism contract), so one serial run
    // per stream serves every sweep point.
    std::vector<std::vector<uint64_t>> solo(
        static_cast<size_t>(max_sessions));
    {
        PipelineOptions opts = NeoRenderer::neoDefaultOptions();
        opts.threads = 1;
        for (int i = 0; i < max_sessions; ++i) {
            NeoRenderer solo_renderer(opts);
            Image image;
            for (int f = 0; f <= args.frames; ++f) {
                solo_renderer.renderFrameInto(
                    image, *scene,
                    trajectories[static_cast<size_t>(i)].cameraAt(f, res),
                    static_cast<uint64_t>(f));
                solo[static_cast<size_t>(i)].push_back(
                    image.contentHash());
            }
        }
    }

    using clock = std::chrono::steady_clock;
    std::vector<PointResult> points;
    bool isolated_all = true;

    std::printf("%-10s %-10s %-12s %-14s %s\n", "sessions", "threads",
                "ms/frame", "frames/sec", "isolated");
    for (int S : args.sessions) {
        for (int T : args.threads) {
            serve::ServerConfig cfg;
            cfg.max_sessions = static_cast<size_t>(S);
            cfg.pipeline = NeoRenderer::neoDefaultOptions();
            cfg.pipeline.threads = T;

            serve::NeoServer server(scene, cfg);
            std::vector<serve::Session *> sessions;
            for (int i = 0; i < S; ++i) {
                const serve::AdmitResult admit = server.open(
                    trajectories[static_cast<size_t>(i)], res);
                if (!admit.admitted) {
                    std::fprintf(stderr, "admission failed: %s\n",
                                 admit.reason);
                    return 1;
                }
                sessions.push_back(server.session(admit.session_id));
            }

            std::atomic<bool> isolated{true};

            // Untimed warm-up frame per session (pool spin-up, buffer
            // growth), mirroring the scaling bench's protocol.
            for (int i = 0; i < S; ++i) {
                sessions[static_cast<size_t>(i)]->submit(0);
                serve::FrameOutcome o;
                sessions[static_cast<size_t>(i)]->step(&o);
                if (!o.rendered ||
                    o.frame_hash != solo[static_cast<size_t>(i)][0])
                    isolated.store(false);
            }

            // One driver thread per session; the shared pool serializes
            // stage dispatches, so this measures aggregate throughput.
            const auto t0 = clock::now();
            std::vector<std::thread> drivers;
            drivers.reserve(static_cast<size_t>(S));
            for (int i = 0; i < S; ++i) {
                drivers.emplace_back([&, i] {
                    serve::Session *s =
                        sessions[static_cast<size_t>(i)];
                    for (int f = 1; f <= args.frames; ++f) {
                        s->submit(static_cast<uint64_t>(f));
                        serve::FrameOutcome o;
                        s->step(&o);
                        if (!o.rendered ||
                            o.frame_hash !=
                                solo[static_cast<size_t>(i)]
                                    [static_cast<size_t>(f)])
                            isolated.store(false);
                    }
                });
            }
            for (auto &d : drivers)
                d.join();
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(clock::now() -
                                                          t0)
                    .count();

            PointResult p;
            p.sessions = S;
            p.threads = T;
            p.ms_per_frame = elapsed_ms / (S * args.frames);
            p.isolated = isolated.load();
            isolated_all = isolated_all && p.isolated;
            points.push_back(p);

            std::printf("%-10d %-10d %-12.2f %-14.1f %s\n", S, T,
                        p.ms_per_frame,
                        p.ms_per_frame > 0.0 ? 1000.0 / p.ms_per_frame
                                             : 0.0,
                        p.isolated ? "yes" : "NO");
        }
    }

    // --- Socket front end: the same 1-session workload over loopback,
    // one framed request per frame, against the in-process baseline.
    std::vector<NetPointResult> net_points;
    if (args.net) {
        std::printf("\nsocket front end (loopback, 1 session, one "
                    "request per frame)\n");
        std::printf("%-10s %-14s %-18s %s\n", "threads", "net ms/frame",
                    "wire overhead us", "isolated");
        for (int T : args.threads) {
            serve::ServerConfig cfg;
            cfg.max_sessions = 1;
            cfg.pipeline = NeoRenderer::neoDefaultOptions();
            cfg.pipeline.threads = T;
            serve::NeoServer server(scene, cfg);

            serve::net::NetConfig ncfg = serve::net::netConfigFromEnv();
            ncfg.port = 0; // ephemeral: concurrent runs must not collide
            serve::net::NetFrontend frontend(server, ncfg);
            if (!frontend.start()) {
                std::fprintf(stderr, "net: bind/listen failed\n");
                return 1;
            }
            std::thread loop([&frontend] { frontend.run(); });

            NetPointResult p;
            p.threads = T;
            bool ok = true;
            {
                serve::net::NetClient client;
                ok = client.connect(frontend.port());

                serve::net::OpenOkReply open_ok;
                if (ok) {
                    // Trajectory 0's contract: orbit at speed 1.0 over
                    // the bench resolution, hash-comparable to solo[0].
                    serve::net::OpenSessionReq open;
                    open.trajectory_kind = 0;
                    open.speed = 1.0f;
                    open.width = static_cast<uint16_t>(res.width);
                    open.height = static_cast<uint16_t>(res.height);
                    ok = client.openSession(open, &open_ok);
                }

                // Untimed warm-up frame, mirroring the in-process
                // protocol above.
                if (ok) {
                    serve::net::SubmitFrameReq req;
                    req.session_id = open_ok.session_id;
                    req.frame_index = 0;
                    serve::net::SubmitReply reply;
                    ok = client.submitFrame(req, &reply) &&
                         reply.rendered;
                    if (ok && reply.frame_hash != solo[0][0])
                        p.isolated = false;
                }

                if (ok) {
                    const auto t0 = clock::now();
                    for (int f = 1; f <= args.frames && ok; ++f) {
                        serve::net::SubmitFrameReq req;
                        req.session_id = open_ok.session_id;
                        req.frame_index = static_cast<uint64_t>(f);
                        serve::net::SubmitReply reply;
                        ok = client.submitFrame(req, &reply) &&
                             reply.rendered;
                        if (ok && reply.frame_hash !=
                                      solo[0][static_cast<size_t>(f)])
                            p.isolated = false;
                    }
                    p.net_ms_per_frame =
                        std::chrono::duration<double, std::milli>(
                            clock::now() - t0)
                            .count() /
                        args.frames;
                }

                // The render dwarfs the wire cost, so measure the wire
                // overhead directly: no-render Stats round-trips walk
                // the full framed path without a frame inside.
                if (ok) {
                    const int kPings = 200;
                    serve::net::StatsReply sr;
                    const auto t0 = clock::now();
                    for (int k = 0; k < kPings && ok; ++k)
                        ok = client.stats(open_ok.session_id, &sr);
                    p.wire_overhead_us =
                        std::chrono::duration<double, std::micro>(
                            clock::now() - t0)
                            .count() /
                        kPings;
                }

                // Graceful drain doubles as the per-point teardown: the
                // loop thread returns once every connection is flushed.
                if (ok)
                    ok = client.shutdownServer();
                if (!ok) {
                    std::fprintf(
                        stderr, "net: request failed at threads=%d: %s\n",
                        T,
                        serve::net::wireErrorName(client.lastError()));
                    frontend.requestStop();
                }
            }
            loop.join();
            if (!ok)
                return 1;

            isolated_all = isolated_all && p.isolated;
            net_points.push_back(p);

            std::printf("%-10d %-14.2f %-18.1f %s\n", T,
                        p.net_ms_per_frame, p.wire_overhead_us,
                        p.isolated ? "yes" : "NO");
        }
    }

    // --- Durable mode: the 1-session workload plain vs checkpointed,
    // measuring what write-ahead journaling + snapshots cost per frame.
    std::vector<DurablePointResult> durable_points;
    if (args.checkpoint) {
        std::printf("\ndurable checkpointing (1 session, fdatasync per "
                    "record, snapshot cadence %d frames)\n",
                    std::max(args.frames / 2, 1));
        std::printf("%-10s %-14s %-16s %-12s %s\n", "threads",
                    "base ms/frame", "durable ms/frame", "overhead",
                    "isolated");
        auto overheadCol = [](double base, double durable) {
            char col[32];
            std::snprintf(col, sizeof col, "%+.1f%%",
                          base > 0.0 ? (durable - base) * 100.0 / base
                                     : 0.0);
            return std::string(col);
        };

        // One 1-session pass over trajectory 0; returns ms/frame, or a
        // negative value on failure. Durable runs mirror the serving
        // loop's checkpoint pump (maybeCheckpoint after each step).
        auto runPoint = [&](int T, const serve::durable::DurableConfig
                                       *durable,
                            bool *isolated_out) -> double {
            serve::ServerConfig cfg;
            cfg.max_sessions = 1;
            cfg.pipeline = NeoRenderer::neoDefaultOptions();
            cfg.pipeline.threads = T;
            serve::NeoServer server(scene, cfg);
            if (durable && !server.enableDurability(*durable))
                return -1.0;
            const serve::AdmitResult admit =
                server.open(trajectories[0], res);
            if (!admit.admitted)
                return -1.0;
            serve::Session *s = server.session(admit.session_id);

            bool isolated = true;
            // Untimed warm-up, same protocol as the sweeps above.
            s->submit(0);
            serve::FrameOutcome o;
            s->step(&o);
            if (!o.rendered || o.frame_hash != solo[0][0])
                isolated = false;

            const auto t0 = clock::now();
            for (int f = 1; f <= args.frames; ++f) {
                s->submit(static_cast<uint64_t>(f));
                s->step(&o);
                if (!o.rendered ||
                    o.frame_hash != solo[0][static_cast<size_t>(f)])
                    isolated = false;
                if (durable)
                    server.maybeCheckpoint();
            }
            const double ms =
                std::chrono::duration<double, std::milli>(clock::now() -
                                                          t0)
                    .count() /
                args.frames;
            *isolated_out = isolated;
            return ms;
        };

        // One durable run into a fresh scratch state directory, so no
        // run recovers or appends to another's journal.
        auto runDurable = [&](int T, bool *isolated_out) -> double {
            ScratchStateDir state;
            if (state.path().empty()) {
                std::fprintf(stderr, "durable: mkdtemp failed\n");
                return -1.0;
            }
            serve::durable::DurableConfig dcfg;
            dcfg.state_dir = state.path();
            dcfg.keep_generations = 3;
            // Checkpoint mid-run (not only at drain) so the snapshot
            // write cost lands inside the timed window.
            dcfg.checkpoint_every = static_cast<uint64_t>(
                std::max(args.frames / 2, 1));
            dcfg.sync_every = 1;
            return runPoint(T, &dcfg, isolated_out);
        };

        for (int T : args.threads) {
            DurablePointResult p;
            p.threads = T;
            std::vector<double> base_ms, durable_ms;
            for (int pair = 0; pair < kDurablePairs; ++pair) {
                bool base_iso = true;
                bool dur_iso = true;
                double base = 0.0;
                double durable = 0.0;
                if (pair % 2 == 0) {
                    base = runPoint(T, nullptr, &base_iso);
                    durable = runDurable(T, &dur_iso);
                } else {
                    durable = runDurable(T, &dur_iso);
                    base = runPoint(T, nullptr, &base_iso);
                }
                if (base < 0.0 || durable < 0.0) {
                    std::fprintf(stderr,
                                 "durable: point failed at threads=%d\n",
                                 T);
                    return 1;
                }
                p.isolated = p.isolated && base_iso && dur_iso;
                base_ms.push_back(base);
                durable_ms.push_back(durable);
                std::printf("  pair %-3d %-14.2f %-16.2f %-12s %-8s "
                            "(%s first)\n",
                            pair + 1, base, durable,
                            overheadCol(base, durable).c_str(),
                            base_iso && dur_iso ? "yes" : "NO",
                            pair % 2 == 0 ? "plain" : "durable");
            }
            p.base_ms_per_frame = percentile(base_ms, 50.0);
            p.durable_ms_per_frame = percentile(durable_ms, 50.0);
            isolated_all = isolated_all && p.isolated;
            durable_points.push_back(p);

            std::printf("%-10d %-14.2f %-16.2f %-12s %-8s (medians of "
                        "%d pairs)\n",
                        T, p.base_ms_per_frame, p.durable_ms_per_frame,
                        overheadCol(p.base_ms_per_frame,
                                    p.durable_ms_per_frame)
                            .c_str(),
                        p.isolated ? "yes" : "NO", kDurablePairs);
        }
    }

    std::printf("\nfault isolation (hashes vs solo runs): %s\n",
                isolated_all ? "OK (bit-identical)" : "FAILED");

    if (!args.json_path.empty()) {
        if (!writeJson(args.json_path, args, res, points, net_points,
                       durable_points, isolated_all)) {
            std::fprintf(stderr, "error: could not write %s\n",
                         args.json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", args.json_path.c_str());
    }
    return isolated_all ? 0 : 1;
}
