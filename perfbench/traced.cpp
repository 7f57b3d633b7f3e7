/**
 * @file
 * The traced run: the served run's request schedule replayed in-process
 * through the layers' public calls (Session::submit / step,
 * NeoServer::maybeCheckpoint / enableDurability, Image::contentHash) with
 * a span around each, plus Stats pings over a loopback front end for the
 * wire round trip. A single thread steps the session on each submit, as
 * the front end does. Requests alternate in blocks between traced and
 * untraced so the span recorder's own cost shows as trace.overhead_pct.
 * Exact per-frame counts come from the bench-owned solo renderer's
 * NeoFrameReport over a fixed frame range, so they repeat exactly for a
 * seed however many frames the timed replay reached.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"

namespace perfbench
{

using namespace neo;
namespace net = neo::serve::net;

namespace
{

/** Requests per traced / untraced block. */
constexpr uint64_t kBlock = 8;
/** Warm frames per client the exact counts cover. */
constexpr size_t kCountFrames = 32;
/** Warm frames per thread setting of the speedup repeat. */
constexpr size_t kSpeedupFrames = 16;
constexpr int kPings = 300;
/** Request ids of the non-frame spans (frame requests count from 0). */
constexpr uint64_t kPingIds = 1ull << 40;
constexpr uint64_t kServiceIds = 1ull << 41;

/** Median Stats round trip (us) over a loopback front end on its own,
    non-durable server: the framed wire path with no render inside. */
double
pingRttUs(const std::shared_ptr<const GaussianScene> &scene,
          const Workload &w, Tracer &tracer, bool *ok)
{
    serve::NeoServer server(scene, serverConfig(w, 1));
    net::NetConfig ncfg;
    ncfg.port = 0;
    net::NetFrontend frontend(server, ncfg);
    if (!frontend.start()) {
        *ok = false;
        return 0.0;
    }
    std::thread loop([&frontend] { frontend.run(); });

    std::vector<double> rtt_us;
    {
        net::NetClient client;
        net::OpenSessionReq open;
        open.width = 64;
        open.height = 64;
        net::OpenOkReply open_ok;
        *ok = client.connect(frontend.port()) &&
              client.openSession(open, &open_ok);
        net::StatsReply reply;
        for (int k = 0; *ok && k < kPings; ++k) {
            SpanScope span(tracer, "statsPing", kPingIds + k);
            const Clock::time_point t0 = Clock::now();
            *ok = client.stats(open_ok.session_id, &reply);
            rtt_us.push_back(msBetween(t0, Clock::now()) * 1000.0);
        }
        if (!*ok || !client.shutdownServer())
            frontend.requestStop();
    }
    loop.join();
    return median(rtt_us);
}

/** One scheduled request of the replay. */
struct Request
{
    size_t client = 0;
    Clock::time_point due;
};

/** Per-stage medians of a short repeat at @p threads (cold frame
    excluded); its hashes are checked against @p solo. */
struct StageMedians
{
    double bin = 0.0;
    double sort = 0.0;
    double raster = 0.0;
    bool ok = true;
};

StageMedians
speedupRepeat(const std::shared_ptr<const GaussianScene> &scene,
              const Workload &w, const ClientPlan &c, int threads,
              const std::vector<uint64_t> &solo, Tracer &tracer)
{
    serve::NeoServer server(scene, serverConfig(w, threads));
    const serve::AdmitResult admit =
        server.open(clientTrajectory(*scene, c), benchResolution());
    serve::Session *s = server.session(admit.session_id);
    std::vector<double> bin, sort, raster;
    StageMedians m;
    for (size_t i = 0; i <= kSpeedupFrames; ++i) {
        serve::FrameOutcome o;
        {
            SpanScope span(tracer, "speedup.step", kServiceIds + i);
            s->submit(c.start_frame + i);
            s->step(&o);
        }
        m.ok = m.ok && o.rendered && o.frame_hash == solo[i];
        if (i == 0)
            continue;
        bin.push_back(o.stages.bin_ms);
        sort.push_back(o.stages.sort_ms + o.stages.tracker_ms);
        raster.push_back(o.stages.raster_ms);
    }
    m.bin = median(bin);
    m.sort = median(sort);
    m.raster = median(raster);
    return m;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

RunResult
runTraced(const RunArgs &args)
{
    const Workload &w = *args.workload;
    const Plan plan = makePlan(w, args.seed);
    const Resolution res = benchResolution();
    const int threads = serverThreads(w);
    const size_t nclients = plan.clients.size();
    RunResult r;
    Tracer tracer;

    auto scene = makeScene(w);
    bool ping_ok = true;
    const double rtt_us = pingRttUs(scene, w, tracer, &ping_ok);

    // --- Replay server, sessions and their cold-start frames.
    auto server = std::make_unique<serve::NeoServer>(
        scene, serverConfig(w, threads));
    std::string state_dir;
    if (w.durable) {
        state_dir = freshStateDir("traced");
        SpanScope span(tracer, "enableDurability", kServiceIds);
        if (!server->enableDurability(durableConfig(state_dir))) {
            std::fprintf(stderr, "perfbench: durable mode failed\n");
            r.correct = false;
            return r;
        }
    }
    std::vector<uint32_t> ids(nclients);
    std::vector<uint64_t> next_frame(nclients);
    std::vector<std::vector<uint64_t>> hashes(nclients);
    for (size_t i = 0; i < nclients; ++i) {
        const serve::AdmitResult admit = server->open(
            clientTrajectory(*scene, plan.clients[i]), res);
        ids[i] = admit.session_id;
        next_frame[i] = plan.clients[i].start_frame;
        serve::Session *s = server->session(ids[i]);
        serve::FrameOutcome o;
        s->submit(next_frame[i]++);
        s->step(&o);
        hashes[i].push_back(o.rendered ? o.frame_hash : 0);
    }

    // --- The schedule: open loop replays the served run's send times;
    // closed loop issues the next request as the previous one returns.
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = addSeconds(start, args.seconds);
    std::vector<Request> schedule;
    if (w.open_loop) {
        for (size_t i = 0; i < nclients; ++i) {
            for (uint64_t k = 0;; ++k) {
                const Clock::time_point due =
                    dueTime(w, plan.clients[i], k, start);
                if (due >= end)
                    break;
                schedule.push_back({i, due});
            }
        }
        std::stable_sort(schedule.begin(), schedule.end(),
                         [](const Request &a, const Request &b) {
                             return a.due < b.due;
                         });
    }

    std::vector<double> step_ms, unstaged_ms, wait_ms, submit_us, hash_ms,
        bin_ms, sort_ms, raster_ms, checkpoint_ms;
    double busy_ms[2] = {0.0, 0.0}; // [untraced, traced]
    uint64_t frames[2] = {0, 0};
    uint64_t checkpoints = 0;
    uint64_t hash_disagreements = 0;
    for (uint64_t rid = 0;; ++rid) {
        Request q;
        if (w.open_loop) {
            if (rid >= schedule.size())
                break;
            q = schedule[rid];
            std::this_thread::sleep_until(q.due);
        } else {
            q.due = Clock::now();
            if (q.due >= end)
                break;
        }
        const bool traced = (rid / kBlock) % 2 == 0;
        tracer.setEnabled(traced);
        serve::Session *s = server->session(ids[q.client]);
        const uint64_t frame = next_frame[q.client]++;

        const Clock::time_point busy0 = Clock::now();
        serve::FrameOutcome o;
        uint32_t submit_id = 0, step_id = 0, hash_id = 0;
        bool fired = false;
        Clock::time_point step_start;
        {
            SpanScope request(tracer, "request", rid);
            {
                SpanScope span(tracer, "submit", rid, request.id());
                submit_id = span.id();
                s->submit(frame);
            }
            step_start = Clock::now();
            {
                SpanScope span(tracer, "step", rid, request.id());
                step_id = span.id();
                s->step(&o);
            }
            {
                SpanScope span(tracer, "contentHash", rid, request.id());
                hash_id = span.id();
                hash_disagreements +=
                    s->lastImage().contentHash() != o.frame_hash;
            }
            if (w.durable) {
                // Timed in every block: it fires once per 32 submits,
                // too rarely to leave to the traced half.
                SpanScope span(tracer, "maybeCheckpoint", rid, request.id());
                const Clock::time_point t0 = Clock::now();
                fired = server->maybeCheckpoint();
                if (fired)
                    checkpoint_ms.push_back(msBetween(t0, Clock::now()));
            }
        }
        busy_ms[traced] += msBetween(busy0, Clock::now());
        ++frames[traced];
        checkpoints += fired;
        hashes[q.client].push_back(o.rendered ? o.frame_hash : 0);
        if (!traced)
            continue;

        const double step = tracer.durationMs(step_id);
        const double staged = o.stages.bin_ms + o.stages.sort_ms +
                              o.stages.tracker_ms + o.stages.raster_ms;
        step_ms.push_back(step);
        unstaged_ms.push_back(step - staged);
        wait_ms.push_back(msBetween(q.due, step_start));
        submit_us.push_back(tracer.durationMs(submit_id) * 1000.0);
        hash_ms.push_back(tracer.durationMs(hash_id));
        bin_ms.push_back(o.stages.bin_ms);
        sort_ms.push_back(o.stages.sort_ms + o.stages.tracker_ms);
        raster_ms.push_back(o.stages.raster_ms);
    }
    tracer.setEnabled(true);

    // --- Durable layer: on-disk sizes, then a restart with no drain.
    double journal_kb = 0.0, snapshot_kb = 0.0, recover_ms = 0.0;
    uint64_t replayed = 0;
    std::vector<uint64_t> recovered_hash(nclients, 0);
    if (w.durable) {
        journal_kb =
            static_cast<double>(server->durability()->journal().endOffset()) /
            1024.0;
        const auto snaps = serve::durable::listSnapshots(state_dir);
        if (!snaps.empty()) {
            snapshot_kb = static_cast<double>(std::filesystem::file_size(
                              snaps.front().path)) /
                          1024.0;
        }
        server.reset();
        server = std::make_unique<serve::NeoServer>(
            scene, serverConfig(w, threads));
        uint32_t span_id = 0;
        bool ok = false;
        {
            SpanScope span(tracer, "enableDurability", kServiceIds + 1);
            span_id = span.id();
            ok = server->enableDurability(durableConfig(state_dir));
        }
        recover_ms = tracer.durationMs(span_id);
        replayed = server->recovery().journal_replayed;
        for (size_t i = 0; ok && i < nclients; ++i) {
            serve::Session *s = server->session(ids[i]);
            serve::FrameOutcome o;
            if (s && s->submit(next_frame[i]).accepted && s->step(&o) &&
                o.rendered)
                recovered_hash[i] = o.frame_hash;
        }
    }
    server.reset();
    removeStateDir(state_dir);

    // --- Solo reference: hashes of every replayed frame, and the exact
    // counts over each client's first kCountFrames warm frames.
    uint64_t mismatches = hash_disagreements + (ping_ok ? 0 : 1);
    std::vector<uint64_t> solo0; // client 0, for the speedup repeat
    double incoming = 0, outgoing = 0, table_entries = 0, retention = 0,
           instances = 0, blend_ops = 0, blended = 0, blend_in = 0,
           entries_read = 0, entries_written = 0, cold_starts = 0;
    for (size_t i = 0; i < nclients; ++i) {
        const SoloReference ref = renderSolo(
            *scene, clientTrajectory(*scene, plan.clients[i]),
            plan.clients[i].start_frame,
            std::max(hashes[i].size() + (w.durable ? 1 : 0),
                     std::max(kCountFrames, kSpeedupFrames) + 1),
            0, true);
        const std::vector<uint64_t> &solo = ref.hashes;
        for (size_t f = 0; f < hashes[i].size(); ++f)
            mismatches += hashes[i][f] != solo[f];
        if (w.durable)
            mismatches += recovered_hash[i] != solo[hashes[i].size()];
        r.attempted += hashes[i].size() + (w.durable ? 1 : 0);
        if (i == 0)
            solo0 = solo;

        for (size_t f = 0; f <= kCountFrames; ++f) {
            const NeoFrameReport &rep = ref.reports[f];
            cold_starts += rep.reuse.cold_start ? 1 : 0;
            if (f == 0)
                continue;
            incoming += static_cast<double>(rep.reuse.incoming);
            outgoing += static_cast<double>(rep.reuse.outgoing_marked);
            table_entries += static_cast<double>(rep.reuse.table_entries);
            retention += rep.reuse.mean_retention;
            instances += static_cast<double>(rep.frame.instances);
            blend_ops += static_cast<double>(rep.frame.raster.blend_ops);
            blended += static_cast<double>(rep.frame.raster.gaussians_blended);
            blend_in += static_cast<double>(rep.frame.raster.gaussians_in);
            entries_read += static_cast<double>(rep.sort.entries_read);
            entries_written += static_cast<double>(rep.sort.entries_written);
        }
    }
    const double warm = static_cast<double>(kCountFrames * nclients);

    // --- Stage speedup: threads = 1 over one thread per hardware thread.
    const int nproc = hardwareThreadCount();
    const StageMedians one =
        speedupRepeat(scene, w, plan.clients[0], 1, solo0, tracer);
    const StageMedians all =
        speedupRepeat(scene, w, plan.clients[0], nproc, solo0, tracer);
    mismatches += (one.ok ? 0 : 1) + (all.ok ? 0 : 1);
    r.attempted += 2 * (kSpeedupFrames + 1) + 1;

    r.failed = mismatches;
    r.correct = mismatches == 0 && frames[0] > 0 && frames[1] > 0;

    const double fps_untraced =
        static_cast<double>(frames[0]) * 1000.0 / std::max(busy_ms[0], 1e-9);
    const double fps_traced =
        static_cast<double>(frames[1]) * 1000.0 / std::max(busy_ms[1], 1e-9);
    const double entry_bytes = static_cast<double>(sizeof(TileEntry));

    r.metrics = {
        {"net.rtt_us", rtt_us, "us"},
        {"serve.step_ms", median(step_ms), "ms"},
        {"serve.unstaged_ms", median(unstaged_ms), "ms"},
        {"serve.wait_ms.p50", percentile(wait_ms, 50.0), "ms"},
        {"serve.wait_ms.p95", percentile(wait_ms, 95.0), "ms"},
        {"serve.submit_us", median(submit_us), "us"},
        {"durable.checkpoint_ms", median(checkpoint_ms), "ms"},
        {"durable.checkpoints", static_cast<double>(checkpoints), "count"},
        {"durable.snapshot_kb", snapshot_kb, "KiB"},
        {"durable.journal_kb", journal_kb, "KiB"},
        {"durable.recover_ms", recover_ms, "ms"},
        {"durable.replayed", static_cast<double>(replayed), "count"},
        {"gs.bin_ms", median(bin_ms), "ms"},
        {"core.sort_ms", median(sort_ms), "ms"},
        {"gs.raster_ms", median(raster_ms), "ms"},
        {"common.hash_ms", median(hash_ms), "ms"},
        {"core.incoming", incoming / warm, "count"},
        {"core.outgoing", outgoing / warm, "count"},
        {"core.table_entries", table_entries / warm, "count"},
        {"core.retention", retention / warm, "ratio"},
        {"core.cold_starts", cold_starts, "count"},
        {"gs.instances", instances / warm, "count"},
        {"gs.blend_ops", blend_ops / warm, "count"},
        {"gs.blend_hit_ratio", ratio(blended, blend_in), "ratio"},
        {"sort.entries_read", entries_read / warm, "count"},
        {"sort.entries_written", entries_written / warm, "count"},
        {"sort.bytes_moved", (entries_read + entries_written) * entry_bytes /
                                 warm,
         "B"},
        {"common.speedup.bin", ratio(one.bin, all.bin), "x"},
        {"common.speedup.sort", ratio(one.sort, all.sort), "x"},
        {"common.speedup.raster", ratio(one.raster, all.raster), "x"},
        {"trace.overhead_pct",
         100.0 * (fps_untraced - fps_traced) / std::max(fps_untraced, 1e-9),
         "%"},
    };
    r.extra = {
        {"traced_requests", static_cast<double>(frames[1]), "count"},
        {"untraced_requests", static_cast<double>(frames[0]), "count"},
    };
    for (const auto &[name, self_ms] : tracer.selfTimeByName())
        r.extra.push_back({"self." + name, self_ms, "ms"});

    const std::string path = artifactDir() + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.writeChromeJson(path, args.machine_json))
        std::printf("trace: %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    return r;
}

} // namespace perfbench
