/**
 * @file
 * The untraced run: NetClient -> loopback NetFrontend -> NeoServer /
 * Session -> NeoRenderer, driven from this process. Setup is measured
 * several times (median reported); then the timed window runs closed or
 * open loop; then, untimed, every delivered hash is checked against a
 * bench-owned solo renderer and sampled frames are scored for PSNR
 * against a full re-sort.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"

namespace perfbench
{

using namespace neo;
namespace net = neo::serve::net;

namespace
{

/** Frames between PSNR samples (a cold render each). */
constexpr int kPsnrEvery = 16;

/** What one wire client saw. */
struct ClientLog
{
    uint32_t session = 0;
    uint64_t start_frame = 0;
    /** Next trajectory frame to request. */
    uint64_t next_frame = 0;
    /** Delivered hash per requested frame, from start_frame on
        (0 where the request failed). */
    std::vector<uint64_t> hashes;
    /** Per timed-window request: latency from send (closed loop) or
        due time (open loop) to reply; failed requests excluded. */
    std::vector<double> latency_ms;
    /** Open loop: how late the generator sent, per request. */
    std::vector<double> lag_ms;
    uint64_t window_sent = 0;
    uint64_t window_failed = 0;
    uint64_t slo_misses = 0;
};

/** A live served stack. Member order is teardown order reversed: the
    loop thread stops before the front end, which goes before the
    server it routes into. */
struct Stack
{
    std::shared_ptr<const GaussianScene> scene;
    std::unique_ptr<serve::NeoServer> server;
    std::unique_ptr<net::NetFrontend> frontend;
    std::thread loop;
    std::vector<std::unique_ptr<net::NetClient>> clients;
    std::string state_dir;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;
    ~Stack() { stopLoop(); }

    /** Hard stop: no drain, so a durable server keeps its journal
        suffix exactly as a crash would leave it. */
    void stopLoop()
    {
        if (loop.joinable()) {
            frontend->requestStop();
            loop.join();
        }
    }
};

/** One request over the wire; records into @p log. */
bool
submitOne(net::NetClient &client, ClientLog &log, Clock::time_point due,
          bool timed, double slo_ms)
{
    net::SubmitFrameReq req;
    req.session_id = log.session;
    req.frame_index = log.next_frame++;
    net::SubmitReply reply;
    const bool ok = client.submitFrame(req, &reply) && reply.rendered &&
                    reply.request == req.frame_index;
    const double latency = msBetween(due, Clock::now());
    log.hashes.push_back(ok ? reply.frame_hash : 0);
    if (timed) {
        ++log.window_sent;
        if (ok)
            log.latency_ms.push_back(latency);
        else
            ++log.window_failed;
        if (!ok || (slo_ms > 0.0 && latency > slo_ms))
            ++log.slo_misses;
    }
    return ok;
}

/** Build scene, server, front end and clients, and deliver each
    session's cold-start frame. False (with a message) on failure. */
bool
buildStack(const Workload &w, const Plan &plan, const std::string &tag,
           Stack &s, std::vector<ClientLog> &logs)
{
    s.scene = makeScene(w);
    s.server = std::make_unique<serve::NeoServer>(
        s.scene, serverConfig(w, serverThreads(w)));
    if (w.durable) {
        s.state_dir = freshStateDir(tag);
        if (!s.server->enableDurability(durableConfig(s.state_dir))) {
            std::fprintf(stderr, "perfbench: durable mode failed\n");
            return false;
        }
    }
    net::NetConfig ncfg;
    ncfg.port = 0;
    s.frontend = std::make_unique<net::NetFrontend>(*s.server, ncfg);
    if (!s.frontend->start()) {
        std::fprintf(stderr, "perfbench: bind/listen failed\n");
        return false;
    }
    net::NetFrontend *fe = s.frontend.get();
    s.loop = std::thread([fe] { fe->run(); });

    const Resolution res = benchResolution();
    logs.assign(plan.clients.size(), ClientLog{});
    for (size_t i = 0; i < plan.clients.size(); ++i) {
        const ClientPlan &c = plan.clients[i];
        auto client = std::make_unique<net::NetClient>();
        net::OpenSessionReq open;
        open.trajectory_kind = static_cast<uint8_t>(c.kind);
        open.speed = c.speed;
        open.width = static_cast<uint16_t>(res.width);
        open.height = static_cast<uint16_t>(res.height);
        net::OpenOkReply ok;
        if (!client->connect(s.frontend->port()) ||
            !client->openSession(open, &ok)) {
            std::fprintf(stderr, "perfbench: open session failed: %s\n",
                         net::wireErrorName(client->lastError()));
            return false;
        }
        logs[i].session = ok.session_id;
        logs[i].start_frame = c.start_frame;
        logs[i].next_frame = c.start_frame;
        if (!submitOne(*client, logs[i], Clock::now(), false, 0.0)) {
            std::fprintf(stderr, "perfbench: cold-start frame failed\n");
            return false;
        }
        s.clients.push_back(std::move(client));
    }
    return true;
}

void
closedLoop(Stack &s, std::vector<ClientLog> &logs, Clock::time_point end)
{
    while (Clock::now() < end) {
        const Clock::time_point sent = Clock::now();
        submitOne(*s.clients[0], logs[0], sent, true, 0.0);
    }
}

void
openLoop(const Workload &w, const Plan &plan, Stack &s,
         std::vector<ClientLog> &logs, Clock::time_point start,
         Clock::time_point end)
{
    std::vector<std::thread> senders;
    for (size_t i = 0; i < plan.clients.size(); ++i) {
        senders.emplace_back([&, i] {
            for (uint64_t k = 0;; ++k) {
                const Clock::time_point due =
                    dueTime(w, plan.clients[i], k, start);
                if (due >= end)
                    break;
                std::this_thread::sleep_until(due);
                logs[i].lag_ms.push_back(msBetween(due, Clock::now()));
                submitOne(*s.clients[i], logs[i], due, true, w.slo_ms);
            }
        });
    }
    for (std::thread &t : senders)
        t.join();
}

} // namespace

RunResult
runServed(const RunArgs &args)
{
    const Workload &w = *args.workload;
    const Plan plan = makePlan(w, args.seed);
    RunResult r;

    // --- Setup, measured several times (median). Every setup's
    // cold-start frame is checked against solo like any other frame.
    std::vector<double> setup_s;
    // Cold-start hashes of the setups torn down before the window.
    std::vector<std::vector<uint64_t>> cold_hashes(plan.clients.size());
    std::unique_ptr<Stack> owned;
    std::vector<ClientLog> logs;
    for (int k = 0; k < std::max(args.setups, 1); ++k) {
        if (owned) {
            owned->stopLoop();
            removeStateDir(owned->state_dir);
            for (size_t i = 0; i < logs.size(); ++i)
                cold_hashes[i].push_back(logs[i].hashes[0]);
        }
        owned = std::make_unique<Stack>();
        const Clock::time_point t0 = Clock::now();
        if (!buildStack(w, plan, "served-" + std::to_string(k), *owned,
                        logs)) {
            r.correct = false;
            return r;
        }
        setup_s.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }
    Stack &stack = *owned;

    // --- Timed window.
    const CpuTicks ticks0 = machineCpuTicks();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = addSeconds(start, args.seconds);
    if (w.open_loop)
        openLoop(w, plan, stack, logs, start, end);
    else
        closedLoop(stack, logs, end);
    const double window_s = msBetween(start, Clock::now()) / 1000.0;
    const double cpu_s = processCpuSeconds() - cpu0;
    const double rss_mb = peakRssMb(); // before any reference render
    const CpuTicks ticks1 = machineCpuTicks();
    const double ticks = ticks1.total - ticks0.total;
    const double steal_pct =
        ticks > 0.0 ? 100.0 * (ticks1.steal - ticks0.steal) / ticks : 0.0;

    // --- Recovery (durable workloads): restart on the state directory
    // the run left behind, with no drain, until each session's next
    // frame is delivered.
    std::vector<uint64_t> recovered_hash(logs.size(), 0);
    double recovery_s = 0.0;
    if (w.durable) {
        stack.stopLoop();
        stack.clients.clear();
        stack.frontend.reset();
        stack.server.reset();
        const Clock::time_point t0 = Clock::now();
        serve::NeoServer restarted(stack.scene,
                                   serverConfig(w, serverThreads(w)));
        const bool ok =
            restarted.enableDurability(durableConfig(stack.state_dir));
        for (size_t i = 0; ok && i < logs.size(); ++i) {
            serve::Session *s = restarted.session(logs[i].session);
            serve::FrameOutcome o;
            if (s && s->submit(logs[i].next_frame).accepted &&
                s->step(&o) && o.rendered)
                recovered_hash[i] = o.frame_hash;
        }
        recovery_s = msBetween(t0, Clock::now()) / 1000.0;
    }
    removeStateDir(stack.state_dir);

    // --- Correctness, untimed: every delivered hash against solo.
    std::vector<double> latencies;
    std::vector<double> lags;
    std::vector<double> psnrs;
    uint64_t delivered = 0;
    uint64_t mismatches = 0;
    uint64_t slo_misses = 0;
    uint64_t window_sent = 0;
    for (size_t i = 0; i < logs.size(); ++i) {
        const ClientLog &L = logs[i];
        const SoloReference ref = renderSolo(
            *stack.scene, clientTrajectory(*stack.scene, plan.clients[i]),
            L.start_frame, L.hashes.size() + (w.durable ? 1 : 0),
            kPsnrEvery, false);
        const std::vector<uint64_t> &solo = ref.hashes;
        for (size_t f = 0; f < L.hashes.size(); ++f)
            mismatches += L.hashes[f] != solo[f];
        for (uint64_t h : cold_hashes[i])
            mismatches += h != solo[0];
        if (w.durable)
            mismatches += recovered_hash[i] != solo.back();
        r.attempted += L.hashes.size() + cold_hashes[i].size() +
                       (w.durable ? 1 : 0);
        latencies.insert(latencies.end(), L.latency_ms.begin(),
                         L.latency_ms.end());
        lags.insert(lags.end(), L.lag_ms.begin(), L.lag_ms.end());
        psnrs.insert(psnrs.end(), ref.psnr_db.begin(), ref.psnr_db.end());
        delivered += L.window_sent - L.window_failed;
        slo_misses += L.slo_misses;
        window_sent += L.window_sent;
    }
    r.failed = mismatches;
    r.correct = mismatches == 0 && delivered > 0;

    double psnr_mean = 0.0;
    for (double p : psnrs)
        psnr_mean += p / static_cast<double>(psnrs.size());
    const double n = static_cast<double>(std::max<uint64_t>(delivered, 1));

    r.metrics = {
        {"fps", static_cast<double>(delivered) / window_s, "1/s"},
        {"latency_p50_ms", percentile(latencies, 50.0), "ms"},
        {"psnr_db", psnr_mean, "dB"},
        {"cpu_ms_per_frame", cpu_s * 1000.0 / n, "ms"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"setup_s", median(setup_s), "s"},
    };
    r.extra = {
        {"error_pct",
         100.0 * static_cast<double>(r.failed) /
             static_cast<double>(std::max<uint64_t>(r.attempted, 1)),
         "%"},
        // Printed, not bounded: the 95th percentile sits on the edge of
        // the requests a checkpoint or a descheduled thread delayed, and
        // jumps between runs.
        {"latency_p95_ms", percentile(latencies, 95.0), "ms"},
        {"latency_samples", static_cast<double>(latencies.size()), "count"},
        {"latency_samples_beyond_p95",
         static_cast<double>(latencies.size()) * 0.05, "count"},
        {"psnr_samples", static_cast<double>(psnrs.size()), "count"},
        // A shared host's noise, to read the timings by: CPU time the
        // hypervisor gave to others during the window.
        {"machine.steal_pct", steal_pct, "%"},
    };
    if (w.open_loop) {
        r.extra.push_back({"generator_lag_p95_ms", percentile(lags, 95.0),
                           "ms"});
    }
    if (w.slo_ms > 0.0) {
        r.extra.push_back(
            {"slo_miss_pct",
             100.0 * static_cast<double>(slo_misses) /
                 static_cast<double>(std::max<uint64_t>(window_sent, 1)),
             "%"});
    }
    if (w.durable)
        r.extra.push_back({"recovery_s", recovery_s, "s"});
    return r;
}

} // namespace perfbench
