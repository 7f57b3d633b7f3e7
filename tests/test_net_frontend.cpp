/**
 * @file
 * Loopback chaos suite for the socket front end: end-to-end served
 * hashes bit-identical to solo renders at thread counts {1, 2, 8},
 * reject-at-accept over max_connections, the typed-error answers for
 * every malformed-traffic class, error-budget closes, slow-loris and
 * idle timeouts, forced short writes on the reply path, graceful drain
 * — and the isolation contract: deterministic network faults (torn
 * frames, garbage, abrupt disconnects, stalls) on victim connections
 * never perturb a healthy connection's session, whose served frame
 * hashes stay bit-identical to a solo renderer throughout.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/faultinject.h"
#include "common/integrity.h"
#include "serve/net/client.h"
#include "serve/net/frontend.h"
#include "serve/server.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace neo::serve::net::test
{
namespace
{

using neo::test::sanitizerTimeScale;
using neo::test::smallRes;
using neo::test::tinySyntheticScene;

std::shared_ptr<const GaussianScene>
sharedScene()
{
    static const auto scene = std::make_shared<const GaussianScene>(
        tinySyntheticScene(1500, 77));
    return scene;
}

/** Hermetic server config (mirrors test_server.cpp). */
ServerConfig
baseConfig(int threads = 1)
{
    ServerConfig cfg;
    cfg.pipeline = NeoRenderer::neoDefaultOptions();
    cfg.pipeline.threads = threads;
    cfg.pipeline.integrity = IntegrityMode::Off;
    return cfg;
}

/** Net config tuned for test latency: fast poll, timeouts scaled for
    sanitizer builds, generous where a test is not probing them. */
NetConfig
fastNetConfig()
{
    NetConfig cfg;
    cfg.poll_interval_ms = 5;
    cfg.idle_timeout_ms = 60000.0 * sanitizerTimeScale();
    cfg.progress_timeout_ms = 60000.0 * sanitizerTimeScale();
    cfg.drain_deadline_ms = 4000.0 * sanitizerTimeScale();
    return cfg;
}

double
recvTimeout()
{
    return 20000.0 * sanitizerTimeScale();
}

/** Server + front end + loop thread, torn down in order. */
class Harness
{
  public:
    explicit Harness(int threads = 1, NetConfig ncfg = fastNetConfig())
        : server_(sharedScene(), baseConfig(threads)),
          frontend_(server_, ncfg)
    {
        started_ = frontend_.start();
        if (started_)
            loop_ = std::thread([this] { frontend_.run(); });
    }

    ~Harness() { stop(); }

    bool started() const { return started_; }
    int port() const { return frontend_.port(); }
    NeoServer &server() { return server_; }
    NetFrontend &frontend() { return frontend_; }

    /** Hard-stop the loop (counters safe to read afterwards). */
    void stop()
    {
        if (loop_.joinable()) {
            frontend_.requestStop();
            loop_.join();
        }
    }

    /** Wait for run() to return on its own (drain completion). */
    void joinAfterDrain()
    {
        if (loop_.joinable())
            loop_.join();
    }

  private:
    NeoServer server_;
    NetFrontend frontend_;
    std::thread loop_;
    bool started_ = false;
};

std::vector<uint64_t>
soloHashes(float speed, int frames)
{
    const Trajectory traj(TrajectoryKind::Orbit, *sharedScene(), speed);
    PipelineOptions opts = baseConfig(1).pipeline;
    NeoRenderer solo(opts);
    Image img;
    std::vector<uint64_t> hashes;
    for (int f = 0; f < frames; ++f) {
        solo.renderFrameInto(img, *sharedScene(),
                             traj.cameraAt(f, smallRes()),
                             static_cast<uint64_t>(f));
        hashes.push_back(img.contentHash());
    }
    return hashes;
}

OpenSessionReq
openReq(float speed = 1.0f)
{
    OpenSessionReq req;
    req.trajectory_kind = 0; // orbit
    req.speed = speed;
    req.width = static_cast<uint16_t>(smallRes().width);
    req.height = static_cast<uint16_t>(smallRes().height);
    return req;
}

/** Open a session over the wire; returns its id (asserts on failure). */
uint32_t
openOrDie(NetClient &client, float speed = 1.0f)
{
    OpenOkReply ok;
    EXPECT_TRUE(client.openSession(openReq(speed), &ok, recvTimeout()))
        << "open failed: " << wireErrorName(client.lastError());
    return ok.session_id;
}

std::vector<uint8_t>
submitBytes(uint32_t session, uint64_t frame)
{
    std::vector<uint8_t> bytes;
    SubmitFrameReq req;
    req.session_id = session;
    req.frame_index = frame;
    encodeSubmitFrame(bytes, req);
    return bytes;
}

/** Deliver @p buf through the deterministic fault plan. */
void
sendMangled(NetClient &client, const std::vector<uint8_t> &buf,
            const faultinject::NetFaultPlan &plan)
{
    using faultinject::NetFault;
    switch (plan.kind) {
    case NetFault::TornWrite: {
        size_t prev = 0;
        for (size_t split : plan.splits) {
            (void)client.sendRaw(buf.data() + prev, split - prev);
            prev = split;
        }
        (void)client.sendRaw(buf.data() + prev, buf.size() - prev);
        break;
    }
    case NetFault::Garbage:
        (void)client.sendRaw(buf.data(), plan.garbage_offset);
        (void)client.sendRaw(plan.garbage.data(), plan.garbage.size());
        (void)client.sendRaw(buf.data() + plan.garbage_offset,
                             buf.size() - plan.garbage_offset);
        break;
    case NetFault::Disconnect:
        (void)client.sendRaw(buf.data(), plan.prefix);
        client.close();
        break;
    case NetFault::Stall:
        // Write the prefix, then hold the remainder forever.
        (void)client.sendRaw(buf.data(), plan.prefix);
        break;
    case NetFault::None:
        (void)client.sendRaw(buf);
        break;
    }
}

// --- End to end --------------------------------------------------------

TEST(NetFrontendTest, ServedHashesOverTheWireMatchSoloRenderer)
{
    const int frames = 4;
    const std::vector<uint64_t> solo = soloHashes(1.0f, frames);
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Harness h(threads);
        ASSERT_TRUE(h.started());

        NetClient client;
        ASSERT_TRUE(client.connect(h.port()));
        const uint32_t sid = openOrDie(client);

        for (int f = 0; f < frames; ++f) {
            SubmitFrameReq req;
            req.session_id = sid;
            req.frame_index = static_cast<uint64_t>(f);
            SubmitReply reply;
            ASSERT_TRUE(client.submitFrame(req, &reply, recvTimeout()))
                << "frame " << f;
            EXPECT_TRUE(reply.accepted);
            ASSERT_TRUE(reply.stepped);
            ASSERT_TRUE(reply.rendered);
            EXPECT_EQ(reply.request, static_cast<uint64_t>(f));
            EXPECT_EQ(reply.frame_hash, solo[static_cast<size_t>(f)])
                << "frame " << f;
            EXPECT_EQ(reply.resolution_drop, 0);
        }

        StatsReply stats;
        ASSERT_TRUE(client.stats(sid, &stats, recvTimeout()));
        EXPECT_EQ(stats.stats.rendered, static_cast<uint64_t>(frames));
        EXPECT_EQ(stats.queue_depth, 0u)
            << "step-on-submit keeps the queue empty";

        EXPECT_TRUE(client.closeSession(sid, recvTimeout()));
        EXPECT_EQ(h.server().liveSessions(), 0u);
    }
}

TEST(NetFrontendTest, RetriedSubmitIsAnsweredWithoutRenderingAgain)
{
    // A client that lost a reply retries the request. The reuse sorter
    // is stateful, so rendering frame 2 twice would change the frames
    // after it; the retry is answered from the session's last outcome.
    const std::vector<uint64_t> solo = soloHashes(1.0f, 4);
    Harness h;
    ASSERT_TRUE(h.started());
    NetClient client;
    ASSERT_TRUE(client.connect(h.port()));
    const uint32_t sid = openOrDie(client);

    for (const uint64_t f : {0, 1, 2, 2, 3}) {
        SubmitFrameReq req;
        req.session_id = sid;
        req.frame_index = f;
        SubmitReply reply;
        ASSERT_TRUE(client.submitFrame(req, &reply, recvTimeout()))
            << "frame " << f;
        EXPECT_TRUE(reply.accepted);
        ASSERT_TRUE(reply.rendered);
        EXPECT_EQ(reply.request, f);
        EXPECT_EQ(reply.frame_hash, solo[f]) << "frame " << f;
    }

    StatsReply stats;
    ASSERT_TRUE(client.stats(sid, &stats, recvTimeout()));
    EXPECT_EQ(stats.stats.submitted, 4u);
    EXPECT_EQ(stats.stats.rendered, 4u) << "frame 2 rendered once";
}

// --- Accept-path defense -----------------------------------------------

TEST(NetFrontendTest, RejectsAtAcceptBeyondMaxConnections)
{
    NetConfig ncfg = fastNetConfig();
    ncfg.max_connections = 2;
    Harness h(1, ncfg);
    ASSERT_TRUE(h.started());

    NetClient a, b;
    ASSERT_TRUE(a.connect(h.port()));
    ASSERT_TRUE(b.connect(h.port()));
    // Round-trips prove both connections are accepted, not just queued.
    openOrDie(a, 1.0f);
    openOrDie(b, 1.5f);

    NetClient c;
    ASSERT_TRUE(c.connect(h.port()));
    DecodedFrame frame;
    ASSERT_TRUE(c.recvFrame(&frame, recvTimeout()));
    ASSERT_EQ(frame.type, MsgType::Error);
    ErrorReply err;
    ASSERT_TRUE(decodeError(frame.payload, &err));
    EXPECT_EQ(err.code, static_cast<uint16_t>(WireError::ServerFull));
    // And the socket is closed right after the error frame.
    EXPECT_FALSE(c.recvFrame(&frame, recvTimeout()));

    h.stop();
    EXPECT_EQ(h.frontend().counters().rejected_at_accept, 1u);
}

// --- Malformed traffic -------------------------------------------------

TEST(NetFrontendTest, MalformedFramesAnsweredWithTypedErrors)
{
    Harness h;
    ASSERT_TRUE(h.started());
    NetClient client;
    ASSERT_TRUE(client.connect(h.port()));

    auto expectError = [&](WireError want) {
        DecodedFrame frame;
        ASSERT_TRUE(client.recvFrame(&frame, recvTimeout()));
        ASSERT_EQ(frame.type, MsgType::Error);
        ErrorReply err;
        ASSERT_TRUE(decodeError(frame.payload, &err));
        EXPECT_EQ(err.code, static_cast<uint16_t>(want))
            << "got " << wireErrorName(static_cast<WireError>(err.code));
    };

    // Garbage with no magic anywhere: one bad-magic error, then resync.
    std::vector<uint8_t> junk(24, 0x6A);
    ASSERT_TRUE(client.sendRaw(junk));
    expectError(WireError::BadMagic);

    // Valid frame with one payload bit flipped: crc-mismatch.
    std::vector<uint8_t> flipped = submitBytes(0, 1);
    flipped[kWireHeaderSize] ^= 0x01;
    ASSERT_TRUE(client.sendRaw(flipped));
    expectError(WireError::CrcMismatch);

    // Well-framed unknown type.
    std::vector<uint8_t> unknown;
    encodeFrame(unknown, static_cast<MsgType>(0x42), nullptr, 0);
    ASSERT_TRUE(client.sendRaw(unknown));
    expectError(WireError::UnknownType);

    // Parsable type, hostile payload (trajectory kind 9).
    std::vector<uint8_t> bad;
    OpenSessionReq req = openReq();
    req.trajectory_kind = 9;
    encodeOpenSession(bad, req);
    ASSERT_TRUE(client.sendRaw(bad));
    expectError(WireError::BadPayload);

    // Submit into a session this connection never opened.
    ASSERT_TRUE(client.sendRaw(submitBytes(31337, 0)));
    expectError(WireError::UnknownSession);

    // After all that abuse (still under the budget), a valid request
    // on the same connection is served normally.
    openOrDie(client);
}

TEST(NetFrontendTest, ErrorBudgetExhaustionClosesTheConnection)
{
    NetConfig ncfg = fastNetConfig();
    ncfg.error_budget = 3;
    Harness h(1, ncfg);
    ASSERT_TRUE(h.started());

    NetClient abuser;
    ASSERT_TRUE(abuser.connect(h.port()));
    std::vector<uint8_t> flipped = submitBytes(0, 1);
    flipped[kWireHeaderSize] ^= 0x01;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(abuser.sendRaw(flipped));

    // Read until the connection dies; the final frame before the close
    // must be the error-budget notice.
    uint16_t last_code = 0;
    DecodedFrame frame;
    while (abuser.recvFrame(&frame, recvTimeout())) {
        if (frame.type == MsgType::Error) {
            ErrorReply err;
            ASSERT_TRUE(decodeError(frame.payload, &err));
            last_code = err.code;
        }
    }
    EXPECT_EQ(last_code,
              static_cast<uint16_t>(WireError::ErrorBudget));

    h.stop();
    EXPECT_GE(h.frontend().counters().budget_closes, 1u);
}

// --- Timeouts ----------------------------------------------------------

TEST(NetFrontendTest, SlowLorisPartialFrameIsClosedOnProgressTimeout)
{
    NetConfig ncfg = fastNetConfig();
    ncfg.progress_timeout_ms = 200.0 * sanitizerTimeScale();
    Harness h(1, ncfg);
    ASSERT_TRUE(h.started());

    NetClient loris;
    ASSERT_TRUE(loris.connect(h.port()));
    // A plausible frame start that never completes.
    const std::vector<uint8_t> full = submitBytes(1, 2);
    ASSERT_TRUE(loris.sendRaw(full.data(), 9));

    // A healthy sibling keeps being served while the loris hangs.
    NetClient healthy;
    ASSERT_TRUE(healthy.connect(h.port()));
    const uint32_t sid = openOrDie(healthy);
    SubmitFrameReq req;
    req.session_id = sid;
    req.frame_index = 0;
    SubmitReply reply;
    ASSERT_TRUE(healthy.submitFrame(req, &reply, recvTimeout()));
    EXPECT_TRUE(reply.rendered);

    // The loris connection is closed without ever getting a response.
    DecodedFrame frame;
    EXPECT_FALSE(loris.recvFrame(&frame, recvTimeout()));

    h.stop();
    EXPECT_GE(h.frontend().counters().progress_timeouts, 1u);
}

TEST(NetFrontendTest, IdleConnectionIsClosedOnIdleTimeout)
{
    NetConfig ncfg = fastNetConfig();
    ncfg.idle_timeout_ms = 200.0 * sanitizerTimeScale();
    Harness h(1, ncfg);
    ASSERT_TRUE(h.started());

    NetClient idle;
    ASSERT_TRUE(idle.connect(h.port()));
    DecodedFrame frame;
    EXPECT_FALSE(idle.recvFrame(&frame, recvTimeout()));

    h.stop();
    EXPECT_GE(h.frontend().counters().idle_timeouts, 1u);
}

// --- Forced short writes -----------------------------------------------

TEST(NetFrontendTest, RepliesSurviveForcedShortWrites)
{
    Harness h;
    ASSERT_TRUE(h.started());
    NetClient client;
    ASSERT_TRUE(client.connect(h.port()));
    const uint32_t sid = openOrDie(client);

    const uint64_t before = faultinject::shortWriteCount();
    faultinject::armShortWrite("net.send", -1, 4242, 4);
    for (uint64_t f = 0; f < 3; ++f) {
        SubmitFrameReq req;
        req.session_id = sid;
        req.frame_index = f;
        SubmitReply reply;
        ASSERT_TRUE(client.submitFrame(req, &reply, recvTimeout()))
            << "frame " << f;
        EXPECT_TRUE(reply.rendered);
    }
    faultinject::disarmShortWrite();
    EXPECT_GT(faultinject::shortWriteCount(), before)
        << "the short-write injection point must actually have fired";
}

// --- The chaos isolation contract --------------------------------------

TEST(NetFrontendChaosTest, VictimNetworkFaultsNeverPerturbHealthyConns)
{
    using faultinject::NetFault;
    const int frames = 4;
    const std::vector<float> healthy_speeds = {1.0f, 1.5f};
    std::vector<std::vector<uint64_t>> solo;
    for (float speed : healthy_speeds)
        solo.push_back(soloHashes(speed, frames));

    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        NetConfig ncfg = fastNetConfig();
        // Stalled victims should die during the test, not linger.
        ncfg.progress_timeout_ms = 500.0 * sanitizerTimeScale();
        Harness h(threads, ncfg);
        ASSERT_TRUE(h.started());

        // Healthy connections, one session each.
        std::vector<std::unique_ptr<NetClient>> healthy;
        std::vector<uint32_t> healthy_sids;
        for (float speed : healthy_speeds) {
            auto c = std::make_unique<NetClient>();
            ASSERT_TRUE(c->connect(h.port()));
            healthy_sids.push_back(openOrDie(*c, speed));
            healthy.push_back(std::move(c));
        }

        // Victim connections, each with a valid session of its own and
        // a deterministic network-fault personality.
        const std::vector<NetFault> personalities = {
            NetFault::TornWrite, NetFault::Garbage,
            NetFault::Disconnect, NetFault::Stall};
        std::vector<std::unique_ptr<NetClient>> victims;
        std::vector<uint32_t> victim_sids;
        for (size_t v = 0; v < personalities.size(); ++v) {
            auto c = std::make_unique<NetClient>();
            ASSERT_TRUE(c->connect(h.port()));
            victim_sids.push_back(openOrDie(*c, 2.0f + 0.25f * v));
            victims.push_back(std::move(c));
        }

        for (int f = 0; f < frames; ++f) {
            // Chaos first: every victim fires its fault for this round
            // before the healthy submissions go out, so the mangled
            // bytes are in flight while healthy frames render.
            for (size_t v = 0; v < victims.size(); ++v) {
                NetClient &victim = *victims[v];
                const NetFault kind = personalities[v];
                if (kind == NetFault::Disconnect && !victim.connected()) {
                    // Reconnect each round: a fresh session, another
                    // abrupt mid-frame disconnect.
                    if (!victim.connect(h.port()))
                        continue;
                    OpenOkReply ok;
                    if (!victim.openSession(openReq(3.0f), &ok,
                                            recvTimeout()))
                        continue;
                    victim_sids[v] = ok.session_id;
                }
                if (kind == NetFault::Stall && f > 0)
                    continue; // the stall holds; nothing more to send
                const std::vector<uint8_t> buf = submitBytes(
                    victim_sids[v], static_cast<uint64_t>(f));
                const faultinject::NetFaultPlan plan =
                    faultinject::planNetFault(
                        kind,
                        0x9E0 + static_cast<uint64_t>(f) * 13 + v,
                        buf.size(), buf.size());
                sendMangled(victim, buf, plan);
            }

            // Healthy connections must serve bit-identical frames.
            for (size_t i = 0; i < healthy.size(); ++i) {
                SubmitFrameReq req;
                req.session_id = healthy_sids[i];
                req.frame_index = static_cast<uint64_t>(f);
                SubmitReply reply;
                ASSERT_TRUE(healthy[i]->submitFrame(req, &reply,
                                                    recvTimeout()))
                    << "healthy " << i << " frame " << f << ": "
                    << wireErrorName(healthy[i]->lastError());
                ASSERT_TRUE(reply.rendered);
                EXPECT_EQ(reply.frame_hash,
                          solo[i][static_cast<size_t>(f)])
                    << "healthy " << i << " frame " << f
                    << " diverged from solo under network chaos";
                EXPECT_EQ(reply.resolution_drop, 0);
                EXPECT_EQ(reply.state,
                          static_cast<uint8_t>(SessionState::Healthy));
            }
        }

        // Healthy sessions saw exactly their own traffic.
        for (size_t i = 0; i < healthy.size(); ++i) {
            StatsReply stats;
            ASSERT_TRUE(healthy[i]->stats(healthy_sids[i], &stats,
                                          recvTimeout()));
            EXPECT_EQ(stats.stats.rendered,
                      static_cast<uint64_t>(frames));
            EXPECT_EQ(stats.stats.faults, 0u);
            EXPECT_EQ(stats.state,
                      static_cast<uint8_t>(SessionState::Healthy));
        }

        // Graceful drain: requested over the wire, acked, and completed
        // within the deadline with the loop thread exiting on its own.
        ASSERT_TRUE(healthy[0]->shutdownServer(recvTimeout()));
        h.joinAfterDrain();
        EXPECT_TRUE(h.frontend().drained());
        EXPECT_EQ(h.frontend().liveConns(), 0u);
        EXPECT_EQ(h.server().liveSessions(), 0u)
            << "drain must close the sessions of dropped connections";
    }
}

// --- Graceful drain ----------------------------------------------------

TEST(NetFrontendTest, GracefulDrainAcksFlushesAndCompletes)
{
    Harness h;
    ASSERT_TRUE(h.started());
    NetClient client;
    ASSERT_TRUE(client.connect(h.port()));
    const uint32_t sid = openOrDie(client);

    SubmitFrameReq req;
    req.session_id = sid;
    req.frame_index = 0;
    SubmitReply reply;
    ASSERT_TRUE(client.submitFrame(req, &reply, recvTimeout()));
    ASSERT_TRUE(reply.rendered);

    // The ack is flushed before the close — shutdownServer() reading it
    // is the in-flight-responses-delivered assertion.
    ASSERT_TRUE(client.shutdownServer(recvTimeout()));
    h.joinAfterDrain();
    EXPECT_TRUE(h.frontend().drained());
    EXPECT_EQ(h.server().liveSessions(), 0u);

    // And the connection is actually gone.
    DecodedFrame frame;
    EXPECT_FALSE(client.recvFrame(&frame, recvTimeout()));
}

// --- Env knobs ---------------------------------------------------------

TEST(NetConfigEnvTest, ValidatedKnobsApplyAndMalformedFallBack)
{
    env::resetWarnings();
    setenv("NEO_SERVER_NET_MAX_CONNS", "7", 1);
    setenv("NEO_SERVER_NET_ERROR_BUDGET", "nonsense", 1);
    setenv("NEO_SERVER_NET_MAX_PAYLOAD", "99999999", 1); // above cap
    setenv("NEO_SERVER_NET_IDLE_TIMEOUT_MS", "1234", 1);
    const NetConfig cfg = netConfigFromEnv();
    unsetenv("NEO_SERVER_NET_MAX_CONNS");
    unsetenv("NEO_SERVER_NET_ERROR_BUDGET");
    unsetenv("NEO_SERVER_NET_MAX_PAYLOAD");
    unsetenv("NEO_SERVER_NET_IDLE_TIMEOUT_MS");

    EXPECT_EQ(cfg.max_connections, 7);
    EXPECT_EQ(cfg.error_budget, NetConfig{}.error_budget)
        << "malformed value keeps the default";
    EXPECT_EQ(cfg.max_payload, NetConfig{}.max_payload)
        << "out-of-range value keeps the default";
    EXPECT_DOUBLE_EQ(cfg.idle_timeout_ms, 1234.0);
}

} // namespace
} // namespace neo::serve::net::test
