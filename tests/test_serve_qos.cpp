/**
 * @file
 * Unit tests of the serving layer's policy pieces: drop-policy parsing,
 * QoS deadline derivation, the NEO_SERVER_* environment knobs (validated
 * full-string parses), and the deadline-driven BudgetController
 * severity ladder.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/qos.h"

namespace neo::serve::test
{
namespace
{

// --- Drop policies -----------------------------------------------------

TEST(DropPolicyTest, NamesRoundTrip)
{
    for (DropPolicy p :
         {DropPolicy::DropOldest, DropPolicy::RejectBackoff,
          DropPolicy::CoalesceLatest}) {
        DropPolicy parsed = DropPolicy::DropOldest;
        EXPECT_TRUE(parseDropPolicy(dropPolicyName(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
}

TEST(DropPolicyTest, ParseRejectsUnknownAndKeepsOutput)
{
    DropPolicy p = DropPolicy::CoalesceLatest;
    EXPECT_FALSE(parseDropPolicy("newest-wins", &p));
    EXPECT_FALSE(parseDropPolicy("", &p));
    EXPECT_FALSE(parseDropPolicy(nullptr, &p));
    EXPECT_EQ(p, DropPolicy::CoalesceLatest);
}

// --- QosTarget ---------------------------------------------------------

TEST(QosTargetTest, ExplicitDeadlineOverridesTargetFps)
{
    QosTarget q;
    EXPECT_EQ(q.frameDeadlineMs(), 0.0);
    q.target_fps = 50.0;
    EXPECT_DOUBLE_EQ(q.frameDeadlineMs(), 20.0);
    q.deadline_ms = 5.0;
    EXPECT_DOUBLE_EQ(q.frameDeadlineMs(), 5.0);
}

// --- NEO_SERVER_* environment knobs ------------------------------------

class ServerEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        for (const char *name : kKnobs) {
            const char *v = std::getenv(name);
            saved_.emplace_back(name, v ? std::string(v) : std::string());
            unsetenv(name);
        }
    }

    void TearDown() override
    {
        for (const auto &[name, value] : saved_) {
            if (value.empty())
                unsetenv(name);
            else
                setenv(name, value.c_str(), 1);
        }
    }

    static constexpr const char *kKnobs[] = {
        "NEO_SERVER_MAX_SESSIONS",       "NEO_SERVER_QUEUE_CAP",
        "NEO_SERVER_DROP_POLICY",        "NEO_SERVER_DEADLINE_MS",
        "NEO_SERVER_MAX_STALENESS",      "NEO_SERVER_RESTORE_FRAMES",
        "NEO_SERVER_QUARANTINE_RETRIES", "NEO_SERVER_BACKOFF_CAP"};

    std::vector<std::pair<const char *, std::string>> saved_;
};

TEST_F(ServerEnvTest, DefaultsWithNoEnvironment)
{
    const ServerConfig cfg = serverConfigFromEnv();
    const ServerConfig ref;
    EXPECT_EQ(cfg.max_sessions, ref.max_sessions);
    EXPECT_EQ(cfg.default_qos.queue_capacity,
              ref.default_qos.queue_capacity);
    EXPECT_EQ(cfg.default_qos.drop_policy, ref.default_qos.drop_policy);
    EXPECT_EQ(cfg.default_qos.deadline_ms, ref.default_qos.deadline_ms);
    EXPECT_EQ(cfg.quarantine_max_failures, ref.quarantine_max_failures);
}

TEST_F(ServerEnvTest, ValidValuesApply)
{
    setenv("NEO_SERVER_MAX_SESSIONS", "3", 1);
    setenv("NEO_SERVER_QUEUE_CAP", "2", 1);
    setenv("NEO_SERVER_DROP_POLICY", "coalesce-latest", 1);
    setenv("NEO_SERVER_DEADLINE_MS", "16.6", 1);
    setenv("NEO_SERVER_MAX_STALENESS", "5", 1);
    setenv("NEO_SERVER_RESTORE_FRAMES", "7", 1);
    setenv("NEO_SERVER_QUARANTINE_RETRIES", "5", 1);
    setenv("NEO_SERVER_BACKOFF_CAP", "32", 1);

    const ServerConfig cfg = serverConfigFromEnv();
    EXPECT_EQ(cfg.max_sessions, 3u);
    EXPECT_EQ(cfg.default_qos.queue_capacity, 2u);
    EXPECT_EQ(cfg.default_qos.drop_policy, DropPolicy::CoalesceLatest);
    EXPECT_DOUBLE_EQ(cfg.default_qos.deadline_ms, 16.6);
    EXPECT_EQ(cfg.default_qos.max_staleness, 5);
    EXPECT_EQ(cfg.default_qos.restore_after, 7);
    EXPECT_EQ(cfg.quarantine_max_failures, 5);
    EXPECT_EQ(cfg.backoff_cap, 32);
}

TEST_F(ServerEnvTest, MalformedOrOutOfRangeValuesKeepDefaults)
{
    const ServerConfig ref;
    // Trailing garbage: the full-string contract must reject "8x", not
    // silently parse the prefix.
    setenv("NEO_SERVER_MAX_SESSIONS", "8x", 1);
    setenv("NEO_SERVER_QUEUE_CAP", "0", 1); // below range
    setenv("NEO_SERVER_DROP_POLICY", "newest-wins", 1);
    setenv("NEO_SERVER_DEADLINE_MS", "fast", 1);
    setenv("NEO_SERVER_QUARANTINE_RETRIES", "-1", 1);

    const ServerConfig cfg = serverConfigFromEnv();
    EXPECT_EQ(cfg.max_sessions, ref.max_sessions);
    EXPECT_EQ(cfg.default_qos.queue_capacity,
              ref.default_qos.queue_capacity);
    EXPECT_EQ(cfg.default_qos.drop_policy, ref.default_qos.drop_policy);
    EXPECT_EQ(cfg.default_qos.deadline_ms, ref.default_qos.deadline_ms);
    EXPECT_EQ(cfg.quarantine_max_failures, ref.quarantine_max_failures);
}

// --- BudgetController --------------------------------------------------

StageTimings
frameOf(double total_ms)
{
    StageTimings t;
    t.raster_ms = total_ms;
    return t;
}

TEST(BudgetControllerTest, NoDeadlineNeverDegrades)
{
    BudgetController ctl;
    ctl.configure(QosTarget{}); // deadline off
    for (int i = 0; i < 10; ++i)
        ctl.record(frameOf(1e6));
    const DegradePlan p = ctl.plan();
    EXPECT_EQ(p.resolution_drop, 0);
    EXPECT_FALSE(p.skip_sorter_update);
    EXPECT_EQ(ctl.severity(), 0);
}

TEST(BudgetControllerTest, MissesClimbTheLadderToSorterSkip)
{
    QosTarget q;
    q.deadline_ms = 10.0;
    q.max_resolution_drop = 2;
    BudgetController ctl;
    ctl.configure(q);

    ctl.record(frameOf(50.0));
    EXPECT_EQ(ctl.plan().resolution_drop, 1);
    EXPECT_FALSE(ctl.plan().skip_sorter_update);
    ctl.record(frameOf(50.0));
    EXPECT_EQ(ctl.plan().resolution_drop, 2);
    ctl.record(frameOf(50.0));
    EXPECT_EQ(ctl.plan().resolution_drop, 2) << "tier capped";
    EXPECT_TRUE(ctl.plan().skip_sorter_update);
    ctl.record(frameOf(50.0));
    EXPECT_EQ(ctl.severity(), 3) << "severity saturates at max";
    EXPECT_EQ(ctl.degradations(), 3u);
}

TEST(BudgetControllerTest, PredictedMissDegradesBeforeTheActualMiss)
{
    QosTarget q;
    q.deadline_ms = 10.0;
    BudgetController ctl;
    ctl.configure(q);
    ctl.record(frameOf(30.0)); // miss; EMA = 30
    EXPECT_EQ(ctl.severity(), 1);
    // 5 ms is on time, but the EMA (17.5) still predicts a miss: hold.
    ctl.record(frameOf(5.0));
    EXPECT_EQ(ctl.severity(), 2);
    EXPECT_GT(ctl.predictedMs(), q.deadline_ms);
}

TEST(BudgetControllerTest, OnTimeStreakRestoresOneStepAtATime)
{
    QosTarget q;
    q.deadline_ms = 10.0;
    q.restore_after = 3;
    BudgetController ctl;
    ctl.configure(q);

    ctl.record(frameOf(50.0));
    ctl.record(frameOf(50.0));
    EXPECT_EQ(ctl.severity(), 2);

    // Fast frames first drain the EMA (the predictor may climb one more
    // step before it clears the deadline), then each restore_after
    // streak steps severity down by exactly one.
    std::vector<int> trace;
    for (int i = 0; i < 30 && ctl.severity() > 0; ++i) {
        ctl.record(frameOf(1.0));
        trace.push_back(ctl.severity());
    }
    EXPECT_EQ(ctl.severity(), 0);
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i - 1] - trace[i], -1) << "step " << i;
    // Once recovery starts, severity only falls one step per streak.
    int peak = 0;
    for (int s : trace)
        peak = std::max(peak, s);
    EXPECT_EQ(ctl.restores(), static_cast<uint64_t>(peak));
    for (size_t i = 1; i < trace.size(); ++i) {
        if (trace[i] < trace[i - 1]) {
            EXPECT_EQ(trace[i - 1] - trace[i], 1) << "step " << i;
        }
    }
}

TEST(BudgetControllerTest, ResetClearsSeverityAndPrediction)
{
    QosTarget q;
    q.deadline_ms = 10.0;
    BudgetController ctl;
    ctl.configure(q);
    ctl.record(frameOf(100.0));
    EXPECT_GT(ctl.severity(), 0);
    ctl.reset();
    EXPECT_EQ(ctl.severity(), 0);
    EXPECT_EQ(ctl.predictedMs(), 0.0);
}

} // namespace
} // namespace neo::serve::test
