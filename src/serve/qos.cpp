#include "serve/qos.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"

namespace neo::serve
{

const char *
dropPolicyName(DropPolicy policy)
{
    switch (policy) {
    case DropPolicy::DropOldest:
        return "drop-oldest";
    case DropPolicy::RejectBackoff:
        return "reject-backoff";
    case DropPolicy::CoalesceLatest:
        return "coalesce-latest";
    }
    return "drop-oldest";
}

bool
parseDropPolicy(const char *value, DropPolicy *out)
{
    if (!value || !out)
        return false;
    if (std::strcmp(value, "drop-oldest") == 0) {
        *out = DropPolicy::DropOldest;
        return true;
    }
    if (std::strcmp(value, "reject-backoff") == 0) {
        *out = DropPolicy::RejectBackoff;
        return true;
    }
    if (std::strcmp(value, "coalesce-latest") == 0) {
        *out = DropPolicy::CoalesceLatest;
        return true;
    }
    return false;
}

ServerConfig
serverConfigFromEnv()
{
    using env::envDouble;
    using env::envLong;

    ServerConfig cfg;

    cfg.max_sessions = static_cast<size_t>(
        envLong("NEO_SERVER_MAX_SESSIONS",
                static_cast<long>(cfg.max_sessions), 1, 4096));

    cfg.default_qos.queue_capacity = static_cast<size_t>(
        envLong("NEO_SERVER_QUEUE_CAP",
                static_cast<long>(cfg.default_qos.queue_capacity), 1,
                65536));

    if (const char *env = std::getenv("NEO_SERVER_DROP_POLICY")) {
        if (env[0] != '\0' &&
            !parseDropPolicy(env, &cfg.default_qos.drop_policy)) {
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true))
                warn("NEO_SERVER_DROP_POLICY='%s' is not one of "
                     "{drop-oldest,reject-backoff,coalesce-latest}; "
                     "using %s",
                     env, dropPolicyName(cfg.default_qos.drop_policy));
        }
    }

    cfg.default_qos.deadline_ms =
        envDouble("NEO_SERVER_DEADLINE_MS", cfg.default_qos.deadline_ms,
                  0.0, 60000.0);

    cfg.default_qos.max_staleness = static_cast<int>(
        envLong("NEO_SERVER_MAX_STALENESS", cfg.default_qos.max_staleness,
                0, 65536));

    cfg.default_qos.restore_after = static_cast<int>(
        envLong("NEO_SERVER_RESTORE_FRAMES",
                cfg.default_qos.restore_after, 1, 1024));

    cfg.quarantine_max_failures = static_cast<int>(
        envLong("NEO_SERVER_QUARANTINE_RETRIES",
                cfg.quarantine_max_failures, 1, 64));

    cfg.backoff_cap = static_cast<int>(
        envLong("NEO_SERVER_BACKOFF_CAP", cfg.backoff_cap, 1, 4096));

    return cfg;
}

void
BudgetController::record(const StageTimings &stages)
{
    const double deadline = qos_.frameDeadlineMs();
    if (deadline <= 0.0)
        return; // no deadline: the controller is inert by design

    const double total = stages.totalMs();
    ema_ms_ = warm_ ? 0.5 * (ema_ms_ + total) : total;
    warm_ = true;

    // Degrade on a miss *or* a predicted miss — the controller is
    // allowed to act one frame early, that is the point of predicting.
    if (total > deadline || ema_ms_ > deadline) {
        on_time_streak_ = 0;
        if (severity_ < maxSeverity()) {
            ++severity_;
            ++degradations_;
        }
        return;
    }
    if (severity_ > 0 && ++on_time_streak_ >= qos_.restore_after) {
        --severity_;
        ++restores_;
        on_time_streak_ = 0;
    }
}

} // namespace neo::serve
