/**
 * @file
 * Per-session quality-of-service declarations and the deadline-driven
 * budget controller of the multi-session serving layer (src/serve/).
 *
 * Each session declares a QosTarget: a per-frame deadline (explicit or
 * derived from a target fps), how far the server may degrade it
 * (resolution tiers, sorter-update skips), how stale a queued request may
 * get, and what happens when its bounded frame queue overflows. The
 * BudgetController turns the measured staged timings of past frames into
 * a prediction for the next one and walks a severity ladder: predicted
 * deadline misses first downgrade the resolution tier, then skip the
 * reuse-sorter update (rendering from a fresh per-tile sort, full
 * re-sort on the next healthy frame); K consecutive on-time frames
 * restore one step. A session with no deadline never degrades — its
 * frames stay bit-identical to a solo run by construction.
 */

#ifndef NEO_SERVE_QOS_H
#define NEO_SERVE_QOS_H

#include <cstddef>
#include <cstdint>

#include "core/neo_renderer.h"
#include "gs/pipeline.h"
#include "sort/dynamic_partial.h"

namespace neo::serve
{

/** What a full per-session frame queue does with new submissions. */
enum class DropPolicy : uint8_t
{
    /** Displace the oldest queued request (latency over completeness). */
    DropOldest,
    /** Reject the submission with a retry-after backoff hint. */
    RejectBackoff,
    /** Replace the newest queued request — the queue converges to the
        latest camera, the natural policy for interactive viewers. */
    CoalesceLatest,
};

/** Lower-case policy name ("drop-oldest", ...). */
const char *dropPolicyName(DropPolicy policy);

/** Parse a policy name; false (and *out untouched) when unrecognized. */
bool parseDropPolicy(const char *value, DropPolicy *out);

/** Per-session quality-of-service target. */
struct QosTarget
{
    /** Target frame rate; 0 disables the deadline unless deadline_ms is
        set explicitly. */
    double target_fps = 0.0;
    /** Explicit per-frame deadline in ms; overrides target_fps when > 0. */
    double deadline_ms = 0.0;
    /** Maximum resolution-tier downgrades (tier t renders at
        width >> t by height >> t) before the controller escalates to
        skipping sorter updates. */
    int max_resolution_drop = 2;
    /** Queued requests more than this many submissions old are dropped
        at dequeue time; 0 keeps everything. */
    int max_staleness = 0;
    /** Bounded frame-queue capacity. */
    size_t queue_capacity = 8;
    DropPolicy drop_policy = DropPolicy::DropOldest;
    /** Consecutive on-time frames required per severity restore step. */
    int restore_after = 4;

    /** Effective per-frame deadline in ms (0 = no deadline). */
    double frameDeadlineMs() const
    {
        if (deadline_ms > 0.0)
            return deadline_ms;
        return target_fps > 0.0 ? 1000.0 / target_fps : 0.0;
    }
};

/** Server-wide configuration (shared by every session). */
struct ServerConfig
{
    /** Admission-control cap on concurrently open sessions. */
    size_t max_sessions = 8;
    /** Pipeline geometry/threads shared by all session renderers. */
    PipelineOptions pipeline = NeoRenderer::neoDefaultOptions();
    /** Dynamic Partial Sorting tunables shared by all sessions. */
    DynamicPartialConfig dps;
    /** Default per-session QoS (overridable per open()). */
    QosTarget default_qos;

    // Read by no code; declared only because the served-path benchmark
    // (perfbench/bench.cpp) still assigns it. The next change to that
    // benchmark deletes the assignment and this declaration together.
    double watchdog_floor_ms = 20.0;

    // Quarantine retry ladder: a quarantined session waits
    // min(backoff_cap, backoff_base << (failures - 1)) requests between
    // recovery attempts and turns terminally Degraded after
    // quarantine_max_failures failed attempts.
    int quarantine_max_failures = 3;
    int backoff_base = 1;
    int backoff_cap = 16;
};

/**
 * ServerConfig with every NEO_SERVER_* environment knob applied on top
 * of the defaults. All parses are validated full-string strtol/strtod
 * (a malformed value warns once and keeps the default):
 *
 *   NEO_SERVER_MAX_SESSIONS       [1, 4096]
 *   NEO_SERVER_QUEUE_CAP          [1, 65536]
 *   NEO_SERVER_DROP_POLICY        drop-oldest | reject-backoff |
 *                                 coalesce-latest
 *   NEO_SERVER_DEADLINE_MS        [0, 60000] (0 = off)
 *   NEO_SERVER_MAX_STALENESS      [0, 65536] (0 = keep all)
 *   NEO_SERVER_RESTORE_FRAMES     [1, 1024]
 *   NEO_SERVER_QUARANTINE_RETRIES [1, 64]
 *   NEO_SERVER_BACKOFF_CAP        [1, 4096]
 */
ServerConfig serverConfigFromEnv();

/** What the budget controller asks of the next frame. */
struct DegradePlan
{
    /** Resolution tier to render at (0 = native). */
    int resolution_drop = 0;
    /** Skip the reuse-sorter update (render from a fresh per-tile sort;
        the session resets the sorter before its next reuse frame). */
    bool skip_sorter_update = false;
};

/**
 * Deadline-driven degradation ladder over the measured staged timings.
 * Severity s in [0, max_resolution_drop + 1]: steps 1..max drop the
 * resolution tier, the last step additionally skips sorter updates.
 * record() feeds one frame's measured stages; the predictor is a
 * half-life-one EMA of the frame totals.
 */
class BudgetController
{
  public:
    void configure(const QosTarget &qos)
    {
        qos_ = qos;
        reset();
    }

    /** Drop all prediction state and severity (session rebuild). */
    void reset()
    {
        ema_ms_ = 0.0;
        warm_ = false;
        severity_ = 0;
        on_time_streak_ = 0;
    }

    /** Degradation to apply to the next frame. */
    DegradePlan plan() const
    {
        DegradePlan p;
        p.resolution_drop = severity_ < qos_.max_resolution_drop
                                ? severity_
                                : qos_.max_resolution_drop;
        p.skip_sorter_update = severity_ > qos_.max_resolution_drop;
        return p;
    }

    /** Feed one rendered frame's measured stage timings. */
    void record(const StageTimings &stages);

    int severity() const { return severity_; }
    double predictedMs() const { return ema_ms_; }
    uint64_t degradations() const { return degradations_; }
    uint64_t restores() const { return restores_; }

    /** Complete controller state, for durable snapshots. */
    struct State
    {
        double ema_ms = 0.0;
        bool warm = false;
        int severity = 0;
        int on_time_streak = 0;
        uint64_t degradations = 0;
        uint64_t restores = 0;
    };

    State exportState() const
    {
        return {ema_ms_, warm_, severity_, on_time_streak_,
                degradations_, restores_};
    }

    /** Restore a snapshotted state (configure() with the session's QoS
        first — the target itself is snapshotted by the owner). */
    void restoreState(const State &s)
    {
        ema_ms_ = s.ema_ms;
        warm_ = s.warm;
        severity_ = s.severity;
        on_time_streak_ = s.on_time_streak;
        degradations_ = s.degradations;
        restores_ = s.restores;
    }

  private:
    int maxSeverity() const { return qos_.max_resolution_drop + 1; }

    QosTarget qos_;
    double ema_ms_ = 0.0;
    bool warm_ = false;
    int severity_ = 0;
    int on_time_streak_ = 0;
    uint64_t degradations_ = 0;
    uint64_t restores_ = 0;
};

} // namespace neo::serve

#endif // NEO_SERVE_QOS_H
