/**
 * @file
 * One render session of the multi-session serving layer: a bounded frame
 * queue with an explicit drop policy, a private NeoRenderer, a
 * deadline-driven BudgetController, and the quarantine state machine
 * that contains faults to this session.
 *
 * Fault-isolation contract: all render state (rasterizers, sorter
 * tables, tracker, binned frame, scratch, integrity context,
 * framebuffer) is owned by the session; the only shared pieces — the
 * const scene and the thread pool — hold no session's bytes. An
 * integrity FaultReport therefore quarantines exactly this session: its
 * renderer is torn down, rebuilt from the shared scene on a capped
 * exponential-backoff ladder (cold-start re-sort), and after M failed
 * recoveries the session turns terminally Degraded. Healthy sibling
 * sessions' frame hashes stay bit-identical to solo runs throughout. A
 * slow frame is not a fault: lateness is the BudgetController's to
 * handle, and it keeps the sorter tables, so no wall-clock reading ever
 * triggers a cold rebuild.
 *
 * Threading: submit()/stats()/state() are thread-safe against a single
 * concurrent driver calling step()/drain(). A session must not be driven
 * by two threads at once (the server's concurrent drain partitions
 * sessions across drivers).
 */

#ifndef NEO_SERVE_SESSION_H
#define NEO_SERVE_SESSION_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/codec.h"
#include "common/image.h"
#include "core/neo_renderer.h"
#include "scene/trajectory.h"
#include "serve/qos.h"

namespace neo::serve
{

namespace durable
{
class DurabilityManager;
}

/** Lifecycle state of a session. */
enum class SessionState : uint8_t
{
    Healthy,     //!< serving normally
    Quarantined, //!< faulted; retrying rebuilds on the backoff ladder
    Degraded,    //!< terminal: recovery failed M times, requests drop
};

/** Lower-case state name ("healthy", "quarantined", "degraded"). */
const char *sessionStateName(SessionState state);

/** Outcome of one submit() call. */
struct SubmitResult
{
    bool accepted = false;
    /** Replaced the newest queued request (coalesce-latest policy). */
    bool coalesced = false;
    /** Displaced the oldest queued request (drop-oldest policy). */
    bool dropped_oldest = false;
    /** Backoff hint in frames when rejected (reject-backoff policy or a
        Degraded session). */
    int retry_after_frames = 0;
};

/** What happened in one step() call (for tests and the bench). */
struct FrameOutcome
{
    /** Trajectory frame index of the request processed. */
    uint64_t request = 0;
    /** True when a frame was actually rendered (false: the request was
        dropped by staleness, backoff, or a Degraded session). */
    bool rendered = false;
    uint64_t frame_hash = 0;
    /** Resolution tier the frame rendered at (0 = native). */
    int resolution_drop = 0;
    /** True when the reuse-sorter update was skipped (direct path). */
    bool direct_path = false;
    bool deadline_missed = false;
    StageTimings stages;
    /** Integrity faults detected during this frame. */
    uint32_t faults = 0;
    /** Session state after the step. */
    SessionState state = SessionState::Healthy;
    /** Quarantine rebuilds performed so far (recovery epoch). */
    uint32_t rebuilds = 0;
};

/** Monotonic per-session counters (snapshot via Session::stats()). */
struct SessionStats
{
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;       //!< queue-full or Degraded rejections
    uint64_t dropped_oldest = 0; //!< displaced by drop-oldest
    uint64_t coalesced = 0;      //!< replaced by coalesce-latest
    uint64_t dropped_stale = 0;  //!< aged out at dequeue
    uint64_t backoff_skips = 0;  //!< burned by the quarantine ladder
    uint64_t rendered = 0;
    uint64_t deadline_misses = 0;
    uint64_t degraded_frames = 0; //!< rendered below native QoS
    uint64_t faults = 0;          //!< integrity faults observed
    uint64_t quarantines = 0; //!< Healthy -> Quarantined transitions
    uint64_t recoveries = 0;  //!< successful rebuilds back to Healthy
};

/** The 13 counters as 13 little-endian u64s, in declaration order: the
    one layout the wire StatsReply and the snapshot's Session section
    share. */
void writeStats(ByteWriter &w, const SessionStats &s);
/** Inverse of writeStats(); an over-read shows up in @p r.ok(). */
void readStats(ByteReader &r, SessionStats *out);

/**
 * Everything needed to re-admit a session at its original id after a
 * restart: the open() arguments, reconstructed exactly. The resolution
 * label is not carried (it is a debugging aid, not state); restored
 * sessions render under the label "durable".
 */
struct SessionOpenParams
{
    uint8_t trajectory_kind = 0; //!< TrajectoryKind
    Vec3 center{};
    float radius = 0.0f;
    float speed = 1.0f;
    int32_t width = 0;
    int32_t height = 0;
    QosTarget qos;
};

/**
 * Complete durable state of one session — what Session::exportDurable
 * writes and a crash-consistent snapshot persists. Restoring it into a
 * freshly constructed session (same open params) and replaying the
 * journal suffix resumes the stream bit-identically to an uninterrupted
 * run: the persistent tile tables are the renderer's entire cross-frame
 * state (the delta tracker's reference membership is each tile's valid
 * ids, rebuilt on restore), and everything else here is the
 * session-layer state machine around it.
 */
struct SessionDurable
{
    /** One queued-but-unrendered request. */
    struct QueuedRequest
    {
        uint64_t frame_index = 0;
        uint64_t submit_seq = 0;
    };

    uint32_t id = 0;
    SessionOpenParams open;

    uint64_t submit_seq = 0;
    SessionStats stats;
    uint8_t state = 0; //!< SessionState
    int32_t quarantine_failures = 0;
    int32_t backoff_remaining = 0;
    uint32_t rebuilds = 0;
    uint8_t sorter_stale = 0;
    int32_t last_drop = 0;
    std::vector<QueuedRequest> queue;
    BudgetController::State budget;

    /** Outcome of the most recent step() (see Session::lastOutcome);
        its stage timings are not carried, being wall-clock of a dead
        process. */
    uint8_t has_last_outcome = 0;
    FrameOutcome last_outcome;

    /** False when the session faulted and its renderer was torn down
        (quarantine/degraded); tables is then empty. */
    uint8_t has_renderer = 1;
    std::vector<std::vector<TileEntry>> tables;
};

/** One camera stream served against the shared scene (see file comment). */
class Session
{
  public:
    Session(uint32_t id, std::shared_ptr<const GaussianScene> scene,
            Trajectory trajectory, Resolution resolution, QosTarget qos,
            const ServerConfig &cfg);

    uint32_t id() const { return id_; }
    const QosTarget &qos() const { return qos_; }
    SessionState state() const;
    SessionStats stats() const;
    size_t queueDepth() const;
    uint32_t rebuilds() const;

    /** Enqueue a request for trajectory frame @p frame_index
        (thread-safe). Applies the session's drop policy when full; a
        Degraded session rejects everything. */
    SubmitResult submit(uint64_t frame_index);

    /** Dequeue and process one request: render it, drop it (staleness /
        Degraded), or burn one backoff step of the quarantine ladder.
        Returns false when the queue was empty. Single driver only. */
    bool step(FrameOutcome *outcome = nullptr);

    /** step() until the queue is empty; returns requests processed. */
    size_t drain();

    /**
     * True when the most recent step() processed trajectory frame
     * @p frame_index; copies that step's outcome into @p out. The wire
     * path answers a resubmit of that frame from here instead of
     * stepping it again: a client whose reply was lost (the server died
     * after journaling the request, or the connection dropped) retries
     * it, and the reuse sorter is stateful, so a second render would
     * change this frame and the ones after it. Survives checkpoints
     * and journal replay like the rest of the session state.
     */
    bool lastOutcome(uint64_t frame_index, FrameOutcome *out) const;

    /** Framebuffer of the most recent rendered frame. Only meaningful
        between steps (single-driver contract). */
    const Image &lastImage() const { return image_; }

    /**
     * Attach the durability manager (nullptr detaches): every accepted
     * submit() is journaled through it before the call returns, except
     * while the manager is replaying that very journal.
     */
    void setDurability(durable::DurabilityManager *mgr);

    /**
     * Write this session's complete durable state into @p out (see
     * SessionDurable). Requires driver quiescence: must not race a
     * concurrent step()/drain() — the checkpoint paths run between
     * pump rounds, where that holds by construction.
     */
    void exportDurable(SessionDurable &out) const;

    /**
     * Adopt a snapshotted state. Call once, immediately after
     * construction with the same open parameters, before any traffic;
     * the next step() resumes exactly where the snapshot left off.
     */
    void restoreDurable(SessionDurable d);

  private:
    struct Request
    {
        uint64_t frame_index = 0;
        uint64_t submit_seq = 0; //!< staleness clock
    };

    /** Render one request (assumes Healthy or a recovery attempt). */
    void renderRequest(const Request &req, FrameOutcome &out);
    /** Rebuild the renderer from the shared scene (cold start). */
    void rebuildRenderer();
    int backoffFor(int failures) const;

    const uint32_t id_;
    const std::shared_ptr<const GaussianScene> scene_;
    const Trajectory trajectory_;
    const Resolution resolution_;
    const QosTarget qos_;
    const ServerConfig cfg_;

    mutable std::mutex mutex_; //!< guards queue_ .. last_outcome_
    std::deque<Request> queue_;
    uint64_t submit_seq_ = 0;
    SessionStats stats_;
    SessionState state_ = SessionState::Healthy;
    std::optional<FrameOutcome> last_outcome_;

    // Driver-thread-only state (single-driver contract).
    std::unique_ptr<NeoRenderer> renderer_;
    BudgetController budget_;
    Image image_;
    /** Set when a direct-path frame left the sorter tables stale; the
        next reuse-path frame resets the renderer first (full re-sort). */
    bool sorter_stale_ = false;
    /** Resolution tier of the last reuse-path frame — a tier change
        reshapes the tile grid, so the sorter cold-starts on it. */
    int last_drop_ = 0;
    /** Faults reported by the renderer during the current frame (the
        handler may run on pool workers — hence atomic). */
    std::atomic<uint32_t> frame_faults_{0};
    int quarantine_failures_ = 0; //!< failed recovery attempts
    int backoff_remaining_ = 0;   //!< requests to burn before retrying
    uint32_t rebuilds_ = 0;

    /** Journal sink for accepted submissions (not owned; may be null). */
    durable::DurabilityManager *durability_ = nullptr;
};

} // namespace neo::serve

#endif // NEO_SERVE_SESSION_H
