/**
 * @file
 * Multi-session serving layer over the Neo renderer. One NeoServer owns
 * the immutable scene and admits up to max_sessions camera streams
 * against it. Each admitted Session carries its own renderer (its
 * rasterizers, sorter tables, tracker, scratch and integrity context)
 * and framebuffer; sessions share only the const scene and the thread
 * pool. That is what makes fault isolation a structural property rather
 * than a convention: there is no mutable byte a faulty session can
 * reach that a healthy sibling reads.
 *
 * Driving model: the server does not own threads. Callers pump it —
 * pump() steps every live session once (round-robin fairness under
 * overload), drain() pumps until all queues empty, drainConcurrent()
 * partitions sessions across caller-spawned driver threads. Determinism
 * note: NeoRenderer's tile-parallel stages are bit-exact at any thread
 * count and the shared ThreadPool serializes dispatches, so a frame's
 * hash does not depend on which driver thread rendered it or on what
 * sibling sessions were doing — the property bench_server measures and
 * the isolation tests enforce.
 */

#ifndef NEO_SERVE_SERVER_H
#define NEO_SERVE_SERVER_H

#include <memory>
#include <mutex>
#include <vector>

#include "serve/durable/durable.h"
#include "serve/session.h"

namespace neo::serve
{

/** Outcome of an open() admission attempt. */
struct AdmitResult
{
    bool admitted = false;
    /** Valid when admitted; stable for the session's lifetime. */
    uint32_t session_id = 0;
    /** Human-readable rejection reason (static string), else nullptr. */
    const char *reason = nullptr;
};

/** Session admission, registry, and pump loop (see file comment). */
class NeoServer
{
  public:
    /** @param scene immutable scene shared by all sessions
        @param cfg   server policy; defaults come from the NEO_SERVER_*
                     environment knobs (serverConfigFromEnv()) */
    explicit NeoServer(std::shared_ptr<const GaussianScene> scene,
                       ServerConfig cfg = serverConfigFromEnv());

    /** Admit a new session with the server's default QoS. */
    AdmitResult open(const Trajectory &trajectory, Resolution resolution);

    /** Admit a new session with an explicit QoS target. Rejects with
        reason "server full" at max_sessions live sessions. */
    AdmitResult open(const Trajectory &trajectory, Resolution resolution,
                     const QosTarget &qos);

    /** Tear down a session and free its slot. Must not race with a
        driver currently stepping that session. */
    bool close(uint32_t session_id);

    /** Look up a live session (nullptr when closed / never opened).
        The pointer stays valid until close(). */
    Session *session(uint32_t session_id);

    size_t liveSessions() const;
    const ServerConfig &config() const { return cfg_; }
    const std::shared_ptr<const GaussianScene> &scene() const
    {
        return scene_;
    }

    /** Step every live session once (round-robin). Returns the number
        of requests processed. Single pumping thread at a time. */
    size_t pump();

    /** pump() until every queue is empty; returns requests processed. */
    size_t drain();

    /**
     * Drain all sessions using @p drivers concurrent driver threads,
     * sessions partitioned by id (a session is never driven by two
     * threads). Returns requests processed across all drivers.
     */
    size_t drainConcurrent(int drivers);

    // --- Durable serving mode (serve/durable/) -------------------------

    /**
     * Enable durability rooted at @p dcfg.state_dir and run recovery:
     * load the newest digest-verified snapshot generation (corrupt ones
     * are detected, warned about, and skipped — never loaded), restore
     * its sessions at their original ids, deterministically replay the
     * journal suffix, then cut a compacting checkpoint as the new
     * baseline. Call once, before any traffic (and before spawning
     * drivers). False when the state directory is unusable — the server
     * then keeps serving, just not durably.
     */
    bool enableDurability(const durable::DurableConfig &dcfg);

    bool durable() const { return durability_ != nullptr; }
    durable::DurabilityManager *durability() { return durability_.get(); }

    /** What recovery found (all-zero defaults when not durable). */
    const durable::RecoveryStatus &recovery() const;

    /**
     * Cut a snapshot of the current state now (periodic checkpoint: the
     * journal keeps its epoch, so older generations stay valid
     * fallbacks). Quiescence contract: no concurrent driver may be
     * stepping a session. False when not durable or the write failed.
     */
    bool checkpointNow();

    /** checkpointNow() only when the configured cadence
        (checkpoint_every accepted submissions) has elapsed. */
    bool maybeCheckpoint();

    /**
     * Compacting checkpoint (graceful drain, recovery completion):
     * snapshot under a fresh journal epoch, then truncate the journal.
     * After it, a restart restores the snapshot and replays nothing.
     */
    bool checkpointCompact();

  private:
    /** Live sessions snapshot (registry lock held only for the copy). */
    std::vector<Session *> liveSnapshot() const;

    /** Admit a session at an exact slot (recovery/replay path). */
    Session *placeSessionAt(uint32_t id, const SessionOpenParams &open);
    /** Export every live session + journal coordinates into @p snap. */
    void exportSnapshot(durable::ServerSnapshot &snap);
    /** Replay one journal record against the current state. */
    void replayRecord(const durable::JournalRecord &rec);

    const ServerConfig cfg_;
    const std::shared_ptr<const GaussianScene> scene_;

    mutable std::mutex mutex_; //!< guards sessions_
    std::vector<std::unique_ptr<Session>> sessions_; //!< index == id

    /** Durable mode storage layer (null = not durable). */
    std::unique_ptr<durable::DurabilityManager> durability_;
};

} // namespace neo::serve

#endif // NEO_SERVE_SERVER_H
