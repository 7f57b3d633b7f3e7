#include "serve/server.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace neo::serve
{

NeoServer::NeoServer(std::shared_ptr<const GaussianScene> scene,
                     ServerConfig cfg)
    : cfg_(std::move(cfg)), scene_(std::move(scene))
{
}

AdmitResult
NeoServer::open(const Trajectory &trajectory, Resolution resolution)
{
    return open(trajectory, resolution, cfg_.default_qos);
}

AdmitResult
NeoServer::open(const Trajectory &trajectory, Resolution resolution,
                const QosTarget &qos)
{
    AdmitResult r;
    std::lock_guard<std::mutex> lock(mutex_);

    size_t live = 0;
    for (const auto &s : sessions_)
        live += s != nullptr;
    if (live >= cfg_.max_sessions) {
        r.reason = "server full";
        return r;
    }

    // Reuse the lowest freed slot so ids stay small and stable.
    size_t slot = sessions_.size();
    for (size_t i = 0; i < sessions_.size(); ++i) {
        if (!sessions_[i]) {
            slot = i;
            break;
        }
    }
    if (slot == sessions_.size())
        sessions_.emplace_back();

    sessions_[slot] = std::make_unique<Session>(
        static_cast<uint32_t>(slot), scene_, trajectory, resolution, qos,
        cfg_);
    r.admitted = true;
    r.session_id = static_cast<uint32_t>(slot);

    if (durability_) {
        sessions_[slot]->setDurability(durability_.get());
        SessionOpenParams open;
        open.trajectory_kind =
            static_cast<uint8_t>(trajectory.kind());
        open.center = trajectory.center();
        open.radius = trajectory.radius();
        open.speed = trajectory.speed();
        open.width = resolution.width;
        open.height = resolution.height;
        open.qos = qos;
        durability_->recordOpen(r.session_id, open);
    }
    return r;
}

bool
NeoServer::close(uint32_t session_id)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (session_id >= sessions_.size() || !sessions_[session_id])
            return false;
        sessions_[session_id].reset();
    }
    if (durability_)
        durability_->recordClose(session_id);
    return true;
}

Session *
NeoServer::session(uint32_t session_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (session_id >= sessions_.size())
        return nullptr;
    return sessions_[session_id].get();
}

size_t
NeoServer::liveSessions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t live = 0;
    for (const auto &s : sessions_)
        live += s != nullptr;
    return live;
}

std::vector<Session *>
NeoServer::liveSnapshot() const
{
    std::vector<Session *> live;
    std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(sessions_.size());
    for (const auto &s : sessions_) {
        if (s)
            live.push_back(s.get());
    }
    return live;
}

size_t
NeoServer::pump()
{
    size_t processed = 0;
    for (Session *s : liveSnapshot())
        processed += s->step();
    return processed;
}

size_t
NeoServer::drain()
{
    size_t processed = 0;
    // Round-robin rather than per-session drain: under overload no
    // session starves behind a sibling's deep queue.
    while (true) {
        const size_t round = pump();
        if (round == 0)
            return processed;
        processed += round;
    }
}

// --- Durable serving mode ----------------------------------------------

Session *
NeoServer::placeSessionAt(uint32_t id, const SessionOpenParams &open)
{
    Trajectory trajectory(
        static_cast<TrajectoryKind>(open.trajectory_kind), open.center,
        open.radius, open.speed);
    Resolution resolution;
    resolution.width = open.width;
    resolution.height = open.height;
    resolution.name = "durable";

    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() <= id)
        sessions_.resize(id + 1);
    sessions_[id] = std::make_unique<Session>(id, scene_, trajectory,
                                              resolution, open.qos, cfg_);
    if (durability_)
        sessions_[id]->setDurability(durability_.get());
    return sessions_[id].get();
}

void
NeoServer::replayRecord(const durable::JournalRecord &rec)
{
    switch (rec.type) {
    case durable::JournalRecordType::Open:
        placeSessionAt(rec.session_id, rec.open);
        break;
    case durable::JournalRecordType::Submit: {
        // Step-on-submit, exactly as the socket front end drives live
        // traffic — the wire path's queue depth is always zero, so
        // submit-then-step replays it faithfully and deterministically.
        Session *s = session(rec.session_id);
        if (!s) {
            warn("durable: replayed submit for dead session %u",
                 rec.session_id);
            break;
        }
        s->submit(rec.frame_index);
        s->step();
        break;
    }
    case durable::JournalRecordType::Close:
        close(rec.session_id);
        break;
    }
}

bool
NeoServer::enableDurability(const durable::DurableConfig &dcfg)
{
    auto mgr = std::make_unique<durable::DurabilityManager>(dcfg);
    std::string err;
    if (!mgr->init(&err)) {
        warn("durable: disabled: %s", err.c_str());
        return false;
    }
    durability_ = std::move(mgr);
    durable::RecoveryStatus &status = durability_->status();

    // Newest verified snapshot generation wins; every corrupt one is
    // detected by its typed loader error and skipped, never loaded.
    durable::ServerSnapshot snap;
    bool have_snapshot = false;
    for (const durable::SnapshotFile &f :
         durable::listSnapshots(dcfg.state_dir)) {
        durable::ServerSnapshot candidate;
        const durable::SnapshotError e =
            durable::loadSnapshotFile(f.path, &candidate);
        if (e == durable::SnapshotError::Ok) {
            snap = std::move(candidate);
            have_snapshot = true;
            break;
        }
        warn("durable: snapshot %s refused (%s); falling back a "
             "generation",
             f.path.c_str(), durable::snapshotErrorName(e));
        ++status.generations_skipped;
    }

    if (have_snapshot) {
        for (SessionDurable &d : snap.sessions) {
            Session *s = placeSessionAt(d.id, d.open);
            s->restoreDurable(std::move(d));
        }
        status.snapshot_seq = snap.meta.seq;
        status.sessions_restored =
            static_cast<uint32_t>(snap.sessions.size());
    }

    // Replay coordinates: a snapshot replays its journal suffix only
    // under a matching epoch; with no loadable snapshot, only an epoch-0
    // journal (never compacted, i.e. the full history) can be replayed
    // from the top against the empty state.
    durable::Journal &journal = durability_->journal();
    uint64_t replay_from = 0;
    bool do_replay = false;
    if (have_snapshot &&
        journal.epoch() == snap.meta.journal_epoch) {
        replay_from = snap.meta.journal_offset;
        do_replay = true;
    } else if (!have_snapshot && journal.epoch() == 0) {
        replay_from = durable::kJournalHeaderSize;
        do_replay = true;
    } else if (have_snapshot) {
        warn("durable: journal epoch %llu does not pair with snapshot "
             "epoch %llu; replaying nothing",
             static_cast<unsigned long long>(journal.epoch()),
             static_cast<unsigned long long>(snap.meta.journal_epoch));
    } else if (journal.epoch() != 0) {
        warn("durable: no loadable snapshot and the journal was "
             "compacted (epoch %llu); cold start",
             static_cast<unsigned long long>(journal.epoch()));
    }

    if (do_replay) {
        std::vector<durable::JournalRecord> records;
        if (journal.replay(replay_from, &records)) {
            uint64_t submits = 0;
            durability_->setReplaying(true);
            for (const durable::JournalRecord &rec : records) {
                replayRecord(rec);
                submits +=
                    rec.type == durable::JournalRecordType::Submit;
            }
            durability_->setReplaying(false);
            status.journal_replayed = records.size();
            durability_->noteReplayed(submits);
        } else {
            warn("durable: journal read failed; replaying nothing");
        }
    }

    status.recovered =
        status.sessions_restored > 0 || status.journal_replayed > 0;

    // Fold what recovery rebuilt into a fresh compacted baseline: after
    // this, a restart restores the new snapshot and replays nothing.
    if (!checkpointCompact())
        warn("durable: post-recovery compacting checkpoint failed");
    return true;
}

const durable::RecoveryStatus &
NeoServer::recovery() const
{
    static const durable::RecoveryStatus kNotDurable;
    return durability_ ? durability_->status() : kNotDurable;
}

void
NeoServer::exportSnapshot(durable::ServerSnapshot &snap)
{
    snap.sessions.clear();
    for (Session *s : liveSnapshot()) {
        snap.sessions.emplace_back();
        s->exportDurable(snap.sessions.back());
    }
}

bool
NeoServer::checkpointNow()
{
    if (!durability_)
        return false;
    durable::ServerSnapshot snap;
    exportSnapshot(snap);
    // Sync first so the offset the snapshot claims is actually durable:
    // the snapshot must never promise journal bytes the disk lost.
    durable::Journal &journal = durability_->journal();
    journal.sync();
    snap.meta.seq = durability_->allocSeq();
    snap.meta.journal_epoch = journal.epoch();
    snap.meta.journal_offset = journal.endOffset();
    snap.meta.frames_journaled = durability_->framesJournaled();
    std::string err;
    if (!durability_->writeSnapshot(snap, &err)) {
        warn("durable: checkpoint failed: %s", err.c_str());
        return false;
    }
    return true;
}

bool
NeoServer::maybeCheckpoint()
{
    if (!durability_ || !durability_->checkpointDue())
        return false;
    return checkpointNow();
}

bool
NeoServer::checkpointCompact()
{
    if (!durability_)
        return false;
    durable::ServerSnapshot snap;
    exportSnapshot(snap);
    const uint64_t seq = durability_->allocSeq();
    snap.meta.seq = seq;
    // Crash-ordering: the snapshot lands first, carrying the *new*
    // epoch; the journal truncation follows. Dying between the two
    // leaves a snapshot whose epoch the journal doesn't carry — replay
    // nothing, which is correct because this snapshot was cut at
    // quiescence — and the older generations still pair with the
    // untruncated journal.
    snap.meta.journal_epoch = seq;
    snap.meta.journal_offset = durable::kJournalHeaderSize;
    snap.meta.frames_journaled = 0;
    std::string err;
    if (!durability_->writeSnapshot(snap, &err)) {
        warn("durable: compacting checkpoint failed: %s", err.c_str());
        return false;
    }
    if (!durability_->compactJournal(seq)) {
        warn("durable: journal compaction failed");
        return false;
    }
    return true;
}

size_t
NeoServer::drainConcurrent(int drivers)
{
    if (drivers <= 1)
        return drain();

    const std::vector<Session *> live = liveSnapshot();
    const size_t n =
        std::min<size_t>(static_cast<size_t>(drivers), live.size());
    if (n <= 1)
        return drain();

    // Partition by index: session i belongs to driver i % n, so no
    // session is ever driven by two threads (single-driver contract).
    std::vector<size_t> processed(n, 0);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t d = 0; d < n; ++d) {
        threads.emplace_back([&, d] {
            size_t local = 0;
            for (size_t i = d; i < live.size(); i += n)
                local += live[i]->drain();
            processed[d] = local;
        });
    }
    size_t total = 0;
    for (size_t d = 0; d < n; ++d) {
        threads[d].join();
        total += processed[d];
    }
    return total;
}

} // namespace neo::serve
