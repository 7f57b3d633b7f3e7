#include "serve/session.h"

#include <algorithm>

#include "common/faultinject.h"
#include "serve/durable/durable.h"

namespace neo::serve
{

const char *
sessionStateName(SessionState state)
{
    switch (state) {
    case SessionState::Healthy:
        return "healthy";
    case SessionState::Quarantined:
        return "quarantined";
    case SessionState::Degraded:
        return "degraded";
    }
    return "unknown";
}

void
writeStats(ByteWriter &w, const SessionStats &s)
{
    w.u64(s.submitted);
    w.u64(s.accepted);
    w.u64(s.rejected);
    w.u64(s.dropped_oldest);
    w.u64(s.coalesced);
    w.u64(s.dropped_stale);
    w.u64(s.backoff_skips);
    w.u64(s.rendered);
    w.u64(s.deadline_misses);
    w.u64(s.degraded_frames);
    w.u64(s.faults);
    w.u64(s.quarantines);
    w.u64(s.recoveries);
}

void
readStats(ByteReader &r, SessionStats *out)
{
    out->submitted = r.u64();
    out->accepted = r.u64();
    out->rejected = r.u64();
    out->dropped_oldest = r.u64();
    out->coalesced = r.u64();
    out->dropped_stale = r.u64();
    out->backoff_skips = r.u64();
    out->rendered = r.u64();
    out->deadline_misses = r.u64();
    out->degraded_frames = r.u64();
    out->faults = r.u64();
    out->quarantines = r.u64();
    out->recoveries = r.u64();
}

Session::Session(uint32_t id, std::shared_ptr<const GaussianScene> scene,
                 Trajectory trajectory, Resolution resolution,
                 QosTarget qos, const ServerConfig &cfg)
    : id_(id),
      scene_(std::move(scene)),
      trajectory_(trajectory),
      resolution_(resolution),
      qos_(qos),
      cfg_(cfg)
{
    budget_.configure(qos_);
    rebuildRenderer();
}

SessionState
Session::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

SessionStats
Session::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
Session::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

uint32_t
Session::rebuilds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rebuilds_;
}

SubmitResult
Session::submit(uint64_t frame_index)
{
    SubmitResult r;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;

    if (state_ == SessionState::Degraded) {
        // Terminal: this stream is dead; the hint tells the client to
        // reconnect (open a fresh session) rather than retry soon.
        ++stats_.rejected;
        r.retry_after_frames = cfg_.backoff_cap;
        return r;
    }

    if (queue_.size() >= qos_.queue_capacity) {
        switch (qos_.drop_policy) {
        case DropPolicy::DropOldest:
            queue_.pop_front();
            ++stats_.dropped_oldest;
            r.dropped_oldest = true;
            break;
        case DropPolicy::RejectBackoff:
            // The queue drains one request per pump: its current depth
            // *is* the number of frames until a slot opens.
            ++stats_.rejected;
            r.retry_after_frames =
                static_cast<int>(std::min<size_t>(queue_.size(), 1 << 20));
            return r;
        case DropPolicy::CoalesceLatest:
            // The newest pending camera is superseded by this one.
            queue_.pop_back();
            ++stats_.coalesced;
            r.coalesced = true;
            break;
        }
    }

    queue_.push_back(Request{frame_index, ++submit_seq_});
    ++stats_.accepted;
    r.accepted = true;
    // Write-ahead journal hook: an accepted submission is durable before
    // the caller learns it was accepted (no-op during journal replay —
    // the manager is the caller then). Lock order is session -> journal,
    // and the checkpoint path never takes them in reverse.
    if (durability_)
        durability_->recordSubmit(id_, frame_index);
    return r;
}

int
Session::backoffFor(int failures) const
{
    const int shift = std::min(failures - 1, 12);
    const long backoff = static_cast<long>(cfg_.backoff_base) << shift;
    return static_cast<int>(
        std::min<long>(backoff, cfg_.backoff_cap));
}

void
Session::rebuildRenderer()
{
    // A fresh renderer: new sorter tables (cold-start full re-sort on
    // its first frame), new tracker, new scratch, new integrity context —
    // any corrupted bytes of the torn-down instance are unreachable.
    renderer_ = std::make_unique<NeoRenderer>(cfg_.pipeline, cfg_.dps);
    renderer_->setFaultHandler([this](const FaultReport &) {
        frame_faults_.fetch_add(1, std::memory_order_relaxed);
    });
    budget_.reset();
    sorter_stale_ = false;
    last_drop_ = 0;
}

void
Session::renderRequest(const Request &req, FrameOutcome &out)
{
    const DegradePlan plan = budget_.plan();
    Resolution res = resolution_;
    res.width = std::max(resolution_.width >> plan.resolution_drop, 32);
    res.height = std::max(resolution_.height >> plan.resolution_drop, 32);
    const Camera cam =
        trajectory_.cameraAt(static_cast<int>(req.frame_index), res);

    frame_faults_.store(0, std::memory_order_relaxed);
    const NeoRenderer::FramePath path =
        plan.skip_sorter_update ? NeoRenderer::FramePath::Direct
                                : NeoRenderer::FramePath::Reuse;
    if (path == NeoRenderer::FramePath::Reuse &&
        (sorter_stale_ || plan.resolution_drop != last_drop_)) {
        // A previous direct-path frame left the persistent tables stale,
        // or the resolution tier (and with it the tile-grid shape)
        // changed; cold-start re-sort before reusing them.
        renderer_->reset();
    }
    StageTimings stages;
    {
        // Scope the frame work into this session's fault domain, so
        // domain-pinned injections (the soak test's victim targeting)
        // can only land here.
        faultinject::DomainScope scope(id_);
        renderer_->renderFrameInto(image_, *scene_, cam, req.frame_index,
                                   nullptr, &stages, path);
    }
    sorter_stale_ = path == NeoRenderer::FramePath::Direct;
    if (!sorter_stale_)
        last_drop_ = plan.resolution_drop;

    out.rendered = true;
    out.frame_hash = image_.contentHash();
    out.resolution_drop = plan.resolution_drop;
    out.direct_path = plan.skip_sorter_update;
    out.stages = stages;
    out.faults = frame_faults_.load(std::memory_order_relaxed);
    const double deadline = qos_.frameDeadlineMs();
    out.deadline_missed = deadline > 0.0 && stages.totalMs() > deadline;
    budget_.record(stages);
}

bool
Session::step(FrameOutcome *outcome)
{
    FrameOutcome out;
    Request req;
    SessionState entry_state;
    {
        std::lock_guard<std::mutex> lock(mutex_);

        // Age out requests that exceeded the declared staleness budget
        // (measured in submissions, which keeps it deterministic).
        while (!queue_.empty() && qos_.max_staleness > 0 &&
               submit_seq_ - queue_.front().submit_seq >
                   static_cast<uint64_t>(qos_.max_staleness)) {
            queue_.pop_front();
            ++stats_.dropped_stale;
        }
        if (queue_.empty())
            return false;
        req = queue_.front();
        queue_.pop_front();
        out.request = req.frame_index;
        out.rebuilds = rebuilds_;
        entry_state = state_;

        if (entry_state == SessionState::Degraded) {
            ++stats_.rejected;
            out.state = state_;
            last_outcome_ = out;
            if (outcome)
                *outcome = out;
            return true;
        }
        if (entry_state == SessionState::Quarantined &&
            backoff_remaining_ > 0) {
            // Burn one step of the retry ladder; the request is shed.
            --backoff_remaining_;
            ++stats_.backoff_skips;
            out.state = state_;
            last_outcome_ = out;
            if (outcome)
                *outcome = out;
            return true;
        }
    }

    // Render outside the lock (single-driver contract). A quarantined
    // session whose backoff expired attempts recovery: rebuild from the
    // shared scene, then render this request cold.
    const bool recovering = entry_state == SessionState::Quarantined;
    if (recovering) {
        rebuildRenderer();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++rebuilds_;
        }
    }
    renderRequest(req, out);

    const bool faulted = out.faults > 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rendered;
        stats_.faults += out.faults;
        if (out.deadline_missed)
            ++stats_.deadline_misses;
        if (out.resolution_drop > 0 || out.direct_path)
            ++stats_.degraded_frames;

        if (faulted) {
            if (!recovering) {
                ++stats_.quarantines;
                quarantine_failures_ = 1;
            } else {
                ++quarantine_failures_;
            }
            if (quarantine_failures_ >= cfg_.quarantine_max_failures) {
                state_ = SessionState::Degraded;
            } else {
                state_ = SessionState::Quarantined;
                backoff_remaining_ = backoffFor(quarantine_failures_);
            }
            // Teardown now: whatever the fault corrupted dies with the
            // renderer; the next recovery attempt rebuilds cold.
            renderer_.reset();
            sorter_stale_ = false;
        } else if (recovering) {
            state_ = SessionState::Healthy;
            ++stats_.recoveries;
            quarantine_failures_ = 0;
            backoff_remaining_ = 0;
        }
        out.rebuilds = rebuilds_;
        out.state = state_;
        last_outcome_ = out;
    }

    if (outcome)
        *outcome = out;
    return true;
}

size_t
Session::drain()
{
    size_t n = 0;
    while (step())
        ++n;
    return n;
}

bool
Session::lastOutcome(uint64_t frame_index, FrameOutcome *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!last_outcome_ || last_outcome_->request != frame_index)
        return false;
    *out = *last_outcome_;
    return true;
}

void
Session::setDurability(durable::DurabilityManager *mgr)
{
    std::lock_guard<std::mutex> lock(mutex_);
    durability_ = mgr;
}

void
Session::exportDurable(SessionDurable &out) const
{
    out.id = id_;
    out.open.trajectory_kind = static_cast<uint8_t>(trajectory_.kind());
    out.open.center = trajectory_.center();
    out.open.radius = trajectory_.radius();
    out.open.speed = trajectory_.speed();
    out.open.width = resolution_.width;
    out.open.height = resolution_.height;
    out.open.qos = qos_;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.submit_seq = submit_seq_;
        out.stats = stats_;
        out.state = static_cast<uint8_t>(state_);
        out.quarantine_failures = quarantine_failures_;
        out.backoff_remaining = backoff_remaining_;
        out.rebuilds = rebuilds_;
        out.queue.clear();
        out.queue.reserve(queue_.size());
        for (const Request &r : queue_)
            out.queue.push_back({r.frame_index, r.submit_seq});
        out.has_last_outcome = last_outcome_.has_value();
        out.last_outcome = last_outcome_.value_or(FrameOutcome{});
    }
    // Driver-thread state: safe under the quiescence contract (no
    // concurrent step()), which is how the checkpoint paths call this.
    out.budget = budget_.exportState();
    out.sorter_stale = sorter_stale_ ? 1 : 0;
    out.last_drop = last_drop_;
    out.has_renderer = renderer_ != nullptr;
    if (renderer_)
        out.tables = renderer_->sorter().tables().tables();
    else
        out.tables.clear();
}

void
Session::restoreDurable(SessionDurable d)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        submit_seq_ = d.submit_seq;
        stats_ = d.stats;
        state_ = static_cast<SessionState>(d.state);
        quarantine_failures_ = d.quarantine_failures;
        backoff_remaining_ = d.backoff_remaining;
        rebuilds_ = d.rebuilds;
        queue_.clear();
        for (const SessionDurable::QueuedRequest &q : d.queue)
            queue_.push_back(Request{q.frame_index, q.submit_seq});
        last_outcome_.reset();
        if (d.has_last_outcome)
            last_outcome_ = d.last_outcome;
    }
    budget_.restoreState(d.budget);
    sorter_stale_ = d.sorter_stale != 0;
    last_drop_ = d.last_drop;
    if (d.has_renderer) {
        // The constructor built a fresh renderer; adopting the
        // snapshotted tables (the tracker membership is rebuilt from
        // them) puts its next frame on the reuse path exactly where the
        // snapshot left off.
        renderer_->restorePersistentState(std::move(d.tables));
    } else {
        // The session faulted before the snapshot: it is mid-quarantine
        // and the next eligible step() rebuilds cold, as it would have.
        renderer_.reset();
    }
}

} // namespace neo::serve
