#include "serve/net/frontend.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/faultinject.h"
#include "common/logging.h"
#include "scene/trajectory.h"

namespace neo::serve::net
{

namespace
{

/** Injection point name of the front end's send path. */
constexpr char kNetSendPoint[] = "net.send";

bool
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** True for errno values that mean "try again later", not failure. */
bool
wouldBlock(int err)
{
    return err == EAGAIN || err == EWOULDBLOCK;
}

} // namespace

NetFrontend::NetFrontend(NeoServer &server, NetConfig cfg)
    : server_(server), cfg_(cfg)
{
}

NetFrontend::~NetFrontend()
{
    for (auto &c : conns_) {
        if (c->hasSession())
            server_.close(c->sessionId());
        ::close(c->fd());
    }
    conns_.clear();
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

double
NetFrontend::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
NetFrontend::start()
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return false;
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));

    // Loopback only: this is a dev/test front end, not an internet
    // listener — the lifecycle defenses assume a hostile peer, not a
    // hostile network position.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(cfg_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, cfg_.backlog) != 0 ||
        !setNonBlocking(listen_fd_)) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    port_ = ntohs(bound.sin_port);
    return true;
}

void
NetFrontend::acceptPending()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or a transient accept failure: next tick
        }
        (void)setNonBlocking(fd);
        const int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));

        if (conns_.size() >=
            static_cast<size_t>(cfg_.max_connections)) {
            // Reject at accept: one best-effort error frame, then close
            // — the connection never reaches request parsing.
            std::vector<uint8_t> frame;
            ErrorReply reply;
            reply.code = static_cast<uint16_t>(WireError::ServerFull);
            encodeError(frame, reply);
            (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
            ::close(fd);
            ++counters_.rejected_at_accept;
            continue;
        }

        conns_.push_back(std::make_unique<Conn>(fd, next_conn_id_++,
                                                cfg_, nowMs()));
        ++counters_.accepted;
    }
}

void
NetFrontend::readConn(Conn &c, double now_ms)
{
    uint8_t buf[4096];
    // Bounded per tick: at most the decoder's frame window, so one
    // fire-hosing peer cannot starve its siblings of loop time.
    size_t tick_budget = kWireHeaderSize + cfg_.max_payload;
    while (tick_budget > 0 && !c.closed()) {
        const size_t want = tick_budget < sizeof(buf)
                                ? tick_budget
                                : sizeof(buf);
        const ssize_t n = ::recv(c.fd(), buf, want, 0);
        if (n > 0) {
            counters_.bytes_in += static_cast<uint64_t>(n);
            c.onBytes(buf, static_cast<size_t>(n), now_ms);
            tick_budget -= static_cast<size_t>(n);
            continue;
        }
        if (n == 0) {
            c.markClosed(CloseReason::PeerClosed);
            return;
        }
        if (errno == EINTR)
            continue;
        if (!wouldBlock(errno))
            c.markClosed(CloseReason::PeerClosed);
        return;
    }
}

void
NetFrontend::answerError(Conn &c, WireError code, uint16_t detail)
{
    ++counters_.protocol_errors;
    c.enqueueError(code, detail);
    ++counters_.frames_out;

    // QoS rejections are the server's state, not peer misbehavior; only
    // malformed or out-of-contract traffic charges the budget.
    const bool peer_fault =
        code != WireError::ServerFull && code != WireError::Draining;
    if (peer_fault && c.recordError()) {
        c.enqueueError(WireError::ErrorBudget);
        ++counters_.frames_out;
        c.closeAfterFlush(CloseReason::ErrorBudget);
        ++counters_.budget_closes;
    }
}

bool
NetFrontend::routeFrame(Conn &c, const DecodedFrame &frame)
{
    std::vector<uint8_t> out;
    switch (frame.type) {
    case MsgType::OpenSession: {
        OpenSessionReq req;
        if (!decodeOpenSession(frame.payload, &req)) {
            answerError(c, WireError::BadPayload,
                        static_cast<uint16_t>(frame.type));
            return false;
        }
        if (draining_) {
            answerError(c, WireError::Draining, 0);
            return false;
        }
        if (c.hasSession()) {
            answerError(c, WireError::AlreadyOpen, 0);
            return false;
        }
        Trajectory traj(static_cast<TrajectoryKind>(req.trajectory_kind),
                        *server_.scene(), req.speed);
        Resolution res;
        res.width = req.width;
        res.height = req.height;
        res.name = "net";
        const AdmitResult admit = server_.open(traj, res);
        if (!admit.admitted) {
            answerError(c, WireError::ServerFull, 0);
            return false;
        }
        c.bindSession(admit.session_id);
        ++counters_.sessions_opened;
        OpenOkReply ok;
        ok.session_id = admit.session_id;
        encodeOpenOk(out, ok);
        break;
    }
    case MsgType::ResumeSession: {
        SessionRef req;
        if (!decodeSessionRef(frame.payload, &req)) {
            answerError(c, WireError::BadPayload,
                        static_cast<uint16_t>(frame.type));
            return false;
        }
        if (draining_) {
            answerError(c, WireError::Draining, 0);
            return false;
        }
        if (c.hasSession()) {
            answerError(c, WireError::AlreadyOpen, 0);
            return false;
        }
        if (!server_.session(req.session_id)) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        // One owner per session even across restarts: resuming a session
        // another live connection is bound to is refused, not stolen.
        bool taken = false;
        for (const auto &other : conns_) {
            taken |= !other->closed() && other->hasSession() &&
                     other->sessionId() == req.session_id;
        }
        if (taken) {
            answerError(c, WireError::AlreadyOpen, 0);
            return false;
        }
        c.bindSession(req.session_id);
        ++counters_.sessions_opened;
        OpenOkReply ok;
        ok.session_id = req.session_id;
        encodeOpenOk(out, ok);
        break;
    }
    case MsgType::SubmitFrame: {
        SubmitFrameReq req;
        if (!decodeSubmitFrame(frame.payload, &req)) {
            answerError(c, WireError::BadPayload,
                        static_cast<uint16_t>(frame.type));
            return false;
        }
        // Session ownership is per connection: a connection can only
        // submit into the session it opened, so one misbehaving client
        // cannot even address a sibling's session.
        if (!c.hasSession() || c.sessionId() != req.session_id) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        Session *session = server_.session(req.session_id);
        if (!session) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        SubmitReply reply;
        FrameOutcome outcome;
        if (session->lastOutcome(req.frame_index, &outcome)) {
            // A retry of the request stepped last, whose reply was lost
            // (a crash after its journal record, or a dropped
            // connection): answer it again rather than render it twice.
            reply.accepted = true;
            reply.stepped = true;
        } else {
            const SubmitResult submit = session->submit(req.frame_index);
            reply.accepted = submit.accepted;
            reply.coalesced = submit.coalesced;
            reply.dropped_oldest = submit.dropped_oldest;
            reply.retry_after_frames = submit.retry_after_frames;
            // Render inline: one step per accepted submission keeps the
            // reply tied to this very request and the queue at depth 0.
            if (submit.accepted)
                reply.stepped = session->step(&outcome);
            else
                reply.state = static_cast<uint8_t>(session->state());
        }
        if (reply.stepped) {
            reply.rendered = outcome.rendered;
            reply.direct_path = outcome.direct_path;
            reply.deadline_missed = outcome.deadline_missed;
            reply.request = outcome.request;
            reply.frame_hash = outcome.frame_hash;
            reply.resolution_drop =
                static_cast<uint8_t>(outcome.resolution_drop);
            reply.state = static_cast<uint8_t>(outcome.state);
            reply.faults = outcome.faults;
            reply.rebuilds = outcome.rebuilds;
        }
        encodeSubmitReply(out, reply);
        break;
    }
    case MsgType::Stats: {
        SessionRef req;
        if (!decodeSessionRef(frame.payload, &req)) {
            answerError(c, WireError::BadPayload,
                        static_cast<uint16_t>(frame.type));
            return false;
        }
        if (!c.hasSession() || c.sessionId() != req.session_id) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        Session *session = server_.session(req.session_id);
        if (!session) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        StatsReply reply;
        reply.session_id = req.session_id;
        reply.state = static_cast<uint8_t>(session->state());
        reply.queue_depth =
            static_cast<uint32_t>(session->queueDepth());
        reply.stats = session->stats();
        const durable::RecoveryStatus &rec = server_.recovery();
        reply.durable = rec.durable;
        reply.recovered = rec.recovered;
        reply.snapshot_seq = rec.snapshot_seq;
        reply.journal_replayed = rec.journal_replayed;
        reply.generations_skipped = rec.generations_skipped;
        encodeStatsReply(out, reply);
        break;
    }
    case MsgType::CloseSession: {
        SessionRef req;
        if (!decodeSessionRef(frame.payload, &req)) {
            answerError(c, WireError::BadPayload,
                        static_cast<uint16_t>(frame.type));
            return false;
        }
        if (!c.hasSession() || c.sessionId() != req.session_id) {
            answerError(c, WireError::UnknownSession, 0);
            return false;
        }
        server_.close(req.session_id);
        c.unbindSession();
        ++counters_.sessions_closed;
        encodeEmpty(out, MsgType::CloseOk);
        break;
    }
    case MsgType::Shutdown: {
        encodeEmpty(out, MsgType::ShutdownAck);
        drain_requested_.store(true);
        break;
    }
    default:
        // Well-framed but not a request type (a response frame aimed at
        // the server, say) — out of contract.
        answerError(c, WireError::UnknownType,
                    static_cast<uint16_t>(frame.type));
        return false;
    }
    c.enqueue(out);
    ++counters_.frames_out;
    return true;
}

size_t
NetFrontend::processConn(Conn &c, double now_ms)
{
    (void)now_ms;
    size_t served = 0;
    DecodedFrame frame;
    WireError error = WireError::None;
    while (!c.closed() && !c.closingAfterFlush()) {
        const DecodeStatus st = c.nextFrame(&frame, &error);
        if (st == DecodeStatus::NeedMore)
            break;
        if (st == DecodeStatus::Error) {
            answerError(c, error, 0);
            continue;
        }
        ++counters_.frames_in;
        if (routeFrame(c, frame))
            ++served;
    }
    return served;
}

void
NetFrontend::flushConn(Conn &c, double now_ms)
{
    while (c.wantWrite() && !c.closed()) {
        const size_t want = c.writeSize();
        const size_t budget = faultinject::writeBudget(
            kNetSendPoint, static_cast<int64_t>(c.id()), want);
        const ssize_t n =
            ::send(c.fd(), c.writeData(), budget, MSG_NOSIGNAL);
        if (n > 0) {
            counters_.bytes_out += static_cast<uint64_t>(n);
            c.wrote(static_cast<size_t>(n), now_ms);
            // A forced short write models a congested peer: stop here
            // and resume next tick, leaving the remainder torn across
            // send() calls.
            if (budget < want)
                return;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && !wouldBlock(errno))
            c.markClosed(CloseReason::PeerClosed);
        return;
    }
}

void
NetFrontend::beginDrain(double now_ms)
{
    draining_ = true;
    drain_start_ms_ = now_ms;
    // Durable graceful drain: fold everything into a final compacting
    // snapshot while the sessions are still live, so a restart recovers
    // them with nothing left to replay.
    if (server_.durable())
        server_.checkpointCompact();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    // Stop reading, flush what is queued, close when flushed. The
    // deadline in runOnce() hard-closes whoever refuses to drain.
    for (auto &c : conns_)
        c->closeAfterFlush(CloseReason::Drained);
}

void
NetFrontend::reapClosed()
{
    size_t kept = 0;
    for (auto &c : conns_) {
        if (!c->closed()) {
            conns_[kept++] = std::move(c);
            continue;
        }
        switch (c->closeReason()) {
        case CloseReason::IdleTimeout:
            ++counters_.idle_timeouts;
            break;
        case CloseReason::ProgressTimeout:
            ++counters_.progress_timeouts;
            break;
        case CloseReason::WriteOverflow:
            ++counters_.overflow_closes;
            break;
        case CloseReason::DrainDeadline:
            ++counters_.drain_hard_closes;
            break;
        default:
            break;
        }
        if (c->hasSession()) {
            // Durable sessions outlive their connections: a disconnect
            // detaches (ResumeSession re-binds later, possibly after a
            // server restart), and only an explicit CloseSession request
            // tears the session down. Closing here would also journal a
            // teardown after a drain's final snapshot was already cut.
            if (!server_.durable()) {
                server_.close(c->sessionId());
                ++counters_.sessions_closed;
            }
        }
        ::close(c->fd());
        ++counters_.conns_closed;
    }
    conns_.resize(kept);
}

size_t
NetFrontend::runOnce(int timeout_ms)
{
    double now = nowMs();
    if (drain_requested_.load() && !draining_)
        beginDrain(now);

    std::vector<pollfd> fds;
    std::vector<Conn *> fd_conn; // parallel to fds; nullptr = listener
    if (listen_fd_ >= 0 && !draining_) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        fd_conn.push_back(nullptr);
    }
    for (auto &c : conns_) {
        short events = 0;
        if (c->wantRead() && !draining_)
            events |= POLLIN;
        if (c->wantWrite())
            events |= POLLOUT;
        if (events == 0)
            continue; // timeout clocks still tick below
        fds.push_back(pollfd{c->fd(), events, 0});
        fd_conn.push_back(c.get());
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    now = nowMs();

    size_t served = 0;
    if (ready > 0) {
        for (size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (!fd_conn[i]) {
                acceptPending();
                continue;
            }
            Conn &c = *fd_conn[i];
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                readConn(c, now);
                served += processConn(c, now);
            }
            if (!c.closed() && (fds[i].revents & POLLOUT))
                flushConn(c, now);
        }
    }

    // A newly requested drain (Shutdown frame this tick) takes effect
    // before the flush pass so acks get flushed under the deadline.
    if (drain_requested_.load() && !draining_)
        beginDrain(now);

    for (auto &c : conns_) {
        if (c->closed())
            continue;
        // Flush pass for conns that were not polled writable (freshly
        // queued responses) — send() just returns EAGAIN when full.
        if (c->wantWrite())
            flushConn(*c, now);
        if (c->closingAfterFlush() && !c->wantWrite())
            c->markClosed(c->closeReason());
        const CloseReason timeout = c->checkTimeouts(now);
        if (timeout != CloseReason::None)
            c->markClosed(timeout);
        if (draining_ &&
            now - drain_start_ms_ > cfg_.drain_deadline_ms)
            c->markClosed(CloseReason::DrainDeadline);
    }

    reapClosed();
    // Periodic durability checkpoint between ticks: the loop is the only
    // driver, so every session is quiescent right here.
    if (!draining_)
        server_.maybeCheckpoint();
    counters_.requests_served += served;
    return served;
}

void
NetFrontend::run()
{
    while (!stop_requested_.load()) {
        runOnce(cfg_.poll_interval_ms);
        if (draining_ && conns_.empty()) {
            drained_ = true;
            break;
        }
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    for (auto &c : conns_)
        c->markClosed(CloseReason::Drained);
    reapClosed();
}

} // namespace neo::serve::net
