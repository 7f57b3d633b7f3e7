/**
 * @file
 * Socket front end of the serving layer: a single-threaded non-blocking
 * poll() event loop that accepts TCP connections, decodes the framed
 * wire protocol (serve/net/wire.h), and routes validated requests into
 * the in-process NeoServer / Session::submit path.
 *
 * Driving model: the front end renders inline. A SubmitFrame request is
 * submitted to its session and, when accepted, the session is stepped
 * once before the reply is encoded — so replies arrive in request order,
 * carry the FrameOutcome (including the frame hash) of the very request
 * they answer, and per-session queues never build up behind the socket.
 * A resubmit of the frame index a session stepped last is answered from
 * that step's outcome (Session::lastOutcome), not stepped again, so a
 * client retrying a reply lost to a crash or a disconnect gets the
 * frame exactly once.
 * NeoRenderer's stages are bit-exact at any thread count, so the hash a
 * client reads over the wire equals the solo-render hash — the property
 * the chaos suite asserts for healthy connections while siblings are
 * being torn, stalled, garbled, and disconnected.
 *
 * Lifecycle defense (details in serve/net/conn.h): bounded read/write
 * buffers with backpressure, idle and read-progress timeouts, a
 * per-connection protocol-error budget, reject-at-accept beyond
 * max_connections, and a graceful drain (stop accepting, flush every
 * write buffer, bounded deadline, hard-close stragglers) triggered by a
 * Shutdown request or requestDrain().
 *
 * Threading: run()/runOnce() must be driven by one thread. requestDrain()
 * and requestStop() are safe from any thread; everything else (counters,
 * liveConns) is loop-thread state — read it after run() returns or from
 * the loop thread.
 */

#ifndef NEO_SERVE_NET_FRONTEND_H
#define NEO_SERVE_NET_FRONTEND_H

#include <atomic>
#include <memory>
#include <vector>

#include "serve/net/conn.h"
#include "serve/server.h"

namespace neo::serve::net
{

/** Monotonic front-end counters (loop-thread owned; see file comment). */
struct NetCounters
{
    uint64_t accepted = 0;
    uint64_t rejected_at_accept = 0; //!< over max_connections
    uint64_t conns_closed = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t frames_in = 0;         //!< validated request frames
    uint64_t frames_out = 0;        //!< response frames queued
    uint64_t protocol_errors = 0;   //!< typed errors answered
    uint64_t requests_served = 0;   //!< requests routed into the server
    uint64_t sessions_opened = 0;
    uint64_t sessions_closed = 0;
    uint64_t idle_timeouts = 0;
    uint64_t progress_timeouts = 0; //!< slow-loris closes
    uint64_t overflow_closes = 0;   //!< write-backpressure overflow
    uint64_t budget_closes = 0;     //!< error budget exhausted
    uint64_t drain_hard_closes = 0; //!< drain deadline hard-closes
};

/** The socket front end (see file comment). */
class NetFrontend
{
  public:
    /** @param server the in-process server requests are routed into;
        must outlive the front end. */
    explicit NetFrontend(NeoServer &server,
                         NetConfig cfg = netConfigFromEnv());
    ~NetFrontend();

    NetFrontend(const NetFrontend &) = delete;
    NetFrontend &operator=(const NetFrontend &) = delete;

    /** Bind and listen on cfg.port (0 = ephemeral). False on failure. */
    bool start();

    /** Bound TCP port (valid after start()). */
    int port() const { return port_; }

    /** Event loop: poll, accept, read, route, write, reap — until
        requestStop(), or until a drain completes. */
    void run();

    /**
     * One poll iteration with the given timeout (test hook; run() is
     * this in a loop at cfg.poll_interval_ms). Returns the number of
     * requests routed.
     */
    size_t runOnce(int timeout_ms);

    /** Graceful drain from any thread: stop accepting, stop reading,
        flush write buffers, hard-close at the deadline. */
    void requestDrain() { drain_requested_.store(true); }

    /** Hard stop from any thread: the loop exits at the next tick. */
    void requestStop() { stop_requested_.store(true); }

    bool draining() const { return draining_; }

    /** True after run() observed a drain through to completion. */
    bool drained() const { return drained_; }

    const NetCounters &counters() const { return counters_; }
    size_t liveConns() const { return conns_.size(); }

  private:
    void acceptPending();
    void readConn(Conn &c, double now_ms);
    /** Decode + route every buffered frame of @p c. */
    size_t processConn(Conn &c, double now_ms);
    /** Route one validated request frame. True when it was served. */
    bool routeFrame(Conn &c, const DecodedFrame &frame);
    /** Answer a typed error, charge the budget where deserved. */
    void answerError(Conn &c, WireError code, uint16_t detail);
    void flushConn(Conn &c, double now_ms);
    void beginDrain(double now_ms);
    /** Close fds / sessions of conns marked closed; drop them. */
    void reapClosed();
    double nowMs() const;

    NeoServer &server_;
    const NetConfig cfg_;

    int listen_fd_ = -1;
    int port_ = 0;
    uint64_t next_conn_id_ = 1;
    std::vector<std::unique_ptr<Conn>> conns_;
    NetCounters counters_;

    std::atomic<bool> drain_requested_{false};
    std::atomic<bool> stop_requested_{false};
    bool draining_ = false;
    bool drained_ = false;
    double drain_start_ms_ = 0.0;
};

} // namespace neo::serve::net

#endif // NEO_SERVE_NET_FRONTEND_H
