/**
 * @file
 * Framed wire protocol of the socket front end (serve/net/). Every byte
 * arriving from a socket is untrusted until validated; the codec here is
 * the validation boundary.
 *
 * Frame layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic      "NEOW" (0x574F454E as a LE u32)
 *   4       2     version    kWireVersion (2)
 *   6       2     type       MsgType
 *   8       4     length     payload byte count, <= the configured cap
 *   12      4     crc32      IEEE CRC-32 over the payload bytes
 *   16      len   payload    fixed-layout fields per type
 *
 * Bytes 8 onward are the {u32 length, u32 crc32, payload} fence that
 * snapshot sections and journal records also end in (common/codec.h).
 *
 * The decoder is incremental (frames arrive torn at arbitrary offsets)
 * and total: any byte stream maps to a sequence of frames and typed
 * errors, never a crash, an over-read, or unbounded buffering. After a
 * framing-loss error (bad magic, bad version, oversized length) it
 * resyncs by scanning for the next magic; after an in-frame error (CRC
 * mismatch, unknown type) it consumes the well-framed bytes and
 * continues. Truncation (a partial frame that stops making progress) is
 * detected by the connection's read-progress timeout, not the codec.
 */

#ifndef NEO_SERVE_NET_WIRE_H
#define NEO_SERVE_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/session.h"

namespace neo::serve::net
{

/** "NEOW" read little-endian ('N' is byte 0 on the wire). */
inline constexpr uint32_t kWireMagic = 0x574F454Eu;
/** Version 2: SubmitReply and StatsReply no longer carry the removed
    stage watchdog's fields, so a version 1 peer would misread the
    fields after them; the decoder refuses it as BadVersion instead. */
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kWireHeaderSize = 16;
/** Hard upper bound on the configurable payload cap. */
inline constexpr size_t kWireMaxPayload = 1u << 20;

/** Frame types. Requests are < 0x80, responses >= 0x80. */
enum class MsgType : uint16_t
{
    // Client -> server.
    OpenSession = 0x01,  //!< admit a camera stream
    SubmitFrame = 0x02,  //!< enqueue + render one trajectory frame
    Stats = 0x03,        //!< snapshot session counters
    CloseSession = 0x04, //!< tear down the session
    Shutdown = 0x05,     //!< request a graceful server drain
    /** Re-bind this connection to a session that survived a server
        restart (durable mode). Payload is a SessionRef; the reply is an
        OpenOk echoing the id. Refused (unknown-session) when the id is
        not live, or (already-open) when another connection owns it. */
    ResumeSession = 0x06,

    // Server -> client.
    OpenOk = 0x81,
    SubmitReply = 0x82,
    StatsReply = 0x83,
    CloseOk = 0x84,
    ShutdownAck = 0x85,
    Error = 0xFF,
};

/** True for the types this build knows how to parse. */
bool knownMsgType(uint16_t type);

/** Lower-case type name ("open-session", ...; "unknown" otherwise). */
const char *msgTypeName(MsgType type);

/** Typed protocol errors carried by Error frames (and decoder events). */
enum class WireError : uint16_t
{
    None = 0,
    BadMagic = 1,     //!< framing lost; decoder resynced
    BadVersion = 2,   //!< only kWireVersion is spoken
    UnknownType = 3,  //!< well-framed frame of an unknown type
    Oversized = 4,    //!< declared length above the payload cap
    CrcMismatch = 5,  //!< payload checksum failed
    Truncated = 6,    //!< partial frame stopped making progress
    BadPayload = 7,   //!< payload malformed for its type
    ServerFull = 8,   //!< admission cap reached (sessions or conns)
    UnknownSession = 9,
    AlreadyOpen = 10, //!< this connection already owns a session
    Draining = 11,    //!< server is shutting down
    ErrorBudget = 12, //!< per-connection error budget exhausted
};

/** Lower-case error name ("bad-magic", ...). */
const char *wireErrorName(WireError error);

// --- Typed payloads ----------------------------------------------------

/** OpenSession request payload. */
struct OpenSessionReq
{
    uint8_t trajectory_kind = 0; //!< TrajectoryKind (0 orbit, 1 dolly, 2 walk)
    float speed = 1.0f;          //!< trajectory speed multiplier
    uint16_t width = 0;
    uint16_t height = 0;
};

/** OpenOk response payload. */
struct OpenOkReply
{
    uint32_t session_id = 0;
};

/** SubmitFrame request payload. */
struct SubmitFrameReq
{
    uint32_t session_id = 0;
    uint64_t frame_index = 0;
};

/** SubmitReply response payload: the SubmitResult of this submission
    plus the FrameOutcome of the step it triggered. */
struct SubmitReply
{
    // Submission outcome.
    bool accepted = false;
    bool coalesced = false;
    bool dropped_oldest = false;
    int32_t retry_after_frames = 0;
    // Step outcome (valid when stepped — the front end steps the
    // session once per accepted submission).
    bool stepped = false;
    bool rendered = false;
    bool direct_path = false;
    bool deadline_missed = false;
    uint64_t request = 0; //!< trajectory frame the step processed
    uint64_t frame_hash = 0;
    uint8_t resolution_drop = 0;
    uint8_t state = 0; //!< SessionState after the step
    uint32_t faults = 0;
    uint32_t rebuilds = 0;
};

/** Stats / CloseSession request payload. */
struct SessionRef
{
    uint32_t session_id = 0;
};

/** StatsReply response payload: SessionStats + lifecycle state, plus
    the server's recovery attestation (durable mode; zeros otherwise). */
struct StatsReply
{
    uint32_t session_id = 0;
    uint8_t state = 0;
    uint32_t queue_depth = 0;
    SessionStats stats;
    // Recovery attestation (see serve/durable/durable.h).
    bool durable = false;
    bool recovered = false;
    uint64_t snapshot_seq = 0;
    uint64_t journal_replayed = 0;
    uint32_t generations_skipped = 0;
};

/** Error response payload. */
struct ErrorReply
{
    uint16_t code = 0;   //!< WireError
    uint16_t detail = 0; //!< offending MsgType when relevant, else 0
};

// --- Encoding ----------------------------------------------------------

/** Append one framed message (header + payload) to @p out. */
void encodeFrame(std::vector<uint8_t> &out, MsgType type,
                 const uint8_t *payload, size_t len);

/** Payload-struct encoders: append the framed message to @p out. */
void encodeOpenSession(std::vector<uint8_t> &out, const OpenSessionReq &m);
void encodeOpenOk(std::vector<uint8_t> &out, const OpenOkReply &m);
void encodeSubmitFrame(std::vector<uint8_t> &out, const SubmitFrameReq &m);
void encodeSubmitReply(std::vector<uint8_t> &out, const SubmitReply &m);
void encodeSessionRef(std::vector<uint8_t> &out, MsgType type,
                      const SessionRef &m);
void encodeStatsReply(std::vector<uint8_t> &out, const StatsReply &m);
void encodeEmpty(std::vector<uint8_t> &out, MsgType type);
void encodeError(std::vector<uint8_t> &out, const ErrorReply &m);

/** Payload-struct decoders: false when the payload is malformed for the
    type (wrong size or an out-of-range field). Never over-read. */
bool decodeOpenSession(const std::vector<uint8_t> &p, OpenSessionReq *out);
bool decodeOpenOk(const std::vector<uint8_t> &p, OpenOkReply *out);
bool decodeSubmitFrame(const std::vector<uint8_t> &p, SubmitFrameReq *out);
bool decodeSubmitReply(const std::vector<uint8_t> &p, SubmitReply *out);
bool decodeSessionRef(const std::vector<uint8_t> &p, SessionRef *out);
bool decodeStatsReply(const std::vector<uint8_t> &p, StatsReply *out);
bool decodeError(const std::vector<uint8_t> &p, ErrorReply *out);

// --- Incremental decoding ----------------------------------------------

/** One fully validated frame. */
struct DecodedFrame
{
    MsgType type = MsgType::Error;
    std::vector<uint8_t> payload;
};

/** Result of one FrameDecoder::next() pull. */
enum class DecodeStatus
{
    NeedMore, //!< no complete frame buffered
    Frame,    //!< *frame holds the next validated frame
    Error,    //!< *error holds a typed protocol error
};

/**
 * Incremental frame parser over a torn byte stream (see file comment
 * for the error/resync taxonomy). feed() appends received bytes;
 * next() pulls validated frames and typed errors in input order.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(size_t max_payload = kWireMaxPayload);

    void feed(const uint8_t *data, size_t len);

    DecodeStatus next(DecodedFrame *frame, WireError *error);

    /** Bytes buffered but not yet consumed (partial frame or garbage
        awaiting resync) — the connection's read-progress clock. */
    size_t pendingBytes() const { return buf_.size() - off_; }

    /** Frames validated since construction. */
    uint64_t framesDecoded() const { return frames_; }
    /** Typed errors emitted since construction. */
    uint64_t errorsEmitted() const { return errors_; }

    void reset();

  private:
    /** Drop consumed prefix once it dominates the buffer. */
    void compact();

    const size_t max_payload_;
    std::vector<uint8_t> buf_;
    size_t off_ = 0;
    bool resync_ = false;
    uint64_t frames_ = 0;
    uint64_t errors_ = 0;
};

} // namespace neo::serve::net

#endif // NEO_SERVE_NET_WIRE_H
