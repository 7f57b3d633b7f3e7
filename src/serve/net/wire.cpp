#include "serve/net/wire.h"

#include <cmath>

#include "common/codec.h"

namespace neo::serve::net
{

namespace
{

/** The four magic bytes as they appear on the wire ("NEOW"). */
constexpr uint8_t kMagicBytes[4] = {0x4E, 0x45, 0x4F, 0x57};

/** Append one framed message whose payload @p fill writes in place. */
template <typename Fill>
void
frame(std::vector<uint8_t> &out, MsgType type, Fill fill)
{
    ByteWriter w(out);
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<uint16_t>(type));
    w.fenced(fill);
}

} // namespace

bool
knownMsgType(uint16_t type)
{
    switch (static_cast<MsgType>(type)) {
    case MsgType::OpenSession:
    case MsgType::SubmitFrame:
    case MsgType::Stats:
    case MsgType::CloseSession:
    case MsgType::Shutdown:
    case MsgType::ResumeSession:
    case MsgType::OpenOk:
    case MsgType::SubmitReply:
    case MsgType::StatsReply:
    case MsgType::CloseOk:
    case MsgType::ShutdownAck:
    case MsgType::Error:
        return true;
    }
    return false;
}

const char *
msgTypeName(MsgType type)
{
    switch (type) {
    case MsgType::OpenSession:
        return "open-session";
    case MsgType::SubmitFrame:
        return "submit-frame";
    case MsgType::Stats:
        return "stats";
    case MsgType::CloseSession:
        return "close-session";
    case MsgType::Shutdown:
        return "shutdown";
    case MsgType::ResumeSession:
        return "resume-session";
    case MsgType::OpenOk:
        return "open-ok";
    case MsgType::SubmitReply:
        return "submit-reply";
    case MsgType::StatsReply:
        return "stats-reply";
    case MsgType::CloseOk:
        return "close-ok";
    case MsgType::ShutdownAck:
        return "shutdown-ack";
    case MsgType::Error:
        return "error";
    }
    return "unknown";
}

const char *
wireErrorName(WireError error)
{
    switch (error) {
    case WireError::None:
        return "none";
    case WireError::BadMagic:
        return "bad-magic";
    case WireError::BadVersion:
        return "bad-version";
    case WireError::UnknownType:
        return "unknown-type";
    case WireError::Oversized:
        return "oversized";
    case WireError::CrcMismatch:
        return "crc-mismatch";
    case WireError::Truncated:
        return "truncated";
    case WireError::BadPayload:
        return "bad-payload";
    case WireError::ServerFull:
        return "server-full";
    case WireError::UnknownSession:
        return "unknown-session";
    case WireError::AlreadyOpen:
        return "already-open";
    case WireError::Draining:
        return "draining";
    case WireError::ErrorBudget:
        return "error-budget";
    }
    return "none";
}

// --- Encoding ----------------------------------------------------------

void
encodeFrame(std::vector<uint8_t> &out, MsgType type,
            const uint8_t *payload, size_t len)
{
    frame(out, type, [&](ByteWriter &w) {
        for (size_t i = 0; i < len; ++i)
            w.u8(payload[i]);
    });
}

void
encodeOpenSession(std::vector<uint8_t> &out, const OpenSessionReq &m)
{
    frame(out, MsgType::OpenSession, [&](ByteWriter &w) {
        w.u8(m.trajectory_kind);
        w.f32(m.speed);
        w.u16(m.width);
        w.u16(m.height);
    });
}

void
encodeOpenOk(std::vector<uint8_t> &out, const OpenOkReply &m)
{
    frame(out, MsgType::OpenOk, [&](ByteWriter &w) { w.u32(m.session_id); });
}

void
encodeSubmitFrame(std::vector<uint8_t> &out, const SubmitFrameReq &m)
{
    frame(out, MsgType::SubmitFrame, [&](ByteWriter &w) {
        w.u32(m.session_id);
        w.u64(m.frame_index);
    });
}

void
encodeSubmitReply(std::vector<uint8_t> &out, const SubmitReply &m)
{
    frame(out, MsgType::SubmitReply, [&](ByteWriter &w) {
        w.boolean(m.accepted);
        w.boolean(m.coalesced);
        w.boolean(m.dropped_oldest);
        w.boolean(m.stepped);
        w.boolean(m.rendered);
        w.boolean(m.direct_path);
        w.boolean(m.deadline_missed);
        w.i32(m.retry_after_frames);
        w.u64(m.request);
        w.u64(m.frame_hash);
        w.u8(m.resolution_drop);
        w.u8(m.state);
        w.i8(m.watchdog_stage);
        w.u32(m.faults);
        w.u32(m.rebuilds);
    });
}

void
encodeSessionRef(std::vector<uint8_t> &out, MsgType type,
                 const SessionRef &m)
{
    frame(out, type, [&](ByteWriter &w) { w.u32(m.session_id); });
}

void
encodeStatsReply(std::vector<uint8_t> &out, const StatsReply &m)
{
    frame(out, MsgType::StatsReply, [&](ByteWriter &w) {
        w.u32(m.session_id);
        w.u8(m.state);
        w.u32(m.queue_depth);
        writeStats(w, m.stats);
        w.boolean(m.durable);
        w.boolean(m.recovered);
        w.u64(m.snapshot_seq);
        w.u64(m.journal_replayed);
        w.u32(m.generations_skipped);
    });
}

void
encodeEmpty(std::vector<uint8_t> &out, MsgType type)
{
    frame(out, type, [](ByteWriter &) {});
}

void
encodeError(std::vector<uint8_t> &out, const ErrorReply &m)
{
    frame(out, MsgType::Error, [&](ByteWriter &w) {
        w.u16(m.code);
        w.u16(m.detail);
    });
}

// --- Payload decoding --------------------------------------------------

bool
decodeOpenSession(const std::vector<uint8_t> &p, OpenSessionReq *out)
{
    ByteReader r(p.data(), p.size());
    OpenSessionReq m;
    m.trajectory_kind = r.u8();
    m.speed = r.f32();
    m.width = r.u16();
    m.height = r.u16();
    if (!r.done())
        return false;
    // Range checks: a kind outside the enum, a non-finite or wild speed,
    // or a degenerate/huge resolution is hostile input, not a request.
    if (m.trajectory_kind > 2)
        return false;
    if (!std::isfinite(m.speed) || m.speed <= 0.0f || m.speed > 64.0f)
        return false;
    if (m.width < 16 || m.width > 4096 || m.height < 16 ||
        m.height > 4096)
        return false;
    *out = m;
    return true;
}

bool
decodeOpenOk(const std::vector<uint8_t> &p, OpenOkReply *out)
{
    ByteReader r(p.data(), p.size());
    OpenOkReply m;
    m.session_id = r.u32();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

bool
decodeSubmitFrame(const std::vector<uint8_t> &p, SubmitFrameReq *out)
{
    ByteReader r(p.data(), p.size());
    SubmitFrameReq m;
    m.session_id = r.u32();
    m.frame_index = r.u64();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

bool
decodeSubmitReply(const std::vector<uint8_t> &p, SubmitReply *out)
{
    ByteReader r(p.data(), p.size());
    SubmitReply m;
    m.accepted = r.boolean();
    m.coalesced = r.boolean();
    m.dropped_oldest = r.boolean();
    m.stepped = r.boolean();
    m.rendered = r.boolean();
    m.direct_path = r.boolean();
    m.deadline_missed = r.boolean();
    m.retry_after_frames = r.i32();
    m.request = r.u64();
    m.frame_hash = r.u64();
    m.resolution_drop = r.u8();
    m.state = r.u8();
    m.watchdog_stage = r.i8();
    m.faults = r.u32();
    m.rebuilds = r.u32();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

bool
decodeSessionRef(const std::vector<uint8_t> &p, SessionRef *out)
{
    ByteReader r(p.data(), p.size());
    SessionRef m;
    m.session_id = r.u32();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

bool
decodeStatsReply(const std::vector<uint8_t> &p, StatsReply *out)
{
    ByteReader r(p.data(), p.size());
    StatsReply m;
    m.session_id = r.u32();
    m.state = r.u8();
    m.queue_depth = r.u32();
    readStats(r, &m.stats);
    m.durable = r.boolean();
    m.recovered = r.boolean();
    m.snapshot_seq = r.u64();
    m.journal_replayed = r.u64();
    m.generations_skipped = r.u32();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

bool
decodeError(const std::vector<uint8_t> &p, ErrorReply *out)
{
    ByteReader r(p.data(), p.size());
    ErrorReply m;
    m.code = r.u16();
    m.detail = r.u16();
    if (!r.done())
        return false;
    *out = m;
    return true;
}

// --- Incremental decoding ----------------------------------------------

FrameDecoder::FrameDecoder(size_t max_payload)
    : max_payload_(max_payload < kWireMaxPayload ? max_payload
                                                 : kWireMaxPayload)
{
}

void
FrameDecoder::feed(const uint8_t *data, size_t len)
{
    buf_.insert(buf_.end(), data, data + len);
}

void
FrameDecoder::reset()
{
    buf_.clear();
    off_ = 0;
    resync_ = false;
}

void
FrameDecoder::compact()
{
    // Amortized O(1): only shift once the dead prefix dominates.
    if (off_ > 4096 && off_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(off_));
        off_ = 0;
    }
}

DecodeStatus
FrameDecoder::next(DecodedFrame *frame, WireError *error)
{
    for (;;) {
        if (resync_) {
            // Framing lost: scan for the next magic. A partial magic
            // match at the tail must be kept — it may complete on the
            // next feed() (torn writes split inside the magic on
            // purpose).
            const size_t size = buf_.size();
            size_t i = off_;
            for (; i < size; ++i) {
                size_t m = 0;
                while (m < 4 && i + m < size &&
                       buf_[i + m] == kMagicBytes[m])
                    ++m;
                if (m == 4) {
                    resync_ = false;
                    break;
                }
                if (i + m == size)
                    break; // prefix match runs off the tail: hold it
            }
            off_ = i;
            compact();
            if (resync_)
                return DecodeStatus::NeedMore;
        }

        const size_t avail = buf_.size() - off_;
        if (avail < kWireHeaderSize) {
            compact();
            return DecodeStatus::NeedMore;
        }

        ByteReader r(buf_.data() + off_, avail);
        const uint32_t magic = r.u32();
        const uint16_t version = r.u16();
        const uint16_t type = r.u16();

        if (magic != kWireMagic) {
            // One typed error per resync event; the scan then swallows
            // garbage silently until the next plausible frame start.
            resync_ = true;
            ++errors_;
            *error = WireError::BadMagic;
            return DecodeStatus::Error;
        }
        if (version != kWireVersion) {
            // The magic matched but nothing after it can be trusted —
            // skip past the magic so the resync scan moves forward.
            off_ += 4;
            resync_ = true;
            ++errors_;
            *error = WireError::BadVersion;
            return DecodeStatus::Error;
        }
        const uint8_t *payload = nullptr;
        uint32_t length = 0;
        const FenceStatus fence = r.fenced(max_payload_, &payload, &length);
        if (fence == FenceStatus::Oversized) {
            off_ += 4;
            resync_ = true;
            ++errors_;
            *error = WireError::Oversized;
            return DecodeStatus::Error;
        }
        if (fence == FenceStatus::Short)
            return DecodeStatus::NeedMore;

        // Framing is trusted from here on: consume the whole frame even
        // when its contents are rejected, and keep parsing.
        if (fence == FenceStatus::BadCrc || !knownMsgType(type)) {
            off_ += kWireHeaderSize + length;
            compact();
            ++errors_;
            *error = fence == FenceStatus::BadCrc ? WireError::CrcMismatch
                                                  : WireError::UnknownType;
            return DecodeStatus::Error;
        }

        frame->type = static_cast<MsgType>(type);
        frame->payload.assign(payload, payload + length);
        off_ += kWireHeaderSize + length;
        compact();
        ++frames_;
        return DecodeStatus::Frame;
    }
}

} // namespace neo::serve::net
