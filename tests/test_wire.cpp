/**
 * @file
 * Wire-codec isolation tests for the socket front end: header/payload
 * round-trips for every message type, a byte pin of one encoded frame,
 * the full malformed-frame taxonomy
 * (each class answered with its typed error), resync-by-magic-scan after
 * framing loss, torn delivery at every split offset, and a seeded fuzz
 * loop (random splits + mutations) asserting the decoder is total —
 * no crash, no over-read, bounded buffering — on arbitrary bytes.
 * No sockets anywhere: the codec is pure.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/net/wire.h"
#include "test_util.h"

namespace neo::serve::net::test
{
namespace
{

/** Drain every frame/error event out of @p dec. */
struct Events
{
    std::vector<DecodedFrame> frames;
    std::vector<WireError> errors;
};

Events
drain(FrameDecoder &dec)
{
    Events ev;
    DecodedFrame frame;
    WireError error = WireError::None;
    for (;;) {
        const DecodeStatus st = dec.next(&frame, &error);
        if (st == DecodeStatus::NeedMore)
            return ev;
        if (st == DecodeStatus::Frame)
            ev.frames.push_back(frame);
        else
            ev.errors.push_back(error);
    }
}

std::vector<uint8_t>
submitFrameBytes(uint32_t session, uint64_t frame)
{
    std::vector<uint8_t> bytes;
    SubmitFrameReq req;
    req.session_id = session;
    req.frame_index = frame;
    encodeSubmitFrame(bytes, req);
    return bytes;
}

// --- Format pin --------------------------------------------------------

TEST(WireFormatPinTest, SubmitFrameBytesAreUnchanged)
{
    // A round trip cannot see a layout change made alike in the encoder
    // and the decoder; these bytes can. Magic, version, type, then the
    // {length, crc32, payload} fence.
    const std::vector<uint8_t> bytes = submitFrameBytes(1, 2);
    EXPECT_EQ(neo::test::hexBytes(bytes.data(), bytes.size()),
              "4e454f57010002000c0000007d8d55a2"
              "010000000200000000000000");
}

// --- Round-trips -------------------------------------------------------

TEST(WireRoundTripTest, OpenSession)
{
    OpenSessionReq in;
    in.trajectory_kind = 1;
    in.speed = 1.75f;
    in.width = 640;
    in.height = 384;
    std::vector<uint8_t> bytes;
    encodeOpenSession(bytes, in);

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.frames.size(), 1u);
    EXPECT_TRUE(ev.errors.empty());
    EXPECT_EQ(ev.frames[0].type, MsgType::OpenSession);

    OpenSessionReq out;
    ASSERT_TRUE(decodeOpenSession(ev.frames[0].payload, &out));
    EXPECT_EQ(out.trajectory_kind, in.trajectory_kind);
    EXPECT_FLOAT_EQ(out.speed, in.speed);
    EXPECT_EQ(out.width, in.width);
    EXPECT_EQ(out.height, in.height);
}

TEST(WireRoundTripTest, SubmitReplyCarriesFullOutcome)
{
    SubmitReply in;
    in.accepted = true;
    in.coalesced = true;
    in.stepped = true;
    in.rendered = true;
    in.deadline_missed = true;
    in.retry_after_frames = -3;
    in.request = 41;
    in.frame_hash = 0xDEADBEEFCAFEF00Dull;
    in.resolution_drop = 2;
    in.state = 1;
    in.watchdog_stage = -1;
    in.faults = 7;
    in.rebuilds = 2;
    std::vector<uint8_t> bytes;
    encodeSubmitReply(bytes, in);

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.frames.size(), 1u);

    SubmitReply out;
    ASSERT_TRUE(decodeSubmitReply(ev.frames[0].payload, &out));
    EXPECT_EQ(out.accepted, in.accepted);
    EXPECT_EQ(out.coalesced, in.coalesced);
    EXPECT_EQ(out.stepped, in.stepped);
    EXPECT_EQ(out.rendered, in.rendered);
    EXPECT_EQ(out.deadline_missed, in.deadline_missed);
    EXPECT_EQ(out.retry_after_frames, in.retry_after_frames);
    EXPECT_EQ(out.request, in.request);
    EXPECT_EQ(out.frame_hash, in.frame_hash);
    EXPECT_EQ(out.resolution_drop, in.resolution_drop);
    EXPECT_EQ(out.state, in.state);
    EXPECT_EQ(out.watchdog_stage, in.watchdog_stage);
    EXPECT_EQ(out.faults, in.faults);
    EXPECT_EQ(out.rebuilds, in.rebuilds);
}

TEST(WireRoundTripTest, StatsReplyCarriesEveryCounter)
{
    StatsReply in;
    in.session_id = 5;
    in.state = 2;
    in.queue_depth = 3;
    in.stats.submitted = 100;
    in.stats.accepted = 90;
    in.stats.rejected = 10;
    in.stats.dropped_oldest = 4;
    in.stats.coalesced = 5;
    in.stats.dropped_stale = 6;
    in.stats.backoff_skips = 7;
    in.stats.rendered = 80;
    in.stats.deadline_misses = 8;
    in.stats.degraded_frames = 9;
    in.stats.faults = 1;
    in.stats.watchdog_trips = 2;
    in.stats.quarantines = 3;
    in.stats.recoveries = 2;
    std::vector<uint8_t> bytes;
    encodeStatsReply(bytes, in);

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.frames.size(), 1u);

    StatsReply out;
    ASSERT_TRUE(decodeStatsReply(ev.frames[0].payload, &out));
    EXPECT_EQ(out.session_id, in.session_id);
    EXPECT_EQ(out.state, in.state);
    EXPECT_EQ(out.queue_depth, in.queue_depth);
    EXPECT_EQ(out.stats.submitted, in.stats.submitted);
    EXPECT_EQ(out.stats.rendered, in.stats.rendered);
    EXPECT_EQ(out.stats.quarantines, in.stats.quarantines);
    EXPECT_EQ(out.stats.recoveries, in.stats.recoveries);
}

TEST(WireRoundTripTest, ErrorAndEmptyFrames)
{
    std::vector<uint8_t> bytes;
    ErrorReply err;
    err.code = static_cast<uint16_t>(WireError::CrcMismatch);
    err.detail = 0x02;
    encodeError(bytes, err);
    encodeEmpty(bytes, MsgType::ShutdownAck);

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.frames.size(), 2u);
    EXPECT_EQ(ev.frames[0].type, MsgType::Error);
    EXPECT_EQ(ev.frames[1].type, MsgType::ShutdownAck);
    EXPECT_TRUE(ev.frames[1].payload.empty());

    ErrorReply out;
    ASSERT_TRUE(decodeError(ev.frames[0].payload, &out));
    EXPECT_EQ(out.code, err.code);
    EXPECT_EQ(out.detail, err.detail);
}

// --- Malformed-frame taxonomy ------------------------------------------

TEST(WireMalformedTest, BadMagicEmitsOneErrorThenResyncs)
{
    std::vector<uint8_t> bytes = {'j', 'u', 'n', 'k', 0x00, 0x11,
                                  0x22, 0x33, 0x44, 0x55};
    const std::vector<uint8_t> good = submitFrameBytes(1, 2);
    bytes.insert(bytes.end(), good.begin(), good.end());

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.errors.size(), 1u);
    EXPECT_EQ(ev.errors[0], WireError::BadMagic);
    ASSERT_EQ(ev.frames.size(), 1u);
    EXPECT_EQ(ev.frames[0].type, MsgType::SubmitFrame);
}

TEST(WireMalformedTest, BadVersionRejectedAndSkipped)
{
    std::vector<uint8_t> bytes = submitFrameBytes(1, 2);
    bytes[4] = 0x7F; // version low byte
    const std::vector<uint8_t> good = submitFrameBytes(3, 4);
    bytes.insert(bytes.end(), good.begin(), good.end());

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.errors.size(), 1u);
    EXPECT_EQ(ev.errors[0], WireError::BadVersion);
    ASSERT_EQ(ev.frames.size(), 1u);
    SubmitFrameReq out;
    ASSERT_TRUE(decodeSubmitFrame(ev.frames[0].payload, &out));
    EXPECT_EQ(out.session_id, 3u);
}

TEST(WireMalformedTest, OversizedLengthRejectedWithoutAllocating)
{
    std::vector<uint8_t> bytes = submitFrameBytes(1, 2);
    bytes[8] = 0xFF; // length field: declare ~4GB
    bytes[9] = 0xFF;
    bytes[10] = 0xFF;
    bytes[11] = 0xFF;

    FrameDecoder dec(4096);
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.errors.size(), 1u);
    EXPECT_EQ(ev.errors[0], WireError::Oversized);
    EXPECT_TRUE(ev.frames.empty());
    // The decoder must not have buffered toward the declared length.
    EXPECT_LT(dec.pendingBytes(), bytes.size());
}

TEST(WireMalformedTest, CrcMismatchRejectsFrameKeepsStream)
{
    std::vector<uint8_t> bytes = submitFrameBytes(1, 2);
    bytes[kWireHeaderSize] ^= 0x01; // flip one payload bit
    const std::vector<uint8_t> good = submitFrameBytes(3, 4);
    bytes.insert(bytes.end(), good.begin(), good.end());

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.errors.size(), 1u);
    EXPECT_EQ(ev.errors[0], WireError::CrcMismatch);
    ASSERT_EQ(ev.frames.size(), 1u);
    SubmitFrameReq out;
    ASSERT_TRUE(decodeSubmitFrame(ev.frames[0].payload, &out));
    EXPECT_EQ(out.session_id, 3u) << "stream must continue past the "
                                     "rejected frame";
}

TEST(WireMalformedTest, UnknownTypeRejectedKeepsStream)
{
    std::vector<uint8_t> bytes;
    const uint8_t payload[2] = {0xAA, 0xBB};
    encodeFrame(bytes, static_cast<MsgType>(0x42), payload, 2);
    const std::vector<uint8_t> good = submitFrameBytes(3, 4);
    bytes.insert(bytes.end(), good.begin(), good.end());

    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const Events ev = drain(dec);
    ASSERT_EQ(ev.errors.size(), 1u);
    EXPECT_EQ(ev.errors[0], WireError::UnknownType);
    ASSERT_EQ(ev.frames.size(), 1u);
    EXPECT_EQ(ev.frames[0].type, MsgType::SubmitFrame);
}

TEST(WireMalformedTest, TruncatedFrameStaysPendingNeverDecodes)
{
    const std::vector<uint8_t> bytes = submitFrameBytes(1, 2);
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size() - 3);
    const Events ev = drain(dec);
    EXPECT_TRUE(ev.frames.empty());
    EXPECT_TRUE(ev.errors.empty());
    EXPECT_EQ(dec.pendingBytes(), bytes.size() - 3)
        << "a partial frame is held, not consumed — the connection "
           "progress timeout owns truncation";
}

TEST(WireMalformedTest, BadPayloadsRejectedByTypedDecoders)
{
    // Wrong size.
    OpenSessionReq open;
    EXPECT_FALSE(decodeOpenSession({0x01, 0x02}, &open));
    // Out-of-range fields (kind, speed, resolution).
    std::vector<uint8_t> bytes;
    OpenSessionReq bad;
    bad.trajectory_kind = 9;
    bad.width = 640;
    bad.height = 384;
    encodeOpenSession(bytes, bad);
    std::vector<uint8_t> payload(bytes.begin() + kWireHeaderSize,
                                 bytes.end());
    EXPECT_FALSE(decodeOpenSession(payload, &open));

    bytes.clear();
    bad.trajectory_kind = 0;
    bad.width = 2; // below the 16px floor
    encodeOpenSession(bytes, bad);
    payload.assign(bytes.begin() + kWireHeaderSize, bytes.end());
    EXPECT_FALSE(decodeOpenSession(payload, &open));

    // Trailing bytes are rejected, not ignored.
    SubmitFrameReq submit;
    std::vector<uint8_t> extra(13, 0);
    EXPECT_FALSE(decodeSubmitFrame(extra, &submit));
}

// --- Torn delivery -----------------------------------------------------

TEST(WireTornDeliveryTest, EverySplitOffsetReassembles)
{
    std::vector<uint8_t> bytes = submitFrameBytes(7, 99);
    const std::vector<uint8_t> second = submitFrameBytes(8, 100);
    bytes.insert(bytes.end(), second.begin(), second.end());

    for (size_t split = 1; split < bytes.size(); ++split) {
        FrameDecoder dec;
        dec.feed(bytes.data(), split);
        Events ev = drain(dec);
        dec.feed(bytes.data() + split, bytes.size() - split);
        const Events rest = drain(dec);
        ev.frames.insert(ev.frames.end(), rest.frames.begin(),
                         rest.frames.end());
        ASSERT_EQ(ev.frames.size(), 2u) << "split at " << split;
        EXPECT_TRUE(ev.errors.empty() && rest.errors.empty());
        SubmitFrameReq out;
        ASSERT_TRUE(decodeSubmitFrame(ev.frames[1].payload, &out));
        EXPECT_EQ(out.session_id, 8u);
    }
}

TEST(WireTornDeliveryTest, ByteAtATimeAcrossGarbageAndResync)
{
    // garbage (with a fake partial magic) | good | garbage | good
    std::vector<uint8_t> bytes = {'N', 'E', 'x', 0x00, 0xFF};
    const std::vector<uint8_t> a = submitFrameBytes(1, 1);
    bytes.insert(bytes.end(), a.begin(), a.end());
    bytes.push_back('N'); // partial magic directly before real magic
    const std::vector<uint8_t> b = submitFrameBytes(2, 2);
    bytes.insert(bytes.end(), b.begin(), b.end());

    FrameDecoder dec;
    Events all;
    for (uint8_t byte : bytes) {
        dec.feed(&byte, 1);
        const Events ev = drain(dec);
        all.frames.insert(all.frames.end(), ev.frames.begin(),
                          ev.frames.end());
        all.errors.insert(all.errors.end(), ev.errors.begin(),
                          ev.errors.end());
    }
    ASSERT_EQ(all.frames.size(), 2u);
    SubmitFrameReq out;
    ASSERT_TRUE(decodeSubmitFrame(all.frames[1].payload, &out));
    EXPECT_EQ(out.session_id, 2u);
}

// --- Fuzz --------------------------------------------------------------

TEST(WireFuzzTest, RandomSplitsAndMutationsNeverBreakTheDecoder)
{
    Rng rng(2026);
    for (int round = 0; round < 400; ++round) {
        // A run of valid frames...
        std::vector<uint8_t> bytes;
        const int n = 1 + static_cast<int>(rng.next() % 4);
        for (int i = 0; i < n; ++i) {
            const uint64_t pick = rng.next() % 3;
            if (pick == 0) {
                bytes.insert(bytes.end(), 0, 0);
                OpenSessionReq req;
                req.trajectory_kind =
                    static_cast<uint8_t>(rng.next() % 3);
                req.speed = 1.0f;
                req.width = 256;
                req.height = 192;
                encodeOpenSession(bytes, req);
            } else if (pick == 1) {
                const auto f = submitFrameBytes(
                    static_cast<uint32_t>(rng.next()),
                    rng.next());
                bytes.insert(bytes.end(), f.begin(), f.end());
            } else {
                encodeEmpty(bytes, MsgType::Shutdown);
            }
        }
        // ...mutated: flip bytes, insert garbage, truncate.
        const int mutations = static_cast<int>(rng.next() % 6);
        for (int m = 0; m < mutations && !bytes.empty(); ++m) {
            const uint64_t op = rng.next() % 3;
            const size_t at = rng.next() % bytes.size();
            if (op == 0) {
                bytes[at] ^= static_cast<uint8_t>(1 + rng.next() % 255);
            } else if (op == 1) {
                bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                             static_cast<uint8_t>(rng.next()));
            } else {
                bytes.resize(at);
            }
        }

        // Feed in random-size chunks; the decoder must stay total.
        FrameDecoder dec(4096);
        size_t off = 0;
        uint64_t events = 0;
        while (off < bytes.size()) {
            const size_t chunk = std::min<size_t>(
                1 + rng.next() % 23, bytes.size() - off);
            dec.feed(bytes.data() + off, chunk);
            off += chunk;
            const Events ev = drain(dec);
            events += ev.frames.size() + ev.errors.size();
            for (const DecodedFrame &f : ev.frames) {
                // Whatever decodes must re-encode (the payload survived
                // CRC, so it is exactly what a peer sent).
                EXPECT_LE(f.payload.size(), 4096u);
            }
        }
        // Bounded buffering: at most one partial frame may be pending.
        EXPECT_LE(dec.pendingBytes(), kWireHeaderSize + 4096u);
        EXPECT_EQ(dec.framesDecoded() + dec.errorsEmitted(), events);
    }
}

TEST(WireFuzzTest, PureGarbageNeverDecodesAFrame)
{
    Rng rng(77);
    FrameDecoder dec(4096);
    for (int i = 0; i < 200; ++i) {
        uint8_t chunk[64];
        for (uint8_t &b : chunk)
            b = static_cast<uint8_t>(rng.next());
        dec.feed(chunk, sizeof(chunk));
        drain(dec);
    }
    // 12800 random bytes: odds of a valid frame (magic + version + crc)
    // are astronomically small — any decode here is a validation bug.
    EXPECT_EQ(dec.framesDecoded(), 0u);
    EXPECT_LE(dec.pendingBytes(), kWireHeaderSize + 4096u);
}

} // namespace
} // namespace neo::serve::net::test
