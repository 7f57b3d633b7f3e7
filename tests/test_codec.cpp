/**
 * @file
 * Shared byte codec (common/codec.h): the CRC-32 reference vector and
 * the {u32 length, u32 crc32, payload} fence that every wire frame,
 * snapshot section and journal record ends in. A torn fence or payload
 * reads Short, a declared length above the cap Oversized, a flipped
 * payload bit BadCrc with the declared length, and on every failure the
 * reader stays where it was.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"

namespace neo::test
{
namespace
{

/** One prefix byte (so "unmoved" means offset 1, not 0), then a fence
    around @p payload. */
std::vector<uint8_t>
prefixedFence(const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w.u8(0x5A);
    w.fenced([&](ByteWriter &p) {
        for (uint8_t b : payload)
            p.u8(b);
    });
    return out;
}

/** What one readFence() call saw. */
struct FenceRead
{
    FenceStatus status = FenceStatus::Ok;
    uint32_t len = 0;
    const uint8_t *payload = nullptr;
    size_t offset = 0; //!< reader offset after fenced()
};

/** Read the prefix byte of the first @p len bytes of @p data, then one
    fence capped at @p max_len. */
FenceRead
readFence(const uint8_t *data, size_t len, size_t max_len)
{
    ByteReader r(data, len);
    EXPECT_EQ(r.u8(), 0x5A);
    FenceRead out;
    out.status = r.fenced(max_len, &out.payload, &out.len);
    out.offset = r.offset();
    return out;
}

const std::vector<uint8_t> kPayload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};

TEST(WireCrcTest, MatchesIeeeReferenceVector)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(CodecFenceTest, WriterRoundTripsThroughReader)
{
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w.u8(7);
    w.fenced([](ByteWriter &p) {
        p.u32(0xDEADBEEFu);
        p.i8(-3);
        p.i64(-5);
        p.f64(2.5);
        p.boolean(true);
    });
    w.u16(0xBEEF);

    ByteReader r(out.data(), out.size());
    EXPECT_EQ(r.u8(), 7u);
    const uint8_t *payload = nullptr;
    uint32_t len = 0;
    ASSERT_EQ(r.fenced(64, &payload, &len), FenceStatus::Ok);
    EXPECT_EQ(len, 4u + 1u + 8u + 8u + 1u);
    EXPECT_EQ(payload, out.data() + 1 + kFenceSize);
    EXPECT_EQ(r.offset(), 1 + kFenceSize + len);

    // The fence is the length, then the CRC-32 of the payload.
    ByteReader fence(out.data() + 1, kFenceSize);
    EXPECT_EQ(fence.u32(), len);
    EXPECT_EQ(fence.u32(), crc32(payload, len));

    ByteReader p(payload, len);
    EXPECT_EQ(p.u32(), 0xDEADBEEFu);
    EXPECT_EQ(p.i8(), -3);
    EXPECT_EQ(p.i64(), -5);
    EXPECT_EQ(p.f64(), 2.5);
    EXPECT_TRUE(p.boolean());
    EXPECT_TRUE(p.done());

    EXPECT_EQ(r.u16(), 0xBEEFu);
    EXPECT_TRUE(r.done());
}

TEST(CodecFenceTest, ZeroLengthPayloadIsOk)
{
    const std::vector<uint8_t> bytes = prefixedFence({});
    ASSERT_EQ(bytes.size(), 1 + kFenceSize);
    const FenceRead f = readFence(bytes.data(), bytes.size(), 0);
    EXPECT_EQ(f.status, FenceStatus::Ok);
    EXPECT_EQ(f.len, 0u);
    EXPECT_EQ(f.offset, bytes.size());
}

TEST(CodecFenceTest, TornFenceOrPayloadIsShortAndUnmoved)
{
    const std::vector<uint8_t> bytes = prefixedFence(kPayload);
    // Every cut from 0 fence bytes up to one payload byte short.
    for (size_t cut = 1; cut < bytes.size(); ++cut) {
        const FenceRead f = readFence(bytes.data(), cut, 1024);
        EXPECT_EQ(f.status, FenceStatus::Short) << "cut at " << cut;
        EXPECT_EQ(f.offset, 1u) << "cut at " << cut;
        EXPECT_EQ(f.len, cut < 1 + kFenceSize ? 0u : kPayload.size())
            << "cut at " << cut;
    }
}

TEST(CodecFenceTest, LengthAboveTheCapIsOversizedAndUnmoved)
{
    const std::vector<uint8_t> bytes = prefixedFence(kPayload);
    const size_t cap = kPayload.size();

    EXPECT_EQ(readFence(bytes.data(), bytes.size(), cap).status,
              FenceStatus::Ok);

    const FenceRead over = readFence(bytes.data(), bytes.size(), cap - 1);
    EXPECT_EQ(over.status, FenceStatus::Oversized);
    EXPECT_EQ(over.len, kPayload.size());
    EXPECT_EQ(over.offset, 1u);

    // The cap is checked before the payload has to arrive, so a stream
    // decoder never buffers toward a hostile length.
    const FenceRead torn = readFence(bytes.data(), 1 + kFenceSize, cap - 1);
    EXPECT_EQ(torn.status, FenceStatus::Oversized);
    EXPECT_EQ(torn.offset, 1u);
}

TEST(CodecFenceTest, FlippedPayloadBitIsBadCrcWithDeclaredLength)
{
    const std::vector<uint8_t> bytes = prefixedFence(kPayload);
    for (size_t i = 1 + kFenceSize; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> m = bytes;
            m[i] ^= static_cast<uint8_t>(1u << bit);
            const FenceRead f = readFence(m.data(), m.size(), 1024);
            EXPECT_EQ(f.status, FenceStatus::BadCrc)
                << "byte " << i << " bit " << bit;
            EXPECT_EQ(f.len, kPayload.size());
            EXPECT_EQ(f.offset, 1u);
        }
    }
}

} // namespace
} // namespace neo::test
