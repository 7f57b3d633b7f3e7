/**
 * @file
 * Little-endian byte codec shared by the three framed formats the server
 * speaks or keeps: the wire protocol (serve/net/wire.h), the snapshot
 * container (serve/durable/snapshot.h) and the request journal
 * (serve/durable/journal.h). Bytes from a socket and bytes from disk are
 * equally untrusted, so the reader is bounds-checked: an over-read is a
 * corruption signal, never a crash.
 *
 * All three formats end each record in the same CRC fence:
 *
 *   offset  size  field
 *   0       4     length   payload byte count
 *   4       4     crc32    IEEE CRC-32 over the payload bytes
 *   8       len   payload
 *
 * Each format writes its own prefix in front of the fence (a type, and
 * on the wire also magic and version). ByteWriter::fenced() and
 * ByteReader::fenced() are the only code that writes or checks a fence.
 */

#ifndef NEO_COMMON_CODEC_H
#define NEO_COMMON_CODEC_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace neo
{

/** IEEE CRC-32 (reflected, poly 0xEDB88320) of @p len bytes. */
uint32_t crc32(const void *data, size_t len);

/** The fence in front of every payload: u32 length + u32 crc32. */
inline constexpr size_t kFenceSize = 8;

/** Outcome of ByteReader::fenced(). */
enum class FenceStatus
{
    Ok,        //!< payload present and its CRC matches
    Short,     //!< the fence or its payload runs past the end of the input
    Oversized, //!< declared length above the caller's cap
    BadCrc,    //!< payload present, checksum failed
};

/** Little-endian writer appending to a byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }
    void u16(uint16_t v)
    {
        out_.push_back(static_cast<uint8_t>(v));
        out_.push_back(static_cast<uint8_t>(v >> 8));
    }
    void u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }
    void u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }
    void i8(int8_t v) { u8(static_cast<uint8_t>(v)); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }
    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /**
     * Append one fence and its payload: @p fill(*this) writes the payload
     * in place, then the length and CRC are filled in in front of it.
     */
    template <typename Fill>
    void fenced(Fill &&fill)
    {
        const size_t at = out_.size();
        out_.resize(at + kFenceSize);
        fill(*this);
        const size_t len = out_.size() - at - kFenceSize;
        const uint32_t crc = crc32(out_.data() + at + kFenceSize, len);
        for (int i = 0; i < 4; ++i) {
            out_[at + i] = static_cast<uint8_t>(len >> (8 * i));
            out_[at + 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
        }
    }

  private:
    std::vector<uint8_t> &out_;
};

/** Bounds-checked little-endian reader. ok() goes false on the first
    over-read and every later value reads as zero — callers check once. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t len) : data_(data), len_(len) {}

    bool ok() const { return ok_; }
    bool done() const { return ok_ && off_ == len_; }
    size_t offset() const { return off_; }

    uint8_t u8()
    {
        if (!take(1))
            return 0;
        return data_[off_++];
    }
    uint16_t u16()
    {
        if (!take(2))
            return 0;
        uint16_t v = static_cast<uint16_t>(
            data_[off_] | (static_cast<uint16_t>(data_[off_ + 1]) << 8));
        off_ += 2;
        return v;
    }
    uint32_t u32()
    {
        const uint32_t lo = u16();
        const uint32_t hi = u16();
        return lo | (hi << 16);
    }
    uint64_t u64()
    {
        const uint64_t lo = u32();
        const uint64_t hi = u32();
        return lo | (hi << 32);
    }
    int8_t i8() { return static_cast<int8_t>(u8()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    float f32()
    {
        const uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    double f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    bool boolean() { return u8() != 0; }

    /**
     * Read one fence and check its payload. On Ok, @p payload points at
     * the payload inside the input and the reader has moved past it. On
     * any other status the reader has not moved. @p len is the declared
     * length whenever the 8 fence bytes were there to read (0 otherwise),
     * so a caller that trusts its framing can skip a BadCrc record.
     */
    FenceStatus fenced(size_t max_len, const uint8_t **payload,
                       uint32_t *len);

  private:
    bool take(size_t n)
    {
        if (!ok_ || len_ - off_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const uint8_t *data_;
    size_t len_;
    size_t off_ = 0;
    bool ok_ = true;
};

} // namespace neo

#endif // NEO_COMMON_CODEC_H
