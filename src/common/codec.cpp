#include "common/codec.h"

#include <array>

namespace neo
{

uint32_t
crc32(const void *data, size_t len)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

FenceStatus
ByteReader::fenced(size_t max_len, const uint8_t **payload, uint32_t *len)
{
    *len = 0;
    if (!ok_ || len_ - off_ < kFenceSize)
        return FenceStatus::Short;
    ByteReader fence(data_ + off_, kFenceSize);
    *len = fence.u32();
    const uint32_t crc = fence.u32();
    if (*len > max_len)
        return FenceStatus::Oversized;
    if (len_ - off_ - kFenceSize < *len)
        return FenceStatus::Short;
    const uint8_t *p = data_ + off_ + kFenceSize;
    if (crc32(p, *len) != crc)
        return FenceStatus::BadCrc;
    *payload = p;
    off_ += kFenceSize + *len;
    return FenceStatus::Ok;
}

} // namespace neo
