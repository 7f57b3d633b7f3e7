/**
 * @file
 * Digest64 — a fast xxhash-style 64-bit streaming digest used by the
 * integrity fences (common/integrity.h) to cross-check control-critical
 * per-frame state against its shadow copy. Not cryptographic: the goal is
 * detecting random corruption (single-event upsets, stray writes), where
 * any single flipped bit must change the digest.
 *
 * The main accumulator is four independent lanes fed round-robin: each
 * 64-bit word gets one multiply-rotate round (as in xxhash), but
 * consecutive words land in different lanes, so the per-word dependency
 * chain is a quarter of the single-lane length and the fence cost over an
 * instance-sized array pipelines instead of serializing — this is what
 * keeps check-mode overhead inside its ≤10 % ms/frame budget. A separate
 * flag lane accumulates bools multiplicatively (base-3, so any flipped
 * flag in a sequence of up to 2^40 flags changes the lane value). Types
 * with padding bytes implement digestInto() over their semantic fields
 * only — hashing raw object bytes would fold uninitialized padding into
 * the digest and break determinism.
 */

#ifndef NEO_COMMON_DIGEST_H
#define NEO_COMMON_DIGEST_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace neo
{

/** Streaming 64-bit digest (see file comment). */
class Digest64
{
  public:
    explicit Digest64(uint64_t seed = 0)
    {
        lanes_[0] = seed + kPrime1 + kPrime2;
        lanes_[1] = seed + kPrime2;
        lanes_[2] = seed + kPrime5;
        lanes_[3] = seed - kPrime1;
    }

    /** Mix one 64-bit word into the next main lane (round-robin). */
    void u64v(uint64_t v)
    {
        uint64_t &h = lanes_[next_ & 3u];
        h = mix(h, v);
        ++next_;
    }

    void u32v(uint32_t v) { u64v(v); }
    void f32v(float v) { u64v(std::bit_cast<uint32_t>(v)); }

    /** Accumulate a bool into the flag lane (order-sensitive). */
    void flag(bool b) { flags_ = flags_ * 3 + (b ? 2 : 1); }

    /**
     * Mix a raw byte range, 8 bytes per main-lane round; a trailing
     * partial word is zero-extended into one more round. The value is
     * exactly that of feeding each word to u64v() in turn. The main loop
     * takes four words per iteration with the four lanes held in locals,
     * rotated so its first word lands in lane next_ & 3 as u64v would
     * put it: the four multiply chains then overlap instead of each
     * round waiting on a lane written back to memory.
     */
    void bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        const unsigned phase = next_ & 3u;
        uint64_t a = lanes_[phase];
        uint64_t b = lanes_[(phase + 1) & 3u];
        uint64_t c = lanes_[(phase + 2) & 3u];
        uint64_t d = lanes_[(phase + 3) & 3u];
        size_t i = 0;
        for (; i + 32 <= n; i += 32) {
            a = mix(a, load(p + i));
            b = mix(b, load(p + i + 8));
            c = mix(c, load(p + i + 16));
            d = mix(d, load(p + i + 24));
        }
        lanes_[phase] = a;
        lanes_[(phase + 1) & 3u] = b;
        lanes_[(phase + 2) & 3u] = c;
        lanes_[(phase + 3) & 3u] = d;
        next_ += i / 8;
        for (; i + 8 <= n; i += 8)
            u64v(load(p + i));
        if (i < n) {
            uint64_t tail = 0;
            for (int shift = 0; i < n; ++i, shift += 8)
                tail |= static_cast<uint64_t>(p[i]) << shift;
            u64v(tail);
        }
    }

    /** Finalize: avalanche every lane into one value. */
    uint64_t finish() const
    {
        // Word count folded in: lane assignment is positional, so two
        // streams whose words collapse to the same lane states but have
        // different lengths still digest apart.
        uint64_t h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                     std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18) +
                     next_;
        h ^= flags_ * kPrime2;
        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

    /** One main-lane round (xxhash-style multiply-rotate). */
    static uint64_t mix(uint64_t h, uint64_t v)
    {
        return std::rotl(h ^ (v * kPrime2), 27) * kPrime1 + kPrime4;
    }

    /** Host-order 8-byte load from an arbitrarily aligned address. */
    static uint64_t load(const unsigned char *p)
    {
        uint64_t v = 0;
        std::memcpy(&v, p, 8);
        return v;
    }

    uint64_t lanes_[4];
    uint64_t next_ = 0;
    uint64_t flags_ = 1;
};

/**
 * Opt-in marker: T's object bytes are a deterministic function of its
 * value even though `has_unique_object_representations` is false. The
 * trait is about equality (e.g. -0.0f == +0.0f with different bytes),
 * but the fences compare *bit patterns*, not values — a padding-free
 * float struct is a perfectly sound raw-byte digest input. Specialize to
 * std::true_type for such types (float itself is pre-registered).
 */
template <typename T>
struct DigestAsRawBytes : std::false_type
{
};

template <>
struct DigestAsRawBytes<float> : std::true_type
{
};

/**
 * Digest of @p n elements at @p data. Types that provide
 * `digestInto(Digest64&) const` are hashed field by field (required for
 * structs with padding, whose raw bytes are not deterministic); all other
 * types must have unique object representations (or opt in via
 * DigestAsRawBytes) and are hashed as raw bytes. The element count is
 * folded in, so a truncated span never collides with its prefix.
 */
template <typename T>
uint64_t
digestSpan(const T *data, size_t n)
{
    Digest64 d;
    d.u64v(static_cast<uint64_t>(n));
    if constexpr (requires(const T &t, Digest64 &dd) { t.digestInto(dd); }) {
        for (size_t i = 0; i < n; ++i)
            data[i].digestInto(d);
    } else {
        static_assert(std::has_unique_object_representations_v<T> ||
                          DigestAsRawBytes<T>::value,
                      "digestSpan over a padded type needs digestInto()");
        d.bytes(data, n * sizeof(T));
    }
    return d.finish();
}

} // namespace neo

#endif // NEO_COMMON_DIGEST_H
