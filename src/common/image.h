/**
 * @file
 * Float RGB framebuffer used by the functional renderer and the quality
 * metrics (PSNR / SSIM / LPIPS-proxy). Values are linear [0, 1] RGB.
 */

#ifndef NEO_COMMON_IMAGE_H
#define NEO_COMMON_IMAGE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"

namespace neo
{

/** Dense row-major RGB image with float channels. */
class Image
{
  public:
    Image() = default;

    /** Allocate a @p width x @p height image cleared to @p fill. */
    Image(int width, int height, Vec3 fill = {0.0f, 0.0f, 0.0f});

    /**
     * Re-initialize to @p width x @p height with every pixel set to
     * @p fill, reusing the existing allocation when it is large enough
     * (the steady-state frame loop re-renders into one Image without
     * per-frame heap churn).
     */
    void reset(int width, int height, Vec3 fill = {0.0f, 0.0f, 0.0f});

    int width() const { return width_; }
    int height() const { return height_; }
    size_t pixelCount() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    const Vec3 &at(int x, int y) const { return data_[index(x, y)]; }
    Vec3 &at(int x, int y) { return data_[index(x, y)]; }

    const std::vector<Vec3> &pixels() const { return data_; }
    std::vector<Vec3> &pixels() { return data_; }

    /** Clamp every channel into [0, 1]. */
    void clampChannels();

    /** Per-pixel mean of |a - b| over all channels. */
    static double meanAbsoluteDifference(const Image &a, const Image &b);

    /**
     * Downsample by 2x with a box filter; odd trailing rows/columns are
     * dropped. Used by the multi-scale perceptual metric.
     */
    Image downsample2x() const;

    /** Luma (Rec. 601) plane of the image. */
    std::vector<float> luma() const;

    /**
     * Write a binary PPM (P6, 8-bit) for eyeballing outputs.
     * @return true on success.
     */
    bool writePpm(const std::string &path) const;

    /**
     * Digest64 (common/digest.h) over the width, the height and the raw
     * bit pattern of every pixel channel in row-major order. THE
     * definition of "bit-identical frames": the served frame hash, the
     * attest cross-render, the determinism tests and the benches all
     * compare this value. Any change confined to one 8-byte word of that
     * stream changes the hash, so any single flipped bit does, and so
     * does -0.0f versus +0.0f; other collisions are possible and do not
     * matter.
     */
    uint64_t contentHash() const;

  private:
    size_t index(int x, int y) const
    {
        return static_cast<size_t>(y) * width_ + x;
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<Vec3> data_;
};

} // namespace neo

#endif // NEO_COMMON_IMAGE_H
