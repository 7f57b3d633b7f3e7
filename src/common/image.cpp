#include "common/image.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/digest.h"

namespace neo
{

Image::Image(int width, int height, Vec3 fill)
    : width_(width), height_(height),
      data_(static_cast<size_t>(width) * height, fill)
{
}

void
Image::reset(int width, int height, Vec3 fill)
{
    width_ = width;
    height_ = height;
    data_.assign(static_cast<size_t>(width) * height, fill);
}

void
Image::clampChannels()
{
    for (auto &p : data_) {
        p.x = clamp(p.x, 0.0f, 1.0f);
        p.y = clamp(p.y, 0.0f, 1.0f);
        p.z = clamp(p.z, 0.0f, 1.0f);
    }
}

double
Image::meanAbsoluteDifference(const Image &a, const Image &b)
{
    if (a.width() != b.width() || a.height() != b.height() || a.empty())
        return 0.0;
    double acc = 0.0;
    for (size_t i = 0; i < a.data_.size(); ++i) {
        acc += std::fabs(a.data_[i].x - b.data_[i].x);
        acc += std::fabs(a.data_[i].y - b.data_[i].y);
        acc += std::fabs(a.data_[i].z - b.data_[i].z);
    }
    return acc / (3.0 * static_cast<double>(a.data_.size()));
}

Image
Image::downsample2x() const
{
    int w = width_ / 2;
    int h = height_ / 2;
    if (w == 0 || h == 0)
        return Image();
    Image out(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            Vec3 acc = at(2 * x, 2 * y);
            acc += at(2 * x + 1, 2 * y);
            acc += at(2 * x, 2 * y + 1);
            acc += at(2 * x + 1, 2 * y + 1);
            out.at(x, y) = acc * 0.25f;
        }
    }
    return out;
}

std::vector<float>
Image::luma() const
{
    std::vector<float> out(data_.size());
    for (size_t i = 0; i < data_.size(); ++i) {
        const Vec3 &p = data_[i];
        out[i] = 0.299f * p.x + 0.587f * p.y + 0.114f * p.z;
    }
    return out;
}

bool
Image::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    std::vector<unsigned char> row(static_cast<size_t>(width_) * 3);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            const Vec3 &p = at(x, y);
            row[3 * x + 0] =
                static_cast<unsigned char>(clamp(p.x, 0.0f, 1.0f) * 255.0f);
            row[3 * x + 1] =
                static_cast<unsigned char>(clamp(p.y, 0.0f, 1.0f) * 255.0f);
            row[3 * x + 2] =
                static_cast<unsigned char>(clamp(p.z, 0.0f, 1.0f) * 255.0f);
        }
        std::fwrite(row.data(), 1, row.size(), f);
    }
    std::fclose(f);
    return true;
}

uint64_t
Image::contentHash() const
{
    static_assert(sizeof(Vec3) == 12, "a pixel is three packed floats");
    Digest64 d;
    d.u32v(static_cast<uint32_t>(width_));
    d.u32v(static_cast<uint32_t>(height_));
    d.bytes(data_.data(), data_.size() * sizeof(Vec3));
    return d.finish();
}

} // namespace neo
