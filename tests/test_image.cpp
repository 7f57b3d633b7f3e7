/**
 * @file
 * Unit tests for the float RGB framebuffer.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "common/image.h"

namespace neo
{
namespace
{

TEST(ImageTest, ConstructionAndFill)
{
    Image img(4, 3, {0.5f, 0.25f, 1.0f});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_FALSE(img.empty());
    EXPECT_FLOAT_EQ(img.at(2, 1).x, 0.5f);
    EXPECT_FLOAT_EQ(img.at(2, 1).y, 0.25f);
}

TEST(ImageTest, DefaultIsEmpty)
{
    Image img;
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.pixelCount(), 0u);
}

TEST(ImageTest, ClampChannels)
{
    Image img(2, 1);
    img.at(0, 0) = {-0.5f, 0.5f, 2.0f};
    img.clampChannels();
    EXPECT_FLOAT_EQ(img.at(0, 0).x, 0.0f);
    EXPECT_FLOAT_EQ(img.at(0, 0).y, 0.5f);
    EXPECT_FLOAT_EQ(img.at(0, 0).z, 1.0f);
}

TEST(ImageTest, MeanAbsoluteDifference)
{
    Image a(2, 2, {0.0f, 0.0f, 0.0f});
    Image b(2, 2, {0.3f, 0.3f, 0.3f});
    EXPECT_NEAR(Image::meanAbsoluteDifference(a, b), 0.3, 1e-6);
    EXPECT_DOUBLE_EQ(Image::meanAbsoluteDifference(a, a), 0.0);
}

TEST(ImageTest, Downsample2xAveragesQuads)
{
    Image img(4, 2);
    img.at(0, 0) = {1.0f, 0.0f, 0.0f};
    img.at(1, 0) = {0.0f, 1.0f, 0.0f};
    img.at(0, 1) = {0.0f, 0.0f, 1.0f};
    img.at(1, 1) = {1.0f, 1.0f, 1.0f};
    Image half = img.downsample2x();
    EXPECT_EQ(half.width(), 2);
    EXPECT_EQ(half.height(), 1);
    EXPECT_FLOAT_EQ(half.at(0, 0).x, 0.5f);
    EXPECT_FLOAT_EQ(half.at(0, 0).y, 0.5f);
    EXPECT_FLOAT_EQ(half.at(0, 0).z, 0.5f);
}

TEST(ImageTest, DownsampleTooSmallReturnsEmpty)
{
    Image img(1, 1);
    EXPECT_TRUE(img.downsample2x().empty());
}

TEST(ImageTest, LumaWeightsSumToOne)
{
    Image img(1, 1, {1.0f, 1.0f, 1.0f});
    auto luma = img.luma();
    ASSERT_EQ(luma.size(), 1u);
    EXPECT_NEAR(luma[0], 1.0f, 1e-5f);
}

TEST(ImageTest, LumaGreenDominates)
{
    Image g(1, 1, {0.0f, 1.0f, 0.0f});
    Image r(1, 1, {1.0f, 0.0f, 0.0f});
    EXPECT_GT(g.luma()[0], r.luma()[0]);
}

TEST(ImageTest, ContentHashSeesEveryBit)
{
    // 5x3 pixels are 180 bytes: Digest64's four-word loop runs five
    // times, then two single words and a 4-byte tail follow.
    Image img(5, 3);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 5; ++x)
            img.at(x, y) = {0.1f * static_cast<float>(x),
                            0.25f * static_cast<float>(y), 0.5f};
    const uint64_t clean = img.contentHash();

    unsigned char *raw =
        reinterpret_cast<unsigned char *>(img.pixels().data());
    const size_t n = img.pixelCount() * sizeof(Vec3);
    ASSERT_EQ(n, 180u);
    for (size_t byte = 0; byte < n; ++byte)
        for (int bit = 0; bit < 8; ++bit) {
            raw[byte] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_NE(img.contentHash(), clean)
                << "byte " << byte << " bit " << bit;
            raw[byte] ^= static_cast<unsigned char>(1u << bit);
        }

    // Equal images hash equally.
    EXPECT_EQ(img.contentHash(), clean);
    Image copy = img;
    EXPECT_EQ(copy.contentHash(), clean);

    // The shape is part of the definition: the same pixels read as 3x5.
    Image swapped(3, 5);
    swapped.pixels() = img.pixels();
    EXPECT_NE(swapped.contentHash(), clean);

    // Bit patterns, not values: -0.0f == +0.0f, yet they hash apart.
    Image pos(2, 2, {0.0f, 0.0f, 0.0f});
    Image neg(2, 2, {0.0f, -0.0f, 0.0f});
    EXPECT_NE(pos.contentHash(), neg.contentHash());
}

TEST(ImageTest, WritePpmProducesFile)
{
    Image img(8, 8, {1.0f, 0.5f, 0.0f});
    const char *path = "/tmp/neo_test_image.ppm";
    ASSERT_TRUE(img.writePpm(path));
    std::FILE *f = std::fopen(path, "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(magic[0], 'P');
    EXPECT_EQ(magic[1], '6');
    std::fclose(f);
    std::remove(path);
}

TEST(ImageTest, WritePpmFailsOnBadPath)
{
    Image img(2, 2);
    EXPECT_FALSE(img.writePpm("/nonexistent_dir_xyz/out.ppm"));
}

} // namespace
} // namespace neo
