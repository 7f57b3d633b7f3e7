/**
 * @file
 * Unit tests for 3DGS PLY import/export.
 */

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <unistd.h>

#include <gtest/gtest.h>

#include "scene/ply_io.h"
#include "test_util.h"

namespace neo
{
namespace
{

TEST(PlyIoTest, OpacityLogitRoundTrip)
{
    for (float o : {0.02f, 0.3f, 0.5f, 0.9f, 0.98f})
        EXPECT_NEAR(logitToOpacity(opacityToLogit(o)), o, 1e-5f);
}

TEST(PlyIoTest, LogitClampsExtremes)
{
    EXPECT_TRUE(std::isfinite(opacityToLogit(0.0f)));
    EXPECT_TRUE(std::isfinite(opacityToLogit(1.0f)));
    EXPECT_NEAR(logitToOpacity(0.0f), 0.5f, 1e-6f);
}

TEST(PlyIoTest, SaveLoadRoundTrip)
{
    GaussianScene scene = test::blobScene(200, 9);
    scene.name = "roundtrip";
    const char *path = "/tmp/neo_test_scene.ply";
    ASSERT_TRUE(savePly(scene, path));

    GaussianScene loaded;
    ASSERT_TRUE(loadPly(loaded, path));
    ASSERT_EQ(loaded.size(), scene.size());
    for (size_t i = 0; i < scene.size(); ++i) {
        const Gaussian &a = scene[i];
        const Gaussian &b = loaded[i];
        EXPECT_NEAR(a.position.x, b.position.x, 1e-5f);
        EXPECT_NEAR(a.position.y, b.position.y, 1e-5f);
        EXPECT_NEAR(a.position.z, b.position.z, 1e-5f);
        EXPECT_NEAR(a.opacity, b.opacity, 1e-4f);
        EXPECT_NEAR(a.scale.x, b.scale.x, 1e-4f * a.scale.x + 1e-6f);
        EXPECT_NEAR(a.scale.y, b.scale.y, 1e-4f * a.scale.y + 1e-6f);
        for (int c = 0; c < 3; ++c)
            for (int k = 0; k < kShCoeffsPerChannel; ++k)
                EXPECT_NEAR(a.sh[c][k], b.sh[c][k], 1e-5f)
                    << "gaussian " << i << " sh[" << c << "][" << k << "]";
        // Quaternions may flip sign but should represent the rotation.
        float dot = a.rotation.w * b.rotation.w +
                    a.rotation.x * b.rotation.x +
                    a.rotation.y * b.rotation.y +
                    a.rotation.z * b.rotation.z;
        EXPECT_NEAR(std::fabs(dot), 1.0f, 1e-4f);
    }
    EXPECT_GT(loaded.bounding_radius, 0.0f);
    std::remove(path);
}

TEST(PlyIoTest, MissingFileFails)
{
    GaussianScene scene;
    EXPECT_FALSE(loadPly(scene, "/tmp/neo_no_such_scene.ply"));
    EXPECT_TRUE(scene.empty());
}

TEST(PlyIoTest, AsciiPlyRejected)
{
    const char *path = "/tmp/neo_test_ascii.ply";
    std::FILE *f = std::fopen(path, "wb");
    std::fputs("ply\nformat ascii 1.0\nelement vertex 1\n"
               "property float x\nend_header\n1.0\n",
               f);
    std::fclose(f);
    GaussianScene scene;
    EXPECT_FALSE(loadPly(scene, path));
    std::remove(path);
}

TEST(PlyIoTest, TruncatedBodyFails)
{
    GaussianScene scene = test::blobScene(50, 3);
    const char *path = "/tmp/neo_test_trunc.ply";
    ASSERT_TRUE(savePly(scene, path));
    // Chop the file.
    std::FILE *f = std::fopen(path, "rb");
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path, size - 64), 0);
    GaussianScene loaded;
    EXPECT_FALSE(loadPly(loaded, path));
    EXPECT_TRUE(loaded.empty());
    std::remove(path);
}

TEST(PlyIoTest, LowerShDegreeFileLoads)
{
    // A file with fewer f_rest coefficients (degree-1 SH: 3 per channel)
    // must load, zero-filling the missing band-2 coefficients.
    const char *path = "/tmp/neo_test_deg1.ply";
    std::FILE *f = std::fopen(path, "wb");
    std::fprintf(f, "ply\nformat binary_little_endian 1.0\n"
                    "element vertex 1\n");
    const char *props[] = {"x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2"};
    for (const char *p : props)
        std::fprintf(f, "property float %s\n", p);
    for (int i = 0; i < 9; ++i)
        std::fprintf(f, "property float f_rest_%d\n", i);
    std::fprintf(f, "property float opacity\n");
    for (int i = 0; i < 3; ++i)
        std::fprintf(f, "property float scale_%d\n", i);
    for (int i = 0; i < 4; ++i)
        std::fprintf(f, "property float rot_%d\n", i);
    std::fprintf(f, "end_header\n");
    float rec[23] = {};
    rec[0] = 1.0f; // x
    rec[3] = 0.7f; // f_dc_0
    rec[6] = 0.11f; // f_rest_0 (channel 0, band-1 coeff 0)
    rec[15] = 0.0f; // opacity logit -> 0.5
    rec[16] = std::log(0.2f);
    rec[17] = std::log(0.2f);
    rec[18] = std::log(0.2f);
    rec[19] = 1.0f; // rot w
    std::fwrite(rec, sizeof(float), 23, f);
    std::fclose(f);

    GaussianScene scene;
    ASSERT_TRUE(loadPly(scene, path));
    ASSERT_EQ(scene.size(), 1u);
    EXPECT_FLOAT_EQ(scene[0].position.x, 1.0f);
    EXPECT_FLOAT_EQ(scene[0].sh[0][0], 0.7f);
    EXPECT_FLOAT_EQ(scene[0].sh[0][1], 0.11f);
    for (int k = 4; k < kShCoeffsPerChannel; ++k)
        EXPECT_FLOAT_EQ(scene[0].sh[0][k], 0.0f);
    EXPECT_NEAR(scene[0].opacity, 0.5f, 1e-5f);
    EXPECT_NEAR(scene[0].scale.x, 0.2f, 1e-5f);
    std::remove(path);
}

TEST(PlyIoTest, RenderedSceneSurvivesRoundTrip)
{
    // The loaded scene must render identically (projection inputs match).
    GaussianScene scene = test::blobScene(100, 21);
    const char *path = "/tmp/neo_test_render.ply";
    ASSERT_TRUE(savePly(scene, path));
    GaussianScene loaded;
    ASSERT_TRUE(loadPly(loaded, path));

    Camera cam = test::frontCamera(5.0f);
    BinnedFrame a = binFrame(scene, cam, 16);
    BinnedFrame b = binFrame(loaded, cam, 16);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.visible_count, b.visible_count);
    std::remove(path);
}

} // namespace
} // namespace neo
