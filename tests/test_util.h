/**
 * @file
 * Shared helpers for the test suite: tiny deterministic scenes, random
 * tile tables, convenience cameras, and hex spelling for format pins.
 */

#ifndef NEO_TESTS_TEST_UTIL_H
#define NEO_TESTS_TEST_UTIL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gs/camera.h"
#include "gs/gaussian.h"
#include "gs/sh.h"
#include "gs/tiling.h"
#include "scene/synthetic.h"

namespace neo::test
{

/**
 * Wall-clock dilation factor for the socket front end's timeouts in
 * tests (idle, read-progress and drain deadlines). Sanitizer
 * instrumentation slows every frame by an order of magnitude, so a
 * timeout that cleanly separates a healthy connection from a stalled
 * one in a plain build collapses under TSAN — scale the timeouts by
 * this factor instead of loosening the plain-build values.
 */
inline constexpr double
sanitizerTimeScale()
{
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    return 10.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    return 10.0;
#else
    return 1.0;
#endif
#else
    return 1.0;
#endif
}

/** Small resolution used by functional tests (fast, tile-aligned). */
inline Resolution
smallRes()
{
    return {256, 192, "small"};
}

/** Camera at +z distance looking at the origin. */
inline Camera
frontCamera(float distance = 5.0f, Resolution res = smallRes())
{
    Camera cam(res, deg2rad(50.0f));
    cam.lookAt({0.0f, 0.0f, -distance}, {0.0f, 0.0f, 0.0f});
    return cam;
}

/** One Gaussian with a flat color at @p pos. */
inline Gaussian
makeGaussian(Vec3 pos, float scale = 0.1f, float opacity = 0.8f,
             Vec3 color = {1.0f, 0.0f, 0.0f})
{
    Gaussian g;
    g.position = pos;
    g.scale = {scale, scale, scale};
    g.opacity = opacity;
    setShFromColor(g, color);
    return g;
}

/** Scene with @p n Gaussians in a blob in front of the camera. */
inline GaussianScene
blobScene(size_t n, uint64_t seed = 7)
{
    Rng rng(seed);
    GaussianScene scene;
    scene.name = "blob";
    for (size_t i = 0; i < n; ++i) {
        Vec3 pos{rng.uniform(-1.5f, 1.5f), rng.uniform(-1.0f, 1.0f),
                 rng.uniform(-1.0f, 1.0f)};
        Vec3 color{rng.uniform(0.1f, 1.0f), rng.uniform(0.1f, 1.0f),
                   rng.uniform(0.1f, 1.0f)};
        scene.gaussians.push_back(
            makeGaussian(pos, rng.uniform(0.03f, 0.15f),
                         rng.uniform(0.3f, 0.9f), color));
    }
    recomputeBounds(scene);
    return scene;
}

/** A small standard synthetic scene for integration-style tests. */
inline GaussianScene
tinySyntheticScene(size_t count = 4000, uint64_t seed = 42)
{
    SyntheticSceneParams p;
    p.seed = seed;
    p.count = count;
    p.extent = 6.0f;
    p.clusters = 5;
    p.name = "tiny";
    return generateScene(p);
}

/** Random tile table with @p n entries, depths in [0, 100). */
inline std::vector<TileEntry>
randomTable(size_t n, uint64_t seed = 11)
{
    Rng rng(seed);
    std::vector<TileEntry> t;
    t.reserve(n);
    for (size_t i = 0; i < n; ++i)
        t.push_back({static_cast<GaussianId>(i),
                     rng.uniform(0.0f, 100.0f), true});
    return t;
}

/** True when @p t is sorted by entryDepthLess. */
inline bool
isSorted(const std::vector<TileEntry> &t)
{
    for (size_t i = 0; i + 1 < t.size(); ++i)
        if (entryDepthLess(t[i + 1], t[i]))
            return false;
    return true;
}

/** Nearly sorted table: sorted, then each entry perturbed in depth. */
inline std::vector<TileEntry>
nearlySortedTable(size_t n, float jitter, uint64_t seed = 13)
{
    auto t = randomTable(n, seed);
    std::sort(t.begin(), t.end(), entryDepthLess);
    Rng rng(seed + 1);
    for (auto &e : t)
        e.depth += rng.uniform(-jitter, jitter);
    return t;
}

/** Lower-case hex of @p len bytes, the spelling of the format pins. */
inline std::string
hexBytes(const uint8_t *data, size_t len)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string s;
    for (size_t i = 0; i < len; ++i) {
        s += kDigits[data[i] >> 4];
        s += kDigits[data[i] & 0xF];
    }
    return s;
}

} // namespace neo::test

#endif // NEO_TESTS_TEST_UTIL_H
