/**
 * @file
 * Shared plumbing for the paper-reproduction benches: cached workload
 * access, the scene roster, and fixed-width table printing that mirrors
 * the rows/series of the paper's figures.
 */

#ifndef NEO_BENCH_BENCH_COMMON_H
#define NEO_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "scene/datasets.h"
#include "sim/perf_harness.h"
#include "sim/workload_cache.h"

namespace neo::bench
{

/** The six main-evaluation scenes. */
inline std::vector<std::string>
mainScenes()
{
    return {"Family", "Francis", "Horse", "Lighthouse", "Playground",
            "Train"};
}

/** The three evaluation resolutions. */
inline std::vector<Resolution>
mainResolutions()
{
    return {kResHD, kResFHD, kResQHD};
}

/**
 * Cached workload sequence for a scene at a resolution and tile geometry.
 * Scene scale and frame count respect NEO_SCENE_SCALE / NEO_BENCH_FRAMES.
 */
inline std::vector<FrameWorkload>
sequence(const std::string &scene, Resolution res, int tile_px,
         int default_frames = 8, float speed = 1.0f)
{
    WorkloadKey key;
    key.scene = scene;
    key.scene_scale = benchSceneScale();
    key.res = res;
    key.tile_px = tile_px;
    key.frames = benchFrameCount(default_frames);
    key.speed = speed;
    return cachedWorkloads(key, defaultCacheDir());
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_ref,
       const char *expectation)
{
    std::printf("==============================================================================\n");
    std::printf("%s  (%s)\n", experiment, paper_ref);
    std::printf("  paper: %s\n", expectation);
    std::printf("  scene scale %.2f, %d frames/sequence (override: "
                "NEO_SCENE_SCALE / NEO_BENCH_FRAMES)\n",
                benchSceneScale(), benchFrameCount(8));
    std::printf("==============================================================================\n");
}

/** Simple aligned cell printers. */
inline void
cell(const char *s)
{
    std::printf("%-12s", s);
}

inline void
cellf(double v, const char *fmt = "%-12.1f")
{
    std::printf(fmt, v);
}

inline void
endRow()
{
    std::printf("\n");
}

/**
 * Full-string integer in [1, @p hi] for command-line @p flag. Anything
 * else ("5x", "", "0") prints the reason and @p usage and exits 2: a
 * bench must not run on the numeric prefix of a mistyped value.
 */
inline long
parsePositiveArg(const char *flag, const std::string &text, long hi,
                 const char *usage)
{
    long v = 0;
    if (!env::parseLong(text.c_str(), &v) || v < 1 || v > hi) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [1, %ld]\n%s",
                     flag, text.c_str(), hi, usage);
        std::exit(2);
    }
    return v;
}

/** Comma-separated list of parsePositiveArg values ("1,2,4"). */
inline std::vector<int>
parsePositiveList(const char *flag, const std::string &list, long hi,
                  const char *usage)
{
    std::vector<int> out;
    for (size_t begin = 0;;) {
        const size_t comma = list.find(',', begin);
        out.push_back(static_cast<int>(parsePositiveArg(
            flag, list.substr(begin, comma - begin), hi, usage)));
        if (comma == std::string::npos)
            return out;
        begin = comma + 1;
    }
}

/** Geometric/arithmetic mean helper for the MEAN column. */
inline double
meanOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace neo::bench

#endif // NEO_BENCH_BENCH_COMMON_H
