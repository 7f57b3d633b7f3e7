/**
 * @file
 * Thread-scaling bench — the repo's perf trajectory entry point.
 *
 * Renders a synthetic-scene orbit through the served frame loop
 * (NeoRenderer::renderFrameInto: 64-px tiles, delta tracker,
 * reuse-and-update sorter) at 1/2/4/8 worker threads. Frame 0 is an
 * untimed cold start; every timed frame reports its per-stage breakdown
 * — bin / tracker / sort / raster ms per frame, plus the per-frame
 * Image::contentHash the serving layer computes — so eliminating a
 * serial stage is visible in the stage column, not just the total. The
 * hashes of every timed frame are checked across all points: a mismatch
 * means the determinism contract of common/parallel.h is broken and the
 * run fails. Each point also reports the last timed frame's exact work —
 * instances, intersection tests, blend ops, sort entries read and
 * written — which must equal at every thread count too: a change in work
 * shows there with zero noise, where the timings drift.
 *
 *   ./bench_scaling [--json out.json] [--gaussians N] [--frames N]
 *                   [--threads-list 1,2,4,8] [--pr N]
 *                   [--raster-mode blocked|reference|both] [--fast-exp]
 *                   [--integrity off|check|recover]
 *
 * Numeric values must be whole positive integers; anything else prints
 * the usage line and exits 2.
 * --raster-mode selects the blend implementation (subtile-blocked
 * kernel, default, or the scalar reference); "both" runs the sweep twice
 * and prints an A/B column with the reference raster_ms next to the
 * blocked one, failing if the two paths disagree on a single frame bit
 * or raster counter. --fast-exp enables the deterministic polynomial exp
 * (RasterConfig::fast_exp) for the sweep. With --json the results are
 * written machine-readable (BENCH_PR<n>.json schema) for CI artifact
 * upload, trend tracking, and the regression gate (bench/diff_bench.sh);
 * the JSON records the pipeline, raster kernel variant and fast_exp
 * mode, so every trajectory point is self-describing about what exactly
 * it measured.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "core/neo_renderer.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"
#include "sim/perf_harness.h"

using namespace neo;

namespace
{

/** The "pipeline" field of the JSON: what the sweep times. */
constexpr const char *kPipeline = "neo-reuse-staged";

struct Args
{
    std::string json_path;
    size_t gaussians = 30000;
    int frames = 5;
    int pr = 5;
    bool fast_exp = false;
    std::string raster_mode = "blocked";
    std::string integrity = "off";
    std::vector<int> threads = {1, 2, 4, 8};
};

constexpr const char *kUsage =
    "usage: bench_scaling [--json out.json] [--gaussians N] [--frames N] "
    "[--threads-list 1,2,4,8] [--pr N] "
    "[--raster-mode blocked|reference|both] [--fast-exp] "
    "[--integrity off|check|recover]\n";

Args
parse(int argc, char **argv)
{
    using bench::parsePositiveArg;
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        auto value = [&] {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "flag '%s' needs a value\n%s", flag,
                             kUsage);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(flag, "--fast-exp") == 0)
            a.fast_exp = true;
        else if (std::strcmp(flag, "--json") == 0)
            a.json_path = value();
        else if (std::strcmp(flag, "--gaussians") == 0)
            a.gaussians = static_cast<size_t>(
                parsePositiveArg(flag, value(), 1L << 30, kUsage));
        else if (std::strcmp(flag, "--frames") == 0)
            a.frames = static_cast<int>(
                parsePositiveArg(flag, value(), 1 << 20, kUsage));
        else if (std::strcmp(flag, "--threads-list") == 0)
            a.threads =
                bench::parsePositiveList(flag, value(), kMaxThreads, kUsage);
        else if (std::strcmp(flag, "--pr") == 0)
            a.pr = static_cast<int>(
                parsePositiveArg(flag, value(), 1 << 20, kUsage));
        else if (std::strcmp(flag, "--raster-mode") == 0)
            a.raster_mode = value();
        else if (std::strcmp(flag, "--integrity") == 0)
            a.integrity = value();
        else {
            std::fprintf(stderr, "unknown flag '%s'\n%s", flag, kUsage);
            std::exit(2);
        }
    }
    if (a.raster_mode != "blocked" && a.raster_mode != "reference" &&
        a.raster_mode != "both") {
        std::fprintf(stderr,
                     "--raster-mode must be blocked, reference or both\n");
        std::exit(2);
    }
    if (a.integrity != "off" && a.integrity != "check" &&
        a.integrity != "recover") {
        std::fprintf(stderr,
                     "--integrity must be off, check or recover\n");
        std::exit(2);
    }
    return a;
}

/** The last timed frame's exact work counters, as printed and written. */
struct WorkCounts
{
    unsigned long long instances;
    unsigned long long intersection_tests;
    unsigned long long blend_ops;
    unsigned long long entries_read;
    unsigned long long entries_written;

    bool operator==(const WorkCounts &) const = default;
};

WorkCounts
workCounts(const ThreadScalingPoint &p)
{
    return {p.last_frame.instances, p.last_frame.raster.intersection_tests,
            p.last_frame.raster.blend_ops, p.last_sort.entries_read,
            p.last_sort.entries_written};
}

bool
writeJson(const std::string &path, const Args &args, Resolution res,
          const std::vector<ThreadScalingPoint> &points,
          const std::vector<ThreadScalingPoint> *reference_points,
          bool deterministic)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double best = 0.0;
    for (const auto &p : points)
        best = p.speedup > best ? p.speedup : best;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"scaling\",\n");
    std::fprintf(f, "  \"pr\": %d,\n", args.pr);
    std::fprintf(f, "  \"pipeline\": \"%s\",\n", kPipeline);
    std::fprintf(f, "  \"raster_mode\": \"%s\",\n",
                 args.raster_mode.c_str());
    std::fprintf(f, "  \"raster_kernel\": \"%s\",\n",
                 kRasterKernelVariant);
    std::fprintf(f, "  \"fast_exp\": %s,\n",
                 args.fast_exp ? "true" : "false");
    std::fprintf(f, "  \"integrity_mode\": \"%s\",\n",
                 args.integrity.c_str());
    std::fprintf(f, "  \"scene\": \"synthetic-orbit\",\n");
    std::fprintf(f, "  \"gaussians\": %zu,\n", args.gaussians);
    std::fprintf(f, "  \"resolution\": \"%dx%d\",\n", res.width,
                 res.height);
    std::fprintf(f, "  \"frames\": %d,\n", args.frames);
    std::fprintf(f, "  \"machine_cores\": %d,\n", hardwareThreadCount());
    std::fprintf(f, "  \"deterministic_across_threads\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const ThreadScalingPoint &p = points[i];
        const WorkCounts c = workCounts(p);
        std::fprintf(f,
                     "    {\"threads\": %d, \"ms_per_frame\": %.3f, "
                     "\"speedup\": %.3f, "
                     "\"stages\": {\"bin_ms\": %.3f, "
                     "\"tracker_ms\": %.3f, \"sort_ms\": %.3f, "
                     "\"raster_ms\": %.3f, \"hash_ms\": %.3f}, "
                     "\"counts\": {\"instances\": %llu, "
                     "\"intersection_tests\": %llu, \"blend_ops\": %llu, "
                     "\"entries_read\": %llu, \"entries_written\": %llu}",
                     p.threads, p.ms_per_frame, p.speedup, p.stages.bin_ms,
                     p.stages.tracker_ms, p.stages.sort_ms,
                     p.stages.raster_ms, p.hash_ms, c.instances,
                     c.intersection_tests, c.blend_ops, c.entries_read,
                     c.entries_written);
        if (reference_points && i < reference_points->size())
            std::fprintf(f, ", \"raster_ms_reference\": %.3f",
                         (*reference_points)[i].stages.raster_ms);
        std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"max_speedup\": %.3f\n", best);
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
}

/** A/B contract: identical frames and identical raster counters. */
bool
abPointsMatch(const ThreadScalingPoint &blocked,
              const ThreadScalingPoint &reference)
{
    const RasterStats &b = blocked.last_frame.raster;
    const RasterStats &r = reference.last_frame.raster;
    return blocked.frame_hashes == reference.frame_hashes &&
           b.gaussians_in == r.gaussians_in &&
           b.intersection_tests == r.intersection_tests &&
           b.gaussians_blended == r.gaussians_blended &&
           b.blend_ops == r.blend_ops &&
           b.pixels_terminated == r.pixels_terminated;
}

/** The last timed frame's hash (every point times at least one). */
unsigned long long
lastHash(const ThreadScalingPoint &p)
{
    return p.frame_hashes.back();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);

    bench::banner("Thread scaling of the served frame loop",
                  "perf trajectory",
                  "near-linear scaling of the tile-parallel stages; "
                  "bit-identical frames at every thread count");

    SyntheticSceneParams params;
    params.count = args.gaussians;
    params.clusters = 8;
    params.extent = 8.0f;
    params.seed = 2026;
    params.name = "scaling";
    GaussianScene scene = generateScene(params);
    Trajectory orbit(TrajectoryKind::Orbit, scene);
    const Resolution res{640, 384, "bench"};

    std::printf("scene: %zu gaussians, %d frames @ %dx%d, machine has %d "
                "hardware thread(s), raster mode %s, fast_exp %s, "
                "integrity %s\n\n",
                scene.size(), args.frames, res.width, res.height,
                hardwareThreadCount(), args.raster_mode.c_str(),
                args.fast_exp ? "on" : "off", args.integrity.c_str());

    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    opts.raster.reference_path = (args.raster_mode == "reference");
    opts.raster.fast_exp = args.fast_exp;
    opts.integrity = args.integrity == "check"
                         ? IntegrityMode::Check
                         : (args.integrity == "recover"
                                ? IntegrityMode::Recover
                                : IntegrityMode::Off);
    std::vector<ThreadScalingPoint> points = sweepRenderThreadsStaged(
        scene, orbit, res, args.frames, args.threads, opts);

    // A/B: same sweep through the scalar reference rasterizer.
    std::vector<ThreadScalingPoint> reference_points;
    bool ab_ok = true;
    if (args.raster_mode == "both") {
        PipelineOptions ref_opts = opts;
        ref_opts.raster.reference_path = true;
        reference_points = sweepRenderThreadsStaged(
            scene, orbit, res, args.frames, args.threads, ref_opts);
        for (size_t i = 0; i < points.size(); ++i)
            ab_ok = ab_ok && abPointsMatch(points[i], reference_points[i]);
    }

    bool deterministic = true;
    for (const auto &p : points)
        deterministic = deterministic &&
                        p.frame_hashes == points.front().frame_hashes &&
                        workCounts(p) == workCounts(points.front());

    if (args.raster_mode == "both") {
        std::printf("%-10s %-12s %-12s %-12s %-10s %s\n", "threads",
                    "ms/frame", "raster(blk)", "raster(ref)", "ref/blk",
                    "last hash");
        for (size_t i = 0; i < points.size(); ++i) {
            const auto &p = points[i];
            const double ref_ms = reference_points[i].stages.raster_ms;
            std::printf("%-10d %-12.2f %-12.2f %-12.2f %-10.2f %016llx\n",
                        p.threads, p.ms_per_frame, p.stages.raster_ms,
                        ref_ms,
                        p.stages.raster_ms > 0.0
                            ? ref_ms / p.stages.raster_ms
                            : 0.0,
                        lastHash(p));
        }
        std::printf("\nblocked vs reference: %s\n",
                    ab_ok ? "OK (bit-identical frames and counters)"
                          : "FAILED");
    } else {
        std::printf("%-10s %-10s %-8s %-8s %-8s %-8s %-8s %-8s %s\n",
                    "threads", "ms/frame", "bin", "tracker", "sort",
                    "raster", "hash", "speedup", "last hash");
        for (const auto &p : points)
            std::printf("%-10d %-10.2f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f "
                        "%-8.2f %016llx\n",
                        p.threads, p.ms_per_frame, p.stages.bin_ms,
                        p.stages.tracker_ms, p.stages.sort_ms,
                        p.stages.raster_ms, p.hash_ms, p.speedup,
                        lastHash(p));
    }
    std::printf("\nlast timed frame's exact work:\n%-10s %-12s %-14s %-12s "
                "%-14s %s\n",
                "threads", "instances", "itu_tests", "blend_ops",
                "entries_read", "entries_written");
    for (const auto &p : points) {
        const WorkCounts c = workCounts(p);
        std::printf("%-10d %-12llu %-14llu %-12llu %-14llu %llu\n",
                    p.threads, c.instances, c.intersection_tests,
                    c.blend_ops, c.entries_read, c.entries_written);
    }
    std::printf("\ndeterminism across thread counts: %s\n",
                deterministic ? "OK (every timed frame bit-identical, "
                                "equal work counts)"
                              : "FAILED");

    if (!args.json_path.empty()) {
        if (!writeJson(args.json_path, args, res, points,
                       reference_points.empty() ? nullptr
                                                : &reference_points,
                       deterministic)) {
            std::fprintf(stderr, "error: could not write %s\n",
                         args.json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", args.json_path.c_str());
    }
    return deterministic && ab_ok ? 0 : 1;
}
