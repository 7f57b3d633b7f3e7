/**
 * @file
 * Command-line simulator front end — the "run your own experiment" entry
 * point a downstream user would reach for:
 *
 *   ./neo_sim_cli --scene Train --system neo --res qhd \
 *                 --frames 8 --speed 2 --bandwidth 51.2 --scale 1.0 \
 *                 --threads 8
 *
 * Prints per-frame latency/traffic and the sequence summary for one of
 * the three modeled systems (orin | gscore | neo). --threads N drives the
 * functional workload extraction on a cache miss (0 = NEO_THREADS env,
 * -1 = all cores); extracted workloads are bit-identical for any value.
 *
 * Numeric flags must be whole numbers in range (--frames 1..100000,
 * --speed (0, 64], --bandwidth (0, 1e6] GB/s, --scale (0, 4],
 * --threads -1..256), and --system and --res must name a listed choice;
 * anything else, an unknown flag, or a flag given without its value
 * prints the usage line and exits 2 before any work (no extraction, no
 * cache file).
 */

#include <cstddef>
#include <cstdio>
#include <string>

#include "common/parallel.h"
#include "example_args.h"
#include "sim/gpu_model.h"
#include "sim/gscore_model.h"
#include "sim/neo_model.h"
#include "sim/perf_harness.h"
#include "sim/workload_cache.h"

using namespace neo;

namespace
{

constexpr const char *kUsage =
    "usage: neo_sim_cli [--scene NAME] [--system orin|gscore|neo] "
    "[--res hd|fhd|qhd] [--frames N] [--speed X] [--bandwidth GBPS] "
    "[--scale X] [--threads N]\n";

struct Args
{
    std::string scene = "Family";
    std::string system = "neo";
    Resolution res = kResQHD;
    int frames = 8;
    float speed = 1.0f;
    double bandwidth = 51.2;
    double scale = 1.0;
    int threads = 0;
};

Args
parse(int argc, char **argv)
{
    Args a;
    const examples::ArgParser num{"neo_sim_cli", kUsage};
    for (int i = 1; i < argc; i += 2) {
        const std::string k = argv[i];
        const auto value = [&] {
            if (i + 1 == argc)
                num.reject("missing value for flag", argv[i]);
            return argv[i + 1];
        };
        if (k == "--scene")
            a.scene = value();
        else if (k == "--system") {
            a.system = value();
            if (a.system != "orin" && a.system != "gscore" &&
                a.system != "neo")
                num.reject("--system is not orin|gscore|neo:",
                           a.system.c_str());
        } else if (k == "--res") {
            const std::string r = value();
            if (r == "hd")
                a.res = kResHD;
            else if (r == "fhd")
                a.res = kResFHD;
            else if (r == "qhd")
                a.res = kResQHD;
            else
                num.reject("--res is not hd|fhd|qhd:", r.c_str());
        } else if (k == "--frames")
            a.frames = static_cast<int>(
                num.integer("--frames", value(), 1, 100000));
        else if (k == "--speed")
            a.speed =
                static_cast<float>(num.real("--speed", value(), 1e-9, 64.0));
        else if (k == "--bandwidth")
            a.bandwidth = num.real("--bandwidth", value(), 1e-9, 1e6);
        else if (k == "--scale")
            a.scale = num.real("--scale", value(), 1e-9, 4.0);
        else if (k == "--threads")
            a.threads = static_cast<int>(
                num.integer("--threads", value(), -1, kMaxThreads));
        else
            num.reject("unknown flag", argv[i]);
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const Resolution res = args.res;
    const int tile_px = args.system == "neo" ? 64 : 16;

    WorkloadKey key{args.scene, args.scale, res, tile_px, args.frames,
                    args.speed};
    std::printf("threads: %d effective (requested %d, machine has %d)\n",
                resolveThreadCount(args.threads), args.threads,
                hardwareThreadCount());
    auto seq = cachedWorkloads(key, defaultCacheDir(), args.threads);

    SequenceResult result;
    if (args.system == "orin") {
        GpuConfig cfg;
        cfg.dram.bandwidth_gbps = args.bandwidth;
        result = simulateGpu(GpuModel(cfg), seq);
    } else if (args.system == "gscore") {
        GscoreConfig cfg;
        cfg.dram.bandwidth_gbps = args.bandwidth;
        result = simulateGscore(GscoreModel(cfg), seq);
    } else { // "neo"; parse() refused every other name
        NeoConfig cfg;
        cfg.dram.bandwidth_gbps = args.bandwidth;
        result = simulateNeo(NeoModel(cfg), seq);
    }

    std::printf("%s on %s @ %s, %.1f GB/s, speed x%.1f, scale %.2f\n",
                args.system.c_str(), args.scene.c_str(), res.name,
                args.bandwidth, static_cast<double>(args.speed),
                args.scale);
    std::printf("%-7s %-12s %-12s %-10s %-10s %-10s\n", "frame",
                "latency(ms)", "traffic(MB)", "FE%", "sort%", "raster%");
    for (size_t f = 0; f < result.frames.size(); ++f) {
        const FrameSim &s = result.frames[f];
        std::printf("%-7zu %-12.2f %-12.1f %-10.1f %-10.1f %-10.1f\n", f,
                    s.latencyMs(), s.traffic.total() / 1e6,
                    100.0 * s.traffic.fraction(Stage::FeatureExtraction),
                    100.0 * s.traffic.fraction(Stage::Sorting),
                    100.0 * s.traffic.fraction(Stage::Rasterization));
    }
    std::printf("\nsummary: %.1f FPS mean, %.2f ms worst frame, %.2f GB "
                "per 60 frames\n",
                result.meanFps(), result.maxLatencyMs(),
                result.trafficGBPer60Frames());
    return 0;
}
