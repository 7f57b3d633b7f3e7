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
 * --threads -1..256); anything else prints the usage line and exits 2.
 */

#include <cstddef>
#include <cstdio>
#include <string>

#include "common/logging.h"
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
    std::string res = "qhd";
    int frames = 8;
    float speed = 1.0f;
    double bandwidth = 51.2;
    double scale = 1.0;
    int threads = 0;
};

Resolution
parseRes(const std::string &r)
{
    if (r == "hd")
        return kResHD;
    if (r == "fhd")
        return kResFHD;
    if (r == "qhd")
        return kResQHD;
    fatal("unknown resolution '%s' (hd|fhd|qhd)", r.c_str());
}

Args
parse(int argc, char **argv)
{
    Args a;
    const examples::ArgParser num{"neo_sim_cli", kUsage};
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--scene")
            a.scene = v;
        else if (k == "--system")
            a.system = v;
        else if (k == "--res")
            a.res = v;
        else if (k == "--frames")
            a.frames = static_cast<int>(num.integer("--frames", v, 1, 100000));
        else if (k == "--speed")
            a.speed = static_cast<float>(num.real("--speed", v, 1e-9, 64.0));
        else if (k == "--bandwidth")
            a.bandwidth = num.real("--bandwidth", v, 1e-9, 1e6);
        else if (k == "--scale")
            a.scale = num.real("--scale", v, 1e-9, 4.0);
        else if (k == "--threads")
            a.threads =
                static_cast<int>(num.integer("--threads", v, -1, kMaxThreads));
        else
            fatal("unknown flag '%s'", k.c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    Resolution res = parseRes(args.res);
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
    } else if (args.system == "neo") {
        NeoConfig cfg;
        cfg.dram.bandwidth_gbps = args.bandwidth;
        result = simulateNeo(NeoModel(cfg), seq);
    } else {
        fatal("unknown system '%s' (orin|gscore|neo)",
              args.system.c_str());
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
