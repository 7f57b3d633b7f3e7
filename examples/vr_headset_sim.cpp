/**
 * @file
 * VR-headset sizing study: given a target per-eye resolution and memory
 * budget, how do the three systems (Orin-class GPU, GSCore, Neo) fare
 * against the 60/90 FPS service-level objectives the AR/VR platforms in
 * §2.1 demand?
 *
 *   ./vr_headset_sim [scene] [scale]
 *
 * This is the workload the paper's introduction motivates: per-eye QHD at
 * headset refresh rates on an edge-device memory system.
 */

#include <cstdio>
#include <string>

#include "example_args.h"
#include "sim/gpu_model.h"
#include "sim/gscore_model.h"
#include "sim/neo_model.h"
#include "sim/perf_harness.h"
#include "sim/workload_cache.h"

using namespace neo;

namespace
{

void
report(const char *system, const SequenceResult &r)
{
    double fps = r.meanFps();
    std::printf("  %-10s %7.1f FPS  %6.2f ms/frame  %6.2f GB/60f   "
                "60FPS:%-4s 90FPS:%s\n",
                system, fps, r.meanLatencyMs(), r.trafficGBPer60Frames(),
                fps >= 60.0 ? "yes" : "no", fps >= 90.0 ? "yes" : "no");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scene = argc > 1 ? argv[1] : "Playground";
    const examples::ArgParser args{
        "vr_headset_sim", "usage: vr_headset_sim [scene] [scale]\n"};
    // Scale multiplies the Gaussian count: strictly positive, and no
    // larger than NEO_SCENE_SCALE allows.
    double scale =
        argc > 2 ? args.real("scale", argv[2], 1e-9, 4.0) : 0.25;
    const int frames = 6;

    std::printf("VR headset sizing: scene %s (scale %.2f), per-eye "
                "resolutions, 51.2 GB/s edge memory\n\n",
                scene.c_str(), scale);

    GpuModel orin;
    GscoreModel gscore;
    NeoModel neo;

    for (Resolution res : {kResHD, kResFHD, kResQHD}) {
        std::printf("%s per eye (%dx%d)\n", res.name, res.width,
                    res.height);

        WorkloadKey k16{scene, scale, res, 16, frames, 1.0f};
        WorkloadKey k64{scene, scale, res, 64, frames, 1.0f};
        auto seq16 = cachedWorkloads(k16, defaultCacheDir());
        auto seq64 = cachedWorkloads(k64, defaultCacheDir());

        report("Orin AGX", simulateGpu(orin, seq16));
        report("GSCore", simulateGscore(gscore, seq16));
        report("Neo", simulateNeo(neo, seq64));
        std::printf("\n");
    }

    std::printf("(stereo rendering doubles the per-frame work: halve the "
                "FPS columns for a two-eye budget)\n");
    return 0;
}
