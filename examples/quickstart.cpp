/**
 * @file
 * Quickstart: build a synthetic Gaussian scene, render a few frames with
 * Neo's reuse-and-update renderer, and write the last frame to a PPM.
 *
 *   ./quickstart [output.ppm] [--threads N]
 *
 * N = 0 defers to NEO_THREADS (default serial); -1 uses every core. The
 * rendered frames are bit-identical for any thread count.
 */

#include <cstdio>
#include <cstring>

#include "common/parallel.h"
#include "core/neo_renderer.h"
#include "example_args.h"
#include "scene/synthetic.h"
#include "scene/trajectory.h"

using namespace neo;

namespace
{

constexpr const char *kUsage =
    "usage: quickstart [output.ppm] [--threads N]\n";

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = "quickstart.ppm";
    int threads = 0;
    const examples::ArgParser args{"quickstart", kUsage};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "error: --threads needs a value\n%s", kUsage);
                return 2;
            }
            threads = static_cast<int>(
                args.integer("--threads", argv[++i], -1, kMaxThreads));
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "error: unknown flag '%s'\n%s", argv[i],
                         kUsage);
            return 2;
        } else {
            out_path = argv[i];
        }
    }

    // 1. Make a scene. Real applications would load a trained 3DGS model;
    //    here we synthesize one (see scene/synthetic.h).
    SyntheticSceneParams params;
    params.count = 30000;
    params.clusters = 8;
    params.extent = 8.0f;
    params.seed = 2024;
    GaussianScene scene = generateScene(params);
    std::printf("scene: %zu gaussians, radius %.1f\n", scene.size(),
                scene.bounding_radius);

    // 2. Create the renderer. Defaults follow the paper's Table 1
    //    (64-px tiles, 8-px subtiles, 256-entry sorting chunks); the
    //    thread count drives every tile-parallel stage.
    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    opts.threads = threads;
    NeoRenderer renderer(opts);
    std::printf("threads: %d effective (requested %d, machine has %d)\n",
                resolveThreadCount(threads), threads,
                hardwareThreadCount());

    // 3. Orbit the scene and render. Frame 0 cold-starts with a full
    //    sort; every later frame reuses and updates the sorted tables.
    Trajectory orbit(TrajectoryKind::Orbit, scene);
    Resolution res{640, 384, "demo"};

    Image image;
    for (int frame = 0; frame < 5; ++frame) {
        Camera camera = orbit.cameraAt(frame, res);
        NeoFrameReport report;
        image = renderer.renderFrame(scene, camera, frame, &report);
        std::printf(
            "frame %d: %llu instances, %llu incoming, %llu outgoing, "
            "retention %.3f%s\n",
            frame,
            static_cast<unsigned long long>(report.frame.instances),
            static_cast<unsigned long long>(report.reuse.incoming),
            static_cast<unsigned long long>(report.reuse.outgoing_marked),
            report.reuse.mean_retention,
            report.reuse.cold_start ? " (cold start)" : "");
    }

    // 4. Save the last frame.
    image.clampChannels();
    if (!image.writePpm(out_path)) {
        std::fprintf(stderr, "error: could not write %s\n", out_path);
        return 1;
    }
    std::printf("wrote %s (%dx%d)\n", out_path, image.width(),
                image.height());
    return 0;
}
