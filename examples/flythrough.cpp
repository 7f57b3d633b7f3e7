/**
 * @file
 * Scene fly-through: renders a camera path through a large synthetic
 * scene with Neo's reuse-and-update sorting and dumps numbered PPM frames
 * plus a per-frame reuse log. This is the "walkthrough of a generated
 * world" scenario from the paper's introduction.
 *
 *   ./flythrough [frames] [output_prefix]
 */

#include <cstdio>

#include "core/neo_renderer.h"
#include "example_args.h"
#include "metrics/psnr.h"
#include "scene/datasets.h"
#include "scene/trajectory.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const examples::ArgParser args{
        "flythrough", "usage: flythrough [frames] [output_prefix]\n"};
    const int frames =
        argc > 1 ? static_cast<int>(args.integer("frames", argv[1], 1,
                                                 100000))
                 : 8;
    const char *prefix = argc > 2 ? argv[2] : "flythrough";

    // A scaled-down "Lighthouse" so the functional renderer stays
    // interactive on a CPU; bump the scale for higher fidelity.
    ScenePreset preset = presetByName("Lighthouse");
    GaussianScene scene = buildScene(preset, 0.05);
    Trajectory path(TrajectoryKind::Walk, scene);
    Resolution res{512, 320, "demo"};

    PipelineOptions opts;
    opts.tile_px = 64;
    NeoRenderer neo(opts);
    Renderer reference(opts);

    std::printf("%-6s %-10s %-10s %-10s %-12s %-10s\n", "frame",
                "instances", "incoming", "outgoing", "retention",
                "PSNR(ref)");
    for (int f = 0; f < frames; ++f) {
        Camera cam = path.cameraAt(f, res);
        NeoFrameReport report;
        Image img = neo.renderFrame(scene, cam, f, &report);

        // Reference check against the exact per-frame sort.
        Image ref = reference.render(scene, cam);
        double quality = psnr(ref, img);

        std::printf("%-6d %-10llu %-10llu %-10llu %-12.3f %-10.1f\n", f,
                    static_cast<unsigned long long>(report.frame.instances),
                    static_cast<unsigned long long>(report.reuse.incoming),
                    static_cast<unsigned long long>(
                        report.reuse.outgoing_marked),
                    report.reuse.mean_retention, quality);

        char path_buf[256];
        std::snprintf(path_buf, sizeof(path_buf), "%s_%03d.ppm", prefix, f);
        img.clampChannels();
        img.writePpm(path_buf);
    }
    std::printf("wrote %d frames to %s_NNN.ppm\n", frames, prefix);
    return 0;
}
