#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <sys/resource.h>

#include "common/parallel.h"
#include "core/neo_renderer.h"
#include "metrics/psnr.h"
#include "scene/synthetic.h"

namespace perfbench
{

using namespace neo;

const std::vector<Workload> &
workloads()
{
    // Rationale per workload lives in BENCHMARK.json ("why") and
    // perfbench/layers.json.
    static const std::vector<Workload> table = [] {
        std::vector<Workload> t;

        Workload orbit;
        orbit.name = "orbit-steady";
        orbit.gaussians = 30000;
        orbit.kind = TrajectoryKind::Orbit;
        orbit.speeds = {1.0f};
        t.push_back(orbit);

        Workload dolly;
        dolly.name = "dense-dolly";
        dolly.gaussians = 120000;
        dolly.kind = TrajectoryKind::Dolly;
        dolly.speeds = {8.0f};
        t.push_back(dolly);

        Workload fleet;
        fleet.name = "fleet-durable";
        fleet.gaussians = 30000;
        fleet.kind = TrajectoryKind::Orbit;
        fleet.speeds = {1.0f, 1.25f, 1.5f, 1.75f};
        fleet.open_loop = true;
        fleet.rate_hz = 3.0;
        fleet.slo_ms = 100.0;
        fleet.server_threads = 1;
        fleet.durable = true;
        t.push_back(fleet);
        return t;
    }();
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

namespace
{

/** splitmix64: a fixed, portable stream (std distributions are not). */
uint64_t
mix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1). */
double
unit(uint64_t &state)
{
    return static_cast<double>(mix(state) >> 11) * 0x1.0p-53;
}

/** Scene seed of the repository's serving benches. */
constexpr uint64_t kSceneSeed = 2026;

} // namespace

Plan
makePlan(const Workload &w, uint64_t seed)
{
    uint64_t state = seed;
    Plan p;
    // Clients start in evenly spaced arcs of the orbit (one orbit at
    // speed 1 is ~1029 frames) and send in evenly spaced slots of the
    // period, both at a seeded offset, with +-10% seeded jitter on the
    // send slot. Fully random draws would let one seed put every client
    // on the same costly view, or make two clients collide every period.
    const double n = static_cast<double>(w.speeds.size());
    const double view_offset = unit(state);
    const double slot_offset = unit(state);
    for (size_t i = 0; i < w.speeds.size(); ++i) {
        const double k = static_cast<double>(i);
        ClientPlan c;
        c.kind = w.kind;
        c.speed = w.speeds[i];
        c.start_frame = static_cast<uint64_t>((k + view_offset) / n * 1024.0);
        const double slot = (k + slot_offset + 0.2 * (unit(state) - 0.5)) / n;
        c.phase_s = w.open_loop ? (slot - std::floor(slot)) / w.rate_hz : 0.0;
        p.clients.push_back(c);
    }
    return p;
}

Resolution
benchResolution()
{
    return Resolution{640, 384, "perfbench"};
}

std::shared_ptr<const GaussianScene>
makeScene(const Workload &w)
{
    SyntheticSceneParams params;
    params.count = w.gaussians;
    params.clusters = 8;
    params.extent = 8.0f;
    // The scene is the same for every seed: on this scene family the
    // scene seed alone moved fps by ~14% (interquartile range over five
    // seeds), which would swamp any change worth measuring.
    params.seed = kSceneSeed;
    params.name = "perfbench";
    return std::make_shared<const GaussianScene>(generateScene(params));
}

int
serverThreads(const Workload &w)
{
    return w.server_threads > 0 ? w.server_threads : hardwareThreadCount();
}

serve::ServerConfig
serverConfig(const Workload &w, int threads)
{
    serve::ServerConfig cfg;
    cfg.max_sessions = w.speeds.size() + 1;
    cfg.pipeline = NeoRenderer::neoDefaultOptions();
    cfg.pipeline.threads = threads;
    cfg.pipeline.integrity = IntegrityMode::Off;
    // Throughput under a shared machine: a descheduled stage is not a
    // wedged one, and a watchdog trip would cold-rebuild the session and
    // change its hashes. Park the floor far above any frame time.
    cfg.watchdog_floor_ms = 10000.0;
    return cfg;
}

serve::durable::DurableConfig
durableConfig(const std::string &dir)
{
    serve::durable::DurableConfig d;
    d.state_dir = dir;
    d.keep_generations = 3;
    d.checkpoint_every = 32;
    d.sync_every = 1;
    return d;
}

Trajectory
clientTrajectory(const GaussianScene &scene, const ClientPlan &c)
{
    return Trajectory(c.kind, scene, c.speed);
}

namespace
{
std::string g_artifact_dir = ".bench_build/perfbench-runs";
}

void
setArtifactDir(const std::string &dir)
{
    g_artifact_dir = dir;
}

std::string
artifactDir()
{
    std::filesystem::create_directories(g_artifact_dir);
    return g_artifact_dir;
}

void
removeStateDir(const std::string &dir)
{
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

std::string
freshStateDir(const std::string &tag)
{
    const std::string dir = artifactDir() + "/state-" + tag;
    removeStateDir(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SoloReference
renderSolo(const GaussianScene &scene, const Trajectory &traj,
           uint64_t first, size_t count, int psnr_every, bool keep_reports)
{
    PipelineOptions opts = NeoRenderer::neoDefaultOptions();
    opts.threads = hardwareThreadCount();
    opts.integrity = IntegrityMode::Off;
    NeoRenderer solo(opts);
    NeoRenderer cold(opts);
    const Resolution res = benchResolution();

    SoloReference ref;
    Image image;
    Image cold_image;
    NeoFrameReport report;
    for (size_t i = 0; i < count; ++i) {
        const uint64_t frame = first + i;
        const Camera cam = traj.cameraAt(static_cast<int>(frame), res);
        solo.renderFrameInto(image, scene, cam, frame,
                             keep_reports ? &report : nullptr);
        ref.hashes.push_back(image.contentHash());
        if (keep_reports)
            ref.reports.push_back(report);
        if (psnr_every > 0 && i > 0 && i % psnr_every == 0) {
            // A cold render has no history: reset() + render is the
            // full re-sort of this camera.
            cold.reset();
            cold.renderFrameInto(cold_image, scene, cam, frame);
            ref.psnr_db.push_back(psnr(cold_image, image));
        }
    }
    return ref;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

CpuTicks
machineCpuTicks()
{
    CpuTicks t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return t;
    // "cpu user nice system idle iowait irq softirq steal ..."
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (double x : v)
            t.total += x;
        t.steal = v[7];
    }
    std::fclose(f);
    return t;
}

} // namespace perfbench
