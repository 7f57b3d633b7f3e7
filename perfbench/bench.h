/**
 * @file
 * Shared pieces of the served-path benchmark: the workload table, the
 * seeded generator that turns (workload, seed, seconds) into everything
 * the program receives — trajectories, frame indices and send times —
 * the server/scene construction both runs share, the bench-owned solo
 * reference, and the small statistics helpers.
 */

#ifndef NEO_PERFBENCH_BENCH_H
#define NEO_PERFBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scene/trajectory.h"
#include "serve/durable/durable.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench
{

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run reports: the JSON result line plus human-only lines. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The metrics of the JSON result line (BENCHMARK.json names). */
    std::vector<Metric> metrics;
    /** Printed by name and unit, but not in the result line (see
        printed_only in perfbench/layers.json). */
    std::vector<Metric> extra;
};

/** A camera-stream workload (see workloads() in bench.cpp). */
struct Workload
{
    const char *name = "";
    size_t gaussians = 0;
    neo::TrajectoryKind kind = neo::TrajectoryKind::Orbit;
    std::vector<float> speeds; //!< one client per entry
    bool open_loop = false;
    double rate_hz = 0.0;  //!< per client, open loop only
    double slo_ms = 0.0;   //!< latency limit, 0 = none
    int server_threads = 0; //!< 0 = one per hardware thread
    bool durable = false;
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

/** One client's generated inputs. */
struct ClientPlan
{
    neo::TrajectoryKind kind = neo::TrajectoryKind::Orbit;
    float speed = 1.0f;
    /** Trajectory frame of the session's cold-start request; the stream
        continues at start_frame + 1, + 2, ... */
    uint64_t start_frame = 0;
    /** Open loop: send offset of request k is phase_s + k / rate_hz. */
    double phase_s = 0.0;
};

/** Everything the seed decides. */
struct Plan
{
    std::vector<ClientPlan> clients;
};

Plan makePlan(const Workload &w, uint64_t seed);

/** Open loop: when client @p c's request @p k is due in a window that
    starts at @p start. */
inline Clock::time_point
dueTime(const Workload &w, const ClientPlan &c, uint64_t k,
        Clock::time_point start)
{
    return addSeconds(start, c.phase_s + static_cast<double>(k) / w.rate_hz);
}

/** Fixed benchmark resolution (the 640x384 scene family). */
neo::Resolution benchResolution();

/** The workload's scene; the same for every seed. */
std::shared_ptr<const neo::GaussianScene> makeScene(const Workload &w);

/** Threads the workload's server renders with. */
int serverThreads(const Workload &w);

neo::serve::ServerConfig serverConfig(const Workload &w, int threads);

neo::serve::durable::DurableConfig durableConfig(const std::string &dir);

/** Trajectory a client's session walks (the front end builds the same
    one from the scene bounds on OpenSession). */
neo::Trajectory clientTrajectory(const neo::GaussianScene &scene,
                                 const ClientPlan &c);

/** Directory for run artifacts (traces, durable state) under the build
    tree; created on demand. */
void setArtifactDir(const std::string &dir);
std::string artifactDir();

/** Remove a durable state directory and its files. */
void removeStateDir(const std::string &dir);

/** Fresh, empty state directory under artifactDir(). */
std::string freshStateDir(const std::string &tag);

/** What a bench-owned solo NeoRenderer produced walking frames
    [first, first + count) of a trajectory at one thread per hardware
    thread: the reference every delivered hash is checked against. */
struct SoloReference
{
    std::vector<uint64_t> hashes;
    std::vector<neo::NeoFrameReport> reports;
    /** PSNR (dB) of sampled reuse-path frames against a reset() +
        render of the same camera. */
    std::vector<double> psnr_db;
};

/** @param psnr_every sample every Nth frame after the first (0 = none)
    @param keep_reports keep each frame's NeoFrameReport */
SoloReference renderSolo(const neo::GaussianScene &scene,
                         const neo::Trajectory &traj, uint64_t first,
                         size_t count, int psnr_every, bool keep_reports);

// --- Statistics ----------------------------------------------------------

double median(std::vector<double> v);
/** Linear-interpolated percentile, q in [0, 100]. */
double percentile(std::vector<double> v, double q);

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();
/** Peak resident set size so far, MiB. */
double peakRssMb();

/** Machine-wide CPU time from /proc/stat (clock ticks): all of it, and
    the part a hypervisor ran something else on our CPUs. Zeros where
    the file is unavailable. */
struct CpuTicks
{
    double total = 0.0;
    double steal = 0.0;
};
CpuTicks machineCpuTicks();

// --- Runs ----------------------------------------------------------------

struct RunArgs
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    /** Setups measured for setup_s (median reported). */
    int setups = 7;
    /** Stamped into the trace file. */
    std::string machine_json;
};

/** Untraced run over the wire: every end-to-end metric. */
RunResult runServed(const RunArgs &args);

/** Traced in-process replay of the same schedule: every per-layer
    metric. */
RunResult runTraced(const RunArgs &args);

} // namespace perfbench

#endif // NEO_PERFBENCH_BENCH_H
