/**
 * @file
 * Served-path benchmark entry point (normally launched through
 * perfbench/run.py, which builds it first):
 *
 *   neo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--setups K] [--artifacts DIR] [--commit SHA]
 *                 [--source DIGEST]
 *
 * --trace 0 runs the untraced wire benchmark and reports the end-to-end
 * metrics; --trace 1 runs the traced in-process replay and reports the
 * per-layer metrics. Human-readable lines come first ("metric NAME VALUE
 * UNIT" for every metric, including the ones only printed); the last
 * stdout line is the JSON result. Exits 1 when any delivered frame
 * differs from the solo reference, 2 on bad arguments.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/parallel.h"

#ifndef NEO_PERFBENCH_BUILD_TYPE
#define NEO_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "neo_perfbench: %s\nusage: neo_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--setups K] "
                 "[--artifacts DIR] [--commit SHA] [--source DIGEST]\n",
                 why);
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !(v >= lo && v <= hi)) {
        std::fprintf(stderr, "neo_perfbench: bad value '%s' for %s\n", text,
                     flag);
        usage("invalid argument");
    }
    return v;
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    const char *workload = nullptr;
    bool have_seed = false, have_seconds = false, have_trace = false;
    bool trace = false;
    std::string commit = "none";
    std::string source = "none";
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            args.seed = static_cast<uint64_t>(
                parseNumber(flag, value, 0.0, 9007199254740992.0));
            have_seed = true;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            args.seconds = parseNumber(flag, value, 0.05, 600.0);
            have_seconds = true;
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = parseNumber(flag, value, 0.0, 1.0) != 0.0;
            have_trace = true;
        } else if (std::strcmp(flag, "--setups") == 0) {
            args.setups = static_cast<int>(parseNumber(flag, value, 1, 16));
        } else if (std::strcmp(flag, "--artifacts") == 0) {
            setArtifactDir(value);
        } else if (std::strcmp(flag, "--commit") == 0) {
            commit = value;
        } else if (std::strcmp(flag, "--source") == 0) {
            source = value;
        } else {
            usage("unknown flag");
        }
    }
    if (!workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    args.workload = findWorkload(workload);
    if (!args.workload)
        usage("unknown workload (orbit-steady, dense-dolly, fleet-durable)");

    const Workload &w = *args.workload;
    args.machine_json =
        std::string("{\"nproc\": ") + std::to_string(neo::hardwareThreadCount()) +
        ", \"compiler\": \"" + compilerName() + "\", \"build_type\": \"" +
        NEO_PERFBENCH_BUILD_TYPE + "\", \"commit\": \"" + commit +
        "\", \"source\": \"" + source + "\", \"workload\": \"" + w.name +
        "\", \"seed\": " + std::to_string(args.seed) + "}";
    std::printf("machine: %s\n", args.machine_json.c_str());

    const Plan plan = makePlan(w, args.seed);
    std::printf("workload: %s seed=%llu seconds=%g trace=%d gaussians=%zu "
                "loop=%s server_threads=%d durable=%s\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.seconds, trace ? 1 : 0, w.gaussians,
                w.open_loop ? "open" : "closed", serverThreads(w),
                w.durable ? "yes" : "no");
    for (size_t i = 0; i < plan.clients.size(); ++i) {
        std::printf("client %zu: speed=%g start_frame=%llu phase_s=%.4f\n", i,
                    plan.clients[i].speed,
                    static_cast<unsigned long long>(plan.clients[i].start_frame),
                    plan.clients[i].phase_s);
    }
    std::fflush(stdout);

    const RunResult r = trace ? runTraced(args) : runServed(args);

    for (const Metric &m : r.metrics)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
    for (const Metric &m : r.extra)
        std::printf("metric %s %s %s (printed only)\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());

    std::string json = std::string("{\"correct\": ") +
                       (r.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
