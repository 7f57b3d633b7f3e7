#include "common/integrity.h"

#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"

namespace neo
{

IntegrityMode
parseIntegrityMode(const char *value)
{
    if (!value || value[0] == '\0' || std::strcmp(value, "off") == 0)
        return IntegrityMode::Off;
    if (std::strcmp(value, "check") == 0)
        return IntegrityMode::Check;
    if (std::strcmp(value, "recover") == 0)
        return IntegrityMode::Recover;
    if (std::strcmp(value, "attest") == 0)
        return IntegrityMode::Attest;
    return IntegrityMode::Unset;
}

IntegrityMode
integrityModeFromEnv()
{
    // Validated choice parse through common/env: an unrecognized value
    // warns once (re-armed by env::resetWarnings() for tests) and keeps
    // integrity off rather than silently doing nothing.
    static const char *const kModes[] = {"off", "check", "recover",
                                         "attest"};
    switch (env::envChoice("NEO_INTEGRITY", kModes, 4, 0)) {
    case 1:
        return IntegrityMode::Check;
    case 2:
        return IntegrityMode::Recover;
    case 3:
        return IntegrityMode::Attest;
    default:
        return IntegrityMode::Off;
    }
}

int
integrityAttestPeriodFromEnv()
{
    // Warn-once validated parse shared with every other NEO_* knob.
    return static_cast<int>(
        env::envLong("NEO_INTEGRITY_ATTEST_PERIOD", 4, 1, 1000000));
}

IntegrityMode
resolveIntegrityMode(IntegrityMode requested)
{
    if (requested == IntegrityMode::Unset)
        return integrityModeFromEnv();
    return requested;
}

const char *
integrityModeName(IntegrityMode mode)
{
    switch (mode) {
    case IntegrityMode::Unset:
        return "unset";
    case IntegrityMode::Off:
        return "off";
    case IntegrityMode::Check:
        return "check";
    case IntegrityMode::Recover:
        return "recover";
    case IntegrityMode::Attest:
        return "attest";
    }
    return "off";
}

const char *
integrityStageName(IntegrityStage stage)
{
    switch (stage) {
    case IntegrityStage::Projection:
        return "projection";
    case IntegrityStage::Binning:
        return "binning";
    case IntegrityStage::Sorting:
        return "sorting";
    case IntegrityStage::Tracking:
        return "tracking";
    case IntegrityStage::Raster:
        return "raster";
    case IntegrityStage::Attestation:
        return "attestation";
    }
    return "unknown";
}

void
IntegrityContext::setFaultHandler(FaultHandler handler)
{
    std::lock_guard<std::mutex> lock(fault_mutex_);
    handler_ = std::move(handler);
}

void
IntegrityContext::beginFrame(uint64_t frame_index)
{
    if (!enabled())
        return;
    frame_index_ = frame_index;
    checks_.store(0, std::memory_order_relaxed);
    frame_recovered_ = false;
    std::lock_guard<std::mutex> lock(fault_mutex_);
    faults_.clear();
}

void
IntegrityContext::recordFault(IntegrityStage stage, const char *structure,
                              int tile, uint64_t expected, uint64_t actual,
                              bool recovered)
{
    FaultReport report;
    report.stage = stage;
    report.structure = structure;
    report.frame_index = frame_index_;
    report.tile = tile;
    report.expected_digest = expected;
    report.actual_digest = actual;
    report.recovered = recovered;

    FaultHandler handler;
    {
        std::lock_guard<std::mutex> lock(fault_mutex_);
        faults_.push_back(report);
        handler = handler_;
    }
    warn("integrity fault: stage=%s structure=%s frame=%llu tile=%d "
         "digest %016llx != %016llx%s",
         integrityStageName(stage), structure,
         static_cast<unsigned long long>(report.frame_index), tile,
         static_cast<unsigned long long>(expected),
         static_cast<unsigned long long>(actual),
         recovered ? " (restored from shadow)" : "");
    if (handler)
        handler(report);
}

bool
IntegrityContext::frameFaulted() const
{
    std::lock_guard<std::mutex> lock(fault_mutex_);
    return !faults_.empty();
}

void
IntegrityContext::exportStats(IntegrityFrameStats &out) const
{
    out.mode = mode_;
    out.checks = checks_.load(std::memory_order_relaxed);
    out.frame_recovered = frame_recovered_;
    std::lock_guard<std::mutex> lock(fault_mutex_);
    out.faults = static_cast<uint32_t>(faults_.size());
    out.reports = faults_;
}

void
IntegrityContext::forgetSeals()
{
    for (Structure &s : structures_)
        s.sealed = false;
}

IntegrityContext::Structure &
IntegrityContext::structureFor(IntegrityStage stage, const char *name)
{
    for (Structure &s : structures_)
        if (std::strcmp(s.name, name) == 0)
            return s;
    Structure s;
    s.name = name;
    s.stage = stage;
    structures_.push_back(std::move(s));
    return structures_.back();
}

IntegrityContext::Structure *
IntegrityContext::findStructure(const char *name)
{
    for (Structure &s : structures_)
        if (std::strcmp(s.name, name) == 0)
            return &s;
    return nullptr;
}

} // namespace neo
