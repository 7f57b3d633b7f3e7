#include "serve/watchdog.h"

#include <algorithm>

namespace neo::serve
{

void
StageWatchdog::reset()
{
    for (Ring &r : rings_) {
        r.samples.clear();
        r.next = 0;
    }
    trips_ = 0;
}

double
StageWatchdog::rollingMedian(int stage) const
{
    if (stage < 0 || stage >= kStageCount)
        return 0.0;
    const Ring &r = rings_[stage];
    if (r.samples.empty())
        return 0.0;
    scratch_.assign(r.samples.begin(), r.samples.end());
    const size_t mid = scratch_.size() / 2;
    std::nth_element(scratch_.begin(),
                     scratch_.begin() + static_cast<ptrdiff_t>(mid),
                     scratch_.end());
    return scratch_[mid];
}

bool
StageWatchdog::observe(int stage, double ms)
{
    if (stage < 0 || stage >= kStageCount)
        return false;
    Ring &r = rings_[stage];

    const bool armed =
        r.samples.size() >= static_cast<size_t>(std::max(cfg_.warmup, 1));
    if (armed && ms > cfg_.floor_ms &&
        ms > cfg_.factor * rollingMedian(stage)) {
        ++trips_;
        return true; // tripped sample stays out of the history
    }

    if (r.samples.size() < cfg_.window) {
        r.samples.push_back(ms);
    } else if (!r.samples.empty()) {
        r.samples[r.next] = ms;
        r.next = (r.next + 1) % r.samples.size();
    }
    return false;
}

int
StageWatchdog::observeFrame(const StageTimings &stages)
{
    // Feed every stage (each keeps its history warm) and report the
    // first trip. The delta tracker is the first half of the reuse
    // sorter, so it rides in the Sort stage.
    int tripped = -1;
    if (observe(Bin, stages.bin_ms))
        tripped = Bin;
    if (observe(Sort, stages.sort_ms + stages.tracker_ms) && tripped < 0)
        tripped = Sort;
    if (observe(Raster, stages.raster_ms) && tripped < 0)
        tripped = Raster;
    return tripped;
}

const char *
StageWatchdog::stageName(int stage)
{
    switch (stage) {
    case Bin:
        return "bin";
    case Sort:
        return "sort";
    case Raster:
        return "raster";
    }
    return "unknown";
}

} // namespace neo::serve
