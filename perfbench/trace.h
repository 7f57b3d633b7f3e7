/**
 * @file
 * In-memory span recorder for the traced run. A span is one public call
 * into a layer (submit, step, maybeCheckpoint, enableDurability,
 * contentHash, a Stats ping), recorded from the benchmark's own code
 * around that call. Spans of one request share its request id; each span
 * names the span that caused it, so self time (duration minus the part
 * covered by child spans) falls out of the parent links. Nothing is
 * written until exit, when the spans go out as Chrome trace-event JSON.
 */

#ifndef NEO_PERFBENCH_TRACE_H
#define NEO_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point
addSeconds(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

struct Span
{
    const char *name = "";
    uint64_t request = 0; //!< request id shared by a request's spans
    uint32_t id = 0;      //!< 1-based; 0 means "no parent"
    uint32_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
};

class Tracer
{
  public:
    Tracer() { spans_.reserve(1 << 16); }

    /** Disabled tracers hand out id 0 and record nothing. */
    void setEnabled(bool on) { enabled_ = on; }

    uint32_t begin(const char *name, uint64_t request, uint32_t parent = 0)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = name;
        s.request = request;
        s.id = static_cast<uint32_t>(spans_.size() + 1);
        s.parent = parent;
        s.start = Clock::now();
        spans_.push_back(s);
        return s.id;
    }

    void end(uint32_t id)
    {
        if (id != 0)
            spans_[id - 1].end = Clock::now();
    }

    /** Duration (ms) of a closed span; @p id must be nonzero. */
    double durationMs(uint32_t id) const
    {
        return msBetween(spans_[id - 1].start, spans_[id - 1].end);
    }

    /** Self time (ms) of every span: its duration minus the union of
        its children's intervals. */
    std::vector<double> selfTimesMs() const
    {
        std::vector<std::vector<uint32_t>> children(spans_.size());
        for (const Span &s : spans_) {
            if (s.parent != 0)
                children[s.parent - 1].push_back(s.id);
        }
        std::vector<double> self(spans_.size(), 0.0);
        for (size_t i = 0; i < spans_.size(); ++i) {
            std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
            for (uint32_t c : children[i])
                iv.emplace_back(spans_[c - 1].start, spans_[c - 1].end);
            std::sort(iv.begin(), iv.end());
            double covered = 0.0;
            Clock::time_point reach = spans_[i].start;
            for (const auto &[a, b] : iv) {
                const Clock::time_point lo = std::max(a, reach);
                const Clock::time_point hi = std::min(b, spans_[i].end);
                if (hi > lo)
                    covered += msBetween(lo, hi);
                reach = std::max(reach, hi);
            }
            self[i] = msBetween(spans_[i].start, spans_[i].end) - covered;
        }
        return self;
    }

    /** Total self time (ms) per span name. */
    std::map<std::string, double> selfTimeByName() const
    {
        std::map<std::string, double> out;
        const std::vector<double> self = selfTimesMs();
        for (size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    /** Write every span as a Chrome trace-event "X" (complete) event;
        @p meta is a ready-made JSON object stored as "otherData". */
    bool writeChromeJson(const std::string &path,
                         const std::string &meta) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const Clock::time_point origin =
            spans_.empty() ? Clock::time_point{} : spans_.front().start;
        std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                     meta.c_str());
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                "\"id\":%u,\"parent\":%u}}%s\n",
                s.name, msBetween(origin, s.start) * 1000.0,
                msBetween(s.start, s.end) * 1000.0,
                static_cast<unsigned long long>(s.request), s.id, s.parent,
                i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_ = true;
    std::vector<Span> spans_;
};

/** Scoped span; a no-op on a disabled tracer. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, uint64_t request,
              uint32_t parent = 0)
        : tracer_(t), id_(t.begin(name, request, parent))
    {
    }
    ~SpanScope() { tracer_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    uint32_t id_;
};

} // namespace perfbench

#endif // NEO_PERFBENCH_TRACE_H
