#include "edgepcc/common/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

namespace edgepcc {

namespace {

/** Fixed origin so event timestamps stay small and positive. */
std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

std::atomic<std::uint32_t> next_thread_id{0};

}  // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

double
Tracer::nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - traceEpoch())
        .count();
}

std::uint32_t
Tracer::currentThreadId()
{
    thread_local const std::uint32_t id =
        next_thread_id.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
Tracer::record(const char *name, double start_s, double dur_s)
{
    reserveSpan();
    recordReserved(name, start_s, dur_s);
}

void
Tracer::reserveSpan()
{
    MutexLock lock(mutex_);
    const std::size_t needed = events_.size() + reserved_ + 1;
    if (needed > events_.capacity())
        events_.reserve(std::max(needed, 2 * events_.capacity()));
    ++reserved_;
}

void
Tracer::recordReserved(const char *name, double start_s, double dur_s)
{
    const std::uint32_t tid = currentThreadId();
    MutexLock lock(mutex_);
    --reserved_;
    events_.push_back({name, start_s, dur_s, tid});
}

std::vector<TraceEvent>
Tracer::events() const
{
    MutexLock lock(mutex_);
    return events_;
}

void
Tracer::clear()
{
    MutexLock lock(mutex_);
    events_.clear();
}

std::size_t
Tracer::eventCount() const
{
    MutexLock lock(mutex_);
    return events_.size();
}

void
writeChromeTrace(const std::vector<TraceEvent> &events,
                 std::ostream &out)
{
    // Complete ("ph":"X") events with microsecond timestamps, the
    // format chrome://tracing and Perfetto ingest directly.
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &event : events) {
        if (!first)
            out << ',';
        first = false;
        out << "{\"name\":" << jsonString(event.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
            << ",\"ts\":" << event.start_s * 1e6
            << ",\"dur\":" << event.dur_s * 1e6 << '}';
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += "\\u00";
            out += "0123456789abcdef"[(c >> 4) & 0xf];
            out += "0123456789abcdef"[c & 0xf];
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

PercentileStats
computePercentiles(std::vector<double> samples)
{
    PercentileStats stats;
    if (samples.empty())
        return stats;
    std::sort(samples.begin(), samples.end());
    stats.count = samples.size();
    for (const double sample : samples)
        stats.total += sample;
    stats.mean = stats.total / static_cast<double>(stats.count);
    stats.max = samples.back();
    const auto at_quantile = [&](double q) {
        // Nearest-rank on the sorted samples.
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        const std::size_t index = rank == 0 ? 0 : rank - 1;
        return samples[std::min(index, samples.size() - 1)];
    };
    stats.p50 = at_quantile(0.50);
    stats.p95 = at_quantile(0.95);
    stats.p99 = at_quantile(0.99);
    return stats;
}

}  // namespace edgepcc
