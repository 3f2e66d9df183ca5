#include <sys/resource.h>
#include <time.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over the pair.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream +
                      0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Usage
processUsage()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Usage out;
    out.user_s = seconds(usage.ru_utime);
    out.sys_s = seconds(usage.ru_stime);
    out.minor_faults = static_cast<double>(usage.ru_minflt);
    return out;
}

namespace {

/** Reads one "Key:   <n> kB" field of /proc/self/status. */
double
statusKb(const std::string &key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key + ":", 0) == 0) {
            std::istringstream fields(line.substr(key.size() + 1));
            double kb = 0.0;
            fields >> kb;
            return kb;
        }
    }
    return 0.0;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

}  // namespace

void
RssProbe::reset()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ok_ = static_cast<bool>(clear);
    baseline_kb_ = statusKb("VmRSS");
}

double
RssProbe::peakAboveBaselineMb() const
{
    return (statusKb("VmHWM") - baseline_kb_) / 1024.0;
}

int
SpanLog::open(const std::string &name, std::int64_t frame)
{
    Entry entry;
    entry.name = name;
    entry.frame = frame;
    entry.parent = stack_.empty() ? -1 : stack_.back();
    entry.start_s = cpuSeconds();
    entries_.push_back(std::move(entry));
    const int index = static_cast<int>(entries_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    entries_[static_cast<std::size_t>(index)].end_s = cpuSeconds();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin =
        entries_.empty() ? 0.0 : entries_.front().start_s;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        out << "  {\"name\": " << jsonString(e.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber((e.start_s - origin) * 1e6)
            << ", \"dur\": " << jsonNumber((e.end_s - e.start_s) * 1e6)
            << ", \"args\": {\"frame\": " << e.frame
            << ", \"id\": " << i << ", \"parent\": " << e.parent
            << "}}" << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

Span::Span(SpanLog *log, const std::string &name, std::int64_t frame)
    : log_(log), start_s_(cpuSeconds())
{
    if (log_ != nullptr)
        index_ = log_->open(name, frame);
}

double
Span::stop()
{
    if (seconds_ < 0.0) {
        seconds_ = cpuSeconds() - start_s_;
        if (log_ != nullptr)
            log_->close(index_);
    }
    return seconds_;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        check(false, "metric " + name + " is not finite");
    metrics_[name] = Metric{value, unit};
}

void
Report::deterministicMetric(const std::string &name, double value,
                            const std::string &unit)
{
    metric(name, value, unit);
    deterministic_[name] = value;
}

void
Report::record(const std::string &key, const std::string &value)
{
    record_[key] = value;
}

bool
Report::expectOk(const edgepcc::Status &status, const std::string &what)
{
    if (status.isOk())
        return true;
    ++failed_;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                 status.toString().c_str());
    return false;
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++checks_failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void
Report::print() const
{
    std::string line = "perfbench-record {";
    bool first = true;
    for (const auto &[key, value] : record_) {
        line += (first ? "" : ", ") + jsonString(key) + ": " +
                jsonString(value);
        first = false;
    }
    std::printf("%s}\n", line.c_str());

    line = "perfbench-deterministic {";
    first = true;
    for (const auto &[key, value] : deterministic_) {
        line += (first ? "" : ", ") + jsonString(key) + ": " +
                jsonNumber(value);
        first = false;
    }
    std::printf("%s}\n", line.c_str());

    line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    first = true;
    for (const auto &[name, m] : metrics_) {
        line += (first ? "" : ", ") + jsonString(name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
