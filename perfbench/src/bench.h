/**
 * @file
 * Shared pieces of the benchmark driver: clocks, process accounting,
 * the span log of the traced mode, and the result object every
 * workload fills. Order statistics come from the library's
 * computePercentiles (nearest rank).
 *
 * The driver only calls the library's public API. Workloads live in
 * live.cpp, uplink.cpp and fleet.cpp; layers.cpp replays single
 * layers for the traced mode.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/trace.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome-trace output path for the traced mode (may be empty). */
    std::string trace_out;
};

/** Monotonic wall seconds (steady clock); paces a run, times nothing
 *  that is reported. */
double nowSeconds();

/**
 * CPU seconds of the whole process, every thread counted. Every host
 * time the driver reports is read from this clock: on a shared host
 * the wall clock also counts the time the process waited for a CPU
 * (other tenants' threads, hypervisor steal), which made runs of the
 * same code differ by half; CPU time excludes that wait but not work
 * done on threads the program starts.
 */
double cpuSeconds();

/** Mixes a run seed with a stream index into an independent seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** CPU and fault counters of the whole process (getrusage). */
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    double minor_faults = 0.0;
};
Usage processUsage();

/**
 * Peak resident memory above a baseline. reset() clears the kernel's
 * high-water mark (writes 5 to /proc/self/clear_refs) and takes the
 * current resident size as the baseline.
 */
class RssProbe
{
  public:
    void reset();
    /** VmHWM minus the baseline, in MB (2^20 bytes). */
    double peakAboveBaselineMb() const;
    bool resetWorked() const { return reset_ok_; }

  private:
    double baseline_kb_ = 0.0;
    bool reset_ok_ = false;
};

/**
 * Spans recorded by the traced mode around the driver's own calls
 * into the library, kept in memory and written as a chrome://tracing
 * file at exit. Spans of one frame share its frame id; `parent` is
 * the index of the enclosing span or -1. Times are cpuSeconds().
 */
class SpanLog
{
  public:
    struct Entry {
        std::string name;
        std::int64_t frame = -1;
        int parent = -1;
        double start_s = 0.0;
        double end_s = 0.0;
    };

    int open(const std::string &name, std::int64_t frame);
    void close(int index);
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Entry> entries_;
    std::vector<int> stack_;
};

/** RAII span on the CPU clock; a null log makes it a plain
 *  stopwatch. */
class Span
{
  public:
    Span(SpanLog *log, const std::string &name, std::int64_t frame);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Ends the span (idempotent) and returns its seconds. */
    double stop();

  private:
    SpanLog *log_;
    int index_ = -1;
    double start_s_;
    double seconds_ = -1.0;
};

/**
 * Everything one run reports: metrics with units, the deterministic
 * values checked across runs, the run record, operation counts and
 * output checks.
 */
class Report
{
  public:
    struct Metric {
        double value = 0.0;
        std::string unit;
    };

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A metric that must repeat exactly for the same seed. */
    void deterministicMetric(const std::string &name, double value,
                             const std::string &unit);
    void record(const std::string &key, const std::string &value);

    void attempt(std::size_t operations = 1) { attempted_ += operations; }
    /** Counts a failed operation; false when `status` is an error. */
    bool expectOk(const edgepcc::Status &status,
                  const std::string &what);
    template <typename T>
    bool
    expectValue(const edgepcc::Expected<T> &result,
                const std::string &what)
    {
        return expectOk(result.hasValue() ? edgepcc::Status()
                                          : result.status(),
                        what);
    }
    /** An output check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what);

    bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

    /** Prints the run record, the deterministic values and, last,
     *  the result object. */
    void print() const;

  private:
    std::map<std::string, Metric> metrics_;
    std::map<std::string, double> deterministic_;
    std::map<std::string, std::string> record_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t checks_failed_ = 0;
};

/** One workload entry point. */
using WorkloadFn = void (*)(const Options &, Report &, SpanLog *);

void runLiveV1(const Options &options, Report &report,
               SpanLog *spans);
void runUplinkBurst(const Options &options, Report &report,
                    SpanLog *spans);
void runFleetFailover(const Options &options, Report &report,
                      SpanLog *spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
