/**
 * @file
 * Lightweight scoped-span tracing and percentile summaries.
 *
 * The Tracer records *when spans ran* on the host, across threads,
 * for timeline inspection and overhead-free production builds: with
 * tracing disabled a span costs one relaxed atomic load. Spans come
 * from two hooks:
 *  - ScopedStage (work_counters.h) for every codec stage: one scope
 *    opens the WorkRecorder stage the device model prices and a span
 *    of the same name, timed once on Tracer::nowSeconds(), so the
 *    stage's host_seconds equals the span's dur_s;
 *  - ScopedTrace here for everything that is not a stage: frame,
 *    container, stream, serve and pipeline spans, and kernel spans
 *    nested inside a stage.
 *
 * Span streams export to the chrome://tracing "traceEvents" JSON
 * format (load in chrome://tracing or https://ui.perfetto.dev), and
 * computePercentiles folds samples into the p50/p95/max summaries
 * of BENCH_results.json (see tools/bench_runner and
 * docs/OBSERVABILITY.md for the schemas).
 */

#ifndef EDGEPCC_COMMON_TRACE_H
#define EDGEPCC_COMMON_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "edgepcc/common/sync.h"

namespace edgepcc {

/**
 * One completed span. `name` must outlive the tracer; every call
 * site passes a string literal, which makes recording allocation
 * free.
 */
struct TraceEvent {
    const char *name = "";
    double start_s = 0.0;  ///< seconds on the process trace clock
    double dur_s = 0.0;
    std::uint32_t tid = 0;  ///< dense per-process thread id
};

/**
 * Process-wide span collector.
 *
 * Disabled by default. All methods are thread-safe; recording takes
 * one short mutex-protected append (spans are stage-grained — tens
 * per frame — so contention is negligible, and the mutex keeps the
 * collector trivially TSan-clean).
 */
class Tracer
{
  public:
    static Tracer &global();

    void
    setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Seconds on the tracer's monotonic clock. */
    static double nowSeconds();

    /** Appends one completed span (callers use ScopedTrace or
     *  ScopedStage). */
    void record(const char *name, double start_s, double dur_s);

    /** Copies out all recorded events, in recording order. */
    std::vector<TraceEvent> events() const;

    /** Removes every recorded event. */
    void clear();

    /** Events recorded so far. */
    std::size_t eventCount() const;

    /** Dense id of the calling thread (0 = first thread seen). */
    static std::uint32_t currentThreadId();

  private:
    friend class ScopedTrace;
    friend class ScopedStage;

    Tracer() = default;

    /** Makes room for one span that recordReserved() appends, so a
     *  span closing in a destructor (often while unwinding) never
     *  allocates. */
    void reserveSpan();
    /** Appends a span reserveSpan() made room for. */
    void recordReserved(const char *name, double start_s,
                        double dur_s);

    mutable Mutex mutex_;
    std::vector<TraceEvent> events_ EDGEPCC_GUARDED_BY(mutex_);
    /** Open spans with room reserved in events_. */
    std::size_t reserved_ EDGEPCC_GUARDED_BY(mutex_) = 0;
    std::atomic<bool> enabled_{false};
};

/**
 * RAII span: records [construction, destruction) into the global
 * tracer when tracing is enabled. `name` must be a string literal
 * (or otherwise outlive the tracer). A codec stage uses ScopedStage
 * instead, which records its span the same way.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(const char *name)
    {
        if (Tracer::global().enabled()) {
            Tracer::global().reserveSpan();
            name_ = name;
            start_s_ = Tracer::nowSeconds();
        }
    }
    ~ScopedTrace() { stop(); }

    /** Ends the span early (idempotent; destruction is a no-op
     *  afterwards). Never allocates. */
    void
    stop()
    {
        if (name_ != nullptr) {
            Tracer::global().recordReserved(
                name_, start_s_, Tracer::nowSeconds() - start_s_);
            name_ = nullptr;
        }
    }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    const char *name_ = nullptr;  ///< null = tracing was disabled
    double start_s_ = 0.0;
};

/** Writes events as a chrome://tracing JSON document. */
void writeChromeTrace(const std::vector<TraceEvent> &events,
                      std::ostream &out);

/** `text` as a quoted JSON string: quotes, backslashes and control
 *  characters escaped. */
std::string jsonString(std::string_view text);

/** Percentile summary of a sample set. */
struct PercentileStats {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double total = 0.0;
};

/** Summarizes `samples` (order irrelevant; empty -> zeros). */
PercentileStats computePercentiles(std::vector<double> samples);

}  // namespace edgepcc

#endif  // EDGEPCC_COMMON_TRACE_H
