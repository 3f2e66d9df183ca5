/**
 * @file
 * Instrumentation that feeds the edge-device timing/energy model.
 *
 * The paper's evaluation ran on a Jetson AGX Xavier; this repository
 * runs on a host CPU. Every pipeline stage therefore records *what it
 * did* (kernels launched, work items, arithmetic ops, bytes moved,
 * parallel span), and src/platform converts those counts into modelled
 * Jetson latency and energy. Host wall-clock is recorded alongside so
 * native algorithmic speedups stay visible.
 *
 * A stage is declared once, with ScopedStage: the same scope feeds
 * this recorder, the trace span of the same name and, through the
 * profile, the bench JSON (see docs/OBSERVABILITY.md).
 */

#ifndef EDGEPCC_COMMON_WORK_COUNTERS_H
#define EDGEPCC_COMMON_WORK_COUNTERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "edgepcc/common/trace.h"

namespace edgepcc {

/** Where a kernel executes on the modelled edge device. */
enum class ExecResource {
    kCpuSequential,  ///< one ARM core, serial dependency chain
    kCpuParallel,    ///< multi-threaded across the ARM cluster
    kGpu,            ///< data-parallel kernel on the Volta GPU
};

const char *execResourceName(ExecResource resource);

/**
 * One kernel invocation (or a batch of identical invocations) as seen
 * by the device model.
 */
struct KernelWork {
    std::string name;         ///< stable id, e.g. "bm.diff_squared"
    ExecResource resource = ExecResource::kCpuSequential;
    std::uint64_t invocations = 1;  ///< number of launches (overhead)
    std::uint64_t items = 0;        ///< parallel work items
    std::uint64_t ops = 0;          ///< arithmetic ops across all items
    std::uint64_t bytes = 0;        ///< bytes read + written
};

/** One pipeline stage: a list of kernels plus measured host time. */
struct StageProfile {
    std::string name;
    std::vector<KernelWork> kernels;
    double host_seconds = 0.0;

    std::uint64_t totalOps() const;
    std::uint64_t totalBytes() const;
};

/** Profile of a full encode/decode pass. */
struct PipelineProfile {
    std::vector<StageProfile> stages;

    double hostSeconds() const;
    /** Sum of host seconds for stages whose name has the prefix. */
    double hostSecondsWithPrefix(const std::string &prefix) const;
};

/**
 * Collects StageProfiles while a codec runs.
 *
 * Codecs accept a `WorkRecorder *` (nullable; null means "don't
 * record") and open their stages with ScopedStage. Stages do not
 * nest: at most one is open, and beginStage() closes it before
 * opening the next. A stage closed that way keeps host_seconds 0,
 * because only its own endStage() carries a measured time.
 * Recording is not thread-safe; parallel kernels aggregate their
 * counts locally and record once after the parallel region
 * completes.
 */
class WorkRecorder
{
  public:
    /** Opens a stage, closing the open one first. Reserves the slot
     *  endStage() fills, so only this call may allocate. */
    void beginStage(const std::string &name);

    /** Closes the open stage with its measured host seconds and
     *  stores it; a no-op when no stage is open. Never allocates
     *  (safe from ~ScopedStage). */
    void endStage(double host_seconds = 0.0);

    /** Adds a kernel record to the currently open stage.
     *  A standalone kernel outside any stage opens an implicit stage
     *  named after the kernel. */
    void addKernel(KernelWork work);

    const PipelineProfile &profile() const { return profile_; }
    PipelineProfile takeProfile();

    void clear();

  private:
    PipelineProfile profile_;
    bool stage_open_ = false;
    StageProfile open_stage_;
};

/**
 * The one stage hook. The scope opens the WorkRecorder stage the
 * device model prices (when `recorder` is non-null) and a trace span
 * of the same name (when tracing is enabled). It reads
 * Tracer::nowSeconds() once at each end and hands both sinks that
 * start and duration, so the stage's host_seconds equals the span's
 * dur_s. `name` must be a string literal (or otherwise outlive the
 * tracer). Opening may allocate; closing never does. With tracing
 * off and a null recorder the hook costs one relaxed atomic load.
 */
class ScopedStage
{
  public:
    ScopedStage(WorkRecorder *recorder, const char *name)
        : stage_(recorder, name)
    {
        // Reserved after the stage opened: if this throws, stage_
        // closes that stage on the way out.
        if (Tracer::global().enabled()) {
            Tracer::global().reserveSpan();
            span_name_ = name;
        }
        if (stage_.recorder != nullptr || span_name_ != nullptr)
            start_s_ = Tracer::nowSeconds();
    }
    ~ScopedStage()
    {
        if (stage_.recorder == nullptr && span_name_ == nullptr)
            return;
        const double dur_s = Tracer::nowSeconds() - start_s_;
        if (span_name_ != nullptr)
            Tracer::global().recordReserved(span_name_, start_s_,
                                            dur_s);
        stage_.close(dur_s);
    }

    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    /** The recorder side; a member, so a throw later in the
     *  constructor still closes the stage it opened. */
    struct RecorderStage {
        RecorderStage(WorkRecorder *open_in, const char *name)
            : recorder(open_in)
        {
            if (recorder != nullptr)
                recorder->beginStage(name);
        }
        ~RecorderStage() { close(0.0); }
        RecorderStage(const RecorderStage &) = delete;
        RecorderStage &operator=(const RecorderStage &) = delete;

        void
        close(double host_seconds)
        {
            if (recorder != nullptr)
                recorder->endStage(host_seconds);
            recorder = nullptr;
        }

        WorkRecorder *recorder;
    };

    RecorderStage stage_;
    const char *span_name_ = nullptr;  ///< null = tracing was off
    double start_s_ = 0.0;
};

/** Records a kernel iff the recorder is non-null. */
inline void
recordKernel(WorkRecorder *recorder, KernelWork work)
{
    if (recorder)
        recorder->addKernel(std::move(work));
}

}  // namespace edgepcc

#endif  // EDGEPCC_COMMON_WORK_COUNTERS_H
