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
 */

#ifndef EDGEPCC_COMMON_WORK_COUNTERS_H
#define EDGEPCC_COMMON_WORK_COUNTERS_H

#include <cstdint>
#include <string>
#include <vector>

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
 * record"). Stages are opened/closed in LIFO-free, strictly
 * sequential order: beginStage() closes nothing, endStage() finalizes
 * the stage opened last. Recording is not thread-safe; parallel
 * kernels aggregate their counts locally and record once after the
 * parallel region completes.
 */
class WorkRecorder
{
  public:
    /** Opens a stage; host timing starts now. Reserves the slot
     *  endStage() fills, so only this call may allocate. */
    void beginStage(const std::string &name);

    /** Closes the currently open stage and stores it. Never
     *  allocates (safe from ~ScopedStage). */
    void endStage();

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
    double open_stage_start_ = 0.0;

    static double nowSeconds();
};

/** RAII helper: beginStage/endStage around a scope. */
class ScopedStage
{
  public:
    ScopedStage(WorkRecorder *recorder, const std::string &name)
        : recorder_(recorder)
    {
        if (recorder_)
            recorder_->beginStage(name);
    }
    ~ScopedStage()
    {
        if (recorder_)
            recorder_->endStage();
    }

    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    WorkRecorder *recorder_;
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
