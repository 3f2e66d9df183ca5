/**
 * @file
 * Helpers shared by the three workloads: input generation, the
 * uplink and fleet configurations, set-up timing, the end-to-end
 * metric families every workload prints, and the per-layer replays of
 * the traced mode (layers.cpp).
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/geometry/point_cloud.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "edgepcc/stream/pipeline.h"

namespace perfbench {

using edgepcc::VoxelCloud;

/** Threads that generate the inputs, before set-up. Every workload
 *  then runs on one thread (a pool of 0 workers), so the CPU seconds
 *  it reports are its latency on a core of its own. */
inline constexpr int kInputThreads = 4;

/** Frame cadence every workload captures at. */
inline constexpr double kCaptureFps = 30.0;

/** Set-up is repeated this often per untraced run and its median
 *  reported. */
inline constexpr int kSetupRepeats = 7;

/**
 * The first `count` frames of the synthetic-human video seeded by
 * `seed`, generated on kInputThreads threads (inputs are made before
 * set-up and excluded from every metric).
 */
std::vector<VoxelCloud> generateFrames(std::uint64_t seed,
                                       std::size_t points, int count);

/**
 * `clips` clips of `frames_per_clip` frames, each the start of its own
 * seeded video, back to back: content statistics then vary less from
 * one run seed to the next than those of a single video.
 */
std::vector<VoxelCloud> generateClips(std::uint64_t seed,
                                      std::size_t points, int clips,
                                      int frames_per_clip);

/** `frames` cut into kFleetContents contiguous contents, for a
 *  serve probe. */
std::vector<std::vector<VoxelCloud>> probeContents(
    const std::vector<VoxelCloud> &frames);

/** Total input points of `frames`. */
double countPoints(const std::vector<VoxelCloud> &frames);

/**
 * Set-up timing spread over the run. The first set-up precedes the
 * timed phase; the others are interleaved with it, one each time
 * another 1/repeats of its seconds has passed, so set-up is measured
 * on the same machine as the timed windows. `teardown` releases the
 * previous set-up's objects outside the timed span; the timed phase
 * goes on with the objects of the latest set-up. setup_s is the
 * median of the set-ups' CPU seconds; the phase itself is paced on
 * the wall clock, so a run ends on time however busy the host is.
 */
class SetupTimer
{
  public:
    SetupTimer(std::function<void()> teardown, std::function<void()> setup,
               int repeats);

    /** Tears down (untimed), then runs and times one set-up. */
    void run();

    /** Starts a timed phase of `seconds` set-up-free seconds. */
    void startPhase(double seconds);
    /** Wall seconds of the timed phase so far, set-ups excluded. */
    double phaseSeconds() const;
    /** Whether the phase has reached its seconds. */
    bool phaseDone() const { return phaseSeconds() >= phase_s_; }
    /** Between two timed windows: runs a set-up if one is due. */
    void between();
    /** After the phase: runs the set-ups a short phase left out. */
    void finish();

    double medianSeconds() const;

  private:
    std::function<void()> teardown_;
    std::function<void()> setup_;
    int repeats_;
    std::vector<double> seconds_;
    double phase_start_ = 0.0;
    double phase_s_ = 0.0;
    /** Wall seconds of set-ups (with teardown) inside the phase. */
    double paused_s_ = 0.0;
};

// ---------------------------------------------------------------
// Uplink configuration (uplink-burst, and the stream probe of the
// traced mode on the other workloads).

/** Intra-Inter-V1 frames in 1200-byte slices with RS FEC under the
 *  redundancy controller, over a seeded bursty LTE uplink. */
edgepcc::PipelineConfig uplinkPipeline(std::uint64_t channel_seed);

// ---------------------------------------------------------------
// Fleet configuration (fleet-failover, and the serve probe of the
// traced mode on the other workloads).

struct FleetShape {
    int tenants = 12;
    int replicas = 3;
    int frames_per_tenant = 30;
    double fps = kCaptureFps;
    std::uint64_t seed = 1;
};

/** Contents a fleet draws from: four for the interactive and
 *  standard tenants, then two for the bulk tenants. */
inline constexpr std::size_t kFleetContents = 6;

/**
 * Deadline classes cycle interactive/standard/bulk; every tenant
 * codes Intra-Only and bulk tenants add contextual geometry entropy.
 * Tenants of the same codec share content in pairs, so the reference
 * cache gets hits: interactive t and standard t + 1 stream
 * contents[t / 3], bulk tenants t and t + 3 stream contents[4 + t / 6].
 * Each tenant cycles its content's frames.
 */
std::vector<edgepcc::serve::TenantSpec> buildTenants(
    const std::vector<std::vector<VoxelCloud>> &contents,
    const FleetShape &shape);

/** Checkpointing on, and replica `crash_replica` crashing for good
 *  at a seeded time in the middle of the stream. */
edgepcc::serve::ServeConfig fleetConfig(const FleetShape &shape,
                                        int crash_replica = 1);

// ---------------------------------------------------------------
// End-to-end metric families.

/** Frames and CPU seconds of a span of timed calls. */
struct Window {
    double frames = 0.0;
    double seconds = 0.0;
};

// A run repeats each unit of identical work many times: a cycled
// frame, a channel stream's call, a crash scenario's call. Other
// tenants of a shared host only ever add time to a unit, and on a
// 4-vCPU shared VM they slowed whole runs by up to a third even in CPU
// time, so fps and the _p50 latencies take each unit at its best
// repetition. Over ten runs that halved the spread (interquartile
// range / median) of medians over all repetitions: 12-16% against
// 23-35% in a busy hour, 2-3% against 4-6% in a quiet one.

/** Frames over CPU seconds with every unit at its best repetition:
 *  unit u carries frames_by_unit[u] frames in the least of
 *  seconds_by_unit[u]. Units never timed are left out. */
double bestFps(const std::vector<std::vector<double>> &seconds_by_unit,
               const std::vector<double> &frames_by_unit);

/** The median over units of each unit's best time. */
double medianOfBests(const std::vector<std::vector<double>> &by_unit);

/** parallel.cpu_util, platform.minor_faults_per_frame and
 *  platform.sys_frac over a timed phase. */
void reportProcessLayers(const Usage &before, const Usage &after,
                         double wall_s, double frames,
                         Report &report);

/** trace.overhead_frac from per-frame seconds of traced and
 *  untraced windows of the same calls. */
void reportTraceOverhead(const std::vector<Window> &traced,
                         const std::vector<Window> &untraced,
                         Report &report);

// ---------------------------------------------------------------
// Per-layer replays (layers.cpp).

/** One frame as the program coded it. */
struct CodedFrame {
    const VoxelCloud *input = nullptr;
    const edgepcc::CodecConfig *codec = nullptr;
    edgepcc::FrameStats stats;
    /** Host seconds of the program's encode/decode call (< 0 when
     *  the call happened inside a session or scheduler). */
    double encode_s = -1.0;
    double decode_s = -1.0;
};

/**
 * Replays every frame through the codec layers' public functions
 * with the driver's own WorkRecorder, in capture order so inter
 * frames predict from the replayed reference, and reports morton.*,
 * octree.*, attr.*, interframe.*, entropy.* and core.*. A replayed
 * geometry or attribute payload whose size differs from the frame's
 * FrameStats fails the run. Frames of a codec without inter coding
 * are also priced as IPP with Intra-Inter-V1 block matching, so the
 * interframe metrics exist on every workload.
 */
void replayCodecLayers(const std::vector<CodedFrame> &frames,
                       SpanLog *spans, Report &report);

/**
 * Runs one StreamSession over `frames` (timed), replays its encodes
 * and its transport step by step at the session's initial RS k and m,
 * and reports stream.*. The replayed encodes are returned for the
 * codec-layer replay when `coded` is non-null.
 */
void replayStreamLayer(const std::vector<VoxelCloud> &frames,
                       const edgepcc::CodecConfig &codec,
                       const edgepcc::PipelineConfig &pipeline,
                       SpanLog *spans, Report &report,
                       std::vector<CodedFrame> *coded);

/**
 * Runs the scheduler once (timed), replays every frame it encoded
 * through VideoEncoder (each must match the served bitstream byte for
 * byte) and reports serve.*.
 */
void replayServeLayer(const std::vector<edgepcc::serve::TenantSpec>
                          &tenants,
                      const edgepcc::serve::ServeConfig &config,
                      SpanLog *spans, Report &report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H
