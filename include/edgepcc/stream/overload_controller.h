/**
 * @file
 * Overload robustness: deadline-aware encode degradation ladder,
 * admission control, and a per-stage watchdog.
 *
 * The paper's premise is meeting a real-time frame budget on a
 * constrained edge device. PR 3/4 made the *decoder/transport* side
 * degrade gracefully under loss; this module does the same for the
 * *encoder* under compute overload (CPU contention, an oversized
 * frame, a pathological capture). Instead of silently running late,
 * the session sheds quality in explicit rungs:
 *
 *   r0 full            - the configured codec, untouched
 *   r1 no-entropy      - optional occupancy entropy coding skipped
 *                        (the paper's own first lever, Sec. IV-B3)
 *   r2 coarse-geometry - input requantized to a coarser voxel grid
 *                        (fewer voxels -> less work in every stage)
 *   r3 coarse-attr     - larger attribute quantization step
 *   r4 inter-only      - GOP stretched so only P frames are coded
 *                        after the anchor (I frames are the
 *                        expensive ones)
 *   r5 skip            - the frame is not encoded at all
 *
 * Transitions are driven by the *modelled* per-frame encode latency
 * (EdgeDeviceModel over the recorded profile) scaled by a seedable
 * synthetic LoadSpec, so every ladder walk is deterministic and
 * tier-1 tests can pin exact rung sequences. A deadline miss
 * descends one rung immediately; recovery is hysteretic: the
 * controller climbs one rung only after kOverloadRecoverAfterClean
 * consecutive frames whose EWMA-smoothed utilization stays below
 * kOverloadRecoverHeadroom of the budget.
 *
 * Admission control and the watchdog live in StreamSession: frames
 * arrive on a fixed fps cadence into a bounded in-flight queue with
 * oldest-drop backpressure, and any single stage exceeding its soft
 * timeout share of the deadline trips the watchdog (one rung down,
 * stall recorded) even when the frame total still fits.
 */

#ifndef EDGEPCC_STREAM_OVERLOAD_CONTROLLER_H
#define EDGEPCC_STREAM_OVERLOAD_CONTROLLER_H

#include <cstdint>
#include <string>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/sync.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/platform/device_model.h"

namespace edgepcc {

/** Degradation-ladder rungs, in declared shedding order. */
enum class OverloadRung : std::uint8_t {
    kFull = 0,
    kNoEntropy = 1,
    kCoarseGeometry = 2,
    kCoarseAttr = 3,
    kInterOnly = 4,
    kSkip = 5,
};

inline constexpr int kOverloadRungCount = 6;

const char *overloadRungName(OverloadRung rung);

/**
 * Seedable synthetic load injection (the ChannelSpec analogue for
 * compute). Scales the modelled per-stage encode latency so overload
 * scenarios are reproducible bit-for-bit: a (spec, frame sequence)
 * pair always walks the same ladder.
 */
struct LoadSpec {
    /** Baseline multiplier on every stage's modelled seconds. */
    double slowdown = 1.0;

    /** Frames [burst_start, burst_start + burst_frames) get
     *  `burst_slowdown` instead of `slowdown` (CPU-contention
     *  burst). 0 frames = no burst. */
    std::uint32_t burst_start = 0;
    std::uint32_t burst_frames = 0;
    double burst_slowdown = 1.0;

    /** During the burst, stages whose name starts with
     *  `stall_stage` are additionally multiplied by `stall_factor`
     *  (models one pathological kernel, not uniform contention). */
    std::string stall_stage;
    double stall_factor = 1.0;

    /** Frames whose encode reports an injected allocation failure
     *  (exercises the Status-returning exhaustion path). */
    std::vector<std::uint32_t> alloc_failure_frames;

    /** Per-frame multiplicative jitter in [1-jitter, 1+jitter],
     *  drawn from a seeded RNG. 0 = none (fully analytic). */
    double jitter = 0.0;
    std::uint64_t seed = 1;

    /** No injected load at all (factors identically 1). */
    static LoadSpec none();
    /** The canonical overload scenario: 2x per-stage slowdown for
     *  frames [8, 20). */
    static LoadSpec burst2x();
    /** burst2x plus a 6x stall on the geometry stage (trips the
     *  per-stage watchdog before the frame total does). */
    static LoadSpec stallGeometry();

    /**
     * Parses a spec string: a preset name ("none", "burst2x",
     * "stall-geometry") or comma-separated key=value pairs
     * (slowdown, burst-start, burst-frames, burst-slowdown,
     * stall-stage, stall-factor, alloc-fail (repeatable), jitter,
     * seed), e.g. "slowdown=1.5,burst-start=4,burst-frames=8,
     * burst-slowdown=3".
     */
    static Expected<LoadSpec> parse(const std::string &text);

    /** Multiplier for `stage` of frame `frame` (jitter excluded;
     *  the session applies jitter once per frame). */
    double factorFor(std::uint32_t frame,
                     const std::string &stage) const;

    /** Seeded per-frame jitter multiplier; 1.0 when jitter == 0.
     *  Depends only on (seed, frame), not on call order. */
    double jitterFor(std::uint32_t frame) const;

    /** True when the burst window covers `frame`. */
    bool inBurst(std::uint32_t frame) const;

    /** True when an allocation failure is injected at `frame`. */
    bool allocFailsAt(std::uint32_t frame) const;

    bool isIdle() const;
};

/** EWMA smoothing of the ladder's utilization estimate. */
inline constexpr double kOverloadEwmaAlpha = 0.4;
/** Smoothed utilization below this counts as headroom. */
inline constexpr double kOverloadRecoverHeadroom = 0.6;
/** Consecutive headroom frames required per one-rung climb. */
inline constexpr int kOverloadRecoverAfterClean = 3;
/** A single stage consuming more than this fraction of the deadline
 *  trips the watchdog even if the frame total fits. */
inline constexpr double kStageSoftTimeoutFraction = 0.8;
/** Grid bits removed by the coarse-geometry rung. */
inline constexpr int kCoarseDropBits = 2;

/**
 * Overload-subsystem knobs (SessionConfig::overload). The deadline
 * is checked against the modelled timings of
 * DeviceSpec::jetsonXavier15W() (platform/device_model.h).
 */
struct OverloadConfig {
    bool enabled = false;

    /** Per-frame encode budget. 0 = derive from target_fps. */
    double deadline_s = 0.0;

    /** Frame cadence; also the admission arrival rate. */
    double target_fps = 30.0;

    /** In-flight frames admitted beyond the one being encoded;
     *  older frames are dropped first (stale frames are worthless
     *  in telepresence). */
    int queue_capacity = 2;

    /** Attribute quant-step multiplier of the coarse-attr rung. */
    std::uint32_t coarse_quant_multiplier = 4;

    /** Synthetic load injection (none by default). */
    LoadSpec load{};

    /** Effective per-frame budget in seconds. */
    double budgetSeconds() const;
};

/** Why the controller moved (or did not move) after a frame. */
enum class OverloadEvent : std::uint8_t {
    kNone = 0,          ///< on time, no transition
    kDeadlineMiss = 1,  ///< frame total exceeded the budget
    kStageStall = 2,    ///< one stage tripped its soft timeout
    kRecovered = 3,     ///< hysteresis climbed one rung
    kAllocFailure = 4,  ///< injected allocation failure
    kQueueDrop = 5,     ///< admission control dropped the frame
};

const char *overloadEventName(OverloadEvent event);

/** Per-frame ladder record. */
struct OverloadFrame {
    std::uint32_t frame_id = 0;
    OverloadRung rung = OverloadRung::kFull;
    OverloadEvent event = OverloadEvent::kNone;
    /** Modelled encode seconds after LoadSpec scaling; 0 for
     *  skipped/dropped frames. */
    double encode_s = 0.0;
    /** Queueing delay before encode started (admission model). */
    double queue_delay_s = 0.0;
    bool deadline_missed = false;
    /** Frames waiting when this one started encoding. */
    int queue_depth = 0;
    /** Stage that tripped the watchdog (empty otherwise). */
    std::string stalled_stage;
};

/** Aggregate overload accounting (SessionReport::overload). */
struct OverloadStats {
    bool enabled = false;
    double deadline_s = 0.0;
    std::size_t frames = 0;
    std::size_t deadline_misses = 0;
    std::size_t max_consecutive_misses = 0;
    std::size_t watchdog_stalls = 0;
    std::size_t queue_drops = 0;
    std::size_t frames_skipped = 0;  ///< skip-rung frames
    std::size_t alloc_failures = 0;
    std::size_t rung_transitions = 0;
    /** Frames encoded (or skipped) at each rung. */
    std::size_t rung_occupancy[kOverloadRungCount] = {};
    /** Modelled encode latency of non-dropped frames. */
    std::vector<double> encode_latency_s;
    /** Per-frame ladder walk, in frame order (includes dropped
     *  frames so tests can pin the exact sequence). */
    std::vector<OverloadFrame> ladder;

    double deadlineMissRate() const;
};

/**
 * The deadline ladder's state machine. Deterministic: state depends
 * only on the sequence of onFrame()/onStall() calls.
 *
 * Thread-safe: the fleet scheduler (ROADMAP item 1) feeds one
 * controller from concurrent session threads; the ladder state is
 * mutex-guarded, so each onFrame()/onStall() is an atomic
 * transition. Ordering across threads is the caller's concern.
 */
class OverloadController
{
  public:
    explicit OverloadController(OverloadConfig config);

    OverloadRung
    rung() const
    {
        MutexLock lock(mutex_);
        return rung_;
    }
    /** Immutable after construction (no lock). */
    double budgetSeconds() const { return budget_s_; }
    double
    utilization() const
    {
        MutexLock lock(mutex_);
        return ewma_utilization_;
    }

    /**
     * Records one frame's effective encode latency. Returns the
     * transition event: a miss descends one rung immediately;
     * sustained headroom climbs one rung back.
     */
    OverloadEvent onFrame(double encode_s);

    /** A stage tripped its soft timeout: descend one rung now
     *  (called instead of onFrame for that frame). */
    OverloadEvent onStall(double encode_s);

    /**
     * Derives the codec configuration for `rung` from `base`.
     * Rungs are cumulative: r3 includes r1 and r2's measures.
     * kSkip returns the kInterOnly config (nothing is encoded at
     * that rung, but a config is still needed for bookkeeping).
     */
    static CodecConfig configForRung(const CodecConfig &base,
                                     OverloadRung rung,
                                     const OverloadConfig &config);

  private:
    OverloadEvent descendLocked(OverloadEvent cause)
        EDGEPCC_REQUIRES(mutex_);

    /** config_ and budget_s_ are immutable after construction. */
    OverloadConfig config_;
    double budget_s_ = 0.0;

    mutable Mutex mutex_;
    OverloadRung rung_ EDGEPCC_GUARDED_BY(mutex_) =
        OverloadRung::kFull;
    double ewma_utilization_ EDGEPCC_GUARDED_BY(mutex_) = 0.0;
    int headroom_streak_ EDGEPCC_GUARDED_BY(mutex_) = 0;
};

/**
 * One frame's effective encode latency as the ladder (or the fleet
 * scheduler) sees it, folded over the per-stage timings.
 */
struct EffectiveLatency {
    /** Total effective seconds across all stages. */
    double total_s = 0.0;
    /** The single most expensive stage (the watchdog's subject). */
    double worst_stage_s = 0.0;
    std::string worst_stage;
};

/**
 * The per-tenant latency hook shared by StreamSession and the serve
 * scheduler: charges each stage's modelled device seconds, scaled by
 * the injected LoadSpec and the frame's seeded jitter, and reports
 * the worst stage for the soft-timeout watchdog. Deterministic: it
 * never reads host time.
 */
EffectiveLatency effectiveEncodeLatency(const PipelineTiming &timing,
                                        const OverloadConfig &config,
                                        std::uint32_t frame_id);

/**
 * Requantizes a cloud to `drop_bits` fewer grid bits, merging the
 * voxels that collapse (first color wins, matching the geometry
 * codec's dedup rule). The coarse-geometry rung's input transform.
 */
VoxelCloud coarsenCloud(const VoxelCloud &cloud, int drop_bits);

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_OVERLOAD_CONTROLLER_H
