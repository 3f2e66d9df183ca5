/**
 * @file
 * The stream session's one controller: GOP length and forced
 * keyframes for every session, and (bitrate, RS k/m) against a
 * single wire budget when enabled.
 *
 * StreamSession plans every frame from this controller and feeds
 * every frame's delivery back to it. The GOP and keyframe rules
 * hold for every session (a fixed GOP is min_gop_size ==
 * max_gop_size). RedundancyConfig::enabled (requires RS FEC) adds
 * the negotiation of RS k and m, which otherwise stay at the fixed
 * FecSpec values, and of the reuse threshold. One model makes the
 * parity, GOP, keyframe and bitrate trades:
 *
 *  - EWMA *burst length* — not just loss rate — picks the RS parity
 *    depth m: parity must cover the losses that actually arrive
 *    together, which a loss rate alone cannot express.
 *  - The group size k follows from the parity byte share the loss
 *    estimate justifies (share = clamp(kBurstSafety * loss, floor,
 *    kMaxParityShare); k = m * (1 - share) / share): a clean
 *    channel grows k toward max_group_size (overhead -> m/(k+m)
 *    minimum), sustained loss shrinks k so the same m covers a
 *    larger fraction.
 *  - GOP halving and forced keyframes react ONLY to genuinely
 *    unrecoverable loss (a frame still incomplete after parity
 *    decode and NACK rounds). Loss that parity absorbed costs
 *    parity bytes — it must not also cost keyframes. The GOP grows
 *    back one step per grow_after_clean clean frames.
 *  - The encoder's payload budget is the wire budget minus the
 *    parity share actually being spent: payload_budget =
 *    wire_budget * k / (k + m). The reuse-threshold nudge (the
 *    paper's bitrate knob, multiplied by (payload / budget) ^
 *    kRateGain after every P frame) steers P-frame payloads toward
 *    that post-parity budget, so the overload/byte ladder sees the
 *    true cost of redundancy instead of discovering parity as
 *    surprise overshoot.
 *
 * Deterministic: state depends only on the feedback sequence.
 * Thread-safe: the state is mutex-guarded, so feedback may arrive
 * from a receiver thread while the encode loop calls decide().
 */

#ifndef EDGEPCC_STREAM_REDUNDANCY_CONTROLLER_H
#define EDGEPCC_STREAM_REDUNDANCY_CONTROLLER_H

#include <cstdint>

#include "edgepcc/common/sync.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** EWMA smoothing for the loss fraction and burst length. */
inline constexpr double kRedundancyEwmaAlpha = 0.25;
/** Hard cap on the parity byte share m / (k + m). */
inline constexpr double kMaxParityShare = 0.4;
/** Loss-to-share safety margin: the target share is
 *  kBurstSafety * EWMA loss (clamped). */
inline constexpr double kBurstSafety = 3.0;
/** Multiplicative reuse-threshold adjustment strength. */
inline constexpr double kRateGain = 0.5;

/** Controller knobs; defaults match the edge-link design point. */
struct RedundancyConfig {
    /** On: negotiate RS k/m (the session needs RS FEC) and, with a
     *  wire budget, the reuse threshold. Off: the session keeps the
     *  fixed FecSpec k/m and the codec's threshold. The GOP and
     *  keyframe rules apply either way. */
    bool enabled = false;

    /** Group-size (k) clamp. */
    int min_group_size = 2;
    int max_group_size = 16;

    /** Parity-depth (m) clamp. m tracks ceil(EWMA burst length). */
    int min_parity = 1;
    int max_parity = 4;

    /** GOP clamp + growth cadence (halve on unrecoverable loss,
     *  grow one step per `grow_after_clean` clean frames). Equal
     *  bounds fix the GOP. */
    int min_gop_size = 1;
    int max_gop_size = 12;
    int grow_after_clean = 6;

    /** Per-frame wire-byte budget the bitrate negotiation targets;
     *  0 disables the reuse-threshold coupling. */
    std::uint64_t wire_budget_bytes = 0;
    /** Reuse-threshold clamp (same units as BlockMatchConfig). */
    double min_threshold = 1.0;
    double max_threshold = 2000.0;
};

/** One negotiated operating point. */
struct RedundancyDecision {
    int group_size = 4;      ///< RS k (data chunks per group)
    int parity_chunks = 1;   ///< RS m (parity rows per group)
    int gop_size = 12;
    bool force_keyframe = false;
    /** Post-parity payload budget; 0 when coupling is off. */
    std::uint64_t payload_budget_bytes = 0;
    /** Reuse threshold for the encoder (bitrate rung); negative
     *  when coupling is off (leave the codec config untouched). */
    double reuse_threshold = -1.0;
};

class RedundancyController
{
  public:
    RedundancyController(RedundancyConfig config,
                         int initial_gop_size,
                         double initial_reuse_threshold);

    /** The current operating point. force_keyframe is sticky until
     *  consumed via consumeForcedKeyframe(). */
    RedundancyDecision decide() const;

    /** True exactly once per unrecoverable loss. */
    bool consumeForcedKeyframe();

    /**
     * Per-frame transport feedback, after parity decode and NACK
     * rounds:
     *  - `chunks_sent`/`chunks_lost`: this frame's data chunks and
     *    how many the channel ate (pre-recovery),
     *  - `max_burst`: longest run of consecutively lost chunks,
     *  - `delivered`: frame complete after parity + NACK (false =
     *    genuinely unrecoverable).
     */
    void onFrameFeedback(int chunks_sent, int chunks_lost,
                         int max_burst, bool delivered);

    /** Encoded-size feedback for the bitrate nudge (P frames only;
     *  no-op when coupling is off). */
    void onEncodedFrame(Frame::Type type,
                        std::uint64_t payload_bytes);

    double
    estimatedLoss() const
    {
        MutexLock lock(mutex_);
        return ewma_loss_;
    }
    double
    estimatedBurstLength() const
    {
        MutexLock lock(mutex_);
        return ewma_burst_;
    }

  private:
    RedundancyDecision decideLocked() const
        EDGEPCC_REQUIRES(mutex_);

    RedundancyConfig config_;
    mutable Mutex mutex_;
    double ewma_loss_ EDGEPCC_GUARDED_BY(mutex_) = 0.0;
    double ewma_burst_ EDGEPCC_GUARDED_BY(mutex_) = 1.0;
    int gop_size_ EDGEPCC_GUARDED_BY(mutex_);
    int clean_streak_ EDGEPCC_GUARDED_BY(mutex_) = 0;
    bool force_key_ EDGEPCC_GUARDED_BY(mutex_) = false;
    double threshold_ EDGEPCC_GUARDED_BY(mutex_);
};

}  // namespace edgepcc

#endif  // EDGEPCC_STREAM_REDUNDANCY_CONTROLLER_H
