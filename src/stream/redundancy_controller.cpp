#include "edgepcc/stream/redundancy_controller.h"

#include <algorithm>
#include <cmath>

#include "edgepcc/common/trace.h"

namespace edgepcc {

RedundancyController::RedundancyController(
    RedundancyConfig config, int initial_gop_size,
    double initial_reuse_threshold)
    : config_(config),
      gop_size_(std::clamp(initial_gop_size,
                           std::max(config.min_gop_size, 1),
                           std::max(config.max_gop_size, 1))),
      threshold_(std::clamp(initial_reuse_threshold,
                            config.min_threshold,
                            config.max_threshold))
{
}

RedundancyDecision
RedundancyController::decideLocked() const
{
    RedundancyDecision d;

    // Parity depth m covers the bursts actually observed: parity
    // is useless against a burst longer than m, so m tracks the
    // smoothed burst length, not the loss rate.
    const int m = std::clamp(
        static_cast<int>(std::ceil(ewma_burst_ - 1e-9)),
        std::max(config_.min_parity, 1),
        std::max(config_.max_parity, 1));

    // Group size k from the parity byte share the loss estimate
    // justifies: share = clamp(safety * loss, floor, cap), then
    // m / (k + m) == share  =>  k = m * (1 - share) / share. The
    // floor is the share at k = max_group_size (the cheapest point
    // that still fields m parity rows).
    const int k_max = std::max(config_.max_group_size,
                               config_.min_group_size);
    const double floor_share =
        static_cast<double>(m) / static_cast<double>(k_max + m);
    const double share = std::clamp(
        kBurstSafety * ewma_loss_, floor_share,
        std::max(kMaxParityShare, floor_share));
    const int k_raw = static_cast<int>(std::lround(
        static_cast<double>(m) * (1.0 - share) / share));
    // k > m keeps the code a net win over plain repetition.
    const int k = std::clamp(
        k_raw, std::max({config_.min_group_size, m + 1, 2}),
        k_max);

    d.group_size = k;
    d.parity_chunks = m;
    d.gop_size = gop_size_;
    d.force_keyframe = force_key_;
    if (config_.wire_budget_bytes > 0) {
        // The encoder may spend only what parity leaves over: the
        // overload/byte ladder then sees redundancy's true cost
        // instead of discovering it as overshoot.
        d.payload_budget_bytes = static_cast<std::uint64_t>(
            static_cast<double>(config_.wire_budget_bytes) *
            static_cast<double>(k) / static_cast<double>(k + m));
        d.reuse_threshold = threshold_;
    }
    return d;
}

RedundancyDecision
RedundancyController::decide() const
{
    ScopedTrace trace("stream.redundancy_decide");
    MutexLock lock(mutex_);
    return decideLocked();
}

bool
RedundancyController::consumeForcedKeyframe()
{
    MutexLock lock(mutex_);
    const bool fire = force_key_;
    force_key_ = false;
    return fire;
}

void
RedundancyController::onFrameFeedback(int chunks_sent,
                                      int chunks_lost,
                                      int max_burst,
                                      bool delivered)
{
    MutexLock lock(mutex_);
    const double loss =
        chunks_sent > 0 ? static_cast<double>(chunks_lost) /
                              static_cast<double>(chunks_sent)
                        : 0.0;
    ewma_loss_ = kRedundancyEwmaAlpha * loss +
                 (1.0 - kRedundancyEwmaAlpha) * ewma_loss_;
    // Burst length only means something when chunks were lost; a
    // clean frame instead decays the estimate toward 1 (the
    // uncorrelated-loss baseline) so m relaxes on quiet links.
    const double burst_sample =
        chunks_lost > 0
            ? static_cast<double>(std::max(max_burst, 1))
            : 1.0;
    ewma_burst_ =
        kRedundancyEwmaAlpha * burst_sample +
        (1.0 - kRedundancyEwmaAlpha) * ewma_burst_;

    // GOP + keyframe react only to genuinely unrecoverable loss:
    // parity-absorbed damage already paid its bytes.
    if (!delivered) {
        force_key_ = true;
        clean_streak_ = 0;
        gop_size_ = std::max(gop_size_ / 2,
                             std::max(config_.min_gop_size, 1));
        return;
    }
    if (++clean_streak_ >= std::max(config_.grow_after_clean, 1)) {
        clean_streak_ = 0;
        gop_size_ = std::min(gop_size_ + 1,
                             std::max(config_.max_gop_size, 1));
    }
}

void
RedundancyController::onEncodedFrame(Frame::Type type,
                                     std::uint64_t payload_bytes)
{
    if (config_.wire_budget_bytes == 0 ||
        type != Frame::Type::kPredicted || payload_bytes == 0)
        return;
    MutexLock lock(mutex_);
    // Multiplicative rule toward the *post-parity* payload budget,
    // so bitrate and redundancy trade inside one wire envelope.
    const double budget = static_cast<double>(
        decideLocked().payload_budget_bytes);
    if (budget <= 0.0)
        return;
    const double ratio =
        static_cast<double>(payload_bytes) / budget;
    threshold_ *= std::pow(ratio, kRateGain);
    threshold_ = std::clamp(threshold_, config_.min_threshold,
                            config_.max_threshold);
}

}  // namespace edgepcc
