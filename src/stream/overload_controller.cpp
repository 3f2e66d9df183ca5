#include "edgepcc/stream/overload_controller.h"

#include <algorithm>
#include <map>
#include <optional>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/common/rng.h"
#include "edgepcc/common/trace.h"

namespace edgepcc {

namespace {

/** Reads the value of @p pair ("key=value") with finiteNumber(). */
Status
parseFinite(const std::string &pair, const std::string &value,
            double *out)
{
    const std::optional<double> num = finiteNumber(value);
    if (!num)
        return invalidArgument("LoadSpec::parse: '" + pair +
                               "' needs a finite number");
    *out = *num;
    return Status::ok();
}

/** Reads the value of @p pair with wholeNumber() into the unsigned
 *  @p T. */
template <typename T>
Status
parseWhole(const std::string &pair, const std::string &value, T *out)
{
    const std::optional<T> num = wholeNumber<T>(value);
    if (!num)
        return invalidArgument("LoadSpec::parse: '" + pair +
                               "' needs a whole number >= 0");
    *out = *num;
    return Status::ok();
}

}  // namespace

const char *
overloadRungName(OverloadRung rung)
{
    switch (rung) {
      case OverloadRung::kFull:
        return "full";
      case OverloadRung::kNoEntropy:
        return "no-entropy";
      case OverloadRung::kCoarseGeometry:
        return "coarse-geometry";
      case OverloadRung::kCoarseAttr:
        return "coarse-attr";
      case OverloadRung::kInterOnly:
        return "inter-only";
      case OverloadRung::kSkip:
        return "skip";
    }
    return "unknown";
}

const char *
overloadEventName(OverloadEvent event)
{
    switch (event) {
      case OverloadEvent::kNone:
        return "none";
      case OverloadEvent::kDeadlineMiss:
        return "deadline-miss";
      case OverloadEvent::kStageStall:
        return "stage-stall";
      case OverloadEvent::kRecovered:
        return "recovered";
      case OverloadEvent::kAllocFailure:
        return "alloc-failure";
      case OverloadEvent::kQueueDrop:
        return "queue-drop";
    }
    return "unknown";
}

// -----------------------------------------------------------------
// LoadSpec
// -----------------------------------------------------------------

LoadSpec
LoadSpec::none()
{
    return LoadSpec{};
}

LoadSpec
LoadSpec::burst2x()
{
    LoadSpec spec;
    spec.burst_start = 8;
    spec.burst_frames = 12;
    spec.burst_slowdown = 2.0;
    return spec;
}

LoadSpec
LoadSpec::stallGeometry()
{
    LoadSpec spec = burst2x();
    spec.stall_stage = "geom.";
    spec.stall_factor = 6.0;
    return spec;
}

bool
LoadSpec::inBurst(std::uint32_t frame) const
{
    return burst_frames != 0 && frame >= burst_start &&
           frame < burst_start + burst_frames;
}

bool
LoadSpec::allocFailsAt(std::uint32_t frame) const
{
    return std::find(alloc_failure_frames.begin(),
                     alloc_failure_frames.end(),
                     frame) != alloc_failure_frames.end();
}

bool
LoadSpec::isIdle() const
{
    return slowdown == 1.0 && burst_frames == 0 &&
           stall_factor == 1.0 && alloc_failure_frames.empty() &&
           jitter == 0.0;
}

double
LoadSpec::factorFor(std::uint32_t frame,
                    const std::string &stage) const
{
    double factor = inBurst(frame) ? burst_slowdown : slowdown;
    if (inBurst(frame) && !stall_stage.empty() &&
        stage.rfind(stall_stage, 0) == 0) {
        factor *= stall_factor;
    }
    return factor;
}

double
LoadSpec::jitterFor(std::uint32_t frame) const
{
    return jitterFactor(jitter, seed, 0xf00dull, frame);
}

Expected<LoadSpec>
LoadSpec::parse(const std::string &text)
{
    if (text.empty() || text == "none")
        return LoadSpec::none();
    if (text == "burst2x")
        return LoadSpec::burst2x();
    if (text == "stall-geometry")
        return LoadSpec::stallGeometry();

    LoadSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string pair = text.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return invalidArgument(
                "LoadSpec::parse: expected key=value, got '" +
                pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        if (key == "stall-stage") {
            if (value.empty())
                return invalidArgument(
                    "LoadSpec::parse: empty stall-stage");
            spec.stall_stage = value;
            continue;
        }
        Status parsed;
        if (key == "slowdown") {
            parsed = parseFinite(pair, value, &spec.slowdown);
        } else if (key == "burst-start") {
            parsed = parseWhole(pair, value, &spec.burst_start);
        } else if (key == "burst-frames") {
            parsed = parseWhole(pair, value, &spec.burst_frames);
        } else if (key == "burst-slowdown") {
            parsed = parseFinite(pair, value, &spec.burst_slowdown);
        } else if (key == "stall-factor") {
            parsed = parseFinite(pair, value, &spec.stall_factor);
            if (spec.stall_stage.empty())
                spec.stall_stage = "geom.";
        } else if (key == "alloc-fail") {
            std::uint32_t frame = 0;
            parsed = parseWhole(pair, value, &frame);
            spec.alloc_failure_frames.push_back(frame);
        } else if (key == "jitter") {
            parsed = parseFinite(pair, value, &spec.jitter);
        } else if (key == "seed") {
            parsed = parseWhole(pair, value, &spec.seed);
        } else {
            return invalidArgument(
                "LoadSpec::parse: unknown key '" + key + "'");
        }
        EDGEPCC_RETURN_IF_ERROR(parsed);
    }
    if (spec.slowdown <= 0.0 || spec.burst_slowdown <= 0.0 ||
        spec.stall_factor <= 0.0 || spec.jitter < 0.0 ||
        spec.jitter >= 1.0) {
        return invalidArgument(
            "LoadSpec::parse: factors must be > 0 and jitter in "
            "[0, 1)");
    }
    return spec;
}

// -----------------------------------------------------------------
// OverloadConfig / OverloadStats
// -----------------------------------------------------------------

double
OverloadConfig::budgetSeconds() const
{
    if (deadline_s > 0.0)
        return deadline_s;
    return target_fps > 0.0 ? 1.0 / target_fps : 0.0;
}

double
OverloadStats::deadlineMissRate() const
{
    return frames == 0 ? 0.0
                       : static_cast<double>(deadline_misses) /
                             static_cast<double>(frames);
}

// -----------------------------------------------------------------
// OverloadController
// -----------------------------------------------------------------

OverloadController::OverloadController(OverloadConfig config)
    : config_(std::move(config)),
      budget_s_(config_.budgetSeconds())
{
}

OverloadEvent
OverloadController::descendLocked(OverloadEvent cause)
{
    headroom_streak_ = 0;
    if (rung_ != OverloadRung::kSkip) {
        rung_ = static_cast<OverloadRung>(
            static_cast<int>(rung_) + 1);
    }
    return cause;
}

OverloadEvent
OverloadController::onFrame(double encode_s)
{
    if (budget_s_ <= 0.0)
        return OverloadEvent::kNone;
    MutexLock lock(mutex_);
    const double utilization = encode_s / budget_s_;
    ewma_utilization_ =
        (1.0 - kOverloadEwmaAlpha) * ewma_utilization_ +
        kOverloadEwmaAlpha * utilization;
    if (encode_s > budget_s_)
        return descendLocked(OverloadEvent::kDeadlineMiss);
    if (rung_ == OverloadRung::kFull ||
        ewma_utilization_ >= kOverloadRecoverHeadroom) {
        headroom_streak_ = 0;
        return OverloadEvent::kNone;
    }
    if (++headroom_streak_ < kOverloadRecoverAfterClean)
        return OverloadEvent::kNone;
    headroom_streak_ = 0;
    rung_ = static_cast<OverloadRung>(static_cast<int>(rung_) - 1);
    return OverloadEvent::kRecovered;
}

OverloadEvent
OverloadController::onStall(double encode_s)
{
    if (budget_s_ <= 0.0)
        return OverloadEvent::kNone;
    MutexLock lock(mutex_);
    ewma_utilization_ =
        (1.0 - kOverloadEwmaAlpha) * ewma_utilization_ +
        kOverloadEwmaAlpha * (encode_s / budget_s_);
    return descendLocked(OverloadEvent::kStageStall);
}

CodecConfig
OverloadController::configForRung(const CodecConfig &base,
                                  OverloadRung rung,
                                  const OverloadConfig &config)
{
    CodecConfig derived = base;
    const int level = static_cast<int>(rung);
    if (level >= static_cast<int>(OverloadRung::kNoEntropy)) {
        derived.geometry.entropy_coding = false;
        derived.geometry.contextual_entropy = false;
    }
    // kCoarseGeometry acts on the input cloud (coarsenCloud in the
    // session), not on the codec configuration.
    if (level >= static_cast<int>(OverloadRung::kCoarseAttr)) {
        const std::uint32_t mult =
            std::max<std::uint32_t>(config.coarse_quant_multiplier,
                                    1);
        derived.segment.quant_step =
            std::max<std::uint32_t>(derived.segment.quant_step, 1) *
            mult;
        derived.raht.qstep *= static_cast<double>(mult);
        derived.predicting.qstep *= static_cast<double>(mult);
    }
    if (level >= static_cast<int>(OverloadRung::kInterOnly) &&
        derived.inter_mode != InterMode::kNone) {
        // One anchor I frame, then P frames until the ladder climbs
        // back (forced keyframes still re-anchor when needed).
        derived.gop_size = 1 << 20;
    }
    return derived;
}

// -----------------------------------------------------------------
// effectiveEncodeLatency
// -----------------------------------------------------------------

EffectiveLatency
effectiveEncodeLatency(const PipelineTiming &timing,
                       const OverloadConfig &config,
                       std::uint32_t frame_id)
{
    const LoadSpec &load = config.load;
    const double jitter = load.jitterFor(frame_id);
    EffectiveLatency eff;
    for (const StageTiming &stage : timing.stages) {
        const double stage_s = stage.model_seconds *
                               load.factorFor(frame_id, stage.name) *
                               jitter;
        eff.total_s += stage_s;
        if (stage_s > eff.worst_stage_s) {
            eff.worst_stage_s = stage_s;
            eff.worst_stage = stage.name;
        }
    }
    return eff;
}

// -----------------------------------------------------------------
// coarsenCloud
// -----------------------------------------------------------------

VoxelCloud
coarsenCloud(const VoxelCloud &cloud, int drop_bits)
{
    ScopedTrace trace("overload.coarsen");
    const int bits =
        std::clamp(drop_bits, 0, std::max(cloud.gridBits() - 1, 0));
    if (bits == 0)
        return cloud;
    VoxelCloud coarse(cloud.gridBits() - bits);
    // Deterministic first-wins merge in coarse Morton-free key
    // order of appearance (matches the geometry codec's dedup
    // rule for duplicate voxels).
    std::map<std::uint64_t, std::size_t> seen;
    coarse.reserve(cloud.size());
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const std::uint16_t x =
            static_cast<std::uint16_t>(cloud.x()[i] >> bits);
        const std::uint16_t y =
            static_cast<std::uint16_t>(cloud.y()[i] >> bits);
        const std::uint16_t z =
            static_cast<std::uint16_t>(cloud.z()[i] >> bits);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(x) << 32) |
            (static_cast<std::uint64_t>(y) << 16) |
            static_cast<std::uint64_t>(z);
        if (!seen.emplace(key, i).second)
            continue;
        coarse.add(x, y, z, cloud.r()[i], cloud.g()[i],
                   cloud.b()[i]);
    }
    return coarse;
}

}  // namespace edgepcc
