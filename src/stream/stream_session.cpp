#include "edgepcc/stream/stream_session.h"

#include <algorithm>
#include <limits>
#include <new>
#include <string>
#include <utility>

#include "edgepcc/common/trace.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/stream/rs_fec.h"

namespace edgepcc {

const char *
frameOutcomeName(FrameOutcome outcome)
{
    switch (outcome) {
      case FrameOutcome::kOk:
        return "ok";
      case FrameOutcome::kResynced:
        return "resynced";
      case FrameOutcome::kConcealed:
        return "concealed";
      case FrameOutcome::kSkipped:
        return "skipped";
    }
    return "unknown";
}

double
SessionStats::okOrConcealedFraction() const
{
    const std::size_t total = totalFrames();
    return total == 0
               ? 0.0
               : static_cast<double>(total - frames_skipped) /
                     static_cast<double>(total);
}

double
FecStats::singleLossRecoveredFraction() const
{
    return single_loss_groups == 0
               ? 1.0
               : static_cast<double>(single_loss_recovered) /
                     static_cast<double>(single_loss_groups);
}

double
FecStats::multiLossRecoveredFraction() const
{
    return multi_loss_groups == 0
               ? 1.0
               : static_cast<double>(multi_loss_recovered) /
                     static_cast<double>(multi_loss_groups);
}

// -----------------------------------------------------------------
// StreamReceiver
// -----------------------------------------------------------------

void
StreamReceiver::bufferSliceLocked(const ParsedChunk &chunk)
{
    SliceBuffer &buf = by_frame_[chunk.header.frame_id];
    if (buf.slice_count == 0) {
        // First intact slice of the frame fixes its shape.
        buf.slice_count = std::max<std::uint16_t>(
            chunk.header.slice_count, 1);
        buf.type = chunk.header.frame_type;
        buf.gop_id = chunk.header.gop_id;
    }
    if (chunk.header.slice_index >= buf.slice_count)
        return;  // inconsistent with the established shape
    // First intact copy wins; duplicates, retransmissions and FEC
    // reconstructions of an already-buffered slice are dropped.
    buf.slices.emplace(chunk.header.slice_index, chunk.payload);
}

void
StreamReceiver::tryRecoverLocked(FecGroup &group)
{
    if (group.recovered || group.expected == 0 ||
        group.data.size() >=
            static_cast<std::size_t>(group.expected))
        return;
    // Solvable once the received data rows plus parity rows reach
    // k. Retried on every later arrival (a failed attempt may
    // succeed once another row lands).
    const std::size_t missing = group.expected - group.data.size();
    if (group.parity_rows.size() < missing)
        return;
    std::optional<std::vector<ParsedChunk>> rebuilt =
        recoverRsChunks(group.expected, group.data,
                        group.parity_rows);
    if (!rebuilt.has_value())
        return;
    group.recovered = true;
    recovered_chunks_ += rebuilt->size();
    for (const ParsedChunk &chunk : *rebuilt)
        bufferSliceLocked(chunk);
}

WireScanStats
StreamReceiver::ingest(const std::vector<std::uint8_t> &wire)
{
    WireScanStats stats;
    std::vector<ParsedChunk> chunks = scanWire(wire, &stats);
    MutexLock lock(mutex_);
    for (ParsedChunk &chunk : chunks) {
        const ChunkHeader &header = chunk.header;
        const bool parity = header.isParity();
        if (!parity) {
            bufferSliceLocked(chunk);
            if ((header.flags & kChunkFlagFec) == 0)
                continue;
        }
        FecGroup &group =
            groups_[{header.frame_id, header.fec_group}];
        if (header.isRsFec())
            group.rs = true;
        if (group.expected == 0)
            group.expected = header.fec_group_size;
        if (parity) {
            // XOR parity is row 0; RS rows decode from the fec_seq
            // encoding (0xff, 0xfe, ...). First intact copy of
            // each row wins.
            group.parity_rows.emplace(
                header.isRsFec() ? rsParityRow(header.fec_seq) : 0,
                std::move(chunk.payload));
        } else {
            group.data.emplace(header.fec_seq, std::move(chunk));
        }
        tryRecoverLocked(group);
    }
    wire_.bytes_scanned += stats.bytes_scanned;
    wire_.bytes_skipped += stats.bytes_skipped;
    wire_.chunks_ok += stats.chunks_ok;
    wire_.chunks_bad_crc += stats.chunks_bad_crc;
    wire_.chunks_truncated += stats.chunks_truncated;
    return stats;
}

bool
StreamReceiver::frameCompleteLocked(std::uint32_t frame_id) const
{
    const auto it = by_frame_.find(frame_id);
    return it != by_frame_.end() && it->second.complete();
}

bool
StreamReceiver::hasFrame(std::uint32_t frame_id) const
{
    MutexLock lock(mutex_);
    return frameCompleteLocked(frame_id);
}

bool
StreamReceiver::hasSlice(std::uint32_t frame_id,
                         std::uint16_t slice_index) const
{
    MutexLock lock(mutex_);
    const auto it = by_frame_.find(frame_id);
    return it != by_frame_.end() &&
           it->second.slices.count(slice_index) != 0;
}

WireScanStats
StreamReceiver::wireStats() const
{
    MutexLock lock(mutex_);
    return wire_;
}

FecStats
StreamReceiver::fecStats() const
{
    MutexLock lock(mutex_);
    FecStats stats;
    stats.recovered_chunks = recovered_chunks_;
    for (const auto &[key, group] : groups_) {
        ++stats.groups;
        const std::size_t expected = group.expected;
        const std::size_t data_missing =
            expected > group.data.size()
                ? expected - group.data.size()
                : 0;
        stats.parity_received += group.parity_rows.size();
        if (group.rs) {
            // RS accounting keys off data losses alone (a lost
            // parity row needs no recovery, and m is unknown here):
            // one lost data chunk is a single-loss group, two or
            // more are the multi-loss case XOR could never cover.
            if (data_missing == 1) {
                ++stats.single_loss_groups;
                if (group.recovered)
                    ++stats.single_loss_recovered;
            } else if (data_missing >= 2) {
                ++stats.multi_loss_groups;
                if (group.recovered)
                    ++stats.multi_loss_recovered;
            }
        } else {
            // XOR sends exactly one parity row, so a lost parity
            // chunk is a loss of the group too.
            const std::size_t missing_total =
                data_missing + (group.parity_rows.empty() ? 1 : 0);
            if (missing_total == 1) {
                ++stats.single_loss_groups;
                if (data_missing == 0 || group.recovered)
                    ++stats.single_loss_recovered;
            }
        }
        if (data_missing > 0 && !group.recovered)
            ++stats.unrecovered_groups;
    }
    return stats;
}

std::vector<SessionFrame>
StreamReceiver::decodeAll(std::uint32_t expected_frames)
{
    ScopedTrace trace("session.decode");
    MutexLock lock(mutex_);
    std::vector<SessionFrame> results;
    results.reserve(expected_frames);

    // Ladder state: the last presentable cloud (freeze/conceal
    // source), the GOP id of the last intact I frame (reference
    // validity), and whether damage occurred since the last intact
    // I frame (drives the resynced outcome).
    std::optional<VoxelCloud> last_good;
    std::optional<std::uint32_t> good_intra_gop;
    bool damaged = false;

    const auto degrade = [&](SessionFrame &result) {
        if (last_good.has_value()) {
            result.outcome = FrameOutcome::kConcealed;
            result.cloud = *last_good;
        } else {
            result.outcome = FrameOutcome::kSkipped;
        }
        damaged = true;
    };

    for (std::uint32_t id = 0; id < expected_frames; ++id) {
        SessionFrame result;
        result.frame_id = id;

        const auto it = by_frame_.find(id);
        if (it == by_frame_.end() || !it->second.complete()) {
            // Some slice never arrived intact: freeze the last good
            // frame, or skip when there has not been one yet.
            if (it != by_frame_.end())
                result.type = it->second.type;
            degrade(result);
            results.push_back(std::move(result));
            continue;
        }
        const SliceBuffer &buf = it->second;
        result.type = buf.type;
        result.delivered = true;

        // Reassemble the frame payload from its slices (std::map
        // iterates in slice_index order).
        std::vector<const std::vector<std::uint8_t> *> parts;
        parts.reserve(buf.slices.size());
        for (const auto &[index, payload] : buf.slices)
            parts.push_back(&payload);
        const std::vector<std::uint8_t> payload =
            assembleSlices(parts);

        if (buf.type == Frame::Type::kIntra) {
            auto decoded = decoder_.decode(payload);
            if (decoded.hasValue()) {
                result.outcome = damaged
                                     ? FrameOutcome::kResynced
                                     : FrameOutcome::kOk;
                result.cloud = std::move(decoded->cloud);
                result.decode_profile =
                    std::move(decoded->profile);
                last_good = result.cloud;
                good_intra_gop = buf.gop_id;
                damaged = false;
            } else {
                // The payload cleared the transport CRC but still
                // failed the codec's own validation; treat like a
                // lost chunk.
                degrade(result);
            }
            results.push_back(std::move(result));
            continue;
        }

        // P frame: decodable only when its anchor I frame was
        // decoded intact. Otherwise the decoder's reference is
        // stale (silent corruption) or absent — promote to a
        // geometry-only decode with concealed attributes.
        const bool reference_ok =
            good_intra_gop.has_value() &&
            *good_intra_gop == buf.gop_id &&
            decoder_.hasReference();
        if (reference_ok) {
            auto decoded = decoder_.decode(payload);
            if (decoded.hasValue()) {
                result.outcome = FrameOutcome::kOk;
                result.cloud = std::move(decoded->cloud);
                result.decode_profile =
                    std::move(decoded->profile);
                last_good = result.cloud;
                results.push_back(std::move(result));
                continue;
            }
        }
        bool concealed = false;
        auto promoted = decoder_.decodePromoted(
            payload,
            last_good.has_value() ? &*last_good : nullptr,
            &concealed);
        if (promoted.hasValue()) {
            result.outcome = FrameOutcome::kConcealed;
            result.cloud = std::move(promoted->cloud);
            result.decode_profile = std::move(promoted->profile);
            // Geometry is current even though attributes are
            // borrowed: better freeze source than an older frame.
            last_good = result.cloud;
            damaged = true;
        } else {
            degrade(result);
        }
        results.push_back(std::move(result));
    }
    return results;
}

// -----------------------------------------------------------------
// StreamSession
// -----------------------------------------------------------------

RetryPolicy
SessionConfig::retransmitPolicy() const
{
    RetryPolicy policy;
    policy.max_attempts = max_retransmits;
    policy.initial_backoff_s = backoff_ms / 1e3;
    policy.multiplier = 2.0;
    // The historical NACK schedule never clamped; keep its values
    // bit-identical (max_retransmits is small, so no overflow).
    policy.max_backoff_s =
        std::numeric_limits<double>::infinity();
    policy.jitter = 0.0;
    return policy;
}

Status
validateSessionConfig(const SessionConfig &config)
{
    if (config.max_retransmits < 0)
        return invalidArgument(
            "SessionConfig: max_retransmits must be >= 0, got " +
            std::to_string(config.max_retransmits));
    if (config.backoff_ms < 0.0)
        return invalidArgument(
            "SessionConfig: backoff_ms must be >= 0");

    const FecSpec &fec = config.fec;
    if (fec.enabled) {
        if (fec.group_size < 2 || fec.group_size > 255)
            return invalidArgument(
                "SessionConfig: fec.group_size must be in [2, "
                "255], got " +
                std::to_string(fec.group_size));
        if (fec.scheme == FecScheme::kReedSolomon) {
            if (fec.parity_chunks < 1)
                return invalidArgument(
                    "SessionConfig: RS fec.parity_chunks must be "
                    ">= 1, got " +
                    std::to_string(fec.parity_chunks));
            if (fec.parity_chunks >= fec.group_size)
                return invalidArgument(
                    "SessionConfig: RS parity m (" +
                    std::to_string(fec.parity_chunks) +
                    ") must be < group size k (" +
                    std::to_string(fec.group_size) +
                    "); at m >= k plain repetition is cheaper");
            if (fec.group_size + fec.parity_chunks >
                kRsMaxGroupPlusParity)
                return invalidArgument(
                    "SessionConfig: fec.group_size + "
                    "parity_chunks must be <= 255 (GF(256) Cauchy "
                    "bound)");
        }
    } else {
        if (config.fec_interleave > 1)
            return invalidArgument(
                "SessionConfig: fec_interleave > 1 requires "
                "fec.enabled");
    }

    if (config.fec_interleave < 1)
        return invalidArgument(
            "SessionConfig: fec_interleave must be >= 1, got " +
            std::to_string(config.fec_interleave));
    if (config.fec_interleave > 1) {
        if (config.mtu_payload == 0)
            return invalidArgument(
                "SessionConfig: fec_interleave > 1 requires MTU "
                "slicing (mtu_payload != 0) — one chunk per frame "
                "leaves nothing to stripe");
        if (fec.group_size % config.fec_interleave != 0)
            return invalidArgument(
                "SessionConfig: fec_interleave (" +
                std::to_string(config.fec_interleave) +
                ") must divide the group's slice budget "
                "(fec.group_size = " +
                std::to_string(fec.group_size) +
                ") so every lane carries equal-depth groups");
    }

    // Every session runs the redundancy controller (it sets the GOP
    // even when disabled), so its bounds are checked for every
    // session; most are std::clamp ranges, which need lo <= hi.
    const RedundancyConfig &red = config.redundancy;
    if (red.enabled &&
        (!fec.enabled || fec.scheme != FecScheme::kReedSolomon))
        return invalidArgument(
            "SessionConfig: redundancy controller requires "
            "fec.enabled with FecScheme::kReedSolomon");
    if (red.min_group_size < 2 ||
        red.max_group_size < red.min_group_size)
        return invalidArgument(
            "SessionConfig: redundancy group-size bounds "
            "invalid (need 2 <= min <= max)");
    if (red.min_parity < 1 || red.max_parity < red.min_parity)
        return invalidArgument(
            "SessionConfig: redundancy parity bounds invalid "
            "(need 1 <= min <= max)");
    if (red.max_parity >= red.max_group_size)
        return invalidArgument(
            "SessionConfig: redundancy max_parity must be < "
            "max_group_size, so every negotiated k > m");
    if (red.max_group_size + red.max_parity >
        kRsMaxGroupPlusParity)
        return invalidArgument(
            "SessionConfig: redundancy max_group_size + "
            "max_parity must be <= 255");
    if (red.min_gop_size < 1 || red.max_gop_size < red.min_gop_size)
        return invalidArgument(
            "SessionConfig: redundancy GOP bounds invalid (need "
            "1 <= min_gop_size <= max_gop_size)");
    if (!(red.min_threshold <= red.max_threshold))
        return invalidArgument(
            "SessionConfig: redundancy min_threshold must be <= "
            "max_threshold");
    return Status();
}

StreamSession::StreamSession(CodecConfig codec,
                             SessionConfig session)
    : codec_(std::move(codec)), session_(std::move(session))
{
}

namespace {

/** Per-frame transport accounting attached after decodeAll. */
struct FrameSendInfo {
    int retransmits = 0;
    int nack_rounds = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;
    double backoff_s = 0.0;
    PipelineProfile encode_profile;
};

/** How one frame is coded and protected. */
struct FramePlan {
    int gop_size = 1;     ///< GOP length for the encoder
    int group_size = 0;   ///< FEC k; 0 without FEC
    int parity_rows = 0;  ///< parity chunks per group: 1 for XOR
    /** Reuse threshold (bitrate rung); negative leaves the codec
     *  config alone. */
    double reuse_threshold = -1.0;
    bool force_keyframe = false;
};

/** Everything the steps of StreamSession::run share. */
struct RunState {
    RunState(const CodecConfig &codec_config,
             const SessionConfig &session_config,
             std::size_t frame_count)
        : codec(codec_config), session(session_config),
          sent(frame_count)
    {
    }

    const CodecConfig &codec;
    const SessionConfig &session;
    std::vector<FrameSendInfo> sent;
    VideoEncoder encoder{codec};
    LossyChannel channel{session.channel};
    StreamReceiver receiver;
    RedundancyController redundancy{
        session.redundancy, codec.gop_size,
        codec.block_match.reuse_threshold};
    OverloadController ladder{session.overload};
    const EdgeDeviceModel device_model{DeviceSpec::jetsonXavier15W()};
    SessionReport report;

    // Overload ladder (inactive unless configured): the encode
    // "latency" is the modelled edge-device time of the recorded
    // profile scaled by the injected LoadSpec, so ladder walks are
    // deterministic and wall-clock free.
    double clock_s = 0.0;  ///< encoder-busy virtual time
    int applied_drop_bits = 0;
    OverloadRung applied_rung = OverloadRung::kFull;
    bool applied_any_rung = false;
    std::size_t consecutive_misses = 0;

    std::uint32_t next_sequence = 0;
    std::uint32_t gop_id = 0;
    std::uint16_t next_fec_group = 0;
    /** Channel stats at the last redundancy feedback: per-frame
     *  deltas are the deterministic stand-in for a receiver loss
     *  report. */
    ChannelStats reported;

    // Zero-copy send path: payloads are views into the encoded
    // frame (or the parity scratch), serialized into one reusable
    // wire buffer — the serialize step is the only payload copy
    // between the encoder and the channel.
    std::vector<std::uint8_t> wire_buf;
    std::vector<std::uint8_t> parity_buf;
};

void
sendChunk(RunState &st, ChunkHeader header, ByteSpan payload,
          FrameSendInfo &info)
{
    header.sequence = st.next_sequence++;
    serializeChunkInto(header, payload, st.wire_buf);
    info.wire_bytes += st.wire_buf.size();
    ++st.report.stats.chunks_sent;
    for (const auto &arrival : st.channel.transmit(st.wire_buf))
        st.receiver.ingest(arrival);
}

/**
 * Admission under the overload subsystem (everything passes when it
 * is off): oldest-drop queue backpressure on virtual time, injected
 * allocation failures and the bottom (skip) rung. Fills in the
 * frame's ladder record `slot` (rung and queue position) and
 * returns false when the frame is shed: never encoded, never sent.
 */
bool
admitFrame(RunState &st, OverloadFrame &slot, std::size_t frame_count)
{
    const OverloadConfig &config = st.session.overload;
    OverloadStats &overload = st.report.overload;
    slot.rung = st.ladder.rung();
    if (!config.enabled)
        return true;
    const auto shed = [&](OverloadEvent event) {
        OverloadFrame record = slot;
        record.event = event;
        overload.ladder.push_back(std::move(record));
    };

    const double fps = config.target_fps;
    if (fps > 0.0) {
        // Frame f is captured at f/fps; the encoder serves frames
        // in order, so the arrived-unserved window is exactly
        // [f, last_arrived]. Oldest-drop backpressure keeps the
        // newest queue_capacity + 1 of them (stale frames are
        // worthless in telepresence).
        const double arrival =
            static_cast<double>(slot.frame_id) / fps;
        if (st.clock_s < arrival)
            st.clock_s = arrival;  // encoder idle until capture
        const std::size_t last_arrived = std::min(
            frame_count - 1,
            static_cast<std::size_t>(st.clock_s * fps + 1e-9));
        slot.queue_depth =
            static_cast<int>(last_arrived - slot.frame_id);
        slot.queue_delay_s = st.clock_s - arrival;
        const std::size_t admitted =
            static_cast<std::size_t>(
                std::max(config.queue_capacity, 0)) +
            1;
        if (last_arrived - slot.frame_id + 1 > admitted) {
            shed(OverloadEvent::kQueueDrop);
            ++overload.queue_drops;
            return false;
        }
    }
    if (config.load.allocFailsAt(slot.frame_id)) {
        // Injected allocation failure: the encode entry point
        // reports resource exhaustion via Status and the session
        // sheds the frame instead of dying.
        shed(OverloadEvent::kAllocFailure);
        ++overload.alloc_failures;
        ++overload.rung_occupancy[static_cast<int>(slot.rung)];
        return false;
    }
    if (slot.rung == OverloadRung::kSkip) {
        // Bottom rung: shed the whole frame. Zero encode cost
        // counts as headroom, so hysteresis climbs back out.
        shed(st.ladder.onFrame(0.0));
        ++overload.rung_occupancy[static_cast<int>(slot.rung)];
        ++overload.frames_skipped;
        if (st.ladder.rung() != slot.rung)
            ++overload.rung_transitions;
        st.consecutive_misses = 0;
        return false;
    }
    return true;
}

/**
 * The frame's plan from the redundancy controller: the GOP length
 * and forced keyframe always, and FEC k and m plus the reuse
 * threshold when it is enabled (otherwise k and m are the fixed FEC
 * config and the codec's threshold stays).
 */
FramePlan
planFrame(RunState &st)
{
    const SessionConfig &session = st.session;
    const RedundancyDecision decision = st.redundancy.decide();
    FramePlan plan;
    plan.gop_size = decision.gop_size;
    plan.force_keyframe = st.redundancy.consumeForcedKeyframe();
    if (session.redundancy.enabled) {
        plan.group_size = decision.group_size;
        plan.parity_rows = decision.parity_chunks;
        plan.reuse_threshold = decision.reuse_threshold;
    } else {
        plan.group_size = session.fec.group_size;
        plan.parity_rows = session.fec.parity_chunks;
    }
    plan.group_size =
        session.fec.enabled ? std::max(plan.group_size, 1) : 0;
    plan.parity_rows =
        session.fec.scheme == FecScheme::kReedSolomon
            ? std::max(plan.parity_rows, 1)
            : 1;
    return plan;
}

/**
 * Books one encode on the ladder: per-stage modelled device
 * seconds, scaled by the injected load. The watchdog checks each
 * stage against its soft-timeout share of the deadline before the
 * frame total is judged.
 */
void
bookEncodeLatency(RunState &st, const OverloadFrame &slot,
                  const PipelineProfile &profile)
{
    const OverloadConfig &config = st.session.overload;
    OverloadStats &overload = st.report.overload;
    const double budget_s = st.ladder.budgetSeconds();
    const EffectiveLatency eff = effectiveEncodeLatency(
        st.device_model.evaluate(profile), config, slot.frame_id);
    const double effective_s = eff.total_s;
    const bool stalled =
        budget_s > 0.0 &&
        eff.worst_stage_s >
            budget_s * kStageSoftTimeoutFraction;
    const OverloadEvent event = stalled
                                    ? st.ladder.onStall(effective_s)
                                    : st.ladder.onFrame(effective_s);
    const bool missed = budget_s > 0.0 && effective_s > budget_s;

    OverloadFrame record = slot;
    record.event = event;
    record.encode_s = effective_s;
    record.deadline_missed = missed;
    if (stalled)
        record.stalled_stage = eff.worst_stage;
    overload.ladder.push_back(std::move(record));
    ++overload.rung_occupancy[static_cast<int>(slot.rung)];
    overload.encode_latency_s.push_back(effective_s);
    if (missed) {
        ++overload.deadline_misses;
        ++st.consecutive_misses;
        overload.max_consecutive_misses = std::max(
            overload.max_consecutive_misses, st.consecutive_misses);
    } else {
        st.consecutive_misses = 0;
    }
    if (stalled)
        ++overload.watchdog_stalls;
    if (st.ladder.rung() != slot.rung)
        ++overload.rung_transitions;
    st.clock_s += effective_s;
}

/**
 * Encodes one admitted frame: switches the encoder to the ladder
 * rung's coding (re-anchoring when the voxel grid changes), applies
 * the plan, encodes, and books the encode latency on the ladder.
 */
Expected<EncodedFrame>
encodeFrame(RunState &st, const OverloadFrame &slot,
            const VoxelCloud &frame, const FramePlan &plan)
{
    const OverloadConfig &overload = st.session.overload;
    VideoEncoder &encoder = st.encoder;
    const VoxelCloud *input = &frame;
    VoxelCloud coarse{frame.gridBits()};
    if (overload.enabled) {
        if (!st.applied_any_rung || slot.rung != st.applied_rung) {
            encoder.updateCoding(OverloadController::configForRung(
                st.codec, slot.rung, overload));
            st.applied_rung = slot.rung;
            st.applied_any_rung = true;
        }
        const int drop_bits =
            slot.rung >= OverloadRung::kCoarseGeometry
                ? kCoarseDropBits
                : 0;
        if (drop_bits != st.applied_drop_bits) {
            // The voxel grid changed; the prediction reference
            // lives on the old grid, so re-anchor.
            encoder.forceKeyframe();
            st.applied_drop_bits = drop_bits;
        }
        if (drop_bits > 0) {
            coarse = coarsenCloud(frame, drop_bits);
            input = &coarse;
        }
    }
    if (plan.reuse_threshold >= 0.0) {
        // Bitrate rung: steer P-frame payloads toward the
        // post-parity budget. Re-applied every frame — the rung
        // switch above replaces the codec config wholesale.
        CodecConfig tuned = overload.enabled
                                ? OverloadController::configForRung(
                                      st.codec, slot.rung, overload)
                                : st.codec;
        tuned.block_match.reuse_threshold = plan.reuse_threshold;
        encoder.updateCoding(tuned);
    }
    // Rungs from kInterOnly down pin their own GOP.
    if (!overload.enabled || slot.rung < OverloadRung::kInterOnly)
        encoder.setGopSize(plan.gop_size);
    if (plan.force_keyframe) {
        encoder.forceKeyframe();
        ++st.report.stats.keyframes_forced;
    }

    auto encoded = encoder.encode(*input);
    if (encoded && overload.enabled)
        bookEncodeLatency(st, slot, encoded->profile);
    return encoded;
}

/** Sends one group's parity: `rows` rows, i.e. row 0 alone (the
 *  XOR) for XOR FEC and m rows for Reed-Solomon. */
void
sendParity(RunState &st, const ChunkHeader &base,
           const std::vector<ChunkView> &group,
           std::uint8_t fec_flags, int rows, FrameSendInfo &info)
{
    ChunkHeader parity = base;
    parity.flags =
        static_cast<std::uint8_t>(kChunkFlagParity | fec_flags);
    parity.fec_group = group.front().header.fec_group;
    parity.fec_group_size = static_cast<std::uint8_t>(group.size());
    for (int row = 0; row < rows; ++row) {
        parity.fec_seq = rsParitySeq(row);
        buildRsParityInto(group, row, st.parity_buf);
        sendChunk(st, parity, ByteSpan(st.parity_buf), info);
        ++st.report.stats.parity_sent;
    }
}

/**
 * Slices the frame (one chunk per MTU payload, so a bit flip costs
 * a slice, not the frame; mtu_payload == 0 reproduces the v1
 * one-chunk-per-frame wire byte for byte) and sends it with its
 * FEC parity.
 *
 * Within each window of k * lanes slices, slice j joins group
 * j % lanes, and the window's data chunks go out before its
 * groups' parity. Consecutive wire chunks then belong to different
 * groups, so a drop burst of up to `lanes` chunks costs each group
 * at most one chunk; one lane is the contiguous grouping. Groups
 * never span frames, so the receiver can recover a loss before this
 * frame's NACK check runs, and it needs no interleave setting:
 * group membership travels in the chunk headers.
 *
 * Returns the slices, views into `bitstream`, for the NACK rounds.
 */
std::vector<ChunkView>
sendFrame(RunState &st, const ChunkHeader &base, ByteSpan bitstream,
          const FramePlan &plan, FrameSendInfo &info)
{
    std::vector<ChunkView> slices = sliceFramePayloadViews(
        base, bitstream, st.session.mtu_payload);
    if (plan.group_size == 0) {
        for (const ChunkView &slice : slices)
            sendChunk(st, slice.header, slice.payload, info);
        return slices;
    }

    const std::uint8_t fec_flags = static_cast<std::uint8_t>(
        kChunkFlagFec |
        (st.session.fec.scheme == FecScheme::kReedSolomon
             ? kChunkFlagRsFec
             : 0));
    const auto lanes_cfg = static_cast<std::size_t>(
        std::max(st.session.fec_interleave, 1));
    const std::size_t window =
        static_cast<std::size_t>(plan.group_size) * lanes_cfg;
    std::vector<ChunkView> group;
    for (std::size_t begin = 0; begin < slices.size();
         begin += window) {
        const std::size_t count =
            std::min(window, slices.size() - begin);
        const std::size_t lanes = std::min(lanes_cfg, count);
        const std::uint16_t base_group = st.next_fec_group;
        st.next_fec_group =
            static_cast<std::uint16_t>(st.next_fec_group + lanes);
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t lane = j % lanes;
            ChunkHeader &header = slices[begin + j].header;
            header.flags |= fec_flags;
            header.fec_group =
                static_cast<std::uint16_t>(base_group + lane);
            header.fec_seq = static_cast<std::uint8_t>(j / lanes);
            header.fec_group_size = static_cast<std::uint8_t>(
                count / lanes + (lane < count % lanes ? 1 : 0));
        }
        for (std::size_t j = 0; j < count; ++j)
            sendChunk(st, slices[begin + j].header,
                      slices[begin + j].payload, info);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            group.clear();
            for (std::size_t j = lane; j < count; j += lanes)
                group.push_back(slices[begin + j]);
            sendParity(st, base, group, fec_flags, plan.parity_rows,
                       info);
        }
    }
    return slices;
}

/**
 * Bounded NACK rounds: each round resends only the slices still
 * missing (after FEC recovery), with exponential backoff (modelled
 * latency, no sleeping) from the shared RetryPolicy.
 */
void
runNackRounds(RunState &st, const std::vector<ChunkView> &slices,
              FrameSendInfo &info)
{
    SessionStats &stats = st.report.stats;
    const RetryPolicy retry = st.session.retransmitPolicy();
    std::vector<std::size_t> missing;
    for (int round = 1; round <= st.session.max_retransmits;
         ++round) {
        missing.clear();
        for (std::size_t i = 0; i < slices.size(); ++i) {
            if (!st.receiver.hasSlice(slices[i].header.frame_id,
                                      slices[i].header.slice_index))
                missing.push_back(i);
        }
        if (missing.empty())
            break;
        ++info.nack_rounds;
        const double backoff = retry.backoffFor(round);
        info.backoff_s += backoff;
        stats.backoff_s += backoff;
        for (const std::size_t i : missing) {
            ChunkHeader resend = slices[i].header;
            resend.flags = static_cast<std::uint8_t>(
                (resend.flags & ~kChunkFlagFec) |
                kChunkFlagRetransmit);
            // The original FEC group is already closed; a resent
            // copy must not distort its accounting.
            resend.fec_group = 0;
            resend.fec_seq = 0;
            resend.fec_group_size = 0;
            ++stats.nacks;
            ++stats.retransmits;
            ++info.retransmits;
            sendChunk(st, resend, slices[i].payload, info);
        }
    }
}

/**
 * Feeds the frame's delivery and size back to the redundancy
 * controller. Reorder-held copies may still surface later; the final
 * flush catches them, but delivery feedback uses the post-retry
 * state (a held chunk is late, i.e. lost for latency purposes but
 * still usable for decode).
 */
void
feedBack(RunState &st, std::uint32_t frame_id, Frame::Type type,
         std::uint64_t payload_bytes)
{
    const bool delivered = st.receiver.hasFrame(frame_id);
    if (delivered)
        ++st.report.stats.frames_delivered;
    else
        ++st.report.stats.frames_lost;
    // Loss report from the channel-stat deltas of this frame's
    // sends (data + parity + retransmits). Using channel truth —
    // not post-recovery receiver state — keeps the burst estimate
    // honest: losses the parity absorbed must still count, or m
    // would decay and oscillate against the very bursts it covers.
    const ChannelStats &ch = st.channel.stats();
    const ChannelStats &was = st.reported;
    const std::size_t sent_d = ch.chunks_in - was.chunks_in;
    const std::size_t lost_d =
        (ch.dropped + ch.truncated + ch.bit_flipped) -
        (was.dropped + was.truncated + was.bit_flipped);
    const std::size_t bursts_d = ch.bursts - was.bursts;
    const std::size_t burst_drop_d =
        ch.burst_dropped - was.burst_dropped;
    st.reported = ch;
    const int max_burst =
        bursts_d > 0
            ? static_cast<int>((burst_drop_d + bursts_d - 1) /
                               bursts_d)
            : (lost_d > 0 ? 1 : 0);
    st.redundancy.onFrameFeedback(static_cast<int>(sent_d),
                                  static_cast<int>(lost_d),
                                  max_burst, delivered);
    st.redundancy.onEncodedFrame(type, payload_bytes);
}

/** Drains the channel, runs the receiver's degradation ladder and
 *  attaches each frame's send accounting. */
SessionReport
finishRun(RunState &st, std::uint32_t frame_count)
{
    for (const auto &arrival : st.channel.flush())
        st.receiver.ingest(arrival);

    SessionReport &report = st.report;
    report.overload.enabled = st.session.overload.enabled;
    report.overload.deadline_s =
        report.overload.enabled ? st.ladder.budgetSeconds() : 0.0;
    report.overload.frames = report.overload.ladder.size();
    report.frames = st.receiver.decodeAll(frame_count);
    report.wire = st.receiver.wireStats();
    report.fec = st.receiver.fecStats();

    for (SessionFrame &frame : report.frames) {
        FrameSendInfo &info = st.sent[frame.frame_id];
        frame.retransmits = info.retransmits;
        frame.nack_rounds = info.nack_rounds;
        frame.payload_bytes = info.payload_bytes;
        frame.wire_bytes = info.wire_bytes;
        frame.backoff_s = info.backoff_s;
        frame.encode_profile = std::move(info.encode_profile);
        report.stats.wire_bytes += info.wire_bytes;
        switch (frame.outcome) {
          case FrameOutcome::kOk:
            ++report.stats.frames_ok;
            break;
          case FrameOutcome::kResynced:
            ++report.stats.frames_resynced;
            break;
          case FrameOutcome::kConcealed:
            ++report.stats.frames_concealed;
            break;
          case FrameOutcome::kSkipped:
            ++report.stats.frames_skipped;
            break;
        }
    }
    return std::move(report);
}

}  // namespace

Expected<SessionReport>
StreamSession::run(const std::vector<VoxelCloud> &frames)
{
    if (frames.empty())
        return invalidArgument("StreamSession::run: no frames");
    if (Status valid = validateSessionConfig(session_);
        !valid.isOk())
        return valid;

    // Slicing, FEC, the channel and the receiver allocate outside
    // the encoder's own guard; under memory pressure that must
    // surface as a Status, never an exception escaping run().
    try {
        ScopedTrace trace("session.run");
        RunState st(codec_, session_, frames.size());
        for (std::size_t f = 0; f < frames.size(); ++f) {
            OverloadFrame slot;
            slot.frame_id = static_cast<std::uint32_t>(f);
            if (!admitFrame(st, slot, frames.size()))
                continue;
            const FramePlan plan = planFrame(st);
            auto encoded = encodeFrame(st, slot, frames[f], plan);
            if (!encoded)
                return encoded.status();

            const Frame::Type type = encoded->stats.type;
            if (type == Frame::Type::kIntra)
                st.gop_id = slot.frame_id;
            FrameSendInfo &info = st.sent[f];
            info.payload_bytes = encoded->bitstream.size();
            info.encode_profile = std::move(encoded->profile);

            ChunkHeader base;
            base.frame_id = slot.frame_id;
            base.gop_id = st.gop_id;
            base.frame_type = type;
            // The slices view encoded->bitstream, which stays alive
            // (and unmodified) through the NACK rounds.
            const std::vector<ChunkView> slices = sendFrame(
                st, base, ByteSpan(encoded->bitstream), plan, info);
            runNackRounds(st, slices, info);
            feedBack(st, slot.frame_id, type, info.payload_bytes);
        }
        return finishRun(st,
                         static_cast<std::uint32_t>(frames.size()));
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "StreamSession::run: allocation failed");
    }
}

}  // namespace edgepcc
