/**
 * @file
 * Chaos suite (tier2): randomized loss sweeps through the full
 * resilient session. The channel seed comes from EDGEPCC_CHAOS_SEED
 * (default 1) so CI can rotate seeds without a rebuild; everything
 * else is deterministic given that seed. The invariants are the
 * hardening contract, not quality numbers: every frame must come
 * back with a FrameOutcome, no crash, no hang, no out-of-bounds
 * output, and the accounting must stay self-consistent.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

std::uint64_t
chaosSeed()
{
    const char *env = std::getenv("EDGEPCC_CHAOS_SEED");
    if (env == nullptr || *env == '\0')
        return 1;
    return static_cast<std::uint64_t>(
        std::strtoull(env, nullptr, 10));
}

std::vector<VoxelCloud>
chaosVideo(int num_frames, std::uint64_t seed)
{
    VideoSpec spec;
    spec.name = "chaos";
    spec.seed = seed;
    spec.target_points = 3000;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

void
checkInvariants(const SessionReport &report,
                std::size_t num_frames)
{
    ASSERT_EQ(report.frames.size(), num_frames);
    ASSERT_EQ(report.stats.totalFrames(), num_frames);
    for (std::size_t f = 0; f < report.frames.size(); ++f) {
        const SessionFrame &frame = report.frames[f];
        EXPECT_EQ(frame.frame_id, f);
        if (frame.outcome == FrameOutcome::kSkipped) {
            EXPECT_TRUE(frame.cloud.empty());
            continue;
        }
        // Presentable frames carry in-bounds geometry.
        const std::uint32_t grid = frame.cloud.gridSize();
        for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
            EXPECT_LT(frame.cloud.x()[i], grid);
            EXPECT_LT(frame.cloud.y()[i], grid);
            EXPECT_LT(frame.cloud.z()[i], grid);
        }
    }
    EXPECT_EQ(report.stats.frames_delivered +
                  report.stats.frames_lost,
              num_frames);
    EXPECT_EQ(report.stats.nacks, report.stats.retransmits);
}

class ChaosStream
    : public ::testing::TestWithParam<double>
{
};

TEST_P(ChaosStream, SessionSurvivesLossSweep)
{
    const double loss = GetParam();
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(16, seed * 1000 + 7);

    SessionConfig session;
    session.channel = ChannelSpec::lossy(loss, seed);
    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    checkInvariants(*report, frames.size());
    SCOPED_TRACE("loss=" + std::to_string(loss) +
                 " seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(LossRates, ChaosStream,
                         ::testing::Values(0.0, 0.02, 0.05, 0.1,
                                           0.25, 0.5, 0.9));

TEST(ChaosStream, AllFaultTypesAtOnce)
{
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(16, seed * 2000 + 3);

    SessionConfig session;
    session.channel.drop_rate = 0.1;
    session.channel.truncate_rate = 0.1;
    session.channel.bit_flip_rate = 0.1;
    session.channel.duplicate_rate = 0.2;
    session.channel.reorder_rate = 0.3;
    session.channel.seed = seed;
    session.max_retransmits = 3;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    checkInvariants(*report, frames.size());
    // Something must actually have been injected at these rates.
    EXPECT_GT(report->wire.chunks_bad_crc +
                  report->wire.chunks_truncated +
                  report->stats.retransmits,
              0u);
}

/** Slicing + FEC under the loss sweep: same invariants, plus the
 *  FEC accounting must stay self-consistent. */
class ChaosFecStream
    : public ::testing::TestWithParam<double>
{
};

TEST_P(ChaosFecStream, SlicedFecSessionSurvivesLossSweep)
{
    const double loss = GetParam();
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(16, seed * 4000 + 13);

    SessionConfig session;
    session.channel = ChannelSpec::lossy(loss, seed);
    session.mtu_payload = 300;
    session.fec.enabled = true;
    session.fec.group_size = 4;
    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    checkInvariants(*report, frames.size());
    SCOPED_TRACE("loss=" + std::to_string(loss) +
                 " seed=" + std::to_string(seed));

    const FecStats &fec = report->fec;
    EXPECT_LE(fec.single_loss_recovered, fec.single_loss_groups);
    EXPECT_LE(fec.parity_received, fec.groups);
    EXPECT_LE(fec.unrecovered_groups, fec.groups);
    EXPECT_GE(fec.singleLossRecoveredFraction(), 0.0);
    EXPECT_LE(fec.singleLossRecoveredFraction(), 1.0);
    if (loss == 0.0) {
        EXPECT_EQ(fec.recovered_chunks, 0u);
        EXPECT_EQ(report->stats.retransmits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(LossRates, ChaosFecStream,
                         ::testing::Values(0.0, 0.05, 0.25,
                                           0.6));

/** All fault types with slicing + FEC and a tiny group size. */
TEST(ChaosStream, AllFaultTypesWithFecAndSlicing)
{
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(12, seed * 5000 + 17);

    SessionConfig session;
    session.channel.drop_rate = 0.1;
    session.channel.truncate_rate = 0.1;
    session.channel.bit_flip_rate = 0.1;
    session.channel.duplicate_rate = 0.2;
    session.channel.reorder_rate = 0.3;
    session.channel.seed = seed;
    session.max_retransmits = 3;
    session.mtu_payload = 200;
    session.fec.enabled = true;
    session.fec.group_size = 2;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    checkInvariants(*report, frames.size());
    EXPECT_GT(report->stats.parity_sent, 0u);
}

/**
 * Burst-loss sweep: FEC interleaving must improve the recovered
 * fraction. Aggregated over several derived channel seeds so the
 * comparison is about structure (striping bursts across groups),
 * not one lucky RNG alignment — CI rotates the base seed.
 */
TEST(ChaosBurstFec, InterleaveImprovesRecoveredFraction)
{
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(12, seed * 6000 + 19);
    const CodecConfig codec = makeIntraInterV1Config();

    std::size_t flat_ok = 0;
    std::size_t striped_ok = 0;
    std::size_t flat_unrecovered = 0;
    std::size_t striped_unrecovered = 0;
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
        SessionConfig contiguous;
        contiguous.channel =
            ChannelSpec::bursty(0.025, 3, seed * 100 + trial);
        contiguous.mtu_payload = 400;
        contiguous.fec.enabled = true;
        contiguous.fec.group_size = 4;
        contiguous.max_retransmits = 0;
        contiguous.redundancy.min_gop_size = codec.gop_size;
        contiguous.redundancy.max_gop_size = codec.gop_size;
        SessionConfig interleaved = contiguous;
        interleaved.fec_interleave = 4;

        auto flat = StreamSession(codec, contiguous).run(frames);
        auto striped = StreamSession(codec, interleaved).run(frames);
        ASSERT_TRUE(flat.hasValue());
        ASSERT_TRUE(striped.hasValue());
        checkInvariants(*flat, frames.size());
        checkInvariants(*striped, frames.size());
        flat_ok += flat->stats.frames_ok;
        striped_ok += striped->stats.frames_ok;
        flat_unrecovered += flat->fec.unrecovered_groups;
        striped_unrecovered += striped->fec.unrecovered_groups;
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_GT(striped_ok, flat_ok);
    EXPECT_LT(striped_unrecovered, flat_unrecovered);
}

/** The deadline ladder under channel loss at the same time: both
 *  degradation mechanisms active, all invariants intact. */
TEST(ChaosStream, OverloadLadderSurvivesLossSweep)
{
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(16, seed * 7000 + 23);

    SessionConfig session;
    session.channel = ChannelSpec::lossy(0.15, seed);
    session.mtu_payload = 300;
    session.fec.enabled = true;
    session.fec.group_size = 4;
    session.overload.enabled = true;
    session.overload.deadline_s = 0.004;
    session.overload.load = LoadSpec::burst2x();
    session.overload.load.seed = seed;
    session.overload.load.jitter = 0.1;

    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    // Dropped/skipped frames are never sent, so the delivered +
    // lost == frames invariant does not hold; check the ladder's
    // own accounting instead.
    ASSERT_EQ(report->frames.size(), frames.size());
    const OverloadStats &overload = report->overload;
    ASSERT_EQ(overload.ladder.size(), frames.size());
    std::size_t occupancy = 0;
    for (int r = 0; r < kOverloadRungCount; ++r)
        occupancy += overload.rung_occupancy[r];
    EXPECT_EQ(occupancy + overload.queue_drops, frames.size());
    EXPECT_EQ(overload.frames, frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f)
        EXPECT_EQ(overload.ladder[f].frame_id, f);
}

TEST(ChaosStream, IntraOnlyCodecSurvivesHeavyLoss)
{
    const std::uint64_t seed = chaosSeed();
    const auto frames = chaosVideo(12, seed * 3000 + 11);

    SessionConfig session;
    session.channel = ChannelSpec::lossy(0.4, seed + 1);
    session.max_retransmits = 1;
    StreamSession stream(makeIntraOnlyConfig(), session);
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());
    checkInvariants(*report, frames.size());
    // Intra-only: a delivered frame never depends on a reference,
    // so nothing can be concealed by reference promotion — every
    // delivered frame decodes ok or resynced.
    for (const SessionFrame &frame : report->frames) {
        if (frame.delivered) {
            EXPECT_NE(frame.outcome, FrameOutcome::kSkipped);
        }
    }
}

}  // namespace
}  // namespace edgepcc
