/**
 * @file
 * ISSUE-4 streaming features: v2 chunk header (slice + FEC fields)
 * with v1 back-compat pinned byte-for-byte, sub-frame slicing and
 * reassembly (reordered slices, one-slice blast radius for a bit
 * flip), XOR-parity FEC reconstruction edge cases (each chunk lost
 * in turn, parity itself lost, two losses, final partial group),
 * the session-level 5%-loss acceptance criterion, and the
 * network-aware transport mode of the pipeline evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "edgepcc/common/crc32c.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/lossy_channel.h"
#include "edgepcc/stream/pipeline.h"
#include "edgepcc/stream/rs_fec.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

std::vector<VoxelCloud>
testVideo(int num_frames, std::uint64_t seed = 91,
          std::size_t points = 6000)
{
    VideoSpec spec;
    spec.name = "fec-slicing-test";
    spec.seed = seed;
    spec.target_points = points;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

std::vector<std::uint8_t>
patternPayload(std::size_t size, std::uint8_t salt)
{
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i)
        payload[i] = static_cast<std::uint8_t>(
            (i * 31 + salt) & 0xff);
    return payload;
}

/** One member of a synthetic FEC group. */
ParsedChunk
makeDataChunk(std::uint8_t fec_seq, std::size_t payload_size,
              std::uint16_t fec_group = 7,
              std::uint8_t group_size = 3)
{
    ParsedChunk chunk;
    chunk.header.frame_id = 5;
    chunk.header.gop_id = 4;
    chunk.header.frame_type = Frame::Type::kPredicted;
    chunk.header.flags = kChunkFlagFec;
    chunk.header.slice_index = fec_seq;
    chunk.header.slice_count = group_size;
    chunk.header.fec_group = fec_group;
    chunk.header.fec_seq = fec_seq;
    chunk.header.fec_group_size = group_size;
    chunk.payload = patternPayload(payload_size, fec_seq);
    return chunk;
}

/** Send-side views over owned chunks (payloads stay in `group`). */
std::vector<ChunkView>
views(const std::vector<ParsedChunk> &group)
{
    std::vector<ChunkView> out;
    out.reserve(group.size());
    for (const ParsedChunk &chunk : group)
        out.push_back({chunk.header, ByteSpan(chunk.payload)});
    return out;
}

/** XOR parity of a group: Reed-Solomon parity row 0. */
std::vector<std::uint8_t>
xorParity(const std::vector<ParsedChunk> &group)
{
    std::vector<std::uint8_t> parity;
    buildRsParityInto(views(group), 0, parity);
    return parity;
}

// -----------------------------------------------------------------
// Wire format: v1 back-compat and v2 round-trip
// -----------------------------------------------------------------

/** A default header must serialize to the exact v1 layout — this
 *  pins the clean-channel byte-identity acceptance criterion. */
TEST(ChunkV2, DefaultHeaderEmitsV1Bytes)
{
    ChunkHeader header;
    header.sequence = 0x04030201u;
    header.frame_id = 0x14131211u;
    header.gop_id = 0x24232221u;
    header.frame_type = Frame::Type::kPredicted;
    const std::vector<std::uint8_t> payload = {0xaa, 0xbb, 0xcc};
    const auto wire = serializeChunk(header, payload);

    ASSERT_EQ(wire.size(), kChunkHeaderBytes + payload.size());
    // Hand-built v1 header, field by field.
    const std::uint8_t expected_prefix[] = {
        'E',  'P',  'C',  'K',         // marker
        0x01, 0x02, 0x03, 0x04,        // sequence LE
        0x11, 0x12, 0x13, 0x14,        // frame_id LE
        0x21, 0x22, 0x23, 0x24,        // gop_id LE
        0x01,                          // frame_type = P
        0x00,                          // flags (no V2 bit)
        0x03, 0x00, 0x00, 0x00,        // payload_size LE
    };
    for (std::size_t i = 0; i < sizeof(expected_prefix); ++i)
        EXPECT_EQ(wire[i], expected_prefix[i]) << "byte " << i;

    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(stats.chunks_ok, 1u);
    EXPECT_FALSE(parsed[0].header.isV2());
    EXPECT_EQ(parsed[0].header.slice_count, 1);
    EXPECT_EQ(parsed[0].payload, payload);
}

TEST(ChunkV2, ExtensionFieldsRoundTrip)
{
    ChunkHeader header;
    header.sequence = 9;
    header.frame_id = 3;
    header.gop_id = 2;
    header.frame_type = Frame::Type::kPredicted;
    header.flags = kChunkFlagFec;
    header.slice_index = 513;
    header.slice_count = 777;
    header.fec_group = 0xbeef;
    header.fec_seq = 3;
    header.fec_group_size = 4;
    const auto payload = patternPayload(64, 1);
    const auto wire = serializeChunk(header, payload);
    ASSERT_EQ(wire.size(), kChunkHeaderBytesV2 + payload.size());

    const auto parsed = scanWire(wire);
    ASSERT_EQ(parsed.size(), 1u);
    const ChunkHeader &h = parsed[0].header;
    EXPECT_TRUE(h.isV2());
    EXPECT_EQ(h.flags & kChunkFlagFec, kChunkFlagFec);
    EXPECT_EQ(h.slice_index, 513);
    EXPECT_EQ(h.slice_count, 777);
    EXPECT_EQ(h.fec_group, 0xbeef);
    EXPECT_EQ(h.fec_seq, 3);
    EXPECT_EQ(h.fec_group_size, 4);
    EXPECT_EQ(parsed[0].payload, payload);
}

/** v1 and v2 chunks interleaved in one buffer both parse — a v2
 *  receiver accepts old streams and vice versa for clean chunks. */
TEST(ChunkV2, MixedVersionsInOneWire)
{
    ChunkHeader v1;
    v1.frame_id = 1;
    ChunkHeader v2;
    v2.frame_id = 2;
    v2.slice_index = 1;
    v2.slice_count = 2;
    const auto wire = concatWire({
        serializeChunk(v1, patternPayload(10, 0)),
        serializeChunk(v2, patternPayload(11, 1)),
        serializeChunk(v1, patternPayload(12, 2)),
    });
    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(stats.bytes_skipped, 0u);
    EXPECT_FALSE(parsed[0].header.isV2());
    EXPECT_TRUE(parsed[1].header.isV2());
    EXPECT_EQ(parsed[1].header.slice_index, 1);
}

/** Flipping the V2 flag bit moves the CRC offset; the scan must
 *  reject the chunk rather than misparse it. */
TEST(ChunkV2, FlippedVersionBitRejected)
{
    ChunkHeader header;
    header.frame_id = 1;
    auto wire = serializeChunk(header, patternPayload(32, 3));
    wire[17] ^= kChunkFlagV2;
    WireScanStats stats;
    const auto parsed = scanWire(wire, &stats);
    EXPECT_TRUE(parsed.empty());
    EXPECT_GE(stats.chunks_bad_crc + stats.chunks_truncated, 1u);
}

// -----------------------------------------------------------------
// Sub-frame slicing
// -----------------------------------------------------------------

TEST(Slicing, SplitAndReassemble)
{
    ChunkHeader base;
    base.frame_id = 6;
    base.gop_id = 6;
    const auto payload = patternPayload(1000, 9);
    const auto slices = sliceFramePayload(base, payload, 300);
    ASSERT_EQ(slices.size(), 4u);  // 300+300+300+100
    std::vector<const std::vector<std::uint8_t> *> parts;
    for (const ParsedChunk &slice : slices) {
        EXPECT_EQ(slice.header.slice_count, 4);
        EXPECT_EQ(slice.header.frame_id, 6u);
        EXPECT_LE(slice.payload.size(), 300u);
        parts.push_back(&slice.payload);
    }
    EXPECT_EQ(slices[3].payload.size(), 100u);
    EXPECT_EQ(assembleSlices(parts), payload);
}

TEST(Slicing, ZeroMtuKeepsV1SingleChunk)
{
    ChunkHeader base;
    const auto payload = patternPayload(5000, 2);
    const auto slices = sliceFramePayload(base, payload, 0);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_FALSE(slices[0].header.isV2());
    EXPECT_EQ(slices[0].payload, payload);
}

/** Slices arriving in reverse order still reassemble and decode. */
TEST(Slicing, ReorderedSlicesReassemble)
{
    const auto frames = testVideo(1);
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames[0]);
    ASSERT_TRUE(encoded.hasValue());

    ChunkHeader base;
    base.frame_id = 0;
    auto slices =
        sliceFramePayload(base, encoded->bitstream, 256);
    ASSERT_GT(slices.size(), 2u);
    std::reverse(slices.begin(), slices.end());

    StreamReceiver receiver;
    for (const ParsedChunk &slice : slices)
        receiver.ingest(
            serializeChunk(slice.header, slice.payload));
    EXPECT_TRUE(receiver.hasFrame(0));
    const auto decoded = receiver.decodeAll(1);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].outcome, FrameOutcome::kOk);
}

/** A bit flip knocks out exactly the slice it hit. */
TEST(Slicing, BitFlipCostsOneSlice)
{
    ChunkHeader base;
    base.frame_id = 0;
    const auto payload = patternPayload(900, 5);
    const auto slices = sliceFramePayload(base, payload, 300);
    ASSERT_EQ(slices.size(), 3u);

    StreamReceiver receiver;
    for (std::size_t i = 0; i < slices.size(); ++i) {
        auto wire =
            serializeChunk(slices[i].header, slices[i].payload);
        if (i == 1)
            wire[wire.size() / 2] ^= 0x10;
        receiver.ingest(wire);
    }
    EXPECT_FALSE(receiver.hasFrame(0));
    EXPECT_TRUE(receiver.hasSlice(0, 0));
    EXPECT_FALSE(receiver.hasSlice(0, 1));
    EXPECT_TRUE(receiver.hasSlice(0, 2));
}

// -----------------------------------------------------------------
// XOR-parity FEC reconstruction (Reed-Solomon with m = 1)
// -----------------------------------------------------------------

TEST(Fec, RecoversEachChunkInTurn)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),  // shorter than the longest
        makeDataChunk(2, 220),
    };
    const std::map<int, std::vector<std::uint8_t>> parity = {
        {0, xorParity(group)}};
    for (std::size_t lost = 0; lost < group.size(); ++lost) {
        std::map<std::uint8_t, ParsedChunk> received;
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (i != lost)
                received.emplace(group[i].header.fec_seq, group[i]);
        }
        const auto rebuilt = recoverRsChunks(3, received, parity);
        ASSERT_TRUE(rebuilt.has_value()) << "lost " << lost;
        ASSERT_EQ(rebuilt->size(), 1u);
        const ParsedChunk &chunk = rebuilt->front();
        EXPECT_EQ(chunk.header.frame_id,
                  group[lost].header.frame_id);
        EXPECT_EQ(chunk.header.gop_id, group[lost].header.gop_id);
        EXPECT_EQ(chunk.header.slice_index,
                  group[lost].header.slice_index);
        EXPECT_EQ(chunk.header.slice_count,
                  group[lost].header.slice_count);
        EXPECT_EQ(chunk.header.frame_type,
                  group[lost].header.frame_type);
        EXPECT_EQ(chunk.header.fec_seq, group[lost].header.fec_seq);
        EXPECT_EQ(chunk.payload, group[lost].payload);
    }
}

TEST(Fec, TwoLossesRejected)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),
        makeDataChunk(2, 220),
    };
    // Only one survivor: two erasures against one parity row must
    // be refused, never fabricated.
    EXPECT_FALSE(recoverRsChunks(3, {{0, group[0]}},
                                 {{0, xorParity(group)}})
                     .has_value());
}

/** Receiver-level: parity chunk itself lost. The data is complete,
 *  so nothing needs recovery, and the group still counts as a
 *  single loss survived without retransmission. */
TEST(Fec, ParityLostDataComplete)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 100),
        makeDataChunk(1, 100),
        makeDataChunk(2, 100),
    };
    StreamReceiver receiver;
    for (const ParsedChunk &chunk : group)
        receiver.ingest(
            serializeChunk(chunk.header, chunk.payload));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.parity_received, 0u);
    EXPECT_EQ(stats.recovered_chunks, 0u);
    EXPECT_EQ(stats.single_loss_groups, 1u);
    EXPECT_EQ(stats.single_loss_recovered, 1u);
    EXPECT_DOUBLE_EQ(stats.singleLossRecoveredFraction(), 1.0);
}

/** Receiver-level: one data chunk lost, parity arrives late. */
TEST(Fec, ReceiverRecoversFromParity)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 300),
        makeDataChunk(1, 300),
        makeDataChunk(2, 140),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.slice_index = 0;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(
        serializeChunk(group[0].header, group[0].payload));
    receiver.ingest(
        serializeChunk(group[2].header, group[2].payload));
    EXPECT_FALSE(receiver.hasSlice(5, 1));
    receiver.ingest(serializeChunk(parity_header, parity));
    EXPECT_TRUE(receiver.hasSlice(5, 1));
    EXPECT_TRUE(receiver.hasFrame(5));

    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 1u);
    EXPECT_EQ(stats.single_loss_groups, 1u);
    EXPECT_EQ(stats.single_loss_recovered, 1u);
    EXPECT_EQ(stats.unrecovered_groups, 0u);
}

/** Receiver-level: two data chunks lost in one group — recovery is
 *  impossible and the group is reported for the NACK fallback. */
TEST(Fec, ReceiverTwoLossesFallBackToNack)
{
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 300),
        makeDataChunk(1, 300),
        makeDataChunk(2, 140),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(
        serializeChunk(group[0].header, group[0].payload));
    receiver.ingest(serializeChunk(parity_header, parity));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 0u);
    EXPECT_EQ(stats.single_loss_groups, 0u);
    EXPECT_EQ(stats.unrecovered_groups, 1u);
    EXPECT_FALSE(receiver.hasFrame(5));
}

/** Loss on the final partial group of a frame (fewer data chunks
 *  than FecSpec::group_size) still recovers. */
TEST(Fec, FinalPartialGroupRecovers)
{
    // Group of 2 (e.g. 6 slices with group_size 4 -> 4 + 2).
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 180, /*fec_group=*/9, /*group_size=*/2),
        makeDataChunk(1, 90, /*fec_group=*/9, /*group_size=*/2),
    };
    ChunkHeader parity_header = group[0].header;
    parity_header.flags = kChunkFlagParity | kChunkFlagFec;
    parity_header.fec_seq = kFecParitySeq;
    const auto parity = xorParity(group);

    StreamReceiver receiver;
    receiver.ingest(serializeChunk(parity_header, parity));
    receiver.ingest(
        serializeChunk(group[1].header, group[1].payload));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.recovered_chunks, 1u);
    EXPECT_TRUE(receiver.hasSlice(5, 0));
}

/** The sender's u16 group id wraps after 65,536 groups (about 70 s
 *  of a 100k-point stream), so two frames can carry the same id. A
 *  group is only ever a group within one frame: the second frame's
 *  loss must still be rebuilt from its own parity, not merged into
 *  the first frame's finished group. */
TEST(Fec, GroupIdReusedAcrossFramesStillRecovers)
{
    StreamReceiver receiver;
    for (std::uint32_t frame = 0; frame < 2; ++frame) {
        std::vector<ParsedChunk> group = {
            makeDataChunk(0, 120),
            makeDataChunk(1, 200),
            makeDataChunk(2, 90),
        };
        for (ParsedChunk &chunk : group)
            chunk.header.frame_id = frame;
        ChunkHeader parity_header = group[0].header;
        parity_header.flags = kChunkFlagParity | kChunkFlagFec;
        parity_header.fec_seq = rsParitySeq(0);
        const std::vector<std::uint8_t> parity = xorParity(group);
        for (const ParsedChunk &chunk : group) {
            // Frame 1 loses its middle slice.
            if (frame == 1 && chunk.header.fec_seq == 1)
                continue;
            receiver.ingest(
                serializeChunk(chunk.header, chunk.payload));
        }
        receiver.ingest(serializeChunk(parity_header, parity));
    }
    EXPECT_TRUE(receiver.hasFrame(0));
    EXPECT_TRUE(receiver.hasFrame(1));
    const FecStats stats = receiver.fecStats();
    EXPECT_EQ(stats.groups, 2u);
    EXPECT_EQ(stats.recovered_chunks, 1u);
    EXPECT_EQ(stats.unrecovered_groups, 0u);
}

// -----------------------------------------------------------------
// Session-level FEC + slicing
// -----------------------------------------------------------------

SessionConfig
fecSessionConfig(double loss, std::uint64_t seed)
{
    SessionConfig session;
    session.channel = ChannelSpec::lossy(loss, seed);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.group_size = 4;
    return session;
}

/** ISSUE-4 acceptance: at 5% chunk loss, >= 90% of single-loss
 *  groups recover without a retransmission. */
TEST(SessionFec, AcceptanceFivePercentSingleLossRecovery)
{
    const auto frames = testVideo(30);
    StreamSession stream(makeIntraInterV1Config(),
                         fecSessionConfig(0.05, 17));
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());

    // The sliced stream actually exercised FEC.
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_GT(report->fec.groups, 0u);
    EXPECT_GT(report->fec.single_loss_groups, 0u);
    EXPECT_GT(report->fec.recovered_chunks, 0u);
    EXPECT_GE(report->fec.singleLossRecoveredFraction(), 0.9);

    // FEC + NACK fallback keeps the stream watchable.
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_DOUBLE_EQ(report->stats.okOrConcealedFraction(), 1.0);
}

/** FEC reduces retransmissions vs the identical NACK-only run. */
TEST(SessionFec, FewerRetransmitsThanNackOnly)
{
    const auto frames = testVideo(20);
    SessionConfig with_fec = fecSessionConfig(0.05, 23);
    SessionConfig nack_only = with_fec;
    nack_only.fec.enabled = false;

    auto fec_report =
        StreamSession(makeIntraInterV1Config(), with_fec)
            .run(frames);
    auto nack_report =
        StreamSession(makeIntraInterV1Config(), nack_only)
            .run(frames);
    ASSERT_TRUE(fec_report.hasValue());
    ASSERT_TRUE(nack_report.hasValue());
    EXPECT_LT(fec_report->stats.retransmits,
              nack_report->stats.retransmits);
    EXPECT_EQ(nack_report->stats.parity_sent, 0u);
    EXPECT_EQ(nack_report->fec.groups, 0u);
}

TEST(SessionFec, DeterministicAcrossRuns)
{
    const auto frames = testVideo(12);
    const SessionConfig session = fecSessionConfig(0.08, 5);
    auto a = StreamSession(makeIntraInterV1Config(), session)
                 .run(frames);
    auto b = StreamSession(makeIntraInterV1Config(), session)
                 .run(frames);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->stats.chunks_sent, b->stats.chunks_sent);
    EXPECT_EQ(a->stats.retransmits, b->stats.retransmits);
    EXPECT_EQ(a->stats.wire_bytes, b->stats.wire_bytes);
    EXPECT_EQ(a->fec.recovered_chunks, b->fec.recovered_chunks);
    ASSERT_EQ(a->frames.size(), b->frames.size());
    for (std::size_t f = 0; f < a->frames.size(); ++f)
        EXPECT_EQ(a->frames[f].outcome, b->frames[f].outcome);
}

/** Clean channel with slicing+FEC on: zero recovery activity and
 *  every frame intact. */
TEST(SessionFec, CleanChannelNoRecoveryNeeded)
{
    const auto frames = testVideo(6);
    SessionConfig session = fecSessionConfig(0.0, 1);
    session.channel = ChannelSpec::clean();
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->fec.recovered_chunks, 0u);
    EXPECT_EQ(report->fec.single_loss_groups, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
    EXPECT_GT(report->stats.parity_sent, 0u);
}

// -----------------------------------------------------------------
// Burst loss and FEC interleaving
// -----------------------------------------------------------------

/** The bursty channel drops runs of consecutive chunks — the loss
 *  pattern XOR parity is weakest against without interleaving. */
TEST(Fec, BurstChannelDropsConsecutiveRuns)
{
    const ChannelSpec spec = ChannelSpec::bursty(0.04, 4, 11);
    EXPECT_FALSE(spec.isClean());
    LossyChannel channel(spec);

    // 200 distinguishable chunks; record which survive.
    std::vector<bool> arrived(200, false);
    for (std::uint32_t i = 0; i < 200; ++i) {
        ChunkHeader header;
        header.sequence = i;
        header.frame_id = i;
        const auto wire =
            serializeChunk(header, patternPayload(32, 1));
        for (const auto &out : channel.transmit(wire)) {
            WireScanStats stats;
            const auto parsed = scanWire(out, &stats);
            ASSERT_EQ(parsed.size(), 1u);
            arrived[parsed[0].header.frame_id] = true;
        }
    }
    for (const auto &out : channel.flush())
        (void)out;  // pure burst spec never reorders

    const ChannelStats &stats = channel.stats();
    EXPECT_GT(stats.bursts, 0u);
    EXPECT_EQ(stats.dropped, stats.burst_dropped);
    EXPECT_EQ(stats.burst_dropped, stats.bursts * 4);

    // Every loss run is a whole burst (or back-to-back bursts):
    // a multiple of burst_length consecutive chunks.
    std::size_t run = 0;
    std::size_t lost = 0;
    for (std::size_t i = 0; i <= arrived.size(); ++i) {
        if (i < arrived.size() && !arrived[i]) {
            ++run;
            ++lost;
            continue;
        }
        EXPECT_EQ(run % 4, 0u) << "run ending at chunk " << i;
        run = 0;
    }
    EXPECT_EQ(lost, stats.dropped);
}

/**
 * ISSUE-5 satellite: interleaving spreads a drop burst across FEC
 * groups. With contiguous grouping a 3-chunk burst lands 2+ losses
 * in one XOR group (unrecoverable without NACK); with interleave
 * depth 4 the same burst costs 3 different groups one chunk each —
 * all parity-recoverable. Same channel, same codec, FEC-only
 * recovery (no retransmission rounds).
 */
TEST(SessionFec, InterleaveSpreadsBurstAcrossGroups)
{
    const CodecConfig codec = makeIntraInterV1Config();
    const auto frames = testVideo(16, 91, 4000);
    SessionConfig contiguous;
    contiguous.channel = ChannelSpec::bursty(0.025, 3, 29);
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

    // Both runs saw bursts; only the interleaved one turns them
    // into single losses per group.
    EXPECT_GT(flat->fec.unrecovered_groups, 0u);
    EXPECT_LT(striped->fec.unrecovered_groups,
              flat->fec.unrecovered_groups);
    EXPECT_GT(striped->stats.frames_ok, flat->stats.frames_ok);
    EXPECT_GT(striped->fec.recovered_chunks, 0u);
}

/** Interleave depth 1 must keep the contiguous wire bytes exactly
 *  (it is the documented no-op default). */
TEST(SessionFec, InterleaveDepthOneIsByteIdentical)
{
    const auto frames = testVideo(6);
    SessionConfig base = fecSessionConfig(0.0, 1);
    base.channel = ChannelSpec::clean();
    SessionConfig depth_one = base;
    depth_one.fec_interleave = 1;

    auto a = StreamSession(makeIntraInterV1Config(), base)
                 .run(frames);
    auto b = StreamSession(makeIntraInterV1Config(), depth_one)
                 .run(frames);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->stats.wire_bytes, b->stats.wire_bytes);
    EXPECT_EQ(a->stats.chunks_sent, b->stats.chunks_sent);
    EXPECT_EQ(a->stats.parity_sent, b->stats.parity_sent);
}

/** Interleaved groups still recover on a clean channel (the
 *  receiver is header-driven, so striping must be transparent). */
TEST(SessionFec, InterleavedCleanChannelAllOk)
{
    const auto frames = testVideo(6);
    SessionConfig session = fecSessionConfig(0.0, 1);
    session.channel = ChannelSpec::clean();
    session.fec_interleave = 4;
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->stats.frames_ok, frames.size());
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_EQ(report->fec.unrecovered_groups, 0u);
}

// -----------------------------------------------------------------
// Reed-Solomon burst acceptance
// -----------------------------------------------------------------

SessionConfig
rsBurstConfig(double burst_rate, int burst_length,
              std::uint64_t seed)
{
    SessionConfig session;
    session.channel =
        ChannelSpec::bursty(burst_rate, burst_length, seed);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.fec.group_size = 6;
    session.fec.parity_chunks = 3;
    return session;
}

/** PR 10 acceptance: on a bursty channel (burst length >= 3) an RS
 *  session with parity depth >= burst length recovers >= 90% of
 *  multi-loss groups with zero NACK round-trips. */
TEST(SessionRsFec, BurstLossRecoversWithoutRetransmit)
{
    const auto frames = testVideo(20);
    StreamSession stream(makeIntraInterV1Config(),
                         rsBurstConfig(0.02, 3, 1));
    auto report = stream.run(frames);
    ASSERT_TRUE(report.hasValue());

    // Bursts actually hit FEC groups with multiple losses --
    // patterns XOR parity could never cover.
    EXPECT_GT(report->fec.multi_loss_groups, 0u);
    EXPECT_GE(report->fec.multiLossRecoveredFraction(), 0.9);
    EXPECT_GT(report->fec.recovered_chunks, 0u);

    // Every group was rebuilt from parity before the NACK
    // fallback fired: no retransmission round-trips at all.
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_lost, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
}

/** On the identical burst channel, XOR parity (depth 1) leaves
 *  multi-loss groups for the NACK fallback while RS solves them
 *  in-stream. */
TEST(SessionRsFec, FewerRetransmitsThanXorOnBurstChannel)
{
    const auto frames = testVideo(20);
    SessionConfig rs = rsBurstConfig(0.02, 3, 1);
    SessionConfig xor_fec = rs;
    xor_fec.fec.scheme = FecScheme::kXor;

    auto rs_report =
        StreamSession(makeIntraInterV1Config(), rs).run(frames);
    auto xor_report =
        StreamSession(makeIntraInterV1Config(), xor_fec)
            .run(frames);
    ASSERT_TRUE(rs_report.hasValue());
    ASSERT_TRUE(xor_report.hasValue());

    // XOR cannot rebuild any multi-loss group; RS rebuilt them
    // all, so only the XOR run pays retransmission round-trips.
    EXPECT_EQ(xor_report->fec.multi_loss_recovered, 0u);
    EXPECT_GT(xor_report->stats.retransmits,
              rs_report->stats.retransmits);
    EXPECT_GT(rs_report->fec.multi_loss_recovered, 0u);
}

/** Clean channel: RS parity rows ride along but no recovery or
 *  retransmission activity happens. */
TEST(SessionRsFec, CleanChannelSendsParityOnly)
{
    const auto frames = testVideo(6);
    SessionConfig session = rsBurstConfig(0.0, 3, 7);
    session.channel = ChannelSpec::clean();
    auto report =
        StreamSession(makeIntraInterV1Config(), session)
            .run(frames);
    ASSERT_TRUE(report.hasValue());
    EXPECT_GT(report->stats.parity_sent, 0u);
    EXPECT_EQ(report->fec.recovered_chunks, 0u);
    EXPECT_EQ(report->stats.retransmits, 0u);
    EXPECT_EQ(report->stats.frames_ok, frames.size());
}

// -----------------------------------------------------------------
// Wire fingerprints
// -----------------------------------------------------------------

/** Every observable count of a session on one line, so a pin
 *  mismatch shows the whole difference at once. */
std::string
fingerprint(const SessionReport &report)
{
    const SessionStats &s = report.stats;
    const FecStats &fec = report.fec;
    const WireScanStats &w = report.wire;
    std::ostringstream out;
    out << "sent " << s.chunks_sent << " parity " << s.parity_sent
        << " delivered " << s.frames_delivered << " lost "
        << s.frames_lost << " nacks " << s.nacks << " retx "
        << s.retransmits << " keys " << s.keyframes_forced
        << " ok " << s.frames_ok << " resynced "
        << s.frames_resynced << " concealed " << s.frames_concealed
        << " skipped " << s.frames_skipped << " wire "
        << s.wire_bytes << " backoff_us "
        << std::llround(s.backoff_s * 1e6) << " | groups "
        << fec.groups << " parity_rx " << fec.parity_received
        << " recovered " << fec.recovered_chunks << " single "
        << fec.single_loss_recovered << "/" << fec.single_loss_groups
        << " multi " << fec.multi_loss_recovered << "/"
        << fec.multi_loss_groups << " unrecovered "
        << fec.unrecovered_groups << " | scanned " << w.bytes_scanned
        << " skipped " << w.bytes_skipped << " ok " << w.chunks_ok
        << " bad_crc " << w.chunks_bad_crc << " truncated "
        << w.chunks_truncated << " | frames";
    for (const SessionFrame &frame : report.frames)
        out << " " << frame.wire_bytes
            << frameOutcomeName(frame.outcome)[0];
    return out.str();
}

struct PinnedSession {
    const char *name;
    SessionConfig config;
    const char *expected;
};

/**
 * Safety net for the send path: eight seeded 12-frame sessions
 * (no FEC, XOR contiguous and interleaved, Reed-Solomon fixed and
 * negotiated) with every counter, every frame's wire size and
 * outcome pinned to the values of the wire that had a separate XOR
 * algebra and two group-emission loops. No field may move: the
 * only wire bytes allowed to differ from that wire are
 * Reed-Solomon parity payloads, which no count here can see.
 */
TEST(SessionFec, WireFingerprintsPinned)
{
    // XOR parity known answer over a group with unequal payload
    // lengths: Reed-Solomon row 0 must be the plain XOR of the
    // records, byte for byte.
    const std::vector<ParsedChunk> group = {
        makeDataChunk(0, 200),
        makeDataChunk(1, 150),
        makeDataChunk(2, 220),
    };
    const std::vector<std::uint8_t> parity = xorParity(group);
    EXPECT_EQ(parity.size(), kFecRecordPrefixBytes + 220);
    EXPECT_EQ(crc32c(parity), 0x4d44ef75u);

    const auto frames = testVideo(12, 91, 3000);
    SessionConfig sliced;
    sliced.mtu_payload = 300;
    SessionConfig xor_fec = sliced;
    xor_fec.fec.enabled = true;
    xor_fec.fec.group_size = 4;
    SessionConfig rs = sliced;
    rs.fec.enabled = true;
    rs.fec.scheme = FecScheme::kReedSolomon;
    rs.fec.group_size = 6;
    rs.fec.parity_chunks = 3;

    std::vector<PinnedSession> sessions;
    {
        SessionConfig c;
        c.channel = ChannelSpec::lossy(0.15, 3);
        c.max_retransmits = 0;
        sessions.push_back(
            {"nofec-v1", c,
             "sent 12 parity 0 delivered 11 lost 1 nacks 0 retx 0 "
             "keys 1 ok 10 resynced 1 concealed 1 skipped 0 wire "
             "90204 backoff_us 0 | groups 0 parity_rx 0 recovered "
             "0 single 0/0 multi 0/0 unrecovered 0 | scanned 82930 "
             "skipped 0 ok 11 bad_crc 0 truncated 0 | frames 7732o "
             "7368o 7446o 7737o 7273o 7493o 7274c 7741r 7390o "
             "7718o 7287o 7745o"});
    }
    {
        SessionConfig c = sliced;
        c.channel = ChannelSpec::lossy(0.06, 5);
        sessions.push_back(
            {"nofec-sliced", c,
             "sent 322 parity 0 delivered 11 lost 1 nacks 17 retx "
             "17 keys 1 ok 10 resynced 1 concealed 1 skipped 0 "
             "wire 105925 backoff_us 104000 | groups 0 parity_rx 0 "
             "recovered 0 single 0/0 multi 0/0 unrecovered 0 | "
             "scanned 102813 skipped 2900 ok 304 bad_crc 5 "
             "truncated 6 | frames 9258o 8192o 8270o 8595o 8765o "
             "8651o 8432o 9153o 9315c 9244r 8445o 9605o"});
    }
    sessions.push_back(
        {"xor-clean", xor_fec,
         "sent 387 parity 84 delivered 12 lost 0 nacks 0 retx "
         "0 keys 0 ok 12 resynced 0 concealed 0 skipped 0 wire "
         "127772 backoff_us 0 | groups 84 parity_rx 84 "
         "recovered 0 single 0/0 multi 0/0 unrecovered 0 | "
         "scanned 127772 skipped 0 ok 387 bad_crc 0 truncated "
         "0 | frames 11054o 10498o 10654o 11059o 10308o 10748o "
         "10310o 10416o 11111o 10474o 10462o 10678o"});
    {
        SessionConfig c = xor_fec;
        c.channel = ChannelSpec::lossy(0.08, 7);
        c.channel.duplicate_rate = 0.03;
        c.channel.reorder_rate = 0.05;
        sessions.push_back(
            {"xor-lossy", c,
             "sent 394 parity 84 delivered 12 lost 0 nacks 7 retx "
             "7 keys 0 ok 12 resynced 0 concealed 0 skipped 0 wire "
             "130110 backoff_us 40000 | groups 84 parity_rx 79 "
             "recovered 21 single 21/21 multi 0/0 unrecovered 3 | "
             "scanned 127930 skipped 3787 ok 375 bad_crc 7 "
             "truncated 9 | frames 11054o 10498o 10654o 11059o "
             "10308o 11416o 10310o 10416o 12113o 10474o 10462o "
             "11346o"});
    }
    {
        SessionConfig c = xor_fec;
        c.channel = ChannelSpec::bursty(0.03, 3, 11);
        c.fec_interleave = 2;
        sessions.push_back(
            {"xor-lanes2-bursty", c,
             "sent 397 parity 87 delivered 12 lost 0 nacks 7 retx "
             "7 keys 0 ok 12 resynced 0 concealed 0 skipped 0 wire "
             "130946 backoff_us 24000 | groups 87 parity_rx 79 "
             "recovered 9 single 15/15 multi 0/0 unrecovered 4 | "
             "scanned 123237 skipped 0 ok 373 bad_crc 0 truncated "
             "0 | frames 11312o 10498o 10654o 12324o 10308o 11416o "
             "10310o 10416o 12094o 10474o 10462o 10678o"});
    }
    {
        SessionConfig c = xor_fec;
        c.channel = ChannelSpec::lossy(0.1, 13);
        c.fec_interleave = 4;
        c.max_retransmits = 0;
        sessions.push_back(
            {"xor-lanes4-lossy", c,
             "sent 407 parity 96 delivered 6 lost 6 nacks 0 retx 0 "
             "keys 6 ok 3 resynced 3 concealed 6 skipped 0 wire "
             "136701 backoff_us 0 | groups 96 parity_rx 85 "
             "recovered 18 single 25/25 multi 0/0 unrecovered 8 | "
             "scanned 130535 skipped 7883 ok 365 bad_crc 18 "
             "truncated 10 | frames 11406o 11008c 11493c 11411r "
             "11330c 11483c 11449r 11415o 11463o 11392c 11432c "
             "11419r"});
    }
    {
        SessionConfig c = rs;
        c.channel = ChannelSpec::bursty(0.03, 3, 17);
        sessions.push_back(
            {"rs-k6m3-bursty", c,
             "sent 494 parity 180 delivered 12 lost 0 nacks 11 "
             "retx 11 keys 0 ok 12 resynced 0 concealed 0 skipped "
             "0 wire 162460 backoff_us 16000 | groups 60 parity_rx "
             "171 recovered 25 single 3/3 multi 8/10 unrecovered 2 "
             "| scanned 147268 skipped 0 ok 449 bad_crc 0 "
             "truncated 0 | frames 13870o 15002o 13310o 13875o "
             "14288o 13498o 12622o 12834o 13927o 12950o 12926o "
             "13358o"});
    }
    {
        SessionConfig c = rs;
        c.channel = ChannelSpec::bursty(0.04, 3, 19);
        c.fec.parity_chunks = 2;
        c.redundancy.enabled = true;
        c.redundancy.wire_budget_bytes = 2500;
        sessions.push_back(
            {"rs-redundancy", c,
             "sent 362 parity 94 delivered 12 lost 0 nacks 18 retx "
             "18 keys 0 ok 12 resynced 0 concealed 0 skipped 0 "
             "wire 120694 backoff_us 40000 | groups 37 parity_rx "
             "81 recovered 14 single 1/2 multi 5/10 unrecovered 6 "
             "| scanned 105586 skipped 0 ok 317 bad_crc 0 "
             "truncated 0 | frames 10202o 11604o 10185o 11005o "
             "11006o 10619o 10661o 8759o 14595o 9034o 7437o 5587o"});
    }

    for (const PinnedSession &pinned : sessions) {
        auto report = StreamSession(makeIntraInterV1Config(),
                                    pinned.config)
                          .run(frames);
        ASSERT_TRUE(report.hasValue()) << pinned.name;
        EXPECT_EQ(fingerprint(*report), pinned.expected)
            << pinned.name;
    }
}

// -----------------------------------------------------------------
// Network-aware pipeline evaluation
// -----------------------------------------------------------------

TEST(PipelineTransport, ReportsRecoveryLatency)
{
    const auto frames = testVideo(8, 91, 4000);
    PipelineConfig config;
    config.network = NetworkSpec::wifi();
    config.network.packet_loss_rate = 0.05;
    config.transport = true;
    config.transport_seed = 3;
    config.session.mtu_payload = 400;
    config.session.fec.enabled = true;

    auto report = evaluatePipeline(
        frames, makeIntraInterV1Config(), config);
    ASSERT_TRUE(report.hasValue());
    EXPECT_TRUE(report->transport);
    ASSERT_EQ(report->frames.size(), frames.size());
    EXPECT_GT(report->session.chunks_sent, 0u);
    double recovery = 0.0;
    for (const FrameLatency &frame : report->frames) {
        // Wire bytes include framing + parity, so they exceed the
        // raw payload for every delivered frame.
        EXPECT_GT(frame.wire_bytes, frame.bytes);
        EXPECT_GT(frame.transmit_s, 0.0);
        EXPECT_GE(frame.recovery_s, 0.0);
        EXPECT_GE(frame.total(),
                  frame.capture_s + frame.render_s);
        recovery += frame.recovery_s;
        if (frame.retransmits > 0) {
            EXPECT_GT(frame.recovery_s, 0.0);
        }
    }
    EXPECT_EQ(report->meanRecoverySeconds() * frames.size(),
              recovery);
}

/** Without transport the analytic model is untouched: loss-free
 *  session stats stay zero and recovery is zero. */
TEST(PipelineTransport, AnalyticModeUnchanged)
{
    const auto frames = testVideo(3, 91, 3000);
    PipelineConfig config;
    auto report = evaluatePipeline(
        frames, makeIntraOnlyConfig(), config);
    ASSERT_TRUE(report.hasValue());
    EXPECT_FALSE(report->transport);
    EXPECT_EQ(report->session.chunks_sent, 0u);
    for (const FrameLatency &frame : report->frames) {
        EXPECT_EQ(frame.recovery_s, 0.0);
        EXPECT_EQ(frame.outcome, FrameOutcome::kOk);
        EXPECT_EQ(frame.wire_bytes, frame.bytes);
    }
}

/** Transport evaluation is deterministic for a fixed seed. */
TEST(PipelineTransport, Deterministic)
{
    const auto frames = testVideo(5, 91, 3000);
    PipelineConfig config;
    config.network = NetworkSpec::lte();
    config.transport = true;
    config.transport_seed = 11;
    config.session.mtu_payload = 500;
    config.session.fec.enabled = true;

    auto a = evaluatePipeline(frames, makeIntraInterV1Config(),
                              config);
    auto b = evaluatePipeline(frames, makeIntraInterV1Config(),
                              config);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(a->session.wire_bytes, b->session.wire_bytes);
    ASSERT_EQ(a->frames.size(), b->frames.size());
    for (std::size_t f = 0; f < a->frames.size(); ++f) {
        EXPECT_EQ(a->frames[f].wire_bytes,
                  b->frames[f].wire_bytes);
        EXPECT_DOUBLE_EQ(a->frames[f].total(),
                         b->frames[f].total());
    }
}

}  // namespace
}  // namespace edgepcc
