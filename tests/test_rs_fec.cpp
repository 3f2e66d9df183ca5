/**
 * @file
 * PR 10 robustness: GF(256) arithmetic KATs against the polynomial
 * definition, Reed-Solomon erasure encode/recover property tests
 * (every loss pattern up to m for several (k, m) geometries,
 * including runt groups and parity-row subsets), adversarial
 * inconsistency rejections, the RedundancyController's negotiation
 * rules, and session-config validation at setup.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "edgepcc/common/gf256.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/redundancy_controller.h"
#include "edgepcc/stream/rs_fec.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

// -----------------------------------------------------------------
// GF(256) arithmetic
// -----------------------------------------------------------------

TEST(Gf256, KnownAnswerValues)
{
    // Generator powers: 2^1 = 2, 2^2 = 4, ... and the first
    // reduction x^8 = x^4 + x^3 + x^2 + 1 = 0x1d.
    EXPECT_EQ(gfMul(2, 2), 4);
    EXPECT_EQ(gfMul(2, 4), 8);
    EXPECT_EQ(gfMul(2, 128), 0x1d);
    // Identity and absorbing elements.
    EXPECT_EQ(gfMul(0, 0xab), 0);
    EXPECT_EQ(gfMul(0xab, 0), 0);
    EXPECT_EQ(gfMul(1, 0xab), 0xab);
    EXPECT_EQ(gfMul(0xab, 1), 0xab);
}

TEST(Gf256, ExpTableIsA255Cycle)
{
    const Gf256Tables &t = gf256Tables();
    EXPECT_EQ(t.exp[0], 1);
    EXPECT_EQ(t.exp[255], 1);  // generator order is 255
    // The mirrored upper half makes log[a] + log[b] indexable
    // without a modulo.
    for (int i = 0; i < 255; ++i)
        EXPECT_EQ(t.exp[i], t.exp[i + 255]) << i;
    // All 255 nonzero elements appear exactly once per cycle.
    bool seen[256] = {};
    for (int i = 0; i < 255; ++i) {
        EXPECT_FALSE(seen[t.exp[i]]) << i;
        seen[t.exp[i]] = true;
    }
    EXPECT_FALSE(seen[0]);
}

/** The table-driven multiply must match the bitwise polynomial
 *  reference on the full 256 x 256 domain. */
TEST(Gf256, TableMulMatchesPolynomialReference)
{
    for (int a = 0; a < 256; ++a) {
        for (int b = 0; b < 256; ++b) {
            const auto ua = static_cast<std::uint8_t>(a);
            const auto ub = static_cast<std::uint8_t>(b);
            ASSERT_EQ(gfMul(ua, ub), gfMulSlow(ua, ub))
                << a << " * " << b;
        }
    }
}

TEST(Gf256, InverseAndDivision)
{
    for (int a = 1; a < 256; ++a) {
        const auto ua = static_cast<std::uint8_t>(a);
        ASSERT_EQ(gfMul(ua, gfInv(ua)), 1) << a;
        ASSERT_EQ(gfDiv(ua, ua), 1) << a;
        ASSERT_EQ(gfDiv(0, ua), 0) << a;
    }
    EXPECT_EQ(gfInv(1), 1);
    EXPECT_EQ(gfInv(0), 0);  // defined as 0 by contract
}

// -----------------------------------------------------------------
// RS encode / recover
// -----------------------------------------------------------------

std::vector<std::uint8_t>
patternPayload(std::size_t size, std::uint8_t salt)
{
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i)
        payload[i] = static_cast<std::uint8_t>(
            (i * 131 + salt * 7 + 3) & 0xff);
    return payload;
}

ParsedChunk
makeDataChunk(std::uint8_t fec_seq, std::size_t payload_size,
              std::uint8_t group_size)
{
    ParsedChunk chunk;
    chunk.header.frame_id = 41;
    chunk.header.gop_id = 40;
    chunk.header.frame_type = Frame::Type::kPredicted;
    chunk.header.flags = static_cast<std::uint8_t>(
        kChunkFlagFec | kChunkFlagRsFec);
    chunk.header.slice_index = fec_seq;
    chunk.header.slice_count = group_size;
    chunk.header.fec_group = 9;
    chunk.header.fec_seq = fec_seq;
    chunk.header.fec_group_size = group_size;
    chunk.payload = patternPayload(payload_size, fec_seq);
    return chunk;
}

/** A k-chunk group with deliberately unequal payload sizes (the
 *  last chunk of a sliced frame is usually a runt). */
std::vector<ParsedChunk>
makeGroup(int k)
{
    std::vector<ParsedChunk> group;
    group.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
        const std::size_t size =
            i + 1 == k ? 17 : 96 + 13 * static_cast<std::size_t>(i);
        group.push_back(makeDataChunk(
            static_cast<std::uint8_t>(i), size,
            static_cast<std::uint8_t>(k)));
    }
    return group;
}

std::map<int, std::vector<std::uint8_t>>
buildParityRows(const std::vector<ParsedChunk> &group, int m)
{
    std::vector<ChunkView> views;
    views.reserve(group.size());
    for (const ParsedChunk &chunk : group)
        views.push_back({chunk.header, ByteSpan(chunk.payload)});
    std::map<int, std::vector<std::uint8_t>> rows;
    std::vector<std::uint8_t> parity;
    for (int row = 0; row < m; ++row) {
        buildRsParityInto(views, row, parity);
        rows[row] = parity;
    }
    return rows;
}

void
expectRecovered(const std::vector<ParsedChunk> &group,
                const std::vector<ParsedChunk> &recovered,
                const std::vector<int> &missing)
{
    ASSERT_EQ(recovered.size(), missing.size());
    for (std::size_t r = 0; r < missing.size(); ++r) {
        const ParsedChunk &want =
            group[static_cast<std::size_t>(missing[r])];
        const ParsedChunk &got = recovered[r];
        EXPECT_EQ(got.header.frame_id, want.header.frame_id);
        EXPECT_EQ(got.header.gop_id, want.header.gop_id);
        EXPECT_EQ(got.header.slice_index,
                  want.header.slice_index);
        EXPECT_EQ(got.header.slice_count,
                  want.header.slice_count);
        EXPECT_EQ(got.header.fec_seq, want.header.fec_seq);
        EXPECT_EQ(got.header.frame_type, want.header.frame_type);
        EXPECT_TRUE(got.header.isRsFec());
        EXPECT_EQ(got.payload, want.payload);
    }
}

/** Exhaustive loss patterns: for each geometry, every subset of up
 *  to m data chunks is dropped and must come back bit-exact. */
TEST(RsFec, AllLossPatternsUpToParityDepthRecover)
{
    const std::pair<int, int> geometries[] = {
        {4, 2}, {5, 3}, {3, 1}, {8, 2}};
    for (const auto &[k, m] : geometries) {
        const std::vector<ParsedChunk> group = makeGroup(k);
        const auto parity = buildParityRows(group, m);
        for (std::uint32_t mask = 1;
             mask < (1u << static_cast<unsigned>(k)); ++mask) {
            if (__builtin_popcount(mask) > m)
                continue;
            std::map<std::uint8_t, ParsedChunk> data;
            std::vector<int> missing;
            for (int i = 0; i < k; ++i) {
                if (mask & (1u << static_cast<unsigned>(i)))
                    missing.push_back(i);
                else
                    data.emplace(static_cast<std::uint8_t>(i),
                                 group[static_cast<std::size_t>(
                                     i)]);
            }
            const auto recovered =
                recoverRsChunks(k, data, parity);
            ASSERT_TRUE(recovered.has_value())
                << "k=" << k << " m=" << m << " mask=" << mask;
            expectRecovered(group, *recovered, missing);
        }
    }
}

/** The decoder must work from ANY e surviving parity rows, not
 *  just rows 0..e-1 — bursts eat parity chunks too. */
TEST(RsFec, RecoversFromArbitraryParityRowSubset)
{
    const int k = 5;
    const int m = 3;
    const std::vector<ParsedChunk> group = makeGroup(k);
    const auto all_rows = buildParityRows(group, m);
    // Drop data chunks 1 and 3; keep only parity rows 1 and 2.
    std::map<std::uint8_t, ParsedChunk> data;
    for (const int i : {0, 2, 4})
        data.emplace(static_cast<std::uint8_t>(i),
                     group[static_cast<std::size_t>(i)]);
    std::map<int, std::vector<std::uint8_t>> rows;
    rows[1] = all_rows.at(1);
    rows[2] = all_rows.at(2);
    const auto recovered = recoverRsChunks(k, data, rows);
    ASSERT_TRUE(recovered.has_value());
    expectRecovered(group, *recovered, {1, 3});
}

TEST(RsFec, CompleteGroupRecoversNothing)
{
    const int k = 4;
    const std::vector<ParsedChunk> group = makeGroup(k);
    const auto parity = buildParityRows(group, 2);
    std::map<std::uint8_t, ParsedChunk> data;
    for (int i = 0; i < k; ++i)
        data.emplace(static_cast<std::uint8_t>(i),
                     group[static_cast<std::size_t>(i)]);
    const auto recovered = recoverRsChunks(k, data, parity);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_TRUE(recovered->empty());
}

TEST(RsFec, SingleChunkGroupWithParityRecovers)
{
    // Runt tail group: k = 1 still round-trips through the codec.
    const std::vector<ParsedChunk> group = makeGroup(1);
    const auto parity = buildParityRows(group, 2);
    const auto recovered = recoverRsChunks(1, {}, parity);
    ASSERT_TRUE(recovered.has_value());
    expectRecovered(group, *recovered, {0});
}

// -----------------------------------------------------------------
// RS decode rejections (adversarial/inconsistent groups)
// -----------------------------------------------------------------

TEST(RsFec, RejectsTooFewParityRows)
{
    const int k = 4;
    const std::vector<ParsedChunk> group = makeGroup(k);
    const auto parity = buildParityRows(group, 1);
    std::map<std::uint8_t, ParsedChunk> data;
    data.emplace(0, group[0]);
    data.emplace(1, group[1]);  // two missing, one parity row
    EXPECT_FALSE(recoverRsChunks(k, data, parity).has_value());
}

TEST(RsFec, RejectsDataSequenceOutsideGroup)
{
    const int k = 3;
    const std::vector<ParsedChunk> group = makeGroup(k);
    const auto parity = buildParityRows(group, 1);
    std::map<std::uint8_t, ParsedChunk> data;
    data.emplace(0, group[0]);
    data.emplace(1, group[1]);
    data.emplace(7, makeDataChunk(7, 8, 3));  // seq >= k
    EXPECT_FALSE(recoverRsChunks(k, data, parity).has_value());
}

TEST(RsFec, RejectsParityShorterThanKnownRecord)
{
    const int k = 3;
    const std::vector<ParsedChunk> group = makeGroup(k);
    auto parity = buildParityRows(group, 1);
    parity[0].resize(kFecRecordPrefixBytes);  // truncated row
    std::map<std::uint8_t, ParsedChunk> data;
    data.emplace(0, group[0]);
    data.emplace(1, group[1]);
    EXPECT_FALSE(recoverRsChunks(k, data, parity).has_value());
}

TEST(RsFec, RejectsMismatchedParityRowLengths)
{
    const int k = 4;
    const std::vector<ParsedChunk> group = makeGroup(k);
    auto parity = buildParityRows(group, 2);
    parity[1].push_back(0);
    std::map<std::uint8_t, ParsedChunk> data;
    data.emplace(0, group[0]);
    data.emplace(1, group[1]);
    EXPECT_FALSE(recoverRsChunks(k, data, parity).has_value());
}

TEST(RsFec, RejectsInvalidGroupSize)
{
    const std::map<int, std::vector<std::uint8_t>> none;
    EXPECT_FALSE(recoverRsChunks(0, {}, none).has_value());
    EXPECT_FALSE(recoverRsChunks(-3, {}, none).has_value());
    EXPECT_FALSE(recoverRsChunks(256, {}, none).has_value());
}

TEST(RsFec, RejectsCorruptedParityBytes)
{
    const int k = 4;
    const std::vector<ParsedChunk> group = makeGroup(k);
    auto parity = buildParityRows(group, 2);
    // Flip a prefix byte: the recovered record's embedded fec_seq
    // (or sizes) no longer matches the erasure position.
    parity[0][4] ^= 0x5a;
    parity[0][13] ^= 0x81;
    std::map<std::uint8_t, ParsedChunk> data;
    for (int i = 1; i < k; ++i)
        data.emplace(static_cast<std::uint8_t>(i),
                     group[static_cast<std::size_t>(i)]);
    std::map<int, std::vector<std::uint8_t>> one_row;
    one_row[0] = parity[0];
    EXPECT_FALSE(recoverRsChunks(k, data, one_row).has_value());
}

/** Coefficients match their definition — the Cauchy matrix with
 *  column i scaled by k ^ i, so row 0 is all ones (the XOR row) —
 *  and are never 0: a zero coefficient would silently drop a chunk
 *  from a row. */
TEST(RsFec, CauchyCoefficientsAreNonzeroAndCorrect)
{
    for (const int k : {2, 4, 16, 64, 254}) {
        for (int row = 0; row < 4 && k + row <= 255; ++row) {
            for (int i = 0; i < k; ++i) {
                const std::uint8_t c = rsCoefficient(k, row, i);
                ASSERT_NE(c, 0) << k << "," << row << "," << i;
                ASSERT_EQ(gfMul(c, static_cast<std::uint8_t>(
                                       (k + row) ^ i)),
                          static_cast<std::uint8_t>(k ^ i))
                    << k << "," << row << "," << i;
                if (row == 0) {
                    ASSERT_EQ(c, 1) << k << "," << i;
                }
            }
        }
    }
}

TEST(RsFec, ParitySeqMapping)
{
    EXPECT_EQ(rsParitySeq(0), kFecParitySeq);
    EXPECT_EQ(rsParitySeq(1), 0xfe);
    EXPECT_EQ(rsParityRow(rsParitySeq(0)), 0);
    EXPECT_EQ(rsParityRow(rsParitySeq(7)), 7);
}

// -----------------------------------------------------------------
// RedundancyController negotiation
// -----------------------------------------------------------------

RedundancyConfig
redundancyConfig()
{
    RedundancyConfig config;
    config.enabled = true;
    config.min_group_size = 2;
    config.max_group_size = 16;
    config.min_parity = 1;
    config.max_parity = 4;
    config.min_gop_size = 1;
    config.max_gop_size = 12;
    config.grow_after_clean = 3;
    return config;
}

TEST(Redundancy, CleanChannelPicksCheapestGeometry)
{
    RedundancyController ctrl(redundancyConfig(), 8, 15.0);
    for (int i = 0; i < 32; ++i)
        ctrl.onFrameFeedback(20, 0, 0, true);
    const RedundancyDecision d = ctrl.decide();
    EXPECT_EQ(d.parity_chunks, 1);  // burst EWMA decays to 1
    EXPECT_EQ(d.group_size, 16);    // overhead floor: m/(k_max+m)
    EXPECT_FALSE(d.force_keyframe);
}

TEST(Redundancy, BurstLengthDrivesParityDepth)
{
    RedundancyController ctrl(redundancyConfig(), 8, 15.0);
    // Sustained 3-chunk bursts: m must track the burst length even
    // though every frame was ultimately delivered (parity paid).
    for (int i = 0; i < 32; ++i)
        ctrl.onFrameFeedback(20, 3, 3, true);
    EXPECT_NEAR(ctrl.estimatedBurstLength(), 3.0, 0.1);
    const RedundancyDecision d = ctrl.decide();
    EXPECT_EQ(d.parity_chunks, 3);
    // Sustained 15% loss shrinks k from the clean-channel maximum.
    EXPECT_LT(d.group_size, 16);
    EXPECT_GT(d.group_size, d.parity_chunks);
}

TEST(Redundancy, KeyframeAndGopReactOnlyToUnrecoverableLoss)
{
    RedundancyConfig config = redundancyConfig();
    config.min_gop_size = 2;
    RedundancyController ctrl(config, 8, 15.0);
    // Recoverable loss: no keyframe, GOP untouched.
    ctrl.onFrameFeedback(20, 2, 2, true);
    EXPECT_FALSE(ctrl.consumeForcedKeyframe());
    EXPECT_EQ(ctrl.decide().gop_size, 8);
    // Unrecoverable loss: keyframe fires once, GOP halves.
    ctrl.onFrameFeedback(20, 6, 3, false);
    EXPECT_EQ(ctrl.decide().gop_size, 4);
    EXPECT_TRUE(ctrl.consumeForcedKeyframe());
    EXPECT_FALSE(ctrl.consumeForcedKeyframe());  // consumed
    // Clean streak grows the GOP back one step at a time.
    for (int i = 0; i < 3; ++i)
        ctrl.onFrameFeedback(20, 0, 0, true);
    EXPECT_EQ(ctrl.decide().gop_size, 5);
    // Sustained unrecoverable loss halves down to min_gop_size...
    for (int i = 0; i < 10; ++i)
        ctrl.onFrameFeedback(20, 20, 20, false);
    EXPECT_EQ(ctrl.decide().gop_size, config.min_gop_size);
    EXPECT_GT(ctrl.estimatedLoss(), 0.5);
    // ...and a long clean streak regrows it to max_gop_size.
    for (int i = 0; i < 200; ++i)
        ctrl.onFrameFeedback(20, 0, 0, true);
    EXPECT_EQ(ctrl.decide().gop_size, config.max_gop_size);
}

TEST(Redundancy, PayloadBudgetDiscountsParityShare)
{
    RedundancyConfig config = redundancyConfig();
    config.wire_budget_bytes = 10000;
    config.min_threshold = 5.0;
    config.max_threshold = 100.0;
    RedundancyController ctrl(config, 8, 15.0);
    const RedundancyDecision d = ctrl.decide();
    const double k = d.group_size;
    const double m = d.parity_chunks;
    EXPECT_EQ(d.payload_budget_bytes,
              static_cast<std::uint64_t>(10000.0 * k / (k + m)));
    EXPECT_GE(d.reuse_threshold, 0.0);

    // A P frame on budget leaves the threshold where it is.
    ctrl.onEncodedFrame(Frame::Type::kPredicted,
                        d.payload_budget_bytes);
    EXPECT_DOUBLE_EQ(ctrl.decide().reuse_threshold, 15.0);
    // Overshooting the post-parity budget raises the threshold
    // (coarser P frames); undershooting lowers it back.
    ctrl.onEncodedFrame(Frame::Type::kPredicted,
                        d.payload_budget_bytes * 2);
    const double up = ctrl.decide().reuse_threshold;
    EXPECT_GT(up, 15.0);
    ctrl.onEncodedFrame(Frame::Type::kPredicted,
                        d.payload_budget_bytes / 4);
    EXPECT_LT(ctrl.decide().reuse_threshold, up);
    // Intra frames never nudge the threshold.
    const double before = ctrl.decide().reuse_threshold;
    ctrl.onEncodedFrame(Frame::Type::kIntra, 1);
    EXPECT_EQ(ctrl.decide().reuse_threshold, before);
    // Sustained overshoot settles at max_threshold, sustained
    // undershoot at min_threshold.
    for (int i = 0; i < 50; ++i)
        ctrl.onEncodedFrame(Frame::Type::kPredicted,
                            d.payload_budget_bytes * 100);
    EXPECT_DOUBLE_EQ(ctrl.decide().reuse_threshold,
                     config.max_threshold);
    for (int i = 0; i < 50; ++i)
        ctrl.onEncodedFrame(Frame::Type::kPredicted, 1);
    EXPECT_DOUBLE_EQ(ctrl.decide().reuse_threshold,
                     config.min_threshold);
}

TEST(Redundancy, BudgetCouplingOffLeavesCodecAlone)
{
    RedundancyController ctrl(redundancyConfig(), 8, 15.0);
    const RedundancyDecision d = ctrl.decide();
    EXPECT_EQ(d.payload_budget_bytes, 0u);
    EXPECT_LT(d.reuse_threshold, 0.0);
}

// -----------------------------------------------------------------
// Session-config validation at setup
// -----------------------------------------------------------------

SessionConfig
rsSession()
{
    SessionConfig config;
    config.fec.enabled = true;
    config.fec.scheme = FecScheme::kReedSolomon;
    config.fec.group_size = 6;
    config.fec.parity_chunks = 2;
    config.mtu_payload = 512;
    return config;
}

TEST(SessionValidation, AcceptsDefaultAndRsConfigs)
{
    EXPECT_TRUE(validateSessionConfig(SessionConfig{}).isOk());
    EXPECT_TRUE(validateSessionConfig(rsSession()).isOk());
}

TEST(SessionValidation, RejectsDegenerateGroupSize)
{
    SessionConfig config = rsSession();
    config.fec.group_size = 1;
    config.fec.parity_chunks = 0;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.fec.group_size = 256;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
}

TEST(SessionValidation, RejectsParityAtLeastGroupSize)
{
    SessionConfig config = rsSession();
    config.fec.parity_chunks = 6;  // m == k
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.fec.parity_chunks = 9;  // m > k
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.fec.parity_chunks = 0;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    // XOR ignores parity_chunks entirely.
    config.fec.scheme = FecScheme::kXor;
    EXPECT_TRUE(validateSessionConfig(config).isOk());
}

TEST(SessionValidation, RejectsCauchyFieldOverflow)
{
    SessionConfig config = rsSession();
    config.fec.group_size = 254;
    config.fec.parity_chunks = 4;  // k + m > 255
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.fec.parity_chunks = 1;  // k + m == 255: fine
    EXPECT_TRUE(validateSessionConfig(config).isOk());
}

TEST(SessionValidation, RejectsInterleaveNotDividingGroup)
{
    SessionConfig config = rsSession();
    config.fec_interleave = 4;  // 6 % 4 != 0
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.fec_interleave = 3;
    EXPECT_TRUE(validateSessionConfig(config).isOk());
    config.mtu_payload = 0;  // nothing to stripe
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.mtu_payload = 512;
    config.fec.enabled = false;
    config.redundancy.enabled = false;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
}

TEST(SessionValidation, RejectsControllersWithoutTheirDeps)
{
    SessionConfig red;
    red.redundancy.enabled = true;  // requires RS FEC
    EXPECT_FALSE(validateSessionConfig(red).isOk());
    red.fec.enabled = true;
    red.fec.scheme = FecScheme::kXor;
    EXPECT_FALSE(validateSessionConfig(red).isOk());
    red.fec.scheme = FecScheme::kReedSolomon;
    EXPECT_TRUE(validateSessionConfig(red).isOk());
}

/** Every session runs the redundancy controller, so its bounds are
 *  checked with `enabled` off too; each rejected setup breaks a
 *  std::clamp precondition (lo <= hi) inside the controller. */
TEST(SessionValidation, RejectsRedundancyBoundsOutOfOrder)
{
    SessionConfig parity;
    parity.redundancy.min_group_size = 2;
    parity.redundancy.max_group_size = 3;
    parity.redundancy.max_parity = 4;  // 4-chunk bursts: k 3, m 4
    EXPECT_FALSE(validateSessionConfig(parity).isOk());
    parity.redundancy.max_parity = 2;  // k >= 3 > m
    EXPECT_TRUE(validateSessionConfig(parity).isOk());

    SessionConfig gop;
    gop.redundancy.min_gop_size = 6;
    gop.redundancy.max_gop_size = 3;
    EXPECT_FALSE(validateSessionConfig(gop).isOk());
    gop.redundancy.min_gop_size = 0;
    EXPECT_FALSE(validateSessionConfig(gop).isOk());
    gop.redundancy.min_gop_size = 3;  // a fixed GOP
    EXPECT_TRUE(validateSessionConfig(gop).isOk());

    SessionConfig threshold;
    threshold.redundancy.min_threshold = 50.0;
    threshold.redundancy.max_threshold = 10.0;
    EXPECT_FALSE(validateSessionConfig(threshold).isOk());
}

TEST(SessionValidation, RejectsNegativeRetryKnobs)
{
    SessionConfig config;
    config.max_retransmits = -1;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
    config.max_retransmits = 0;
    config.backoff_ms = -2.0;
    EXPECT_FALSE(validateSessionConfig(config).isOk());
}

}  // namespace
}  // namespace edgepcc
