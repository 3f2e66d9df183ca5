/**
 * @file
 * Scalar-vs-SIMD equivalence: every dispatched kernel must be
 * *byte-identical* across all instruction-set levels the host can
 * run (docs/PERFORMANCE.md "Dispatch shim"). Each property test
 * runs the kernel under every forceable level and compares against
 * the scalar reference output; the capstone test encodes whole
 * frames under each level and requires identical bitstreams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/gf256.h"
#include "edgepcc/common/rng.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/platform/simd.h"
#include "edgepcc/stream/rs_fec.h"

namespace edgepcc {
namespace {

/** Every level the host supports, scalar first (the reference). */
std::vector<SimdLevel>
forceableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::kScalar};
    if (detectSimdLevel() >= SimdLevel::kSse4)
        levels.push_back(SimdLevel::kSse4);
    if (detectSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    return levels;
}

/** RAII: force a level, restore detection-order dispatch after. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level)
    {
        applied_ = setSimdLevelForTesting(level);
    }
    ~ScopedSimdLevel() { clearSimdLevelForTesting(); }
    SimdLevel applied() const { return applied_; }

  private:
    SimdLevel applied_ = SimdLevel::kScalar;
};

TEST(SimdDispatch, ParseAndNameRoundTrip)
{
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse4, SimdLevel::kAvx2}) {
        SimdLevel parsed = SimdLevel::kScalar;
        ASSERT_TRUE(
            simdLevelFromName(simdLevelName(level), &parsed));
        EXPECT_EQ(parsed, level);
    }
    SimdLevel parsed = SimdLevel::kAvx2;
    EXPECT_FALSE(simdLevelFromName("neon", &parsed));
    EXPECT_FALSE(simdLevelFromName("", &parsed));
    EXPECT_EQ(parsed, SimdLevel::kAvx2);  // untouched on failure
}

TEST(SimdDispatch, TestOverrideClampsToDetected)
{
    // Asking for more than the host has must clamp, never crash.
    ScopedSimdLevel forced(SimdLevel::kAvx2);
    EXPECT_LE(forced.applied(), detectSimdLevel());
    EXPECT_EQ(activeSimdLevel(), forced.applied());
}

TEST(SimdEquivalence, MortonEncodeBatchMatchesScalar)
{
    Rng rng(7);
    for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 63u, 1000u}) {
        std::vector<std::uint16_t> x(n), y(n), z(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
            y[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
            z[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
        }
        std::vector<std::uint64_t> reference(n);
        for (std::size_t i = 0; i < n; ++i)
            reference[i] = mortonEncode(x[i], y[i], z[i]);
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint64_t> codes(n, ~0ull);
            mortonEncodeBatch(x.data(), y.data(), z.data(), n,
                              codes.data());
            EXPECT_EQ(codes, reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
        }
    }
}

TEST(SimdEquivalence, MortonDecodeBatchMatchesScalar)
{
    Rng rng(8);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 1000u}) {
        std::vector<std::uint64_t> codes(n);
        for (std::size_t i = 0; i < n; ++i) {
            // 48 random bits: the full u16 coordinate space.
            codes[i] = (static_cast<std::uint64_t>(
                            rng.bounded(1u << 24))
                        << 24) |
                       rng.bounded(1u << 24);
        }
        std::vector<std::uint32_t> rx(n), ry(n), rz(n);
        for (std::size_t i = 0; i < n; ++i) {
            const MortonXyz xyz = mortonDecode(codes[i]);
            rx[i] = xyz.x;
            ry[i] = xyz.y;
            rz[i] = xyz.z;
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint32_t> dx(n, ~0u), dy(n, ~0u),
                dz(n, ~0u);
            mortonDecodeBatch(codes.data(), n, dx.data(),
                              dy.data(), dz.data());
            EXPECT_EQ(dx, rx) << simdLevelName(forced.applied());
            EXPECT_EQ(dy, ry) << simdLevelName(forced.applied());
            EXPECT_EQ(dz, rz) << simdLevelName(forced.applied());
        }
    }
}

TEST(SimdEquivalence, RadixSortKeysValuesMatchesPairSort)
{
    Rng rng(9);
    for (const std::size_t n : {0u, 1u, 2u, 100u, 4096u}) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Narrow key range on purpose: duplicate keys probe the
            // stability contract (equal keys keep input order).
            keys[i] = rng.bounded(257);
        }
        // Reference: a stable comparison sort of (key, index).
        std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs(n);
        for (std::size_t i = 0; i < n; ++i)
            pairs[i] = {keys[i], static_cast<std::uint32_t>(i)};
        std::stable_sort(pairs.begin(), pairs.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });

        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint64_t> k = keys;
            std::vector<std::uint32_t> v(n);
            for (std::size_t i = 0; i < n; ++i)
                v[i] = static_cast<std::uint32_t>(i);
            radixSortKeysValues(k.data(), v.data(), n, 48);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(k[i], pairs[i].first)
                    << i << " " << simdLevelName(forced.applied());
                EXPECT_EQ(v[i], pairs[i].second)
                    << i << " " << simdLevelName(forced.applied());
            }
        }
    }
}

TEST(SimdEquivalence, Crc32cMatchesScalarTable)
{
    Rng rng(10);
    for (const std::size_t n :
         {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
        std::vector<std::uint8_t> data(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] = static_cast<std::uint8_t>(rng.bounded(256));
        std::uint32_t reference = 0;
        std::uint32_t chained_reference = 0;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            reference = crc32c(data);
            // Chained seeds (the wire format CRCs header and
            // payload as one running state).
            chained_reference =
                crc32c(data.data() + n / 2, n - n / 2,
                       crc32c(data.data(), n / 2));
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            EXPECT_EQ(crc32c(data), reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
            EXPECT_EQ(crc32c(data.data() + n / 2, n - n / 2,
                             crc32c(data.data(), n / 2)),
                      chained_reference)
                << "n=" << n << " level="
                << simdLevelName(forced.applied());
        }
    }
    // Known-answer check ("123456789" -> 0xE3069283, Castagnoli).
    const std::uint8_t kat[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    for (const SimdLevel level : forceableLevels()) {
        ScopedSimdLevel forced(level);
        EXPECT_EQ(crc32c(kat, sizeof(kat)), 0xE3069283u)
            << simdLevelName(forced.applied());
    }
}

TEST(SimdEquivalence, GfMulAddBytesMatchesTableReference)
{
    Rng rng(13);
    for (const std::size_t n :
         {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 1000u}) {
        std::vector<std::uint8_t> src(n), base(n);
        for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<std::uint8_t>(rng.bounded(256));
            base[i] = static_cast<std::uint8_t>(rng.bounded(256));
        }
        // Coefficients hitting the fast paths (0 = no-op, 1 = XOR)
        // and both nibble halves of the PSHUFB tables.
        for (const std::uint8_t coeff : {0, 1, 2, 0x0f, 0x1d,
                                         0x53, 0x80, 0xca, 0xff}) {
            std::vector<std::uint8_t> reference = base;
            for (std::size_t i = 0; i < n; ++i)
                reference[i] ^= gfMul(coeff, src[i]);
            for (const SimdLevel level : forceableLevels()) {
                ScopedSimdLevel forced(level);
                std::vector<std::uint8_t> dst = base;
                gfMulAddBytes(dst.data(), src.data(), coeff, n);
                EXPECT_EQ(dst, reference)
                    << "n=" << n << " coeff=" << int(coeff)
                    << " level="
                    << simdLevelName(forced.applied());
            }
        }
    }
}

TEST(SimdEquivalence, RsParityRowsIdenticalAcrossLevels)
{
    // Whole parity rows built through the dispatcher must be
    // byte-identical to the forced-scalar rows: RS recovery math
    // depends on sender and receiver agreeing bit for bit.
    Rng rng(17);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<ChunkView> group;
    for (int i = 0; i < 6; ++i) {
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(64 + 37 * i));
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(rng.bounded(256));
        payloads.push_back(std::move(payload));
    }
    for (int i = 0; i < 6; ++i) {
        ChunkHeader header;
        header.frame_id = 3;
        header.fec_seq = static_cast<std::uint8_t>(i);
        header.slice_index = static_cast<std::uint16_t>(i);
        header.slice_count = 6;
        group.push_back({header, ByteSpan(payloads[
            static_cast<std::size_t>(i)])});
    }
    for (int row = 0; row < 3; ++row) {
        std::vector<std::uint8_t> reference;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            buildRsParityInto(group, row, reference);
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            std::vector<std::uint8_t> parity;
            buildRsParityInto(group, row, parity);
            EXPECT_EQ(parity, reference)
                << "row=" << row << " level="
                << simdLevelName(forced.applied());
        }
    }
}

/** A cloud of `n` points whose colours follow `mode`: 0 draws
 *  each channel from {0, 255}, 1 paints every point `shade`, 2 is
 *  a smooth random walk. Geometry is irrelevant to the matcher. */
VoxelCloud
matcherCloud(std::size_t n, int mode, std::uint8_t shade,
             std::uint64_t seed)
{
    Rng rng(seed);
    VoxelCloud cloud(12);
    std::int32_t walk[3] = {128, 128, 128};
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t rgb[3];
        for (int c = 0; c < 3; ++c) {
            if (mode == 0) {
                rgb[c] = rng.bounded(2) != 0 ? 255 : 0;
            } else if (mode == 1) {
                rgb[c] = shade;
            } else {
                walk[c] = std::clamp(
                    walk[c] + static_cast<std::int32_t>(
                                  rng.bounded(9)) - 4,
                    0, 255);
                rgb[c] = static_cast<std::uint8_t>(walk[c]);
            }
        }
        cloud.add(static_cast<std::uint16_t>(i % 4096),
                  static_cast<std::uint16_t>(i / 4096), 0, rgb[0],
                  rgb[1], rgb[2]);
    }
    return cloud;
}

/** Everything a block-match encode produces: payload, stats and
 *  the bm.* kernel records the device model prices. */
using MatchOutcome =
    std::tuple<std::vector<std::uint8_t>, std::uint32_t,
               std::uint32_t, std::uint64_t,
               std::vector<std::tuple<std::string, std::uint64_t,
                                      std::uint64_t, std::uint64_t,
                                      std::uint64_t>>>;

MatchOutcome
encodeMatch(const VoxelCloud &p, const VoxelCloud &i,
            const BlockMatchConfig &config)
{
    WorkRecorder recorder;
    auto encoded = encodeInterAttr(p, i, config, &recorder);
    EXPECT_TRUE(encoded.hasValue());
    if (!encoded.hasValue())
        return {};
    MatchOutcome outcome{encoded->payload,
                         encoded->stats.num_blocks,
                         encoded->stats.reused_blocks,
                         encoded->stats.delta_points,
                         {}};
    for (const auto &stage : recorder.profile().stages) {
        for (const KernelWork &work : stage.kernels) {
            if (work.name.rfind("bm.", 0) == 0)
                std::get<4>(outcome).emplace_back(
                    work.name, work.invocations, work.items,
                    work.ops, work.bytes);
        }
    }
    return outcome;
}

TEST(SimdEquivalence, BlockMatchIdenticalAcrossLevels)
{
    // Every block length K from 1 to 65, one past the largest K
    // the vector window score takes (kMaxVectorK = 64 in
    // src/interframe/block_matcher.cpp; n >= 65 * 64 makes each
    // reachable), plus one whole-cloud block, each against a
    // same-size reference and a shorter one whose last I-block is
    // short. A window of 17 is one vector group and one mostly
    // padded group.
    constexpr std::size_t kMaxK = 65;
    constexpr std::size_t kPoints = kMaxK * (kMaxK - 1);
    std::vector<std::uint32_t> block_counts{1};
    for (std::size_t k = 1; k <= kMaxK; ++k) {
        const auto blocks =
            static_cast<std::uint32_t>((kPoints + k - 1) / k);
        SegmentCodecConfig layout;
        layout.num_segments = blocks;
        ASSERT_EQ(makeSegmentLayout(kPoints, layout)
                      .points_per_segment,
                  k);
        block_counts.push_back(blocks);
    }
    const std::uint32_t windows[] = {1, 3, 17, 100, 0xffffffffu};

    for (int mode = 0; mode < 3; ++mode) {
        // Mode 1 paints P and I different constant shades, so every
        // candidate ties at a non-zero sum and the first must win.
        // Mode 2 makes P the reference plus +-2 of noise, so some
        // blocks are reused and some are not.
        const VoxelCloud i_full = matcherCloud(kPoints, mode, 90, 12);
        VoxelCloud p = matcherCloud(kPoints, mode, 100, 11);
        if (mode == 2) {
            Rng noise(13);
            for (std::size_t j = 0; j < kPoints; ++j) {
                const auto jitter = [&](std::uint8_t v) {
                    return static_cast<std::uint8_t>(std::clamp(
                        static_cast<int>(v) +
                            static_cast<int>(noise.bounded(5)) - 2,
                        0, 255));
                };
                p.setColor(j, Color{jitter(i_full.r()[j]),
                                    jitter(i_full.g()[j]),
                                    jitter(i_full.b()[j])});
            }
        }
        for (const std::uint32_t blocks : block_counts) {
            const std::size_t k = (kPoints + blocks - 1) / blocks;
            std::size_t ni = kPoints * 3 / 4 + 1;
            if (k > 1 && ni % k == 0)
                --ni;
            VoxelCloud i_short = i_full;
            i_short.resize(ni);
            const VoxelCloud *references[] = {&i_full, &i_short};
            for (const VoxelCloud *i : references) {
                for (const std::uint32_t window : windows) {
                    BlockMatchConfig config;
                    config.num_blocks = blocks;
                    config.candidate_window = window;
                    MatchOutcome reference;
                    {
                        ScopedSimdLevel forced(SimdLevel::kScalar);
                        reference = encodeMatch(p, *i, config);
                    }
                    // The scalar run above is the reference; the
                    // wider levels are compared against it.
                    for (const SimdLevel level : forceableLevels()) {
                        if (level == SimdLevel::kScalar)
                            continue;
                        ScopedSimdLevel forced(level);
                        EXPECT_EQ(encodeMatch(p, *i, config),
                                  reference)
                            << "mode=" << mode << " k=" << k
                            << " ni=" << i->size()
                            << " window=" << window << " level="
                            << simdLevelName(forced.applied());
                    }
                }
            }
        }
    }
}

// The capstone: whole encoded frames — every kernel, every config —
// must be byte-identical across dispatch levels.
TEST(SimdEquivalence, EncodedBitstreamsIdenticalAcrossLevels)
{
    VideoSpec spec;
    spec.name = "simd";
    spec.seed = 77;
    spec.target_points = 6000;
    SyntheticHumanVideo video(spec);
    const VoxelCloud frame0 = video.frame(0);
    const VoxelCloud frame1 = video.frame(1);

    for (const CodecConfig &config : allPaperConfigs()) {
        std::vector<std::vector<std::uint8_t>> reference;
        {
            ScopedSimdLevel forced(SimdLevel::kScalar);
            VideoEncoder encoder(config);
            auto e0 = encoder.encode(frame0);
            auto e1 = encoder.encode(frame1);
            ASSERT_TRUE(e0.hasValue()) << config.name;
            ASSERT_TRUE(e1.hasValue()) << config.name;
            reference.push_back(e0->bitstream);
            reference.push_back(e1->bitstream);
        }
        for (const SimdLevel level : forceableLevels()) {
            ScopedSimdLevel forced(level);
            VideoEncoder encoder(config);
            auto e0 = encoder.encode(frame0);
            auto e1 = encoder.encode(frame1);
            ASSERT_TRUE(e0.hasValue()) << config.name;
            ASSERT_TRUE(e1.hasValue()) << config.name;
            EXPECT_EQ(e0->bitstream, reference[0])
                << config.name << " level="
                << simdLevelName(forced.applied());
            EXPECT_EQ(e1->bitstream, reference[1])
                << config.name << " level="
                << simdLevelName(forced.applied());
            // And the decode must round-trip the scalar stream.
            VideoDecoder decoder;
            auto d0 = decoder.decode(reference[0]);
            ASSERT_TRUE(d0.hasValue()) << config.name;
            EXPECT_TRUE(d0->cloud.checkInvariants());
        }
    }
}

}  // namespace
}  // namespace edgepcc
