/** @file Tests for the proposed Morton-window inter-frame codec. */

#include "edgepcc/interframe/block_matcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "edgepcc/common/rng.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/platform/simd.h"

namespace edgepcc {
namespace {

/** Morton-sorted cloud with a smooth color field. */
VoxelCloud
smoothSortedCloud(std::uint64_t seed, std::size_t n, int bits,
                  int color_shift = 0, double noise = 0.0)
{
    Rng rng(seed);
    std::set<std::uint64_t> codes;
    const std::uint32_t grid = 1u << bits;
    while (codes.size() < n) {
        const auto x =
            static_cast<std::uint32_t>(rng.bounded(grid));
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(grid));
        const auto z =
            static_cast<std::uint32_t>(rng.bounded(grid / 2));
        codes.insert(mortonEncode(x, y, z));
    }
    Rng noise_rng(seed ^ 0xabcd);
    VoxelCloud cloud(bits);
    for (const std::uint64_t code : codes) {
        const MortonXyz xyz = mortonDecode(code);
        const double jitter = noise * noise_rng.gaussian();
        const auto clampc = [](double v) {
            return static_cast<std::uint8_t>(
                std::clamp(v, 0.0, 255.0));
        };
        cloud.add(static_cast<std::uint16_t>(xyz.x),
                  static_cast<std::uint16_t>(xyz.y),
                  static_cast<std::uint16_t>(xyz.z),
                  clampc(60.0 + color_shift +
                         (xyz.x * 120.0) / grid + jitter),
                  clampc(40.0 + color_shift +
                         (xyz.y * 140.0) / grid + jitter),
                  clampc(90.0 + color_shift +
                         (xyz.z * 100.0) / grid + jitter));
    }
    return cloud;
}

double
meanAbsColorError(const VoxelCloud &a, const VoxelCloud &b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum += std::abs(static_cast<double>(a.r()[i]) - b.r()[i]);
        sum += std::abs(static_cast<double>(a.g()[i]) - b.g()[i]);
        sum += std::abs(static_cast<double>(a.b()[i]) - b.b()[i]);
    }
    return sum / (3.0 * static_cast<double>(a.size()));
}

BlockMatchConfig
defaultConfig()
{
    BlockMatchConfig config;
    config.delta_codec.quant_step = 1;  // lossless deltas
    return config;
}

TEST(BlockMatcher, RejectsEmptyClouds)
{
    VoxelCloud empty(6);
    const VoxelCloud cloud = smoothSortedCloud(90, 100, 6);
    EXPECT_FALSE(encodeInterAttr(empty, cloud, defaultConfig())
                     .hasValue());
    EXPECT_FALSE(encodeInterAttr(cloud, empty, defaultConfig())
                     .hasValue());
    BlockMatchConfig bad = defaultConfig();
    bad.candidate_window = 0;
    EXPECT_FALSE(encodeInterAttr(cloud, cloud, bad).hasValue());
}

TEST(BlockMatcher, IdenticalFramesFullyReused)
{
    const VoxelCloud cloud = smoothSortedCloud(91, 4000, 7);
    auto encoded =
        encodeInterAttr(cloud, cloud, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->stats.reused_blocks,
              encoded->stats.num_blocks);
    EXPECT_EQ(encoded->stats.delta_points, 0u);

    VoxelCloud decoded = cloud;
    for (std::size_t i = 0; i < decoded.size(); ++i)
        decoded.setColor(i, Color{});
    ASSERT_TRUE(decodeInterAttrInto(encoded->payload, cloud,
                                    decoded)
                    .isOk());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        EXPECT_EQ(decoded.color(i), cloud.color(i));
}

TEST(BlockMatcher, ReusePayloadIsSmall)
{
    const VoxelCloud cloud = smoothSortedCloud(92, 8000, 7);
    auto encoded =
        encodeInterAttr(cloud, cloud, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    // Full reuse: ~1 byte per block, far below 3 B/point raw.
    EXPECT_LT(encoded->payload.size(), cloud.size() / 2);
}

TEST(BlockMatcher, DissimilarFramesFallBackToDeltas)
{
    const VoxelCloud p = smoothSortedCloud(93, 3000, 7, 0);
    const VoxelCloud i = smoothSortedCloud(93, 3000, 7, 120);
    BlockMatchConfig config = defaultConfig();
    config.reuse_threshold = 1.0;  // strict
    auto encoded = encodeInterAttr(p, i, config);
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_EQ(encoded->stats.reused_blocks, 0u);
    // Lossless delta coding must reconstruct exactly.
    VoxelCloud decoded = p;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        decoded.setColor(k, Color{});
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
    for (std::size_t k = 0; k < decoded.size(); ++k)
        EXPECT_EQ(decoded.color(k), p.color(k));
}

TEST(BlockMatcher, ThresholdControlsReuseFraction)
{
    // Similar frames with mild noise: higher threshold -> more
    // direct reuse (the paper's Fig. 10b knob).
    const VoxelCloud i = smoothSortedCloud(94, 5000, 7, 0, 0.0);
    const VoxelCloud p = smoothSortedCloud(94, 5000, 7, 3, 2.0);
    double previous = -1.0;
    for (const double threshold : {2.0, 15.0, 60.0, 400.0}) {
        BlockMatchConfig config = defaultConfig();
        config.reuse_threshold = threshold;
        auto encoded = encodeInterAttr(p, i, config);
        ASSERT_TRUE(encoded.hasValue());
        const double fraction = encoded->stats.reuseFraction();
        EXPECT_GE(fraction, previous);
        previous = fraction;
    }
    EXPECT_GT(previous, 0.9);  // threshold 400 reuses nearly all
}

TEST(BlockMatcher, HigherThresholdSmallerPayloadLowerQuality)
{
    const VoxelCloud i = smoothSortedCloud(95, 6000, 7, 0, 0.0);
    const VoxelCloud p = smoothSortedCloud(95, 6000, 7, 4, 3.0);
    BlockMatchConfig strict = defaultConfig();
    strict.reuse_threshold = 4.0;
    BlockMatchConfig loose = defaultConfig();
    loose.reuse_threshold = 200.0;
    auto a = encodeInterAttr(p, i, strict);
    auto b = encodeInterAttr(p, i, loose);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LE(b->payload.size(), a->payload.size());

    VoxelCloud da = p, db = p;
    ASSERT_TRUE(decodeInterAttrInto(a->payload, i, da).isOk());
    ASSERT_TRUE(decodeInterAttrInto(b->payload, i, db).isOk());
    EXPECT_LE(meanAbsColorError(p, da),
              meanAbsColorError(p, db) + 1e-9);
}

TEST(BlockMatcher, DifferentPointCountsHandled)
{
    const VoxelCloud p = smoothSortedCloud(96, 3100, 7);
    const VoxelCloud i = smoothSortedCloud(97, 2900, 7);
    auto encoded = encodeInterAttr(p, i, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
}

TEST(BlockMatcher, TinyReferenceFrame)
{
    const VoxelCloud p = smoothSortedCloud(98, 500, 6);
    const VoxelCloud i = smoothSortedCloud(99, 20, 6);
    auto encoded = encodeInterAttr(p, i, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    EXPECT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
}

TEST(BlockMatcher, PointCountMismatchRejected)
{
    const VoxelCloud p = smoothSortedCloud(100, 1000, 6);
    auto encoded = encodeInterAttr(p, p, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud wrong = smoothSortedCloud(101, 900, 6);
    EXPECT_FALSE(
        decodeInterAttrInto(encoded->payload, p, wrong).isOk());
}

TEST(BlockMatcher, CorruptPayloadRejected)
{
    const VoxelCloud p = smoothSortedCloud(102, 1000, 6);
    auto encoded = encodeInterAttr(p, p, defaultConfig());
    ASSERT_TRUE(encoded.hasValue());
    auto bad = encoded->payload;
    bad[1] = 'X';
    VoxelCloud decoded = p;
    EXPECT_FALSE(decodeInterAttrInto(bad, p, decoded).isOk());
    bad = encoded->payload;
    bad.resize(bad.size() - bad.size() / 4);
    EXPECT_FALSE(decodeInterAttrInto(bad, p, decoded).isOk());
}

TEST(BlockMatcher, RecordsFigNineKernels)
{
    const VoxelCloud p = smoothSortedCloud(103, 2000, 7);
    WorkRecorder recorder;
    auto encoded =
        encodeInterAttr(p, p, defaultConfig(), &recorder);
    ASSERT_TRUE(encoded.hasValue());
    const auto profile = recorder.takeProfile();
    std::set<std::string> kernel_names;
    for (const auto &stage : profile.stages) {
        for (const auto &kernel : stage.kernels)
            kernel_names.insert(kernel.name);
    }
    EXPECT_TRUE(kernel_names.count("bm.diff_squared"));
    EXPECT_TRUE(kernel_names.count("bm.squared_sum"));
    EXPECT_TRUE(kernel_names.count("bm.address_gen"));
}

/** Every block's pointer offset in a block-match payload: 3 magic
 *  bytes and 4 varints (points, blocks, K, window), then per block
 *  a reuse bit and a ptr_bits offset. */
std::vector<std::uint32_t>
pointerOffsets(const std::vector<std::uint8_t> &payload)
{
    BitReader reader(payload);
    for (int byte = 0; byte < 3; ++byte)
        (void)reader.readBits(8);
    (void)reader.readVarint();
    const std::uint64_t blocks = reader.readVarint();
    (void)reader.readVarint();
    const std::uint64_t window = reader.readVarint();
    const int ptr_bits = std::max(1, bitWidth(window - 1));
    std::vector<std::uint32_t> offsets;
    for (std::uint64_t pb = 0; pb < blocks; ++pb) {
        (void)reader.readBits(1);
        offsets.push_back(
            static_cast<std::uint32_t>(reader.readBits(ptr_bits)));
    }
    EXPECT_FALSE(reader.overrun());
    return offsets;
}

/** `n` points painted `color`, in Morton order along x. */
VoxelCloud
paintedCloud(std::size_t n, Color color)
{
    VoxelCloud cloud(16);
    for (std::size_t i = 0; i < n; ++i)
        cloud.add(static_cast<std::uint16_t>(i), 0, 0, color.r,
                  color.g, color.b);
    return cloud;
}

/** Runs `body` with the scalar level forced, then at the active
 *  level, so the argmin's rule is pinned whatever the dispatch. */
template <typename Body>
void
atScalarAndActiveLevel(const Body &body)
{
    const SimdLevel active = activeSimdLevel();
    for (const SimdLevel level : {SimdLevel::kScalar, active}) {
        SCOPED_TRACE(simdLevelName(level));
        setSimdLevelForTesting(level);
        body();
        clearSimdLevelForTesting();
    }
}

TEST(BlockMatcher, AllTiedCandidatesPickTheFirst)
{
    // P and I are two constant shades, so every candidate of every
    // window ties at the same non-zero sum per point. 300 blocks of
    // K = 16 give windows of 100. Against the same-size reference
    // every window is full-length; the shorter one ends in a short
    // I-block, so the windows at the end compare per point.
    constexpr std::size_t kPoints = 16 * 300;
    const VoxelCloud p = paintedCloud(kPoints, Color{100, 100, 100});
    const VoxelCloud i_full =
        paintedCloud(kPoints, Color{90, 95, 105});
    VoxelCloud i_short = i_full;
    i_short.resize(kPoints - 9);
    const VoxelCloud *references[] = {&i_full, &i_short};
    atScalarAndActiveLevel([&] {
        for (const VoxelCloud *i : references) {
            auto encoded = encodeInterAttr(p, *i, defaultConfig());
            ASSERT_TRUE(encoded.hasValue());
            const std::vector<std::uint32_t> offsets =
                pointerOffsets(encoded->payload);
            ASSERT_EQ(offsets.size(), 300u);
            for (std::size_t pb = 0; pb < offsets.size(); ++pb)
                EXPECT_EQ(offsets[pb], 0u)
                    << "block " << pb << " ni " << i->size();
        }
    });
}

TEST(BlockMatcher, ShortCandidateComparesPerPoint)
{
    // Three P-blocks of K = 17 against two full I-blocks and a
    // short last one of a single point; every window holds all
    // three. The full candidates are 4 off per point (68 in all),
    // the short one 9 (9 in all). Its total is smaller but its
    // per-point sum larger, so the first full candidate must win.
    const VoxelCloud p = paintedCloud(51, Color{100, 100, 100});
    VoxelCloud i = paintedCloud(35, Color{102, 100, 100});
    i.setColor(34, Color{103, 100, 100});
    BlockMatchConfig config = defaultConfig();
    config.num_blocks = 3;
    atScalarAndActiveLevel([&] {
        auto encoded = encodeInterAttr(p, i, config);
        ASSERT_TRUE(encoded.hasValue());
        EXPECT_EQ(pointerOffsets(encoded->payload),
                  (std::vector<std::uint32_t>{0, 0, 0}));
    });
}

/** Sweep over block counts and windows. */
class BlockMatcherSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>>
{
};

TEST_P(BlockMatcherSweep, RoundtripReconstructs)
{
    const auto [blocks, window] = GetParam();
    const VoxelCloud i =
        smoothSortedCloud(104 + blocks, 2500, 7, 0, 0.0);
    const VoxelCloud p =
        smoothSortedCloud(104 + blocks, 2500, 7, 2, 1.0);
    BlockMatchConfig config = defaultConfig();
    config.num_blocks = blocks;
    config.candidate_window = window;
    config.reuse_threshold = 0.5;  // force lossless delta path
    auto encoded = encodeInterAttr(p, i, config);
    ASSERT_TRUE(encoded.hasValue());
    VoxelCloud decoded = p;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        decoded.setColor(k, Color{});
    ASSERT_TRUE(
        decodeInterAttrInto(encoded->payload, i, decoded).isOk());
    std::size_t exact = 0;
    for (std::size_t k = 0; k < decoded.size(); ++k)
        exact += decoded.color(k) == p.color(k);
    // Non-reused blocks decode exactly (quant_step 1).
    EXPECT_GT(static_cast<double>(exact) /
                  static_cast<double>(decoded.size()),
              0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockMatcherSweep,
    ::testing::Combine(::testing::Values(0u, 16u, 200u),
                       ::testing::Values(1u, 10u, 100u)));

}  // namespace
}  // namespace edgepcc
