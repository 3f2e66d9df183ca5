/** @file End-to-end geometry codec tests (encode -> decode). */

#include "edgepcc/octree/geometry_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "edgepcc/common/rng.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/morton/morton_order.h"

namespace edgepcc {
namespace {

VoxelCloud
uniqueRandomCloud(std::uint64_t seed, std::size_t n, int bits)
{
    Rng rng(seed);
    std::set<std::uint64_t> used;
    VoxelCloud cloud(bits);
    const std::uint32_t grid = 1u << bits;
    while (cloud.size() < n) {
        const auto x =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto y =
            static_cast<std::uint16_t>(rng.bounded(grid));
        const auto z =
            static_cast<std::uint16_t>(rng.bounded(grid));
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(x, y, z,
                      static_cast<std::uint8_t>(rng.bounded(256)),
                      static_cast<std::uint8_t>(rng.bounded(256)),
                      static_cast<std::uint8_t>(rng.bounded(256)));
        }
    }
    return cloud;
}

std::set<std::uint64_t>
voxelSet(const VoxelCloud &cloud)
{
    std::set<std::uint64_t> set;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        set.insert(mortonEncode(cloud.x()[i], cloud.y()[i],
                                cloud.z()[i]));
    return set;
}

GeometryConfig
parallelConfig(bool tight, bool entropy = false)
{
    GeometryConfig config;
    config.builder = GeometryConfig::Builder::kParallelMorton;
    config.tight_bbox = tight;
    config.entropy_coding = entropy;
    return config;
}

GeometryConfig
sequentialConfig(bool entropy = false)
{
    GeometryConfig config;
    config.builder = GeometryConfig::Builder::kSequential;
    config.tight_bbox = false;
    config.entropy_coding = entropy;
    return config;
}

TEST(GeometryCodec, RejectsEmptyCloud)
{
    VoxelCloud empty(6);
    EXPECT_FALSE(
        encodeGeometry(empty, parallelConfig(false)).hasValue());
}

TEST(GeometryCodec, ParallelLosslessRoundtrip)
{
    const VoxelCloud cloud = uniqueRandomCloud(50, 800, 7);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, SequentialLosslessRoundtrip)
{
    const VoxelCloud cloud = uniqueRandomCloud(51, 800, 7);
    auto encoded = encodeGeometry(cloud, sequentialConfig());
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, BothBuildersDecodeToSameCloud)
{
    const VoxelCloud cloud = uniqueRandomCloud(52, 600, 6);
    auto seq = encodeGeometry(cloud, sequentialConfig());
    auto par = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(seq.hasValue());
    ASSERT_TRUE(par.hasValue());
    auto seq_decoded = decodeGeometry(seq->payload);
    auto par_decoded = decodeGeometry(par->payload);
    ASSERT_TRUE(seq_decoded.hasValue());
    ASSERT_TRUE(par_decoded.hasValue());
    EXPECT_EQ(voxelSet(*seq_decoded), voxelSet(*par_decoded));
}

TEST(GeometryCodec, DecodedOrderIsMortonSorted)
{
    const VoxelCloud cloud = uniqueRandomCloud(53, 500, 6);
    for (const auto &config :
         {sequentialConfig(), parallelConfig(false)}) {
        auto encoded = encodeGeometry(cloud, config);
        ASSERT_TRUE(encoded.hasValue());
        auto decoded = decodeGeometry(encoded->payload);
        ASSERT_TRUE(decoded.hasValue());
        for (std::size_t i = 1; i < decoded->size(); ++i) {
            EXPECT_LT(mortonEncode(decoded->x()[i - 1],
                                   decoded->y()[i - 1],
                                   decoded->z()[i - 1]),
                      mortonEncode(decoded->x()[i],
                                   decoded->y()[i],
                                   decoded->z()[i]));
        }
    }
}

TEST(GeometryCodec, SortedCloudAlignsWithDecode)
{
    // The i-th sorted_cloud entry must correspond to the i-th
    // decoded voxel — the contract the attribute codecs rely on.
    const VoxelCloud cloud = uniqueRandomCloud(54, 700, 7);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    ASSERT_EQ(decoded->size(), encoded->sorted_cloud.size());
    for (std::size_t i = 0; i < decoded->size(); ++i) {
        EXPECT_EQ(decoded->x()[i], encoded->sorted_cloud.x()[i]);
        EXPECT_EQ(decoded->y()[i], encoded->sorted_cloud.y()[i]);
        EXPECT_EQ(decoded->z()[i], encoded->sorted_cloud.z()[i]);
    }
}

TEST(GeometryCodec, TightBboxErrorBounded)
{
    // Requantization moves each coordinate by at most one voxel
    // (slope >= 1 injective map, rounding both ways).
    Rng rng(55);
    VoxelCloud cloud(8);
    std::set<std::uint64_t> used;
    while (cloud.size() < 500) {
        // Keep the cloud inside a sub-box so the tight bbox matters.
        const auto x = static_cast<std::uint16_t>(
            17 + rng.bounded(150));
        const auto y = static_cast<std::uint16_t>(
            9 + rng.bounded(120));
        const auto z = static_cast<std::uint16_t>(
            33 + rng.bounded(77));
        if (used.insert(mortonEncode(x, y, z)).second)
            cloud.add(x, y, z, 0, 0, 0);
    }
    auto encoded = encodeGeometry(cloud, parallelConfig(true));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    ASSERT_EQ(decoded->size(), cloud.size());

    // Match decoded voxels against the original set: every decoded
    // voxel must be within 1 voxel (Chebyshev) of some original.
    const auto originals = voxelSet(cloud);
    for (std::size_t i = 0; i < decoded->size(); ++i) {
        bool close = false;
        for (int dx = -1; dx <= 1 && !close; ++dx) {
            for (int dy = -1; dy <= 1 && !close; ++dy) {
                for (int dz = -1; dz <= 1 && !close; ++dz) {
                    const std::int64_t nx = decoded->x()[i] + dx;
                    const std::int64_t ny = decoded->y()[i] + dy;
                    const std::int64_t nz = decoded->z()[i] + dz;
                    if (nx < 0 || ny < 0 || nz < 0)
                        continue;
                    if (originals.count(mortonEncode(
                            static_cast<std::uint32_t>(nx),
                            static_cast<std::uint32_t>(ny),
                            static_cast<std::uint32_t>(nz)))) {
                        close = true;
                    }
                }
            }
        }
        EXPECT_TRUE(close) << "decoded voxel " << i
                           << " strayed more than 1 voxel";
    }
}

TEST(GeometryCodec, FullGridTightBboxIsIdentity)
{
    // When the cloud spans the full grid, tight-bbox requantization
    // becomes the identity and the roundtrip is lossless.
    VoxelCloud cloud(4);
    cloud.add(0, 0, 0, 0, 0, 0);
    cloud.add(15, 15, 15, 0, 0, 0);
    cloud.add(7, 8, 9, 0, 0, 0);
    auto encoded = encodeGeometry(cloud, parallelConfig(true));
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, ContextualEntropyRoundtripsBothBuilders)
{
    const VoxelCloud cloud = uniqueRandomCloud(160, 1500, 8);
    for (const bool parallel : {false, true}) {
        GeometryConfig config =
            parallel ? parallelConfig(false) : sequentialConfig();
        config.contextual_entropy = true;
        auto encoded = encodeGeometry(cloud, config);
        ASSERT_TRUE(encoded.hasValue()) << parallel;
        auto decoded = decodeGeometry(encoded->payload);
        ASSERT_TRUE(decoded.hasValue()) << parallel;
        EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded))
            << parallel;
    }
}

TEST(GeometryCodec, ContextualEntropyNeverWorseThanOrderZero)
{
    // The encoder makes a per-payload mode decision, so enabling
    // context modelling can never cost more than the order-0
    // stream regardless of data shape.
    Rng rng(161);
    VoxelCloud cloud(9);
    std::set<std::uint64_t> used;
    while (cloud.size() < 20000) {
        const auto x =
            static_cast<std::uint32_t>(rng.bounded(512));
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(512));
        const std::uint32_t z = (x + y) / 2;
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(static_cast<std::uint16_t>(x),
                      static_cast<std::uint16_t>(y),
                      static_cast<std::uint16_t>(z), 0, 0, 0);
        }
    }
    GeometryConfig order0 = parallelConfig(false, true);
    GeometryConfig contextual = parallelConfig(false);
    contextual.contextual_entropy = true;
    auto a = encodeGeometry(cloud, order0);
    auto b = encodeGeometry(cloud, contextual);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LE(b->payload.size(), a->payload.size());
}

TEST(GeometryCodec, ContextualEntropyWinsOnMixedDensity)
{
    // Mixed content — a dense slab plus sparse dust — is where
    // per-context byte distributions differ and context modelling
    // pays off: the order-0 model must code the mixture.
    Rng rng(163);
    VoxelCloud cloud(8);
    std::set<std::uint64_t> used;
    for (std::uint16_t x = 40; x < 72; ++x) {
        for (std::uint16_t y = 40; y < 72; ++y) {
            for (std::uint16_t z = 60; z < 68; ++z) {
                cloud.add(x, y, z, 0, 0, 0);
                used.insert(mortonEncode(x, y, z));
            }
        }
    }
    std::size_t dust = 0;
    while (dust < 8000) {
        const auto x =
            static_cast<std::uint16_t>(rng.bounded(256));
        const auto y =
            static_cast<std::uint16_t>(rng.bounded(256));
        const auto z =
            static_cast<std::uint16_t>(rng.bounded(256));
        if (used.insert(mortonEncode(x, y, z)).second) {
            cloud.add(x, y, z, 0, 0, 0);
            ++dust;
        }
    }
    GeometryConfig order0 = parallelConfig(false, true);
    GeometryConfig contextual = parallelConfig(false);
    contextual.contextual_entropy = true;
    auto a = encodeGeometry(cloud, order0);
    auto b = encodeGeometry(cloud, contextual);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LT(b->payload.size(), a->payload.size());
    auto decoded = decodeGeometry(b->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

TEST(GeometryCodec, ContextualTruncationRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(162, 800, 7);
    GeometryConfig config = sequentialConfig();
    config.contextual_entropy = true;
    auto encoded = encodeGeometry(cloud, config);
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload.resize(payload.size() / 2);
    EXPECT_FALSE(decodeGeometry(payload).hasValue());
}

TEST(GeometryCodec, EntropyCodingShrinksPayload)
{
    const VoxelCloud cloud = uniqueRandomCloud(56, 3000, 8);
    auto plain = encodeGeometry(cloud, parallelConfig(false, false));
    auto packed = encodeGeometry(cloud, parallelConfig(false, true));
    ASSERT_TRUE(plain.hasValue());
    ASSERT_TRUE(packed.hasValue());
    EXPECT_LT(packed->payload.size(), plain->payload.size());
    // And decodes identically.
    auto a = decodeGeometry(plain->payload);
    auto b = decodeGeometry(packed->payload);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_EQ(voxelSet(*a), voxelSet(*b));
}

TEST(GeometryCodec, CompressesBelowRawSize)
{
    // Occupancy coding must beat the 12 B/point raw geometry even
    // without entropy coding.
    const VoxelCloud cloud = uniqueRandomCloud(57, 5000, 9);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    EXPECT_LT(encoded->payload.size(), cloud.size() * 12);
}

/**
 * `n` distinct voxels away from the grid origin, about a fifth of
 * them repeated later in the input under other colours.
 */
VoxelCloud
cloudWithRepeats(std::uint64_t seed, std::size_t n)
{
    const VoxelCloud voxels = uniqueRandomCloud(seed, n, 5);
    Rng rng(seed + 1);
    VoxelCloud cloud(7);
    const auto add = [&](std::size_t i, std::uint8_t flip) {
        cloud.add(static_cast<std::uint16_t>(voxels.x()[i] + 37),
                  static_cast<std::uint16_t>(voxels.y()[i] + 5),
                  static_cast<std::uint16_t>(voxels.z()[i] + 70),
                  static_cast<std::uint8_t>(voxels.r()[i] ^ flip),
                  static_cast<std::uint8_t>(voxels.g()[i] ^ flip),
                  static_cast<std::uint8_t>(voxels.b()[i] ^ flip));
    };
    for (std::size_t i = 0; i < n; ++i) {
        add(i, 0);
        if (rng.uniform() < 0.2)
            add(static_cast<std::size_t>(rng.bounded(i + 1)), 0x80);
    }
    return cloud;
}

/**
 * The cloud the attribute stage must get, built from the public
 * Morton API: the coded cloud (shifted into its bounding box when
 * `tight`) in Morton order, the first point of each run of equal
 * codes, on the input's coordinates.
 */
VoxelCloud
expectedSortedCloud(const VoxelCloud &cloud, bool tight)
{
    std::uint16_t lo[3] = {0, 0, 0};
    if (tight) {
        lo[0] = *std::min_element(cloud.x().begin(), cloud.x().end());
        lo[1] = *std::min_element(cloud.y().begin(), cloud.y().end());
        lo[2] = *std::min_element(cloud.z().begin(), cloud.z().end());
    }
    const auto shift = [](std::uint16_t v, int d) {
        return static_cast<std::uint16_t>(v + d);
    };
    VoxelCloud coded = cloud;
    for (std::size_t i = 0; i < coded.size(); ++i) {
        coded.mutableX()[i] = shift(cloud.x()[i], -lo[0]);
        coded.mutableY()[i] = shift(cloud.y()[i], -lo[1]);
        coded.mutableZ()[i] = shift(cloud.z()[i], -lo[2]);
    }
    const MortonOrder order = computeMortonOrder(coded);
    const VoxelCloud sorted = applyOrder(coded, order);
    VoxelCloud expected(cloud.gridBits());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
        if (k > 0 && order.codes[k] == order.codes[k - 1])
            continue;
        expected.add(shift(sorted.x()[k], lo[0]),
                     shift(sorted.y()[k], lo[1]),
                     shift(sorted.z()[k], lo[2]), sorted.r()[k],
                     sorted.g()[k], sorted.b()[k]);
    }
    return expected;
}

TEST(GeometryCodec, DuplicateInputVoxelsCollapse)
{
    const VoxelCloud cloud = cloudWithRepeats(57, 2000);
    ASSERT_GT(cloud.size(), 2300u);
    const std::pair<const char *, GeometryConfig> configs[] = {
        {"parallel, tight bbox", parallelConfig(true)},
        {"parallel", parallelConfig(false)},
        {"sequential", sequentialConfig()},
    };
    for (const auto &[name, config] : configs) {
        SCOPED_TRACE(name);
        const bool tight =
            config.builder ==
                GeometryConfig::Builder::kParallelMorton &&
            config.tight_bbox;
        const VoxelCloud expected = expectedSortedCloud(cloud, tight);
        ASSERT_EQ(expected.size(), 2000u);

        auto encoded = encodeGeometry(cloud, config);
        ASSERT_TRUE(encoded.hasValue());
        EXPECT_EQ(encoded->num_voxels, expected.size());
        const VoxelCloud &sorted = encoded->sorted_cloud;
        EXPECT_EQ(sorted.gridBits(), cloud.gridBits());
        EXPECT_EQ(sorted.x(), expected.x());
        EXPECT_EQ(sorted.y(), expected.y());
        EXPECT_EQ(sorted.z(), expected.z());
        EXPECT_EQ(sorted.r(), expected.r());
        EXPECT_EQ(sorted.g(), expected.g());
        EXPECT_EQ(sorted.b(), expected.b());

        auto decoded = decodeGeometry(encoded->payload);
        ASSERT_TRUE(decoded.hasValue());
        EXPECT_EQ(decoded->x(), expected.x());
        EXPECT_EQ(decoded->y(), expected.y());
        EXPECT_EQ(decoded->z(), expected.z());
    }
}

TEST(GeometryCodec, CorruptMagicRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(58, 100, 5);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload[0] = 'X';
    EXPECT_FALSE(decodeGeometry(payload).hasValue());
}

TEST(GeometryCodec, TruncatedPayloadRejected)
{
    const VoxelCloud cloud = uniqueRandomCloud(59, 500, 6);
    auto encoded = encodeGeometry(cloud, parallelConfig(false));
    ASSERT_TRUE(encoded.hasValue());
    auto payload = encoded->payload;
    payload.resize(payload.size() / 2);
    const auto decoded = decodeGeometry(payload);
    EXPECT_FALSE(decoded.hasValue());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::kCorruptBitstream);
}

TEST(GeometryCodec, RecordsGeometryStages)
{
    const VoxelCloud cloud = uniqueRandomCloud(60, 400, 6);
    WorkRecorder recorder;
    auto encoded =
        encodeGeometry(cloud, parallelConfig(true), &recorder);
    ASSERT_TRUE(encoded.hasValue());
    const auto profile = recorder.takeProfile();
    ASSERT_GE(profile.stages.size(), 3u);
    EXPECT_EQ(profile.stages[0].name, "geom.normalize");
    bool has_build = false;
    for (const auto &stage : profile.stages)
        has_build |= stage.name == "geom.build";
    EXPECT_TRUE(has_build);
}

/** Sweep: lossless roundtrip across sizes, depths, builders. */
class GeometryCodecSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

TEST_P(GeometryCodecSweep, LosslessRoundtrip)
{
    const auto [n, bits, parallel] = GetParam();
    // Never ask for more unique voxels than half the grid holds.
    const std::size_t capped = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        (std::size_t{1} << (3 * bits)) / 2 + 1);
    const VoxelCloud cloud = uniqueRandomCloud(
        static_cast<std::uint64_t>(n) * 61 +
            static_cast<std::uint64_t>(bits),
        capped, bits);
    const GeometryConfig config =
        parallel ? parallelConfig(false) : sequentialConfig();
    auto encoded = encodeGeometry(cloud, config);
    ASSERT_TRUE(encoded.hasValue());
    auto decoded = decodeGeometry(encoded->payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(voxelSet(cloud), voxelSet(*decoded));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeometryCodecSweep,
    ::testing::Combine(::testing::Values(1, 7, 64, 1000),
                       ::testing::Values(1, 4, 10),
                       ::testing::Bool()));

}  // namespace
}  // namespace edgepcc
