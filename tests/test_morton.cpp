/** @file Tests for Morton coding and whole-cloud ordering. */

#include "edgepcc/morton/morton.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "edgepcc/common/rng.h"
#include "edgepcc/morton/morton_order.h"

namespace edgepcc {
namespace {

TEST(Morton, OriginIsZero)
{
    EXPECT_EQ(mortonEncode(0, 0, 0), 0u);
}

TEST(Morton, UnitAxes)
{
    EXPECT_EQ(mortonEncode(1, 0, 0), 1u);  // x -> bit 0
    EXPECT_EQ(mortonEncode(0, 1, 0), 2u);  // y -> bit 1
    EXPECT_EQ(mortonEncode(0, 0, 1), 4u);  // z -> bit 2
}

TEST(Morton, LowBitsSelectOctant)
{
    // The low 3 bits must be the octant within the parent voxel,
    // the property paper Algorithm 1 depends on.
    const std::uint64_t code = mortonEncode(5, 3, 6);
    EXPECT_EQ(code & 7u, (5u & 1) | ((3u & 1) << 1) |
                             ((6u & 1) << 2));
    EXPECT_EQ(code >> 3, mortonEncode(5 / 2, 3 / 2, 6 / 2));
}

TEST(Morton, MaxCoordinateRoundtrip)
{
    const std::uint32_t max = (1u << kMaxMortonBitsPerAxis) - 1;
    const MortonXyz xyz = mortonDecode(mortonEncode(max, max, max));
    EXPECT_EQ(xyz.x, max);
    EXPECT_EQ(xyz.y, max);
    EXPECT_EQ(xyz.z, max);
}

TEST(Morton, ExpandCompactInverse)
{
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const auto v = static_cast<std::uint32_t>(
            rng.bounded(1u << kMaxMortonBitsPerAxis));
        EXPECT_EQ(mortonCompactBits(mortonExpandBits(v)), v);
    }
}

TEST(Morton, RandomRoundtrip)
{
    Rng rng(12);
    for (int i = 0; i < 5000; ++i) {
        const auto x =
            static_cast<std::uint32_t>(rng.bounded(1 << 21));
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(1 << 21));
        const auto z =
            static_cast<std::uint32_t>(rng.bounded(1 << 21));
        const MortonXyz xyz = mortonDecode(mortonEncode(x, y, z));
        EXPECT_EQ(xyz, (MortonXyz{x, y, z}));
    }
}

TEST(Morton, PreservesLocalityOfNeighbours)
{
    // Points inside one 2x2x2 cell share all but the low 3 bits.
    const std::uint64_t base = mortonEncode(10, 20, 30);
    for (std::uint32_t dx = 0; dx < 2; ++dx) {
        for (std::uint32_t dy = 0; dy < 2; ++dy) {
            for (std::uint32_t dz = 0; dz < 2; ++dz) {
                const std::uint64_t code =
                    mortonEncode(10 + dx, 20 + dy, 30 + dz);
                EXPECT_EQ(code >> 3, base >> 3);
            }
        }
    }
}

TEST(Morton, CommonLevel)
{
    const int depth = 10;
    const std::uint64_t a = mortonEncode(0, 0, 0);
    EXPECT_EQ(mortonCommonLevel(a, a, depth), depth);
    const std::uint64_t b = mortonEncode(1, 0, 0);
    EXPECT_EQ(mortonCommonLevel(a, b, depth), depth - 1);
    const std::uint64_t c = mortonEncode(512, 0, 0);
    EXPECT_EQ(mortonCommonLevel(a, c, depth), 0);
}

VoxelCloud
randomCloud(std::uint64_t seed, std::size_t n, int grid_bits = 10)
{
    Rng rng(seed);
    VoxelCloud cloud(grid_bits);
    const std::uint32_t grid = 1u << grid_bits;
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add(static_cast<std::uint16_t>(rng.bounded(grid)),
                  static_cast<std::uint16_t>(rng.bounded(grid)),
                  static_cast<std::uint16_t>(rng.bounded(grid)),
                  static_cast<std::uint8_t>(rng.bounded(256)),
                  static_cast<std::uint8_t>(rng.bounded(256)),
                  static_cast<std::uint8_t>(rng.bounded(256)));
    }
    return cloud;
}

TEST(MortonOrder, CodesAreSorted)
{
    const VoxelCloud cloud = randomCloud(13, 5000);
    const MortonOrder order = computeMortonOrder(cloud);
    EXPECT_EQ(order.codes.size(), cloud.size());
    EXPECT_EQ(order.depth, cloud.gridBits());
    EXPECT_TRUE(
        std::is_sorted(order.codes.begin(), order.codes.end()));
}

TEST(MortonOrder, PermIsAPermutation)
{
    const VoxelCloud cloud = randomCloud(14, 3000);
    const MortonOrder order = computeMortonOrder(cloud);
    std::vector<bool> seen(cloud.size(), false);
    for (const auto index : order.perm) {
        ASSERT_LT(index, cloud.size());
        EXPECT_FALSE(seen[index]);
        seen[index] = true;
    }
}

TEST(MortonOrder, CodesMatchPermutedCoordinates)
{
    const VoxelCloud cloud = randomCloud(15, 2000);
    const MortonOrder order = computeMortonOrder(cloud);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const auto src = order.perm[i];
        EXPECT_EQ(order.codes[i],
                  mortonEncode(cloud.x()[src], cloud.y()[src],
                               cloud.z()[src]));
    }
}

TEST(MortonOrder, ApplyOrderCarriesColors)
{
    const VoxelCloud cloud = randomCloud(16, 1000);
    const MortonOrder order = computeMortonOrder(cloud);
    const VoxelCloud sorted = applyOrder(cloud, order);
    ASSERT_EQ(sorted.size(), cloud.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const auto src = order.perm[i];
        EXPECT_EQ(sorted.x()[i], cloud.x()[src]);
        EXPECT_EQ(sorted.color(i), cloud.color(src));
        EXPECT_EQ(mortonEncode(sorted.x()[i], sorted.y()[i],
                               sorted.z()[i]),
                  order.codes[i]);
    }
}

TEST(MortonOrder, RecordsKernels)
{
    const VoxelCloud cloud = randomCloud(17, 500);
    WorkRecorder recorder;
    recorder.beginStage("test");
    computeMortonOrder(cloud, &recorder);
    recorder.endStage();
    const auto profile = recorder.profile();
    ASSERT_EQ(profile.stages.size(), 1u);
    ASSERT_GE(profile.stages[0].kernels.size(), 2u);
    EXPECT_EQ(profile.stages[0].kernels[0].name,
              "morton.generate");
    EXPECT_EQ(profile.stages[0].kernels[0].items, cloud.size());
}

/** Property: Morton sorting groups points into spatial blocks whose
 *  coordinate spread shrinks as segments get finer (the paper's
 *  Fig. 3a premise). */
TEST(MortonOrder, FinerSegmentsAreSpatiallyTighter)
{
    const VoxelCloud cloud = randomCloud(18, 20000);
    const MortonOrder order = computeMortonOrder(cloud);
    const VoxelCloud sorted = applyOrder(cloud, order);

    const auto mean_extent = [&](std::size_t segments) {
        const std::size_t k =
            (sorted.size() + segments - 1) / segments;
        double total = 0.0;
        std::size_t counted = 0;
        for (std::size_t lo = 0; lo < sorted.size(); lo += k) {
            const std::size_t hi =
                std::min(sorted.size(), lo + k);
            std::uint16_t mn = 0xffff, mx = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                mn = std::min(mn, sorted.x()[i]);
                mx = std::max(mx, sorted.x()[i]);
            }
            total += mx - mn;
            ++counted;
        }
        return total / static_cast<double>(counted);
    };

    EXPECT_LT(mean_extent(1000), mean_extent(10));
}

}  // namespace
}  // namespace edgepcc
