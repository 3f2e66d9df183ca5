/** @file Tests for the sequential and parallel octree builders. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "edgepcc/common/rng.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/octree/parallel_builder.h"
#include "edgepcc/octree/sequential_builder.h"

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
        if (used.insert(mortonEncode(x, y, z)).second)
            cloud.add(x, y, z, 0, 0, 0);
    }
    return cloud;
}

// ---------------------------------------------------------------
// Sequential builder
// ---------------------------------------------------------------

TEST(SequentialOctree, SinglePoint)
{
    VoxelCloud cloud(3);
    cloud.add(5, 2, 7, 0, 0, 0);
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.numLeaves(), 1u);
    // Root + one node per level.
    EXPECT_EQ(tree.numNodes(), 4u);
}

TEST(SequentialOctree, DuplicatesCollapse)
{
    VoxelCloud cloud(4);
    cloud.add(1, 1, 1, 0, 0, 0);
    cloud.add(1, 1, 1, 0, 0, 0);
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.numLeaves(), 1u);
}

TEST(SequentialOctree, RootOccupancyReflectsOctants)
{
    VoxelCloud cloud(1);  // 2x2x2 grid: leaves are root children
    cloud.add(0, 0, 0, 0, 0, 0);  // octant 0
    cloud.add(1, 1, 1, 0, 0, 0);  // octant 7
    const PointerOctree tree = buildSequentialOctree(cloud);
    EXPECT_EQ(tree.nodes()[0].occupancy, 0b10000001u);
}

TEST(SequentialOctree, InsertReturnsDepthWalked)
{
    PointerOctree tree(5);
    EXPECT_EQ(tree.insert(0, 0, 0), 5);
}

TEST(SequentialOctree, SerializationSizeEqualsBranchCount)
{
    const VoxelCloud cloud = uniqueRandomCloud(31, 300, 6);
    const PointerOctree tree = buildSequentialOctree(cloud);
    const auto stream = serializeDepthFirst(tree);
    // One byte per branch node; leaves carry none.
    EXPECT_EQ(stream.size(), tree.numNodes() - tree.numLeaves());
}

// ---------------------------------------------------------------
// Parallel builder
// ---------------------------------------------------------------

TEST(ParallelOctree, RejectsBadInput)
{
    EXPECT_FALSE(buildParallelOctree({}, 4).hasValue());
    EXPECT_FALSE(buildParallelOctree({3, 1}, 4).hasValue());
    EXPECT_FALSE(buildParallelOctree({0}, 0).hasValue());
    EXPECT_FALSE(buildParallelOctree({0, 64}, 2).hasValue());
}

/** Leaf codes of `cloud`, sorted. */
std::vector<std::uint64_t>
sortedCodes(const VoxelCloud &cloud)
{
    std::vector<std::uint64_t> codes;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        codes.push_back(mortonEncode(cloud.x()[i], cloud.y()[i],
                                     cloud.z()[i]));
    std::sort(codes.begin(), codes.end());
    return codes;
}

/**
 * Expands breadth-first occupancy bytes back into the node codes of
 * every level, root (level 0) first and leaves last; fails the test
 * when the bytes do not describe exactly a depth-`depth` tree.
 */
std::vector<std::vector<std::uint64_t>>
expandLevels(const std::vector<std::uint8_t> &occupancy, int depth)
{
    std::vector<std::vector<std::uint64_t>> levels{{0}};
    std::size_t cursor = 0;
    for (int level = 0; level < depth; ++level) {
        std::vector<std::uint64_t> next;
        for (const std::uint64_t code : levels.back()) {
            EXPECT_LT(cursor, occupancy.size());
            if (cursor >= occupancy.size())
                return levels;
            const std::uint8_t byte = occupancy[cursor++];
            EXPECT_NE(byte, 0u);
            for (unsigned octant = 0; octant < 8; ++octant) {
                if (byte & (1u << octant))
                    next.push_back(code << 3 | octant);
            }
        }
        levels.push_back(std::move(next));
    }
    EXPECT_EQ(cursor, occupancy.size());
    return levels;
}

TEST(ParallelOctree, SinglePointTree)
{
    const std::vector<std::uint64_t> codes{
        mortonEncode(3, 3, 3)};
    auto occupancy = buildParallelOctree(codes, 2);
    ASSERT_TRUE(occupancy.hasValue());
    // Root and one level-1 node, each with the single octant 7.
    EXPECT_EQ(*occupancy,
              (std::vector<std::uint8_t>{0b10000000, 0b10000000}));
    const auto levels = expandLevels(*occupancy, 2);
    EXPECT_EQ(levels[1].size(), 1u);
    EXPECT_EQ(levels[2], codes);
}

TEST(ParallelOctree, PaperFigureFiveShape)
{
    // Paper Fig. 5: three points on a depth-2 tree. P0=(1,0,0),
    // P1=(0,0,0) (after shifting the paper's -1 into grid range)
    // and P2=(3,3,3).
    const std::vector<std::uint64_t> codes = [] {
        std::vector<std::uint64_t> c{mortonEncode(0, 0, 0),
                                     mortonEncode(1, 0, 0),
                                     mortonEncode(3, 3, 3)};
        std::sort(c.begin(), c.end());
        return c;
    }();
    auto occupancy = buildParallelOctree(codes, 2);
    ASSERT_TRUE(occupancy.hasValue());
    ASSERT_EQ(occupancy->size(), 3u);  // root + 2 branch nodes
    EXPECT_EQ((*occupancy)[0], 0b10000001u);  // children 0 and 7
    EXPECT_EQ((*occupancy)[1], 0b00000011u);  // leaves 0 and 1
    EXPECT_EQ((*occupancy)[2], 0b10000000u);  // leaf 7
    // Level 1 has two nodes (cells 0 and 7), leaves three.
    const auto levels = expandLevels(*occupancy, 2);
    EXPECT_EQ(levels[1], (std::vector<std::uint64_t>{0, 7}));
    EXPECT_EQ(levels[2], codes);
}

TEST(ParallelOctree, PaperFigureFiveWorkCounts)
{
    // The Fig. 5 codes with (1,0,0) repeated: four input codes,
    // three leaves, six nodes.
    const std::vector<std::uint64_t> codes{
        mortonEncode(0, 0, 0), mortonEncode(1, 0, 0),
        mortonEncode(1, 0, 0), mortonEncode(3, 3, 3)};
    WorkRecorder recorder;
    recorder.beginStage("geom.build");
    auto occupancy = buildParallelOctree(codes, 2, &recorder);
    recorder.endStage();
    ASSERT_TRUE(occupancy.hasValue());
    EXPECT_EQ(*occupancy,
              (std::vector<std::uint8_t>{0x81, 0x03, 0x80}));

    const PipelineProfile &profile = recorder.profile();
    ASSERT_EQ(profile.stages.size(), 1u);
    const std::vector<KernelWork> &kernels =
        profile.stages[0].kernels;
    ASSERT_EQ(kernels.size(), 3u);
    struct Row {
        const char *name;
        std::uint64_t invocations, items, ops, bytes;
    };
    const Row expected[] = {
        {"octree.par_levels", 3, 6, 41, 144},
        {"octree.par_parents", 2, 6, 30, 72},
        {"octree.occupancy_merge", 1, 5, 15, 50},
    };
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        EXPECT_EQ(kernels[k].name, expected[k].name);
        EXPECT_EQ(kernels[k].resource, ExecResource::kGpu);
        EXPECT_EQ(kernels[k].invocations, expected[k].invocations)
            << expected[k].name;
        EXPECT_EQ(kernels[k].items, expected[k].items)
            << expected[k].name;
        EXPECT_EQ(kernels[k].ops, expected[k].ops)
            << expected[k].name;
        EXPECT_EQ(kernels[k].bytes, expected[k].bytes)
            << expected[k].name;
    }
}

TEST(ParallelOctree, DuplicateCodesCollapse)
{
    const std::uint64_t code = mortonEncode(1, 2, 3);
    auto occupancy = buildParallelOctree({code, code, code}, 4);
    ASSERT_TRUE(occupancy.hasValue());
    EXPECT_EQ(occupancy->size(), 4u);  // one node per branch level
    EXPECT_EQ(expandLevels(*occupancy, 4)[4],
              (std::vector<std::uint64_t>{code}));
}

TEST(ParallelOctree, ParentChildCodesConsistent)
{
    const std::vector<std::uint64_t> codes =
        sortedCodes(uniqueRandomCloud(32, 500, 6));
    auto occupancy = buildParallelOctree(codes, 6);
    ASSERT_TRUE(occupancy.hasValue());
    const auto levels = expandLevels(*occupancy, 6);
    ASSERT_EQ(levels.size(), 7u);
    // Level l holds exactly the distinct leaf prefixes of 3l bits,
    // ascending, and every node's parent is a node of level l - 1.
    for (int level = 0; level <= 6; ++level) {
        std::vector<std::uint64_t> prefixes;
        for (const std::uint64_t code : codes)
            prefixes.push_back(code >> (3 * (6 - level)));
        prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                       prefixes.end());
        const auto &nodes = levels[static_cast<std::size_t>(level)];
        EXPECT_EQ(nodes, prefixes) << "level " << level;
        if (level == 0)
            continue;
        const auto &parents =
            levels[static_cast<std::size_t>(level) - 1];
        for (const std::uint64_t node : nodes) {
            EXPECT_TRUE(std::binary_search(
                parents.begin(), parents.end(), node >> 3));
        }
    }
}

TEST(ParallelOctree, LeavesMatchInputCodes)
{
    const std::vector<std::uint64_t> codes =
        sortedCodes(uniqueRandomCloud(33, 700, 7));
    auto occupancy = buildParallelOctree(codes, 7);
    ASSERT_TRUE(occupancy.hasValue());
    EXPECT_EQ(expandLevels(*occupancy, 7)[7], codes);
}

// ---------------------------------------------------------------
// Cross-validation: both builders describe the same tree
// ---------------------------------------------------------------

TEST(OctreeCrossCheck, OccupancyMultisetsMatch)
{
    const VoxelCloud cloud = uniqueRandomCloud(34, 1000, 6);

    const PointerOctree seq = buildSequentialOctree(cloud);
    auto seq_stream = serializeDepthFirst(seq);

    auto par = buildParallelOctree(sortedCodes(cloud), 6);
    ASSERT_TRUE(par.hasValue());
    std::vector<std::uint8_t> par_stream = *par;

    // Same tree, different traversal order: the byte multisets and
    // counts must agree.
    ASSERT_EQ(seq_stream.size(), par_stream.size());
    std::sort(seq_stream.begin(), seq_stream.end());
    std::sort(par_stream.begin(), par_stream.end());
    EXPECT_EQ(seq_stream, par_stream);

    const auto levels = expandLevels(*par, 6);
    std::size_t nodes = 0;
    for (const auto &level : levels)
        nodes += level.size();
    EXPECT_EQ(seq.numNodes(), nodes);
    EXPECT_EQ(seq.numLeaves(), levels.back().size());
}

TEST(OctreeCrossCheck, RootBytesIdentical)
{
    const VoxelCloud cloud = uniqueRandomCloud(35, 200, 5);
    const PointerOctree seq = buildSequentialOctree(cloud);
    const auto seq_stream = serializeDepthFirst(seq);

    auto par = buildParallelOctree(sortedCodes(cloud), 5);
    ASSERT_TRUE(par.hasValue());
    const std::vector<std::uint8_t> &par_stream = *par;

    // DFS and BFS both emit the root byte first.
    ASSERT_FALSE(seq_stream.empty());
    ASSERT_FALSE(par_stream.empty());
    EXPECT_EQ(seq_stream[0], par_stream[0]);
}

/** Parameterized sweep: node counts agree across sizes/depths. */
class OctreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OctreeSweep, BuildersAgreeOnStructure)
{
    const auto [n, bits] = GetParam();
    // Never ask for more unique voxels than half the grid holds.
    const std::size_t capped = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        (std::size_t{1} << (3 * bits)) / 2 + 1);
    const VoxelCloud cloud = uniqueRandomCloud(
        static_cast<std::uint64_t>(n) * 37 +
            static_cast<std::uint64_t>(bits),
        capped, bits);
    const PointerOctree seq = buildSequentialOctree(cloud);
    const std::vector<std::uint64_t> codes = sortedCodes(cloud);
    auto par = buildParallelOctree(codes, bits);
    ASSERT_TRUE(par.hasValue());
    // One byte per branch node, and the bytes expand to the leaves.
    EXPECT_EQ(seq.numNodes() - seq.numLeaves(), par->size());
    const auto levels = expandLevels(*par, bits);
    EXPECT_EQ(seq.numLeaves(), levels.back().size());
    EXPECT_EQ(levels.back(), codes);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDepths, OctreeSweep,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 2000),
                       ::testing::Values(1, 2, 5, 8, 10, 21)));

}  // namespace
}  // namespace edgepcc
