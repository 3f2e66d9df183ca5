/**
 * @file
 * Shared octree definitions.
 *
 * All octrees in EdgePCC span the full voxel grid: the root covers
 * [0, 2^depth)^3 and level `depth` cells are single voxels. A branch
 * node's occupancy byte has bit c set when child octant c (the low 3
 * Morton bits of the child's code) is occupied.
 */

#ifndef EDGEPCC_OCTREE_OCTREE_H
#define EDGEPCC_OCTREE_OCTREE_H

#include <cstdint>
#include <vector>

namespace edgepcc {

/**
 * Flat level-ordered octree produced by the parallel builder,
 * matching the paper's "code array / parent array" output (Fig. 5).
 *
 * Nodes are stored root first, then level 1, ..., then the leaves;
 * within a level, codes ascend. `parent[i]` indexes into `codes`
 * (-1 for the root). `level_offsets[l]` is the index of the first
 * node of level l, with a final sentinel equal to codes.size().
 */
struct FlatOctree {
    std::vector<std::uint64_t> codes;
    std::vector<std::int32_t> parent;
    std::vector<std::uint32_t> level_offsets;
    int depth = 0;

    std::size_t numNodes() const { return codes.size(); }

    std::size_t
    numNodesAtLevel(int level) const
    {
        return level_offsets[level + 1] - level_offsets[level];
    }

    /** Leaves = nodes at the deepest level (unique voxels). */
    std::size_t numLeaves() const { return numNodesAtLevel(depth); }

    /** Branch nodes = every node above the leaf level. */
    std::size_t
    numBranchNodes() const
    {
        return numNodes() - numLeaves();
    }
};

}  // namespace edgepcc

#endif  // EDGEPCC_OCTREE_OCTREE_H
