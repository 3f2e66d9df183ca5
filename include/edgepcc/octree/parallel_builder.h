/**
 * @file
 * Morton-code-assisted parallel octree construction (the paper's
 * intra-frame geometry proposal, Sec. IV-B).
 *
 * Because the points are sorted by Morton code, the topographic
 * structure of the final tree is known up front: the nodes of level l
 * are exactly the distinct values of `code >> 3*(depth-l)`, in
 * ascending order. Each level is therefore derived from the one below
 * it by a run-boundary sweep — no point-by-point update and no locks
 * (Karras, HPG 2012, the construction the paper cites) — and the
 * sweep that finds a level's nodes also merges their children's bits
 * into their occupancy bytes (paper Algorithm 1).
 *
 * All octrees in EdgePCC span the full voxel grid: the root covers
 * [0, 2^depth)^3 and level `depth` cells are single voxels. A branch
 * node's occupancy byte has bit c set when child octant c (the low 3
 * Morton bits of the child's code) is occupied.
 */

#ifndef EDGEPCC_OCTREE_PARALLEL_BUILDER_H
#define EDGEPCC_OCTREE_PARALLEL_BUILDER_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"

namespace edgepcc {

/**
 * Builds the octree of sorted leaf Morton codes and returns its
 * occupancy bytes breadth-first: level by level from the root, codes
 * ascending within a level, one byte per branch node.
 *
 * One sweep over the codes skips duplicates, writes level depth-1's
 * codes (`code >> 3`, once per run) into frame-arena scratch and ORs
 * `1 << (code & 7)` into each node's byte; each upper level repeats
 * the sweep in place over the level below. The sweeps run on the
 * calling thread; scratch comes from the bound FrameArena
 * (platform/arena.h), or from a local one outside a frame.
 *
 * @param sorted_codes leaf codes in ascending order, each below
 *                     2^(3*depth); duplicates are collapsed.
 * @param depth        octree depth (grid bits).
 * @param recorder     optional instrumentation sink.
 * @returns kInvalidArgument when codes are empty, not sorted or
 *          wider than the depth, or when the depth is out of range.
 */
Expected<std::vector<std::uint8_t>> buildParallelOctree(
    const std::vector<std::uint64_t> &sorted_codes, int depth,
    WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_OCTREE_PARALLEL_BUILDER_H
