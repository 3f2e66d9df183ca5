/**
 * @file
 * Morton-code generation and ordering for whole voxel clouds.
 *
 * This is the shared "Morton Code Generation" + sort stage of the
 * paper's pipelines (Fig. 4c/4d): its output feeds the parallel
 * octree builder, the intra-frame attribute codec, and the
 * inter-frame block matcher.
 */

#ifndef EDGEPCC_MORTON_MORTON_ORDER_H
#define EDGEPCC_MORTON_MORTON_ORDER_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/work_counters.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** Result of sorting a cloud into Morton order. */
struct MortonOrder {
    /** Sorted Morton codes, one per point (duplicates possible). */
    std::vector<std::uint64_t> codes;
    /** perm[k] = original index of the k-th point in sorted order. */
    std::vector<std::uint32_t> perm;
    /** Octree depth implied by the cloud's grid (gridBits). */
    int depth = 0;
};

/**
 * Computes per-point Morton codes (data-parallel kernel) and sorts
 * them with the radix sort (GPU-substitute kernel).
 *
 * @param recorder optional instrumentation sink for the device model.
 */
MortonOrder computeMortonOrder(const VoxelCloud &cloud,
                               WorkRecorder *recorder = nullptr);

/**
 * Materializes the cloud permuted into Morton order. Shares the
 * order's permutation so attribute kernels can stream sequentially.
 */
VoxelCloud applyOrder(const VoxelCloud &cloud,
                      const MortonOrder &order,
                      WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_MORTON_MORTON_ORDER_H
