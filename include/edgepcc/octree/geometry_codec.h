/**
 * @file
 * Geometry compression: voxel cloud -> occupancy bitstream -> voxel
 * cloud.
 *
 * Two encode paths exist, matching paper Fig. 4a vs 4c:
 *  - kSequential: PCL/TMC13-style point-by-point octree insertion and
 *    depth-first serialization. Lossless. Charged to one CPU core.
 *  - kParallelMorton: the proposed pipeline — optional tight-cuboid
 *    renormalization, one-shot Morton code generation, radix sort,
 *    parallel level construction, Algorithm-1 occupancy merge,
 *    breadth-first stream. The renormalization is what makes the
 *    paper's variant slightly lossy (Fig. 5's P0 moving to -0.43);
 *    disable `tight_bbox` for a lossless parallel path.
 *
 * Entropy coding of the occupancy stream is optional in both paths
 * (the paper ships with it disabled for a ~2x geometry-size cost and
 * ~100 ms saving, Sec. IV-B3).
 */

#ifndef EDGEPCC_OCTREE_GEOMETRY_CODEC_H
#define EDGEPCC_OCTREE_GEOMETRY_CODEC_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/geometry/point_cloud.h"
#include "edgepcc/morton/morton_order.h"

namespace edgepcc {

/** Geometry encoder configuration. */
struct GeometryConfig {
    enum class Builder : std::uint8_t {
        kSequential = 0,
        kParallelMorton = 1,
    };

    Builder builder = Builder::kParallelMorton;
    /** Run the occupancy stream through the adaptive range coder. */
    bool entropy_coding = false;
    /** Condition the range coder on each node's parent occupancy
     *  (TMC13-style context modelling; implies entropy_coding). */
    bool contextual_entropy = false;
    /** Renormalize coordinates to the tight bounding cuboid before
     *  coding (parallel builder only; introduces sub-voxel error). */
    bool tight_bbox = true;
};

/** Output of geometry encoding. */
struct GeometryEncoded {
    std::vector<std::uint8_t> payload;

    /** Unique voxels actually coded (after dedup). */
    std::size_t num_voxels = 0;
    int depth = 0;

    /**
     * The cloud the attribute stage must consume: the input's first
     * point of each voxel, permuted into the coded Morton order, with
     * the input's coordinates and colors. The i-th decoded voxel
     * corresponds to the i-th entry here.
     */
    VoxelCloud sorted_cloud;
};

/**
 * Encodes the geometry of `cloud`.
 *
 * Duplicate voxels are merged (first color wins; EdgePCC inputs are
 * deduplicated by construction, this is a safety net).
 *
 * @returns kInvalidArgument for empty clouds.
 */
Expected<GeometryEncoded> encodeGeometry(
    const VoxelCloud &cloud, const GeometryConfig &config,
    WorkRecorder *recorder = nullptr);

/**
 * Decodes a geometry payload back to a voxel cloud (colors zeroed),
 * in the same order as GeometryEncoded::sorted_cloud.
 */
Expected<VoxelCloud> decodeGeometry(
    ByteSpan payload, WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_OCTREE_GEOMETRY_CODEC_H
