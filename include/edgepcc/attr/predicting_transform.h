/**
 * @file
 * Predicting Transform attribute codec — the second of G-PCC's
 * three attribute methods (paper Sec. II-B3: RAHT, Predicting
 * Transform, Lifting Transform; the latter two are based on
 * hierarchical nearest-neighbour interpolation).
 *
 * Points are organized into levels of detail (LODs) by dyadic
 * subsampling of the Morton order: LOD 0 is every 2^L-th point,
 * each finer LOD doubles the density. Attributes are coded
 * coarse-to-fine; every finer point is predicted by
 * inverse-distance-weighted interpolation of its flanking
 * already-coded points, and only the quantized residual is stored
 * (entropy coded per channel). The decoder replays the identical
 * traversal from the decoded geometry.
 *
 * The Lifting Transform shares this LOD structure and adds an
 * update operator; EdgePCC implements the predicting variant (the
 * paper's TMC13 configuration uses RAHT, so this codec serves as an
 * additional baseline/ablation point, see bench/ablation_attr).
 *
 * Like RAHT, prediction is inherently sequential across LODs — the
 * device model charges it to one CPU core.
 */

#ifndef EDGEPCC_ATTR_PREDICTING_TRANSFORM_H
#define EDGEPCC_ATTR_PREDICTING_TRANSFORM_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** Predicting-transform configuration. */
struct PredictingConfig {
    /** Uniform residual quantization step. */
    double qstep = 4.0;

    /** Number of LOD doublings (base LOD = every 2^levels-th
     *  point). Clamped so the base LOD keeps >= 1 point. */
    int lod_levels = 8;

    /** Maximum prediction neighbours (flanking coded points). */
    int num_neighbors = 3;
};

/**
 * Encodes the colors of a Morton-sorted, duplicate-free cloud.
 */
Expected<std::vector<std::uint8_t>> encodePredicting(
    const VoxelCloud &sorted_cloud, const PredictingConfig &config,
    WorkRecorder *recorder = nullptr);

/** Decodes predicting-transform attributes into `cloud`. */
Status decodePredictingInto(ByteSpan payload, VoxelCloud &cloud,
                            WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_ATTR_PREDICTING_TRANSFORM_H
