/**
 * @file
 * Region-Adaptive Hierarchical Transform (RAHT) attribute codec —
 * the TMC13-like baseline (de Queiroz & Chou, paper Sec. IV-C1).
 *
 * RAHT walks the octree bottom-up: at each of the 3*depth dyadic
 * sub-levels, sibling nodes (equal `code >> 1`) are combined with the
 * weighted orthonormal butterfly of paper Eq. 1. The high-pass
 * coefficient is quantized and entropy coded; the low-pass proceeds
 * upward as the merged node's attribute. The layer-by-layer data
 * dependency is what makes this stage sequential — the device model
 * charges it to one CPU core, which is where the baseline's ~2.6 s
 * attribute latency comes from.
 *
 * The decoder replays the merge structure from the decoded geometry
 * (codes and weights only), then runs the inverse butterflies
 * top-down. Geometry must be coded losslessly for RAHT decode to
 * reproduce the structure, which matches the TMC13 configuration the
 * paper evaluates.
 */

#ifndef EDGEPCC_ATTR_RAHT_H
#define EDGEPCC_ATTR_RAHT_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** RAHT configuration. */
struct RahtConfig {
    /** Uniform quantization step for transform coefficients. The
     *  default lands near the paper's TMC13 operating point
     *  (~55 dB attribute PSNR). */
    double qstep = 4.0;
};

/**
 * Encodes the colors of a Morton-sorted, duplicate-free voxel cloud.
 * The cloud must be the `sorted_cloud` emitted by geometry encoding
 * so encoder and decoder agree on the leaf order.
 */
Expected<std::vector<std::uint8_t>> encodeRaht(
    const VoxelCloud &sorted_cloud, const RahtConfig &config,
    WorkRecorder *recorder = nullptr);

/**
 * Decodes RAHT attributes into `cloud` (which carries the decoded
 * geometry, in sorted order). Fails when the payload's point count
 * disagrees with the cloud.
 */
Status decodeRahtInto(ByteSpan payload, VoxelCloud &cloud,
                      WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_ATTR_RAHT_H
