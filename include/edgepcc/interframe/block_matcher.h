/**
 * @file
 * Morton-window block matching — the paper's inter-frame attribute
 * compression proposal (Sec. V).
 *
 * Both the P-frame and the reference I-frame are already sorted by
 * Morton code (a by-product of geometry compression), so temporally
 * corresponding content sits at similar *positions in the sorted
 * order*. Each P-segment therefore only searches a small window of
 * candidate I-segments around its scaled position — no tree
 * traversal, no ICP. Candidates are scored with the 2-norm attribute
 * distance of paper Eq. 2 (the Diff_Squared / Squared_Sum kernels of
 * Fig. 9) by a SIMD-dispatched kernel; its AVX2 variant scores 16
 * candidates per step from a candidate-major copy of the reference
 * (docs/PERFORMANCE.md "Dispatch shim"). The sums are exact
 * integers at every level, so the payload is byte-identical to the
 * scalar reference's. Blocks whose best match clears the reuse
 * threshold are stored as a pointer, the rest store per-point
 * deltas that are re-encoded with the intra segment codec.
 *
 * The reuse threshold is the quality/ratio knob: the paper's
 * Intra-Inter-V1 uses 300 and V2 uses 1200 (block totals at K~20
 * points per block; this implementation normalizes per point).
 */

#ifndef EDGEPCC_INTERFRAME_BLOCK_MATCHER_H
#define EDGEPCC_INTERFRAME_BLOCK_MATCHER_H

#include <cstdint>
#include <vector>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** Inter-frame block matcher configuration. */
struct BlockMatchConfig {
    /** Number of P-frame blocks; 0 = auto (one per ~16 points,
     *  the paper's 50000-block design point at 8iVFB sizes). */
    std::uint32_t num_blocks = 0;

    /** Candidate I-blocks examined per P-block (paper: 100). */
    std::uint32_t candidate_window = 100;

    /**
     * Mean per-point squared attribute distance below which a block
     * is direct-reused. Paper thresholds 300 (V1) and 1200 (V2) are
     * block totals at ~20 points/block, i.e. 15.0 and 60.0 here.
     */
    double reuse_threshold = 15.0;

    /** Codec for the post-intra-encoded delta blocks. */
    SegmentCodecConfig delta_codec{};
};

/** Encoder statistics surfaced to benches and EXPERIMENTS.md. */
struct BlockMatchStats {
    std::uint32_t num_blocks = 0;
    std::uint32_t reused_blocks = 0;
    std::uint64_t delta_points = 0;

    double
    reuseFraction() const
    {
        return num_blocks == 0
                   ? 0.0
                   : static_cast<double>(reused_blocks) /
                         static_cast<double>(num_blocks);
    }
};

/** Inter-frame attribute encoding result. */
struct InterAttrEncoded {
    std::vector<std::uint8_t> payload;
    BlockMatchStats stats;
};

/**
 * Encodes the attributes of `p_sorted` against the reconstructed
 * reference frame `i_reference`. Both clouds must be Morton-sorted
 * and duplicate-free (geometry-stage outputs).
 */
Expected<InterAttrEncoded> encodeInterAttr(
    const VoxelCloud &p_sorted, const VoxelCloud &i_reference,
    const BlockMatchConfig &config, WorkRecorder *recorder = nullptr);

/**
 * Decodes inter-coded attributes into `p_cloud` (carrying decoded
 * P geometry) using the same reference the encoder used.
 */
Status decodeInterAttrInto(ByteSpan payload,
                           const VoxelCloud &i_reference,
                           VoxelCloud &p_cloud,
                           WorkRecorder *recorder = nullptr);

/**
 * Loss concealment: paints `cloud`'s attributes from the nearest
 * Morton-order voxel of `reference` (both clouds Morton-sorted, the
 * geometry-stage output order). Used by the resilient stream session
 * when a P frame's inter payload references an I frame that never
 * arrived — the decoded geometry is kept and the colors borrowed
 * from the last good frame, the same spatial-locality bet the reuse
 * pointers make. Falls back to neutral gray when `reference` is
 * empty.
 */
void concealAttrFromReference(const VoxelCloud &reference,
                              VoxelCloud &cloud);

}  // namespace edgepcc

#endif  // EDGEPCC_INTERFRAME_BLOCK_MATCHER_H
