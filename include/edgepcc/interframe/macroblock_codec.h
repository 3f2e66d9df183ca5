/**
 * @file
 * Macro-block motion-compensated inter-frame codec — the CWIPC-like
 * baseline (Mekuria et al.; paper Secs. V-A2 and VI-B).
 *
 * The reference implementation builds a macro-block tree per frame,
 * finds the spatially co-located I-frame block for every P-frame
 * block by traversing the I-MB tree, aligns the block pair with an
 * ICP-style iterative translation estimate, and reuses the I-block
 * when the post-alignment attribute distance is small. Unmatched
 * blocks fall back to entropy-coded raw attributes (the paper notes
 * CWIPC applies only entropy coding to attributes). The per-block
 * traversal plus ICP on a small CPU thread pool is what makes this
 * baseline take ~5.9 s per P frame; the device model charges it
 * accordingly (4 CPU threads, matching the paper's setup).
 */

#ifndef EDGEPCC_INTERFRAME_MACROBLOCK_CODEC_H
#define EDGEPCC_INTERFRAME_MACROBLOCK_CODEC_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/geometry/point_cloud.h"

namespace edgepcc {

/** CWIPC-like configuration. */
struct MacroBlockConfig {
    /** log2 of the macro-block side in voxels (4 -> 16^3 blocks). */
    int mb_bits = 4;

    /** ICP-style alignment iterations per matched block pair. */
    int icp_iterations = 3;

    /**
     * Mean per-point squared attribute distance (after alignment)
     * below which a P block is replaced by its motion-compensated
     * I block.
     */
    double reuse_threshold = 18.0;
};

/** Encoder statistics. */
struct MacroBlockStats {
    std::uint32_t p_blocks = 0;
    std::uint32_t matched_blocks = 0;  ///< co-located I block existed
    std::uint32_t reused_blocks = 0;   ///< motion-compensated reuse
    std::uint64_t icp_point_ops = 0;   ///< correspondence searches
};

/** Inter-frame encoding result. */
struct MacroBlockEncoded {
    std::vector<std::uint8_t> payload;
    MacroBlockStats stats;
};

/**
 * Encodes P-frame attributes against the reconstructed I frame.
 * Both clouds must be Morton-sorted and duplicate-free.
 */
Expected<MacroBlockEncoded> encodeMacroBlockAttr(
    const VoxelCloud &p_sorted, const VoxelCloud &i_reference,
    const MacroBlockConfig &config, WorkRecorder *recorder = nullptr);

/** Decodes macro-block coded attributes into `p_cloud`. */
Status decodeMacroBlockAttrInto(
    ByteSpan payload, const VoxelCloud &i_reference,
    VoxelCloud &p_cloud,
    WorkRecorder *recorder = nullptr);

/**
 * CWIPC's intra attribute path: raw per-channel entropy coding (no
 * transform). Also used for the baseline's I frames.
 */
std::vector<std::uint8_t> encodeRawEntropyAttr(
    const VoxelCloud &sorted_cloud, WorkRecorder *recorder = nullptr);

Status decodeRawEntropyAttrInto(
    ByteSpan payload, VoxelCloud &cloud,
    WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_INTERFRAME_MACROBLOCK_CODEC_H
