/**
 * @file
 * Codec configuration and the five evaluated designs.
 *
 * Paper Sec. VI-B evaluates:
 *   TMC13        - sequential octree geometry (lossless) + RAHT,
 *                  both entropy coded; intra only.
 *   CWIPC        - sequential octree geometry + raw entropy-coded
 *                  attributes; P frames use macro-block motion
 *                  estimation on 4 CPU threads.
 *   Intra-Only   - proposed: parallel Morton octree + segment
 *                  Base+Delta attributes, no entropy coding.
 *   Intra-Inter-V1 - Intra-Only plus Morton-window block matching,
 *                  reuse threshold 300 (quality-oriented).
 *   Intra-Inter-V2 - same with threshold 1200 (ratio-oriented).
 */

#ifndef EDGEPCC_CORE_CODEC_CONFIG_H
#define EDGEPCC_CORE_CODEC_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "edgepcc/attr/predicting_transform.h"
#include "edgepcc/attr/raht.h"
#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/interframe/macroblock_codec.h"
#include "edgepcc/octree/geometry_codec.h"

namespace edgepcc {

/** Intra-frame attribute coding modes. */
enum class AttrMode : std::uint8_t {
    kRaht = 0,        ///< TMC13-like transform coding
    kSegment = 1,     ///< proposed Morton-segment Base+Delta
    kRawEntropy = 2,  ///< CWIPC-like raw entropy coding
    kPredicting = 3,  ///< G-PCC Predicting Transform (LOD-based)
};

/** Inter-frame (P-frame) attribute coding modes. */
enum class InterMode : std::uint8_t {
    kNone = 0,        ///< every frame coded intra
    kBlockMatch = 1,  ///< proposed Morton-window matching
    kMacroBlock = 2,  ///< CWIPC-like MB motion estimation
};

/** Full codec configuration. */
struct CodecConfig {
    std::string name = "custom";

    GeometryConfig geometry{};
    AttrMode attr_mode = AttrMode::kSegment;
    InterMode inter_mode = InterMode::kNone;

    RahtConfig raht{};
    PredictingConfig predicting{};
    SegmentCodecConfig segment{};
    BlockMatchConfig block_match{};
    MacroBlockConfig macro_block{};

    /** GOP length for inter modes; 3 = the paper's IPP pattern. */
    int gop_size = 3;
};

/** The five designs of paper Sec. VI-B. */
CodecConfig makeTmc13LikeConfig();
CodecConfig makeCwipcLikeConfig();
CodecConfig makeIntraOnlyConfig();
CodecConfig makeIntraInterV1Config();
CodecConfig makeIntraInterV2Config();

/** All five, in the paper's presentation order. */
std::vector<CodecConfig> allPaperConfigs();

/** The design a command line names: tmc13, cwipc, intra, v1 or v2;
 *  nothing for any other name. */
std::optional<CodecConfig> paperConfigByName(const std::string &name);

}  // namespace edgepcc

#endif  // EDGEPCC_CORE_CODEC_CONFIG_H
