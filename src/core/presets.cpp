#include "edgepcc/core/codec_config.h"

namespace edgepcc {

CodecConfig
makeTmc13LikeConfig()
{
    CodecConfig config;
    config.name = "TMC13";
    config.geometry.builder = GeometryConfig::Builder::kSequential;
    config.geometry.entropy_coding = true;
    // TMC13 codes occupancy under neighbourhood contexts.
    config.geometry.contextual_entropy = true;
    config.geometry.tight_bbox = false;  // lossless geometry
    config.attr_mode = AttrMode::kRaht;
    config.inter_mode = InterMode::kNone;
    config.raht.qstep = 1.6;  // ~55 dB attribute PSNR
    return config;
}

CodecConfig
makeCwipcLikeConfig()
{
    CodecConfig config;
    config.name = "CWIPC";
    config.geometry.builder = GeometryConfig::Builder::kSequential;
    config.geometry.entropy_coding = true;
    config.geometry.tight_bbox = false;
    config.attr_mode = AttrMode::kRawEntropy;
    config.inter_mode = InterMode::kMacroBlock;
    config.gop_size = 3;  // IPP
    return config;
}

CodecConfig
makeIntraOnlyConfig()
{
    CodecConfig config;
    config.name = "Intra-Only";
    config.geometry.builder =
        GeometryConfig::Builder::kParallelMorton;
    // Entropy coding discarded for speed (paper Sec. IV-B3).
    config.geometry.entropy_coding = false;
    config.geometry.tight_bbox = true;
    config.attr_mode = AttrMode::kSegment;
    config.inter_mode = InterMode::kNone;
    config.segment.num_segments = 0;  // auto (~30000 at 8iVFB size)
    config.segment.quant_step = 3;    // ~48.5 dB attribute PSNR
    config.segment.two_layer = true;
    return config;
}

CodecConfig
makeIntraInterV1Config()
{
    CodecConfig config = makeIntraOnlyConfig();
    config.name = "Intra-Inter-V1";
    config.inter_mode = InterMode::kBlockMatch;
    config.gop_size = 3;
    config.block_match.num_blocks = 0;  // auto (~50000 at 8iVFB)
    config.block_match.candidate_window = 100;
    // Paper threshold 300 over ~20-point blocks -> 15 per point.
    config.block_match.reuse_threshold = 15.0;
    config.block_match.delta_codec = config.segment;
    return config;
}

CodecConfig
makeIntraInterV2Config()
{
    CodecConfig config = makeIntraInterV1Config();
    config.name = "Intra-Inter-V2";
    // Paper threshold 1200 over ~20-point blocks -> 60 per point.
    config.block_match.reuse_threshold = 60.0;
    return config;
}

std::vector<CodecConfig>
allPaperConfigs()
{
    return {makeTmc13LikeConfig(), makeCwipcLikeConfig(),
            makeIntraOnlyConfig(), makeIntraInterV1Config(),
            makeIntraInterV2Config()};
}

std::optional<CodecConfig>
paperConfigByName(const std::string &name)
{
    if (name == "tmc13")
        return makeTmc13LikeConfig();
    if (name == "cwipc")
        return makeCwipcLikeConfig();
    if (name == "intra")
        return makeIntraOnlyConfig();
    if (name == "v1")
        return makeIntraInterV1Config();
    if (name == "v2")
        return makeIntraInterV2Config();
    return std::nullopt;
}

}  // namespace edgepcc
