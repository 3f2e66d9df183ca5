/**
 * @file
 * EdgePCC quickstart: compress and decompress one point-cloud
 * frame with the proposed Morton-parallel codec, then report
 * sizes, quality and the modelled edge-device latency.
 *
 * Usage: quickstart [points]
 */

#include <cstdio>
#include <optional>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/platform/device_model.h"

int
main(int argc, char **argv)
{
    using namespace edgepcc;
    const std::optional<std::size_t> points =
        argc > 1 ? wholeNumber<std::size_t>(argv[1]) : 100000;
    if (!points || *points < 1) {
        (void)std::fprintf(stderr, "usage: quickstart [points >= 1]\n");
        return 2;
    }

    // 1. Get a frame. Real applications load a PLY (see
    //    readPlyVoxels in edgepcc/dataset/ply_io.h); here we
    //    synthesize a voxelized human.
    VideoSpec spec;
    spec.name = "quickstart";
    spec.target_points = *points;
    SyntheticHumanVideo video(spec);
    const VoxelCloud frame = video.frame(0);
    (void)std::printf("input: %zu points on a %u^3 grid (%.2f MB raw)\n",
                frame.size(), frame.gridSize(),
                static_cast<double>(frame.rawBytes()) / 1e6);

    // 2. Encode with the paper's Intra-Only design: parallel
    //    Morton octree geometry + segment Base+Delta attributes.
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frame);
    if (!encoded) {
        (void)std::fprintf(stderr, "encode failed: %s\n",
                     encoded.status().toString().c_str());
        return 1;
    }
    (void)std::printf("compressed: %.3f MB (%.1fx, geometry %.3f MB + "
                "attributes %.3f MB)\n",
                static_cast<double>(encoded->stats.total_bytes) /
                    1e6,
                encoded->stats.compressionRatio(),
                static_cast<double>(
                    encoded->stats.geometry_bytes) /
                    1e6,
                static_cast<double>(encoded->stats.attr_bytes) /
                    1e6);

    // 3. Decode and measure quality.
    VideoDecoder decoder;
    auto decoded = decoder.decode(encoded->bitstream);
    if (!decoded) {
        (void)std::fprintf(stderr, "decode failed: %s\n",
                     decoded.status().toString().c_str());
        return 1;
    }
    const AttrQuality attr = attributePsnr(frame, decoded->cloud);
    const GeometryQuality geom =
        geometryPsnrD1(frame, decoded->cloud);
    (void)std::printf("quality: attribute PSNR %.1f dB, geometry PSNR "
                "%.1f dB\n",
                attr.psnr, geom.psnr);

    // 4. What would this cost on the paper's edge board?
    const EdgeDeviceModel model;  // Jetson AGX Xavier, 15 W
    const PipelineTiming timing = model.evaluate(encoded->profile);
    (void)std::printf("modelled %s encode: %.1f ms (%.1f geometry + "
                "%.1f attributes), %.3f J\n",
                model.spec().name.c_str(),
                timing.modelSeconds() * 1e3,
                timing.modelSecondsWithPrefix("geom.") * 1e3,
                (timing.modelSeconds() -
                 timing.modelSecondsWithPrefix("geom.")) *
                    1e3,
                timing.joules());
    return 0;
}
