/**
 * @file
 * Quality/ratio tuning scenario: sweeps the inter-frame
 * direct-reuse threshold (the paper's Fig. 10b knob) and the
 * attribute quantization step, printing the trade-off so an
 * application can pick its operating point (e.g. bandwidth-capped
 * virtual tourism vs quality-sensitive telemedicine).
 *
 * Usage: quality_tuner [points]
 */

#include <cstdio>
#include <optional>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/platform/device_model.h"

namespace {

using namespace edgepcc;

struct SweepPoint {
    double threshold;
    std::uint32_t quant_step;
};

}  // namespace

int
main(int argc, char **argv)
{
    const std::optional<std::size_t> points =
        argc > 1 ? wholeNumber<std::size_t>(argv[1]) : 60000;
    if (!points || *points < 1) {
        (void)std::fprintf(stderr,
                           "usage: quality_tuner [points >= 1]\n");
        return 2;
    }
    VideoSpec spec;
    spec.name = "tuner";
    spec.target_points = *points;
    SyntheticHumanVideo video(spec);
    const VoxelCloud frame0 = video.frame(0);
    const VoxelCloud frame1 = video.frame(1);
    const VoxelCloud frame2 = video.frame(2);
    const EdgeDeviceModel model;

    (void)std::printf("Quality tuner: IPP group over ~%zu points\n\n",
                *points);
    (void)std::printf("%10s %7s %10s %10s %10s %9s\n", "threshold",
                "qstep", "ratio", "PSNR [dB]", "enc [ms]",
                "reuse%");

    for (const SweepPoint point :
         {SweepPoint{4.0, 2}, SweepPoint{15.0, 4},
          SweepPoint{60.0, 4}, SweepPoint{240.0, 6},
          SweepPoint{960.0, 8}}) {
        CodecConfig config = makeIntraInterV1Config();
        config.block_match.reuse_threshold = point.threshold;
        config.segment.quant_step = point.quant_step;
        config.block_match.delta_codec = config.segment;

        VideoEncoder encoder(config);
        VideoDecoder decoder;
        double bytes = 0.0, raw = 0.0, psnr = 0.0, enc_ms = 0.0;
        double reuse = 0.0;
        int p_frames = 0;
        for (const VoxelCloud *frame :
             {&frame0, &frame1, &frame2}) {
            auto encoded = encoder.encode(*frame);
            if (!encoded) {
                (void)std::fprintf(
                    stderr, "encode failed: %s\n",
                    encoded.status().toString().c_str());
                return 1;
            }
            auto decoded = decoder.decode(encoded->bitstream);
            if (!decoded) {
                (void)std::fprintf(
                    stderr, "decode failed: %s\n",
                    decoded.status().toString().c_str());
                return 1;
            }
            bytes += static_cast<double>(
                encoded->stats.total_bytes);
            raw +=
                static_cast<double>(encoded->stats.raw_bytes);
            psnr += attributePsnr(*frame, decoded->cloud).psnr;
            enc_ms += model.evaluate(encoded->profile)
                          .modelSeconds() *
                      1e3;
            if (encoded->stats.type ==
                Frame::Type::kPredicted) {
                reuse +=
                    encoded->stats.block_match.reuseFraction();
                ++p_frames;
            }
        }
        (void)std::printf("%10.0f %7u %10.2f %10.1f %10.1f %8.0f%%\n",
                    point.threshold, point.quant_step,
                    raw / bytes, psnr / 3.0, enc_ms / 3.0,
                    p_frames > 0 ? 100.0 * reuse / p_frames
                                 : 0.0);
    }
    (void)std::printf("\nPick small thresholds/qsteps for quality "
                "(telemedicine) and large ones for\nbandwidth "
                "(virtual tourism); the paper ships V1 "
                "(threshold 300 per ~20-pt block)\nand V2 "
                "(1200) as the two presets.\n");
    return 0;
}
