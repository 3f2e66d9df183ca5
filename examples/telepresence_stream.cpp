/**
 * @file
 * Telepresence streaming scenario (the paper's motivating
 * application): encode a moving-person PC video as an IPP stream
 * with the combined intra+inter design, tracking per-frame
 * bitrate, quality and the modelled edge-device budget against
 * the 100 ms real-time bar.
 *
 * Usage: telepresence_stream [frames] [points]
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
    const std::optional<int> frame_arg =
        argc > 1 ? wholeNumber<int>(argv[1]) : 9;  // three IPP groups
    const std::optional<std::size_t> point_arg =
        argc > 2 ? wholeNumber<std::size_t>(argv[2]) : 80000;
    if (!frame_arg || *frame_arg < 1 || !point_arg || *point_arg < 1) {
        (void)std::fprintf(stderr, "usage: telepresence_stream "
                                   "[frames >= 1] [points >= 1]\n");
        return 2;
    }
    const int frames = *frame_arg;
    const std::size_t points = *point_arg;

    VideoSpec spec;
    spec.name = "telepresence";
    spec.target_points = points;
    spec.motion_amplitude = 0.3;
    SyntheticHumanVideo video(spec);

    VideoEncoder encoder(makeIntraInterV1Config());
    VideoDecoder decoder;
    const EdgeDeviceModel model;

    (void)std::printf("Streaming %d frames (~%zu pts each) with "
                "Intra-Inter-V1 on %s\n\n",
                frames, points, model.spec().name.c_str());
    (void)std::printf("%5s %5s %10s %10s %10s %10s %8s\n", "frame",
                "type", "kbits", "enc [ms]", "dec [ms]",
                "PSNR [dB]", "reuse%");
    double total_bits = 0.0, total_enc = 0.0;
    int over_budget = 0;

    for (int f = 0; f < frames; ++f) {
        const VoxelCloud frame = video.frame(f);
        auto encoded = encoder.encode(frame);
        if (!encoded) {
            (void)std::fprintf(stderr, "encode failed at frame %d: %s\n",
                         f, encoded.status().toString().c_str());
            return 1;
        }
        auto decoded = decoder.decode(encoded->bitstream);
        if (!decoded) {
            (void)std::fprintf(stderr, "decode failed at frame %d: %s\n",
                         f, decoded.status().toString().c_str());
            return 1;
        }
        const PipelineTiming enc_t =
            model.evaluate(encoded->profile);
        const PipelineTiming dec_t =
            model.evaluate(decoded->profile);
        const AttrQuality quality =
            attributePsnr(frame, decoded->cloud);

        const bool is_p =
            encoded->stats.type == Frame::Type::kPredicted;
        (void)std::printf("%5d %5s %10.0f %10.1f %10.1f %10.1f %7.0f%%\n",
                    f, is_p ? "P" : "I",
                    static_cast<double>(
                        encoded->stats.total_bytes) *
                        8.0 / 1e3,
                    enc_t.modelSeconds() * 1e3,
                    dec_t.modelSeconds() * 1e3, quality.psnr,
                    100.0 *
                        encoded->stats.block_match
                            .reuseFraction());
        total_bits +=
            static_cast<double>(encoded->stats.total_bytes) * 8.0;
        total_enc += enc_t.modelSeconds();
        if (enc_t.modelSeconds() > 0.1)
            ++over_budget;
    }

    (void)std::printf("\nstream: %.2f Mbit over %d frames "
                "(%.2f Mbit/s at 30 fps)\n",
                total_bits / 1e6, frames,
                total_bits / 1e6 / frames * 30.0);
    (void)std::printf("mean encode %.1f ms/frame; %d/%d frames over "
                "the 100 ms real-time bar\n",
                total_enc / frames * 1e3, over_budget, frames);
    return 0;
}
