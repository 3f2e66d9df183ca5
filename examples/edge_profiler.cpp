/**
 * @file
 * Edge-deployment what-if study: runs one frame through every
 * paper design and prints the modelled latency/energy on the
 * Jetson Xavier's 15 W and 10 W compute modes, stage by stage —
 * the workflow an engineer would use to decide whether a codec
 * configuration fits a device's power budget.
 *
 * Usage: edge_profiler [points]
 */

#include <cstdio>
#include <optional>

#include "edgepcc/common/parse_number.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/platform/device_model.h"

int
main(int argc, char **argv)
{
    using namespace edgepcc;
    const std::optional<std::size_t> points =
        argc > 1 ? wholeNumber<std::size_t>(argv[1]) : 90000;
    if (!points || *points < 1) {
        (void)std::fprintf(stderr,
                           "usage: edge_profiler [points >= 1]\n");
        return 2;
    }

    VideoSpec spec;
    spec.name = "profiler";
    spec.target_points = *points;
    SyntheticHumanVideo video(spec);
    const VoxelCloud frame = video.frame(0);

    const EdgeDeviceModel devices[] = {
        EdgeDeviceModel(DeviceSpec::jetsonXavier15W()),
        EdgeDeviceModel(DeviceSpec::jetsonXavier10W()),
    };

    for (const CodecConfig &config :
         {makeTmc13LikeConfig(), makeIntraOnlyConfig()}) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(frame);
        if (!encoded) {
            (void)std::fprintf(stderr, "encode failed: %s\n",
                         encoded.status().toString().c_str());
            return 1;
        }
        (void)std::printf("=== %s (%zu points) ===\n",
                    config.name.c_str(), frame.size());
        for (const EdgeDeviceModel &device : devices) {
            const PipelineTiming timing =
                device.evaluate(encoded->profile);
            (void)std::printf("%s: %.1f ms, %.3f J\n",
                        device.spec().name.c_str(),
                        timing.modelSeconds() * 1e3,
                        timing.joules());
            for (const StageTiming &stage : timing.stages) {
                (void)std::printf("    %-22s %9.2f ms %9.4f J\n",
                            stage.name.c_str(),
                            stage.model_seconds * 1e3,
                            stage.joules);
            }
        }
        (void)std::printf("\n");
    }
    (void)std::printf("A smartphone budget check: the proposed design "
                "draws ~4 W average on the\n15 W Xavier — below "
                "the ~10 W peak discharge of a modern phone "
                "(paper Sec. VI-C).\n");
    return 0;
}
