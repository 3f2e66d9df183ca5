#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "edgepcc/common/timer.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/metrics/quality.h"

namespace edgepcc::bench {

namespace {

/** PSNR of a mean squared error; 99.9 dB stands for lossless. */
double
psnrOf(double mse, double peak)
{
    return mse > 0.0 ? 10.0 * std::log10(peak * peak / mse) : 99.9;
}

}  // namespace

double
defaultScale()
{
    return workloadScaleFromEnv(0.12);
}

int
defaultFrames()
{
    return framesFromEnv(3);
}

const std::vector<VoxelCloud> &
framesFor(const VideoSpec &spec, int num_frames)
{
    static std::map<std::pair<std::string, int>,
                    std::vector<VoxelCloud>>
        cache;
    const auto key = std::make_pair(
        spec.name + "#" + std::to_string(spec.target_points),
        num_frames);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return cache.emplace(key, std::move(frames)).first->second;
}

ModelledCost
priceRun(const VideoRunResult &run, const EdgeDeviceModel &model)
{
    ModelledCost cost;
    for (const PipelineProfile &profile : run.enc_profiles) {
        const PipelineTiming timing = model.evaluate(profile);
        const double geom = timing.modelSecondsWithPrefix("geom.");
        cost.enc_s += timing.modelSeconds();
        cost.enc_geom_s += geom;
        cost.enc_attr_s += timing.modelSeconds() - geom;
        cost.enc_j += timing.joules();
    }
    for (const PipelineProfile &profile : run.dec_profiles)
        cost.dec_s += model.evaluate(profile).modelSeconds();

    const double inv = 1.0 / static_cast<double>(std::max<std::size_t>(
                                 1, run.enc_profiles.size()));
    cost.enc_s *= inv;
    cost.enc_geom_s *= inv;
    cost.enc_attr_s *= inv;
    cost.dec_s *= inv;
    cost.enc_j *= inv;
    return cost;
}

Expected<VideoRunResult>
runVideo(const VideoSpec &spec, const CodecConfig &config,
         int num_frames, const EdgeDeviceModel &model)
{
    VideoRunResult result;
    result.video = spec.name;
    result.config = config.name;
    const auto failed = [&](const char *step, const Status &status) {
        return Status(status.code(),
                      std::string(step) + " failed (" + spec.name +
                          "/" + config.name +
                          "): " + status.message());
    };

    VideoEncoder encoder(config);
    VideoDecoder decoder;
    // Averaging MSE (not PSNR) keeps multi-frame averages defined
    // even when single frames are lossless.
    double attr_mse = 0.0;
    double geom_mse = 0.0;
    int p_frames = 0;

    for (const VoxelCloud &frame : framesFor(spec, num_frames)) {
        WallTimer enc_timer;
        auto encoded = encoder.encode(frame);
        const double enc_host = enc_timer.seconds();
        if (!encoded)
            return failed("encode", encoded.status());

        WallTimer dec_timer;
        auto decoded = decoder.decode(encoded->bitstream);
        const double dec_host = dec_timer.seconds();
        if (!decoded)
            return failed("decode", decoded.status());

        result.enc_profiles.push_back(std::move(encoded->profile));
        result.dec_profiles.push_back(std::move(decoded->profile));
        result.enc_host_s += enc_host;
        result.dec_host_s += dec_host;

        const FrameStats &stats = encoded->stats;
        result.raw_mb += static_cast<double>(stats.raw_bytes) / 1e6;
        result.compressed_mb +=
            static_cast<double>(stats.total_bytes) / 1e6;
        result.geometry_mb +=
            static_cast<double>(stats.geometry_bytes) / 1e6;
        result.attr_mb += static_cast<double>(stats.attr_bytes) / 1e6;

        attr_mse += attributePsnr(frame, decoded->cloud).mse;
        geom_mse += geometryPsnrD1(frame, decoded->cloud).mse;

        if (stats.type == Frame::Type::kPredicted) {
            ++p_frames;
            if (config.inter_mode == InterMode::kBlockMatch) {
                result.reuse_fraction +=
                    stats.block_match.reuseFraction();
            } else if (config.inter_mode ==
                       InterMode::kMacroBlock) {
                const auto &mb = stats.macro_block;
                result.reuse_fraction +=
                    mb.p_blocks > 0
                        ? static_cast<double>(mb.reused_blocks) /
                              static_cast<double>(mb.p_blocks)
                        : 0.0;
            }
        }
    }

    const double inv =
        1.0 / static_cast<double>(std::max(1, num_frames));
    result.enc_host_s *= inv;
    result.dec_host_s *= inv;
    result.raw_mb *= inv;
    result.compressed_mb *= inv;
    result.geometry_mb *= inv;
    result.attr_mb *= inv;
    result.attr_psnr_db = psnrOf(attr_mse * inv, 255.0);
    result.geom_psnr_db = psnrOf(geom_mse * inv, 1023.0);
    if (p_frames > 0)
        result.reuse_fraction /= static_cast<double>(p_frames);
    result.modelled = priceRun(result, model);
    return result;
}

int
fail(const Status &status)
{
    (void)std::fprintf(stderr, "%s\n", status.toString().c_str());
    return 1;
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

}  // namespace edgepcc::bench
