/**
 * @file
 * Shared driver for the paper-reproduction benches: runs one codec
 * configuration over one synthetic video, keeps every frame's
 * recorded work, and aggregates the metrics every figure/table
 * needs (modelled Jetson latency & energy, host wall-clock,
 * compressed sizes, PSNR, reuse statistics).
 *
 * Workload size is controlled by EDGEPCC_SCALE (fraction of the
 * paper's per-frame point counts, default 0.12) and EDGEPCC_FRAMES
 * (frames per video, default 3 = one IPP group). EXPERIMENTS.md
 * records a full-scale (EDGEPCC_SCALE=1) run.
 */

#ifndef EDGEPCC_BENCH_BENCH_COMMON_H
#define EDGEPCC_BENCH_BENCH_COMMON_H

#include <string>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/catalogue.h"
#include "edgepcc/platform/device_model.h"

namespace edgepcc::bench {

/** Default workload knobs shared by all benches. */
double defaultScale();
int defaultFrames();

/** Generates (and caches per process) the frames of one video. */
const std::vector<VoxelCloud> &framesFor(const VideoSpec &spec,
                                         int num_frames);

/** Modelled Jetson costs of one run, averaged per frame. */
struct ModelledCost {
    double enc_s = 0.0;
    double enc_geom_s = 0.0;  ///< encode stages named `geom.*`
    double enc_attr_s = 0.0;  ///< every other encode stage
    double dec_s = 0.0;
    double enc_j = 0.0;

    /** Average encode power draw in watts. */
    double
    encWatts() const
    {
        return enc_s > 0.0 ? enc_j / enc_s : 0.0;
    }
};

/** Aggregated result of encoding+decoding one video. */
struct VideoRunResult {
    std::string video;
    std::string config;

    /** Each frame's recorded encode and decode work, in order. */
    std::vector<PipelineProfile> enc_profiles;
    std::vector<PipelineProfile> dec_profiles;

    /** The profiles priced on the model runVideo was given. */
    ModelledCost modelled;

    // Host wall-clock per frame (seconds).
    double enc_host_s = 0.0;
    double dec_host_s = 0.0;

    // Sizes per frame.
    double raw_mb = 0.0;
    double compressed_mb = 0.0;
    double geometry_mb = 0.0;
    double attr_mb = 0.0;

    // Quality (averaged over frames).
    double attr_psnr_db = 0.0;
    double geom_psnr_db = 0.0;

    // Reuse fraction, averaged over P frames (0 when intra).
    double reuse_fraction = 0.0;

    double
    compressionRatio() const
    {
        return compressed_mb > 0.0 ? raw_mb / compressed_mb : 0.0;
    }
};

/** Prices a run's stored profiles on `model`. */
ModelledCost priceRun(const VideoRunResult &run,
                      const EdgeDeviceModel &model);

/**
 * Encodes `num_frames` frames of `spec` with `config`, decodes them,
 * and aggregates metrics priced on `model`. A failed encode or
 * decode returns its status, naming the video and design.
 */
Expected<VideoRunResult> runVideo(const VideoSpec &spec,
                                  const CodecConfig &config,
                                  int num_frames,
                                  const EdgeDeviceModel &model);

/** Prints a failed run's status; returns main's exit code 1. */
int fail(const Status &status);

/** Prints a horizontal rule sized to `width`. */
void printRule(int width);

}  // namespace edgepcc::bench

#endif  // EDGEPCC_BENCH_BENCH_COMMON_H
