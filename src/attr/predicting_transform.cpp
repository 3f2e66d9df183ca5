#include "edgepcc/attr/predicting_transform.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"

namespace edgepcc {

namespace {

constexpr const char kMagic[3] = {'P', 'R', 'D'};

/** Squared distance between two voxels of one cloud. */
double
squaredDistance(const VoxelCloud &cloud, std::size_t a,
                std::size_t b)
{
    const double dx = static_cast<double>(cloud.x()[a]) -
                      static_cast<double>(cloud.x()[b]);
    const double dy = static_cast<double>(cloud.y()[a]) -
                      static_cast<double>(cloud.y()[b]);
    const double dz = static_cast<double>(cloud.z()[a]) -
                      static_cast<double>(cloud.z()[b]);
    return dx * dx + dy * dy + dz * dz;
}

/** One predicted point: neighbours and their weights. */
struct Prediction {
    std::array<std::size_t, 4> neighbor{};
    std::array<double, 4> weight{};
    int count = 0;
};

/**
 * Builds the prediction for point `i` at LOD step `step` from
 * already-coded flanking points (indices that are multiples of
 * 2*step), using inverse-squared-distance weights.
 */
Prediction
buildPrediction(const VoxelCloud &cloud, std::size_t i,
                std::size_t step, std::size_t n, int max_neighbors)
{
    Prediction pred;
    const std::size_t stride = 2 * step;
    const std::size_t candidates[4] = {
        i >= step ? i - step : n,            // previous coded
        i + step < n ? i + step : n,         // next coded
        i >= step + stride ? i - step - stride : n,
        i + step + stride < n ? i + step + stride : n,
    };
    for (const std::size_t candidate : candidates) {
        if (candidate >= n || pred.count >= max_neighbors)
            continue;
        const double d2 = squaredDistance(cloud, i, candidate);
        pred.neighbor[static_cast<std::size_t>(pred.count)] =
            candidate;
        pred.weight[static_cast<std::size_t>(pred.count)] =
            1.0 / (d2 + 1e-6);
        ++pred.count;
    }
    return pred;
}

std::int64_t
quantize(double value, double qstep)
{
    return static_cast<std::int64_t>(std::llround(value / qstep));
}

/**
 * Shared coarse-to-fine traversal. `Visit` is called once per point
 * in coding order with (index, predicted value per channel).
 * Reconstructed values must be written back by the caller so later
 * predictions see them.
 */
template <typename Visit>
void
traverseLods(const VoxelCloud &cloud, int lod_levels,
             int max_neighbors,
             std::vector<std::array<double, 3>> &recon,
             const Visit &visit)
{
    const std::size_t n = cloud.size();
    int levels = lod_levels;
    while (levels > 0 && (std::size_t{1} << levels) >= n)
        --levels;

    // Base LOD: every 2^levels-th point, delta-predicted from the
    // previous base point.
    const std::size_t base_step = std::size_t{1} << levels;
    std::size_t previous_base = n;
    for (std::size_t i = 0; i < n; i += base_step) {
        std::array<double, 3> predicted{128.0, 128.0, 128.0};
        if (previous_base < n)
            predicted = recon[previous_base];
        visit(i, predicted);
        previous_base = i;
    }

    // Refinement LODs, coarse to fine.
    for (int level = levels - 1; level >= 0; --level) {
        const std::size_t step = std::size_t{1} << level;
        for (std::size_t i = step; i < n; i += 2 * step) {
            const Prediction pred = buildPrediction(
                cloud, i, step, n, max_neighbors);
            std::array<double, 3> predicted{128.0, 128.0, 128.0};
            if (pred.count > 0) {
                double wsum = 0.0;
                std::array<double, 3> acc{0.0, 0.0, 0.0};
                for (int k = 0; k < pred.count; ++k) {
                    const double w =
                        pred.weight[static_cast<std::size_t>(k)];
                    const std::size_t j = pred.neighbor[
                        static_cast<std::size_t>(k)];
                    wsum += w;
                    for (int c = 0; c < 3; ++c) {
                        acc[static_cast<std::size_t>(c)] +=
                            w * recon[j][static_cast<std::size_t>(
                                    c)];
                    }
                }
                for (int c = 0; c < 3; ++c) {
                    predicted[static_cast<std::size_t>(c)] =
                        acc[static_cast<std::size_t>(c)] / wsum;
                }
            }
            visit(i, predicted);
        }
    }
}

}  // namespace

Expected<std::vector<std::uint8_t>>
encodePredicting(const VoxelCloud &sorted_cloud,
                 const PredictingConfig &config,
                 WorkRecorder *recorder)
{
    const std::size_t n = sorted_cloud.size();
    if (n == 0)
        return invalidArgument("encodePredicting: empty cloud");
    if (config.qstep <= 0.0)
        return invalidArgument(
            "encodePredicting: qstep must be positive");
    if (config.num_neighbors < 1 || config.num_neighbors > 4)
        return invalidArgument(
            "encodePredicting: num_neighbors must be in [1,4]");

    ScopedStage stage(recorder, "attr.predicting");

    std::vector<std::array<double, 3>> recon(n);
    std::array<std::vector<std::int64_t>, 3> residuals;
    for (auto &channel : residuals)
        channel.reserve(n);

    std::uint64_t visited = 0;
    traverseLods(
        sorted_cloud, config.lod_levels, config.num_neighbors,
        recon,
        [&](std::size_t i, const std::array<double, 3> &predicted) {
            const double actual[3] = {
                static_cast<double>(sorted_cloud.r()[i]),
                static_cast<double>(sorted_cloud.g()[i]),
                static_cast<double>(sorted_cloud.b()[i])};
            for (int c = 0; c < 3; ++c) {
                const double residual =
                    actual[c] -
                    predicted[static_cast<std::size_t>(c)];
                const std::int64_t rq =
                    quantize(residual, config.qstep);
                residuals[static_cast<std::size_t>(c)].push_back(
                    rq);
                recon[i][static_cast<std::size_t>(c)] =
                    predicted[static_cast<std::size_t>(c)] +
                    static_cast<double>(rq) * config.qstep;
            }
            ++visited;
        });

    recordKernel(
        recorder,
        KernelWork{.name = "attr.predict_transform",
                   .resource = ExecResource::kCpuSequential,
                   .invocations = 1,
                   .items = visited,
                   .ops = visited *
                          (static_cast<std::uint64_t>(
                               config.num_neighbors) *
                               14 +
                           12),
                   .bytes = visited * 40});

    BitWriter writer;
    writer.writeBits(static_cast<std::uint8_t>(kMagic[0]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[1]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[2]), 8);
    writer.writeVarint(static_cast<std::uint64_t>(
        std::llround(config.qstep * 1000)));
    writer.writeVarint(n);
    writer.writeVarint(
        static_cast<std::uint64_t>(config.lod_levels));
    writer.writeVarint(
        static_cast<std::uint64_t>(config.num_neighbors));

    std::uint64_t entropy_in = 0;
    for (int c = 0; c < 3; ++c) {
        BitWriter channel;
        for (const std::int64_t rq :
             residuals[static_cast<std::size_t>(c)]) {
            channel.writeSignedVarint(rq);
        }
        const std::vector<std::uint8_t> raw = channel.take();
        const std::vector<std::uint8_t> packed =
            entropyCompress(raw);
        entropy_in += raw.size();
        writer.writeVarint(raw.size());
        writer.writeBlock(packed);
    }
    recordKernel(recorder,
                 KernelWork{.name = "attr.predict_entropy",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 3,
                            .items = entropy_in,
                            .ops = entropy_in * 24,
                            .bytes = entropy_in * 2});
    return writer.take();
}

Status
decodePredictingInto(ByteSpan payload, VoxelCloud &cloud,
                     WorkRecorder *recorder)
{
    const std::size_t n = cloud.size();
    if (n == 0)
        return invalidArgument("decodePredictingInto: empty cloud");

    ScopedStage stage(recorder, "attrdec.predicting");

    BitReader reader(payload);
    if (reader.readBits(8) != 'P' || reader.readBits(8) != 'R' ||
        reader.readBits(8) != 'D') {
        return corruptBitstream("predicting payload: bad magic");
    }
    const double qstep =
        static_cast<double>(reader.readVarint()) / 1000.0;
    const std::size_t stored_n =
        static_cast<std::size_t>(reader.readVarint());
    const int lod_levels = static_cast<int>(reader.readVarint());
    const int num_neighbors =
        static_cast<int>(reader.readVarint());
    if (reader.overrun() || qstep <= 0.0 || num_neighbors < 1 ||
        num_neighbors > 4 || lod_levels < 0 || lod_levels > 62) {
        return corruptBitstream("predicting payload: bad header");
    }
    if (stored_n != n)
        return corruptBitstream(
            "predicting payload: point count mismatch");

    std::array<std::vector<std::int64_t>, 3> residuals;
    for (int c = 0; c < 3; ++c) {
        const std::size_t raw_size =
            static_cast<std::size_t>(reader.readVarint());
        const ByteSpan packed = reader.readBlock();
        if (reader.overrun())
            return corruptBitstream(
                "predicting payload: truncated");
        auto raw = entropyDecompress(packed, raw_size);
        if (!raw)
            return raw.status();
        BitReader channel(*raw);
        auto &list = residuals[static_cast<std::size_t>(c)];
        list.reserve(n);
        for (std::size_t k = 0; k < n; ++k)
            list.push_back(channel.readSignedVarint());
        if (channel.overrun())
            return corruptBitstream(
                "predicting payload: residual stream truncated");
    }

    std::vector<std::array<double, 3>> recon(n);
    std::size_t cursor = 0;
    bool underflow = false;
    traverseLods(
        cloud, lod_levels, num_neighbors, recon,
        [&](std::size_t i, const std::array<double, 3> &predicted) {
            if (cursor >= n) {
                underflow = true;
                return;
            }
            for (int c = 0; c < 3; ++c) {
                recon[i][static_cast<std::size_t>(c)] =
                    predicted[static_cast<std::size_t>(c)] +
                    static_cast<double>(
                        residuals[static_cast<std::size_t>(c)]
                                 [cursor]) *
                        qstep;
            }
            ++cursor;
        });
    if (underflow || cursor != n)
        return corruptBitstream(
            "predicting payload: traversal mismatch");

    for (std::size_t i = 0; i < n; ++i) {
        cloud.mutableR()[i] = static_cast<std::uint8_t>(
            std::clamp(std::lround(recon[i][0]), 0l, 255l));
        cloud.mutableG()[i] = static_cast<std::uint8_t>(
            std::clamp(std::lround(recon[i][1]), 0l, 255l));
        cloud.mutableB()[i] = static_cast<std::uint8_t>(
            std::clamp(std::lround(recon[i][2]), 0l, 255l));
    }
    recordKernel(recorder,
                 KernelWork{.name = "attrdec.predict_inverse",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 1,
                            .items = n,
                            .ops = n * (static_cast<std::uint64_t>(
                                            num_neighbors) *
                                            14 +
                                        12),
                            .bytes = n * 40});
    return Status::ok();
}

}  // namespace edgepcc
