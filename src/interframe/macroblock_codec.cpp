#include "edgepcc/interframe/macroblock_codec.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "edgepcc/common/check.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"
#include "edgepcc/morton/morton.h"

namespace edgepcc {

namespace {

/** Contiguous run of points sharing one macro-block cell. */
struct MbRun {
    std::uint64_t cell = 0;
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Splits a Morton-sorted cloud into macro-block runs. Because the
 * cell code is a prefix of the point's Morton code, cells are
 * contiguous in sorted order.
 */
std::vector<MbRun>
buildRuns(const VoxelCloud &cloud, int mb_bits)
{
    std::vector<MbRun> runs;
    const std::size_t n = cloud.size();
    const int shift = 3 * mb_bits;
    std::uint64_t prev_cell = 0;
    // Batch-encode in stack tiles; run building stays scalar (it is
    // a sequential dependence on prev_cell).
    constexpr std::size_t kTile = 512;
    std::uint64_t tile[kTile];
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t count = std::min(kTile, n - base);
        mortonEncodeBatch(cloud.x().data() + base,
                          cloud.y().data() + base,
                          cloud.z().data() + base, count, tile);
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = base + k;
            const std::uint64_t cell = tile[k] >> shift;
            if (runs.empty() || cell != prev_cell) {
                runs.push_back(MbRun{cell, i, i + 1});
                prev_cell = cell;
            } else {
                runs.back().end = i + 1;
            }
        }
    }
    return runs;
}

/** Integer translation estimated by the ICP-style alignment. */
struct Translation {
    std::int32_t dx = 0;
    std::int32_t dy = 0;
    std::int32_t dz = 0;
};

/**
 * Nearest point of `i_run` to the (translated) P point, brute force
 * within the block, squared-distance metric. Deterministic tie-break
 * on the lowest index.
 */
std::size_t
nearestInRun(const VoxelCloud &i_cloud, const MbRun &i_run,
             std::int64_t px, std::int64_t py, std::int64_t pz)
{
    std::size_t best = i_run.begin;
    std::int64_t best_d2 = -1;
    for (std::size_t j = i_run.begin; j < i_run.end; ++j) {
        const std::int64_t dx = px - i_cloud.x()[j];
        const std::int64_t dy = py - i_cloud.y()[j];
        const std::int64_t dz = pz - i_cloud.z()[j];
        const std::int64_t d2 = dx * dx + dy * dy + dz * dz;
        if (best_d2 < 0 || d2 < best_d2) {
            best_d2 = d2;
            best = j;
        }
    }
    return best;
}

constexpr std::int32_t kMaxTranslation = 127;

}  // namespace

Expected<MacroBlockEncoded>
encodeMacroBlockAttr(const VoxelCloud &p_sorted,
                     const VoxelCloud &i_reference,
                     const MacroBlockConfig &config,
                     WorkRecorder *recorder)
{
    if (p_sorted.empty() || i_reference.empty())
        return invalidArgument("encodeMacroBlockAttr: empty cloud");
    if (config.mb_bits < 1 || config.mb_bits >= p_sorted.gridBits())
        return invalidArgument(
            "encodeMacroBlockAttr: mb_bits out of range");

    MacroBlockEncoded result;

    // ---- Macro-block "tree" construction (both frames) ------------
    std::vector<MbRun> p_runs;
    std::vector<MbRun> i_runs;
    std::unordered_map<std::uint64_t, std::size_t> i_index;
    {
        ScopedStage stage(recorder, "inter.mb_tree");
        p_runs = buildRuns(p_sorted, config.mb_bits);
        i_runs = buildRuns(i_reference, config.mb_bits);
        i_index.reserve(i_runs.size());
        for (std::size_t r = 0; r < i_runs.size(); ++r)
            i_index.emplace(i_runs[r].cell, r);
        recordKernel(
            recorder,
            KernelWork{.name = "mb.tree_build",
                       .resource = ExecResource::kCpuParallel,
                       .invocations = 2,
                       .items = p_sorted.size() + i_reference.size(),
                       .ops = (p_sorted.size() +
                               i_reference.size()) *
                              static_cast<std::uint64_t>(
                                  p_sorted.gridBits()),
                       .bytes = (p_sorted.size() +
                                 i_reference.size()) *
                                14});
    }
    result.stats.p_blocks =
        static_cast<std::uint32_t>(p_runs.size());

    // ---- Per-block search + ICP alignment --------------------------
    std::vector<std::uint8_t> reuse_flag(p_runs.size(), 0);
    std::vector<Translation> translations(p_runs.size());
    std::vector<std::uint8_t> raw_attrs;

    {
        ScopedStage stage(recorder, "inter.mb_match");
        for (std::size_t pb = 0; pb < p_runs.size(); ++pb) {
            const MbRun &p_run = p_runs[pb];
            const auto it = i_index.find(p_run.cell);
            bool reused = false;
            if (it != i_index.end()) {
                ++result.stats.matched_blocks;
                const MbRun &i_run = i_runs[it->second];

                // ICP-lite: iterate translation = mean offset of
                // nearest-neighbour correspondences.
                double tx = 0.0, ty = 0.0, tz = 0.0;
                for (int iter = 0; iter < config.icp_iterations;
                     ++iter) {
                    double sx = 0.0, sy = 0.0, sz = 0.0;
                    for (std::size_t i = p_run.begin;
                         i < p_run.end; ++i) {
                        const std::size_t nn = nearestInRun(
                            i_reference, i_run,
                            static_cast<std::int64_t>(std::llround(
                                p_sorted.x()[i] - tx)),
                            static_cast<std::int64_t>(std::llround(
                                p_sorted.y()[i] - ty)),
                            static_cast<std::int64_t>(std::llround(
                                p_sorted.z()[i] - tz)));
                        sx += p_sorted.x()[i] -
                              static_cast<double>(
                                  i_reference.x()[nn]);
                        sy += p_sorted.y()[i] -
                              static_cast<double>(
                                  i_reference.y()[nn]);
                        sz += p_sorted.z()[i] -
                              static_cast<double>(
                                  i_reference.z()[nn]);
                        result.stats.icp_point_ops +=
                            i_run.size();
                    }
                    const double inv_n =
                        1.0 / static_cast<double>(p_run.size());
                    tx = sx * inv_n;
                    ty = sy * inv_n;
                    tz = sz * inv_n;
                }
                Translation t;
                t.dx = std::clamp(
                    static_cast<std::int32_t>(std::llround(tx)),
                    -kMaxTranslation, kMaxTranslation);
                t.dy = std::clamp(
                    static_cast<std::int32_t>(std::llround(ty)),
                    -kMaxTranslation, kMaxTranslation);
                t.dz = std::clamp(
                    static_cast<std::int32_t>(std::llround(tz)),
                    -kMaxTranslation, kMaxTranslation);
                translations[pb] = t;

                // Evaluate the reuse decision with the quantized
                // translation (what the decoder will apply).
                std::uint64_t attr_d2 = 0;
                for (std::size_t i = p_run.begin; i < p_run.end;
                     ++i) {
                    const std::size_t nn = nearestInRun(
                        i_reference, i_run,
                        static_cast<std::int64_t>(
                            p_sorted.x()[i]) -
                            t.dx,
                        static_cast<std::int64_t>(
                            p_sorted.y()[i]) -
                            t.dy,
                        static_cast<std::int64_t>(
                            p_sorted.z()[i]) -
                            t.dz);
                    const std::int32_t dr =
                        static_cast<std::int32_t>(
                            p_sorted.r()[i]) -
                        i_reference.r()[nn];
                    const std::int32_t dg =
                        static_cast<std::int32_t>(
                            p_sorted.g()[i]) -
                        i_reference.g()[nn];
                    const std::int32_t db =
                        static_cast<std::int32_t>(
                            p_sorted.b()[i]) -
                        i_reference.b()[nn];
                    attr_d2 += static_cast<std::uint64_t>(
                        dr * dr + dg * dg + db * db);
                    result.stats.icp_point_ops += i_run.size();
                }
                const double per_point =
                    static_cast<double>(attr_d2) /
                    static_cast<double>(p_run.size());
                reused = per_point <= config.reuse_threshold;
            }
            reuse_flag[pb] = reused ? 1 : 0;
            if (reused) {
                ++result.stats.reused_blocks;
            } else {
                for (std::size_t i = p_run.begin; i < p_run.end;
                     ++i)
                    raw_attrs.push_back(p_sorted.r()[i]);
                for (std::size_t i = p_run.begin; i < p_run.end;
                     ++i)
                    raw_attrs.push_back(p_sorted.g()[i]);
                for (std::size_t i = p_run.begin; i < p_run.end;
                     ++i)
                    raw_attrs.push_back(p_sorted.b()[i]);
            }
        }

        // The reference codec traverses the whole I-MB tree for
        // every P block; the device model charges that quadratic
        // search even though this implementation uses a hash.
        recordKernel(
            recorder,
            KernelWork{.name = "mb.tree_search",
                       .resource = ExecResource::kCpuParallel,
                       .invocations = p_runs.size(),
                       .items = p_runs.size() * i_runs.size(),
                       .ops = p_runs.size() * i_runs.size(),
                       .bytes = p_runs.size() * i_runs.size() * 8});
        recordKernel(
            recorder,
            KernelWork{.name = "mb.icp",
                       .resource = ExecResource::kCpuParallel,
                       .invocations =
                           static_cast<std::uint64_t>(
                               config.icp_iterations) *
                           result.stats.matched_blocks,
                       .items = result.stats.icp_point_ops,
                       .ops = result.stats.icp_point_ops * 8,
                       .bytes = result.stats.icp_point_ops * 6});
    }

    // ---- Assemble ---------------------------------------------------
    ScopedStage stage(recorder, "inter.mb_assemble");
    const std::vector<std::uint8_t> packed =
        entropyCompress(raw_attrs);
    recordKernel(recorder,
                 KernelWork{.name = "mb.attr_entropy",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 1,
                            .items = raw_attrs.size(),
                            .ops = raw_attrs.size() * 24,
                            .bytes =
                                raw_attrs.size() + packed.size()});

    BitWriter writer;
    writer.writeBits('C', 8);
    writer.writeBits('W', 8);
    writer.writeBits('P', 8);
    writer.writeVarint(p_sorted.size());
    writer.writeVarint(static_cast<std::uint64_t>(config.mb_bits));
    writer.writeVarint(p_runs.size());
    for (std::size_t pb = 0; pb < p_runs.size(); ++pb) {
        writer.writeBits(reuse_flag[pb], 1);
        if (reuse_flag[pb]) {
            writer.writeSignedVarint(translations[pb].dx);
            writer.writeSignedVarint(translations[pb].dy);
            writer.writeSignedVarint(translations[pb].dz);
        }
    }
    writer.writeVarint(raw_attrs.size());
    writer.writeBlock(packed);
    result.payload = writer.take();
    return result;
}

Status
decodeMacroBlockAttrInto(ByteSpan payload,
                         const VoxelCloud &i_reference,
                         VoxelCloud &p_cloud,
                         WorkRecorder *recorder)
{
    if (p_cloud.empty() || i_reference.empty())
        return invalidArgument(
            "decodeMacroBlockAttrInto: empty cloud");

    ScopedStage stage(recorder, "interdec.mb");

    BitReader reader(payload);
    if (reader.readBits(8) != 'C' || reader.readBits(8) != 'W' ||
        reader.readBits(8) != 'P') {
        return corruptBitstream("mb payload: bad magic");
    }
    const std::size_t n =
        static_cast<std::size_t>(reader.readVarint());
    const int mb_bits = static_cast<int>(reader.readVarint());
    const std::size_t num_blocks =
        static_cast<std::size_t>(reader.readVarint());
    EDGEPCC_CHECK_CORRUPT(!reader.overrun() && mb_bits >= 1 &&
                              mb_bits < p_cloud.gridBits(),
                          "mb payload: bad header");
    EDGEPCC_CHECK_CORRUPT(
        n == p_cloud.size(),
        "mb payload: point count mismatch with geometry");

    const std::vector<MbRun> p_runs = buildRuns(p_cloud, mb_bits);
    const std::vector<MbRun> i_runs =
        buildRuns(i_reference, mb_bits);
    if (p_runs.size() != num_blocks)
        return corruptBitstream(
            "mb payload: block structure mismatch");
    std::unordered_map<std::uint64_t, std::size_t> i_index;
    i_index.reserve(i_runs.size());
    for (std::size_t r = 0; r < i_runs.size(); ++r)
        i_index.emplace(i_runs[r].cell, r);

    std::vector<std::uint8_t> reuse_flag(num_blocks);
    std::vector<Translation> translations(num_blocks);
    for (std::size_t pb = 0; pb < num_blocks; ++pb) {
        reuse_flag[pb] =
            static_cast<std::uint8_t>(reader.readBits(1));
        if (reuse_flag[pb]) {
            const std::int64_t dx = reader.readSignedVarint();
            const std::int64_t dy = reader.readSignedVarint();
            const std::int64_t dz = reader.readSignedVarint();
            // The encoder clamps to +-kMaxTranslation; anything
            // wider is corruption, and unclamped values would
            // overflow the squared-distance terms in nearestInRun.
            EDGEPCC_CHECK_CORRUPT(
                std::abs(dx) <= kMaxTranslation &&
                    std::abs(dy) <= kMaxTranslation &&
                    std::abs(dz) <= kMaxTranslation,
                "mb payload: translation out of range");
            translations[pb].dx = static_cast<std::int32_t>(dx);
            translations[pb].dy = static_cast<std::int32_t>(dy);
            translations[pb].dz = static_cast<std::int32_t>(dz);
        }
    }
    const std::size_t raw_size =
        static_cast<std::size_t>(reader.readVarint());
    const ByteSpan packed = reader.readBlock();
    EDGEPCC_CHECK_CORRUPT(!reader.overrun(), "mb payload: truncated");
    // Raw attributes are 3 bytes per point for non-reused blocks:
    // never more than 3n in a well-formed stream.
    EDGEPCC_CHECK_CORRUPT(raw_size <= 3 * n,
                          "mb payload: implausible raw size");
    auto raw = entropyDecompress(packed, raw_size);
    if (!raw)
        return raw.status();

    std::size_t raw_cursor = 0;
    for (std::size_t pb = 0; pb < num_blocks; ++pb) {
        const MbRun &p_run = p_runs[pb];
        if (reuse_flag[pb]) {
            const auto it = i_index.find(p_run.cell);
            if (it == i_index.end())
                return corruptBitstream(
                    "mb payload: reuse without matched block");
            const MbRun &i_run = i_runs[it->second];
            const Translation &t = translations[pb];
            for (std::size_t i = p_run.begin; i < p_run.end;
                 ++i) {
                const std::size_t nn = nearestInRun(
                    i_reference, i_run,
                    static_cast<std::int64_t>(p_cloud.x()[i]) -
                        t.dx,
                    static_cast<std::int64_t>(p_cloud.y()[i]) -
                        t.dy,
                    static_cast<std::int64_t>(p_cloud.z()[i]) -
                        t.dz);
                p_cloud.mutableR()[i] = i_reference.r()[nn];
                p_cloud.mutableG()[i] = i_reference.g()[nn];
                p_cloud.mutableB()[i] = i_reference.b()[nn];
            }
        } else {
            const std::size_t count = p_run.size();
            if (raw_cursor + 3 * count > raw->size())
                return corruptBitstream(
                    "mb payload: raw attribute underflow");
            for (std::size_t j = 0; j < count; ++j)
                p_cloud.mutableR()[p_run.begin + j] =
                    (*raw)[raw_cursor + j];
            for (std::size_t j = 0; j < count; ++j)
                p_cloud.mutableG()[p_run.begin + j] =
                    (*raw)[raw_cursor + count + j];
            for (std::size_t j = 0; j < count; ++j)
                p_cloud.mutableB()[p_run.begin + j] =
                    (*raw)[raw_cursor + 2 * count + j];
            raw_cursor += 3 * count;
        }
    }
    return Status::ok();
}

std::vector<std::uint8_t>
encodeRawEntropyAttr(const VoxelCloud &sorted_cloud,
                     WorkRecorder *recorder)
{
    ScopedStage stage(recorder, "attr.raw_entropy");
    const std::size_t n = sorted_cloud.size();
    BitWriter writer;
    writer.writeBits('R', 8);
    writer.writeBits('W', 8);
    writer.writeBits('A', 8);
    writer.writeVarint(n);
    const std::vector<std::uint8_t> *channels[3] = {
        &sorted_cloud.r(), &sorted_cloud.g(), &sorted_cloud.b()};
    for (const auto *channel : channels)
        writer.writeBlock(entropyCompress(*channel));
    recordKernel(recorder,
                 KernelWork{.name = "attr.raw_entropy",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 3,
                            .items = n * 3,
                            .ops = n * 3 * 24,
                            .bytes = n * 6});
    return writer.take();
}

Status
decodeRawEntropyAttrInto(ByteSpan payload, VoxelCloud &cloud,
                         WorkRecorder *recorder)
{
    ScopedStage stage(recorder, "attrdec.raw_entropy");
    BitReader reader(payload);
    if (reader.readBits(8) != 'R' || reader.readBits(8) != 'W' ||
        reader.readBits(8) != 'A') {
        return corruptBitstream("raw attr payload: bad magic");
    }
    const std::size_t n =
        static_cast<std::size_t>(reader.readVarint());
    if (reader.overrun() || n != cloud.size())
        return corruptBitstream(
            "raw attr payload: point count mismatch");
    std::vector<std::uint8_t> *channels[3] = {
        &cloud.mutableR(), &cloud.mutableG(), &cloud.mutableB()};
    for (auto *channel : channels) {
        const ByteSpan packed = reader.readBlock();
        if (reader.overrun())
            return corruptBitstream("raw attr payload: truncated");
        auto raw = entropyDecompress(packed, n);
        if (!raw)
            return raw.status();
        *channel = raw.takeValue();
    }
    return Status::ok();
}

}  // namespace edgepcc
