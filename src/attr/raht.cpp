#include "edgepcc/attr/raht.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"
#include "edgepcc/morton/morton.h"

namespace edgepcc {

namespace {

/** One output slot of a sub-level pass: two nodes of weights w1
 *  and w2 merged, or (w2 == 0) one node of weight w1 carried up. */
struct MergeEvent {
    std::uint32_t w1 = 0;
    std::uint32_t w2 = 0;
};

/** Replayable merge schedule derived from the leaf codes. */
struct RahtSchedule {
    /** events[s] lists, in output order, what step s produced. */
    std::vector<std::vector<MergeEvent>> events;
    /** step_merges[s] counts the merges among events[s]. */
    std::vector<std::uint64_t> step_merges;
    std::uint64_t total_merges = 0;
    std::uint64_t total_walk = 0;
};

/**
 * Computes the schedule by replaying the code/weight evolution.
 * Shared by encoder and decoder, so a lossless-geometry decoder
 * reproduces the encoder's structure exactly.
 */
RahtSchedule
computeSchedule(const std::vector<std::uint64_t> &leaf_codes,
                int depth)
{
    RahtSchedule schedule;
    const int steps = 3 * depth;
    schedule.events.resize(static_cast<std::size_t>(steps));
    schedule.step_merges.resize(static_cast<std::size_t>(steps));

    std::vector<std::uint64_t> codes = leaf_codes;
    std::vector<std::uint32_t> weights(codes.size(), 1);

    for (int s = 0; s < steps; ++s) {
        auto &events = schedule.events[static_cast<std::size_t>(s)];
        events.reserve(codes.size());
        std::size_t out = 0;
        std::size_t i = 0;
        const std::size_t n = codes.size();
        while (i < n) {
            MergeEvent event;
            if (i + 1 < n &&
                (codes[i] >> 1) == (codes[i + 1] >> 1)) {
                event.w1 = weights[i];
                event.w2 = weights[i + 1];
                codes[out] = codes[i] >> 1;
                weights[out] = weights[i] + weights[i + 1];
                i += 2;
                ++schedule.step_merges[static_cast<std::size_t>(s)];
                ++schedule.total_merges;
            } else {
                event.w1 = weights[i];
                codes[out] = codes[i] >> 1;
                weights[out] = weights[i];
                i += 1;
            }
            events.push_back(event);
            ++out;
        }
        codes.resize(out);
        weights.resize(out);
        schedule.total_walk += n;
    }
    return schedule;
}

std::int64_t
quantize(double value, double qstep)
{
    return static_cast<std::int64_t>(std::llround(value / qstep));
}

constexpr const char kMagic[3] = {'R', 'A', 'H'};

}  // namespace

Expected<std::vector<std::uint8_t>>
encodeRaht(const VoxelCloud &sorted_cloud, const RahtConfig &config,
           WorkRecorder *recorder)
{
    const std::size_t n = sorted_cloud.size();
    if (n == 0)
        return invalidArgument("encodeRaht: empty cloud");
    if (config.qstep <= 0.0)
        return invalidArgument("encodeRaht: qstep must be positive");

    ScopedStage stage(recorder, "attr.raht");

    std::vector<std::uint64_t> codes(n);
    mortonEncodeBatch(sorted_cloud.x().data(),
                      sorted_cloud.y().data(),
                      sorted_cloud.z().data(), n, codes.data());
    for (std::size_t i = 1; i < n; ++i) {
        if (codes[i - 1] >= codes[i])
            return invalidArgument(
                "encodeRaht: cloud must be Morton-sorted and "
                "duplicate-free");
    }

    const int depth = sorted_cloud.gridBits();
    const int steps = 3 * depth;
    const RahtSchedule schedule = computeSchedule(codes, depth);

    // Forward pass: replay the schedule on the active nodes' attrs;
    // each merge leaves its low-pass sum in the output slot and
    // emits one high-pass coefficient per channel.
    std::vector<std::array<double, 3>> attrs(n);
    for (std::size_t i = 0; i < n; ++i) {
        attrs[i] = {static_cast<double>(sorted_cloud.r()[i]),
                    static_cast<double>(sorted_cloud.g()[i]),
                    static_cast<double>(sorted_cloud.b()[i])};
    }
    std::array<std::vector<std::int64_t>, 3> hc_q;
    for (const std::vector<MergeEvent> &events : schedule.events) {
        std::size_t i = 0;
        for (std::size_t out = 0; out < events.size(); ++out) {
            const MergeEvent &event = events[out];
            if (event.w2 == 0) {
                attrs[out] = attrs[i];
                i += 1;
                continue;
            }
            const double w1 = event.w1;
            const double w2 = event.w2;
            const double inv = 1.0 / std::sqrt(w1 + w2);
            const double s1 = std::sqrt(w1) * inv;
            const double s2 = std::sqrt(w2) * inv;
            for (int c = 0; c < 3; ++c) {
                const double a1 = attrs[i][c];
                const double a2 = attrs[i + 1][c];
                const double lc = s1 * a1 + s2 * a2;
                const double hc = -s2 * a1 + s1 * a2;
                attrs[out][c] = lc;
                hc_q[static_cast<std::size_t>(c)].push_back(
                    quantize(hc, config.qstep));
            }
            i += 2;
        }
    }

    recordKernel(recorder,
                 KernelWork{.name = "attr.raht_transform",
                            .resource = ExecResource::kCpuSequential,
                            .invocations =
                                static_cast<std::uint64_t>(steps),
                            .items = n,
                            .ops = schedule.total_walk * 6 +
                                   schedule.total_merges * 60,
                            .bytes = schedule.total_walk * 48});

    // Serialize: per channel, DC then the HC stream, each varint
    // coded and entropy compressed with its own adaptive model.
    BitWriter writer;
    writer.writeBits(static_cast<std::uint8_t>(kMagic[0]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[1]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[2]), 8);
    writer.writeVarint(
        static_cast<std::uint64_t>(std::llround(config.qstep * 1000)));
    writer.writeVarint(n);
    writer.writeVarint(schedule.total_merges);
    // Per-step merge counts let the decoder verify that the
    // replayed merge structure matches the encoder's (a corrupted
    // or mismatched geometry would silently decode garbage
    // otherwise).
    for (const std::uint64_t merges : schedule.step_merges)
        writer.writeVarint(merges);

    std::uint64_t entropy_bytes_in = 0;
    for (int c = 0; c < 3; ++c) {
        BitWriter channel;
        channel.writeSignedVarint(
            quantize(attrs[0][static_cast<std::size_t>(c)],
                     config.qstep));
        for (const std::int64_t coeff :
             hc_q[static_cast<std::size_t>(c)]) {
            channel.writeSignedVarint(coeff);
        }
        const std::vector<std::uint8_t> raw = channel.take();
        const std::vector<std::uint8_t> packed =
            entropyCompress(raw);
        entropy_bytes_in += raw.size();
        writer.writeVarint(raw.size());
        writer.writeBlock(packed);
    }
    recordKernel(recorder,
                 KernelWork{.name = "attr.raht_entropy",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 3,
                            .items = entropy_bytes_in,
                            .ops = entropy_bytes_in * 24,
                            .bytes = entropy_bytes_in * 2});

    return writer.take();
}

Status
decodeRahtInto(ByteSpan payload, VoxelCloud &cloud,
               WorkRecorder *recorder)
{
    const std::size_t n = cloud.size();
    if (n == 0)
        return invalidArgument("decodeRahtInto: empty cloud");

    ScopedStage stage(recorder, "attrdec.raht");

    BitReader reader(payload);
    if (reader.readBits(8) != 'R' || reader.readBits(8) != 'A' ||
        reader.readBits(8) != 'H') {
        return corruptBitstream("RAHT payload: bad magic");
    }
    const double qstep =
        static_cast<double>(reader.readVarint()) / 1000.0;
    const std::size_t num_points =
        static_cast<std::size_t>(reader.readVarint());
    const std::uint64_t total_merges = reader.readVarint();
    if (reader.overrun() || qstep <= 0.0)
        return corruptBitstream("RAHT payload: bad header");
    if (num_points != n)
        return corruptBitstream(
            "RAHT payload: point count mismatch with geometry");

    const int depth = cloud.gridBits();
    const int steps = 3 * depth;
    std::vector<std::uint64_t> stored_step_merges(
        static_cast<std::size_t>(steps));
    for (auto &merges : stored_step_merges)
        merges = reader.readVarint();
    if (reader.overrun())
        return corruptBitstream("RAHT payload: truncated header");

    // Decode per-channel coefficient streams.
    std::array<std::vector<std::int64_t>, 3> coeffs;
    for (int c = 0; c < 3; ++c) {
        const std::size_t raw_size =
            static_cast<std::size_t>(reader.readVarint());
        const ByteSpan packed = reader.readBlock();
        if (reader.overrun())
            return corruptBitstream("RAHT payload: truncated");
        auto raw = entropyDecompress(packed, raw_size);
        if (!raw)
            return raw.status();
        BitReader channel(*raw);
        auto &list = coeffs[static_cast<std::size_t>(c)];
        list.reserve(total_merges + 1);
        for (std::uint64_t k = 0; k < total_merges + 1; ++k)
            list.push_back(channel.readSignedVarint());
        if (channel.overrun())
            return corruptBitstream(
                "RAHT payload: coefficient stream truncated");
    }

    // Rebuild the merge schedule from the decoded geometry.
    std::vector<std::uint64_t> codes(n);
    mortonEncodeBatch(cloud.x().data(), cloud.y().data(),
                      cloud.z().data(), n, codes.data());
    const RahtSchedule schedule = computeSchedule(codes, depth);
    if (schedule.total_merges != total_merges)
        return corruptBitstream(
            "RAHT payload: merge structure mismatch");

    if (schedule.step_merges != stored_step_merges)
        return corruptBitstream(
            "RAHT payload: per-step merge structure mismatch");

    // Per-step HC offsets in emission order.
    std::vector<std::uint64_t> hc_offset(
        static_cast<std::size_t>(steps) + 1, 0);
    for (int s = 0; s < steps; ++s) {
        hc_offset[static_cast<std::size_t>(s) + 1] =
            hc_offset[static_cast<std::size_t>(s)] +
            schedule.step_merges[static_cast<std::size_t>(s)];
    }

    // Inverse pass: start from the root (DC), expand downward.
    std::vector<std::array<double, 3>> attrs(1);
    for (int c = 0; c < 3; ++c) {
        attrs[0][static_cast<std::size_t>(c)] =
            static_cast<double>(
                coeffs[static_cast<std::size_t>(c)][0]) *
            qstep;
    }

    std::uint64_t inverse_ops = 0;
    for (int s = steps - 1; s >= 0; --s) {
        const auto &events =
            schedule.events[static_cast<std::size_t>(s)];
        std::vector<std::array<double, 3>> expanded;
        expanded.reserve(events.size() * 2);
        std::uint64_t hc_index =
            hc_offset[static_cast<std::size_t>(s)];
        for (std::size_t j = 0; j < events.size(); ++j) {
            const MergeEvent &event = events[j];
            if (event.w2 != 0) {
                const double w1 = event.w1;
                const double w2 = event.w2;
                const double inv = 1.0 / std::sqrt(w1 + w2);
                const double s1 = std::sqrt(w1) * inv;
                const double s2 = std::sqrt(w2) * inv;
                std::array<double, 3> a1{};
                std::array<double, 3> a2{};
                for (int c = 0; c < 3; ++c) {
                    const double lc =
                        attrs[j][static_cast<std::size_t>(c)];
                    const double hc =
                        static_cast<double>(
                            coeffs[static_cast<std::size_t>(c)]
                                  [hc_index + 1]) *
                        qstep;
                    a1[static_cast<std::size_t>(c)] =
                        s1 * lc - s2 * hc;
                    a2[static_cast<std::size_t>(c)] =
                        s2 * lc + s1 * hc;
                }
                expanded.push_back(a1);
                expanded.push_back(a2);
                ++hc_index;
                inverse_ops += 60;
            } else {
                expanded.push_back(attrs[j]);
                inverse_ops += 6;
            }
        }
        attrs = std::move(expanded);
    }
    if (attrs.size() != n)
        return internalError("RAHT inverse: node count mismatch");

    for (std::size_t i = 0; i < n; ++i) {
        for (int c = 0; c < 3; ++c) {
            const double v = std::clamp(
                attrs[i][static_cast<std::size_t>(c)], 0.0, 255.0);
            const auto byte =
                static_cast<std::uint8_t>(std::lround(v));
            switch (c) {
              case 0: cloud.mutableR()[i] = byte; break;
              case 1: cloud.mutableG()[i] = byte; break;
              default: cloud.mutableB()[i] = byte; break;
            }
        }
    }
    recordKernel(recorder,
                 KernelWork{.name = "attrdec.raht_inverse",
                            .resource = ExecResource::kCpuSequential,
                            .invocations =
                                static_cast<std::uint64_t>(steps),
                            .items = n,
                            .ops = inverse_ops +
                                   schedule.total_walk * 4,
                            .bytes = schedule.total_walk * 48});
    return Status::ok();
}

}  // namespace edgepcc
