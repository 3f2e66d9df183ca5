#include "edgepcc/attr/segment_codec.h"

#include <algorithm>

#include "edgepcc/common/check.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/platform/arena.h"

namespace edgepcc {

namespace {

constexpr std::uint8_t kFlagTwoLayer = 1u << 0;

/** Round-to-nearest division, symmetric around zero. Deliberately
 *  scalar: this is the one spot where a float-based SIMD division
 *  could silently change rounding, and the bitstream is pinned by
 *  goldens (docs/PERFORMANCE.md "What stays scalar"). */
std::int64_t
roundDiv(std::int64_t value, std::int64_t divisor)
{
    if (value >= 0)
        return (value + divisor / 2) / divisor;
    return -((-value + divisor / 2) / divisor);
}

/** floor((a+b)/2) that is safe for negative sums. Inputs stay
 *  within +/-2^33 (int32 values and their quantized residuals). */
std::int64_t
midOf(std::int64_t lo, std::int64_t hi)
{
    return (lo + hi) >> 1;
}

/** Min and max of a segment's values. Deliberately scalar:
 *  segments hold ~24 points, too few for vector lanes to pay. */
template <typename T>
void
minMax(const T *v, std::size_t n, T &out_min, T &out_max)
{
    T vmin = v[0];
    T vmax = v[0];
    for (std::size_t i = 1; i < n; ++i) {
        vmin = std::min(vmin, v[i]);
        vmax = std::max(vmax, v[i]);
    }
    out_min = vmin;
    out_max = vmax;
}

/** Widest zigzag residual of a segment against `mid2`. */
std::uint64_t
maxZigzag(const std::int64_t *v, std::size_t n, std::int64_t mid2)
{
    std::uint64_t max_zig = 0;
    for (std::size_t i = 0; i < n; ++i)
        max_zig = std::max(max_zig, zigzagEncode(v[i] - mid2));
    return max_zig;
}

}  // namespace

SegmentLayout
makeSegmentLayout(std::size_t n, const SegmentCodecConfig &config)
{
    SegmentLayout layout;
    std::uint32_t segments = config.num_segments;
    if (segments == 0) {
        segments = static_cast<std::uint32_t>(
            std::max<std::size_t>(1, n / 24));
    }
    segments = static_cast<std::uint32_t>(std::min<std::size_t>(
        segments, std::max<std::size_t>(1, n)));
    layout.num_segments = segments;
    layout.points_per_segment = static_cast<std::uint32_t>(
        (n + segments - 1) / segments);
    // Recompute the segment count so no empty trailing segments
    // exist (ceil division can overshoot).
    layout.num_segments = static_cast<std::uint32_t>(
        (n + layout.points_per_segment - 1) /
        layout.points_per_segment);
    return layout;
}

Expected<std::vector<std::uint8_t>>
encodeSegmentAttr(const AttrChannels &channels,
                  const SegmentCodecConfig &config,
                  WorkRecorder *recorder)
{
    const std::size_t n = channels[0].size();
    if (n == 0)
        return invalidArgument("encodeSegmentAttr: no values");
    if (channels[1].size() != n || channels[2].size() != n)
        return invalidArgument(
            "encodeSegmentAttr: channel size mismatch");
    if (config.quant_step == 0)
        return invalidArgument(
            "encodeSegmentAttr: quant_step must be >= 1");

    ScopedStage stage(recorder, "attr.segment");

    const SegmentLayout layout = makeSegmentLayout(n, config);
    const auto q = static_cast<std::int64_t>(config.quant_step);

    BitWriter writer;
    writer.writeBits('S', 8);
    writer.writeBits('A', 8);
    writer.writeBits('T', 8);
    writer.writeBits(config.two_layer ? kFlagTwoLayer : 0, 8);
    writer.writeVarint(n);
    writer.writeVarint(layout.num_segments);
    writer.writeVarint(config.quant_step);

    // Per-segment quantized scratch, SoA and arena-backed inside a
    // frame (heap fallback for direct API calls outside one). It is
    // 64-bit because a residual against the mid-range of two int32
    // extremes needs 33 bits.
    const std::size_t max_segment = layout.points_per_segment;
    std::vector<std::int64_t> quantized_heap;
    std::int64_t *quantized = scratchArray(
        currentFrameArena(), quantized_heap, max_segment);
    for (std::uint32_t s = 0; s < layout.num_segments; ++s) {
        const std::size_t lo = layout.begin(s);
        const std::size_t hi = layout.end(s, n);
        const std::size_t count = hi - lo;
        for (int c = 0; c < 3; ++c) {
            const auto &values =
                channels[static_cast<std::size_t>(c)];

            // ---- layer 1: mid-range base + quantized residuals --
            std::int32_t vmin = 0;
            std::int32_t vmax = 0;
            minMax(values.data() + lo, count, vmin, vmax);
            const std::int64_t mid1 = midOf(vmin, vmax);
            for (std::size_t i = 0; i < count; ++i)
                quantized[i] = roundDiv(values[lo + i] - mid1, q);

            // ---- layer 2: lossless base + packed residuals -----
            std::int64_t mid2 = 0;
            if (config.two_layer) {
                std::int64_t qmin = 0;
                std::int64_t qmax = 0;
                minMax(quantized, count, qmin, qmax);
                mid2 = midOf(qmin, qmax);
            }
            const std::uint64_t max_zig =
                maxZigzag(quantized, count, mid2);
            const int width = bitWidth(max_zig);

            writer.writeSignedVarint(mid1);
            writer.writeSignedVarint(mid2);
            writer.writeBits(static_cast<std::uint64_t>(width), 6);
            for (std::size_t i = 0; i < count; ++i)
                writer.writeBits(zigzagEncode(quantized[i] - mid2),
                                 width);
        }
    }

    recordKernel(recorder,
                 KernelWork{.name = "attr.seg_minmax",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = layout.num_segments,
                            .ops = n * 3 * 2,
                            .bytes = n * 3 * 4});
    recordKernel(recorder,
                 KernelWork{.name = "attr.seg_residual",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 3 * 4,
                            .bytes = n * 3 * 8});
    recordKernel(recorder,
                 KernelWork{.name = "attr.seg_addressgen",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = layout.num_segments,
                            .ops = layout.num_segments * 12ull,
                            .bytes = layout.num_segments * 16ull});
    recordKernel(recorder,
                 KernelWork{.name = "attr.seg_pack",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 3 * 3,
                            .bytes = n * 3 * 5});

    return writer.take();
}

Expected<AttrChannels>
decodeSegmentAttr(ByteSpan payload, WorkRecorder *recorder)
{
    ScopedStage stage(recorder, "attrdec.segment");

    BitReader reader(payload);
    if (reader.readBits(8) != 'S' || reader.readBits(8) != 'A' ||
        reader.readBits(8) != 'T') {
        return corruptBitstream("segment payload: bad magic");
    }
    const std::uint8_t flags =
        static_cast<std::uint8_t>(reader.readBits(8));
    (void)flags;  // layer-2 presence is implicit in the mids
    const std::size_t n =
        static_cast<std::size_t>(reader.readVarint());
    const std::uint64_t num_segments_raw = reader.readVarint();
    const std::uint64_t q_raw = reader.readVarint();
    EDGEPCC_CHECK_CORRUPT(!reader.overrun() && n != 0 &&
                              num_segments_raw != 0 && q_raw != 0,
                          "segment payload: bad header");
    // All three counts are attacker-controlled: a flipped varint
    // continuation bit can claim 2^60 points and the channel
    // resize below must not be the first place that notices.
    EDGEPCC_CHECK_CORRUPT(n <= kMaxDecodeItems,
                          "segment payload: implausible point count");
    EDGEPCC_CHECK_CORRUPT(num_segments_raw <= n,
                          "segment payload: more segments than points");
    EDGEPCC_CHECK_CORRUPT(q_raw <= (std::uint64_t{1} << 31),
                          "segment payload: implausible quant step");
    const auto num_segments =
        static_cast<std::uint32_t>(num_segments_raw);
    const auto q = static_cast<std::int64_t>(q_raw);

    SegmentLayout layout;
    layout.num_segments = num_segments;
    layout.points_per_segment = static_cast<std::uint32_t>(
        (n + num_segments - 1) / num_segments);

    AttrChannels channels;
    for (auto &channel : channels)
        channel.resize(n);

    for (std::uint32_t s = 0; s < num_segments; ++s) {
        const std::size_t lo = layout.begin(s);
        const std::size_t hi = layout.end(s, n);
        EDGEPCC_CHECK_CORRUPT(lo < n,
                              "segment payload: segment out of range");
        for (int c = 0; c < 3; ++c) {
            const auto mid1 = static_cast<std::int64_t>(
                reader.readSignedVarint());
            const auto mid2 = static_cast<std::int64_t>(
                reader.readSignedVarint());
            const int width =
                static_cast<int>(reader.readBits(6));
            auto &values = channels[static_cast<std::size_t>(c)];
            for (std::size_t i = lo; i < hi; ++i) {
                const std::int64_t res2 =
                    zigzagDecode(reader.readBits(width));
                // Reconstruct in unsigned space: corrupt mids can
                // make the signed arithmetic overflow, which is UB;
                // two's-complement wrap-around yields the same bits
                // on valid streams and garbage-but-defined values
                // on corrupt ones (rejected downstream).
                const std::uint64_t scaled =
                    (static_cast<std::uint64_t>(mid2) +
                     static_cast<std::uint64_t>(res2)) *
                    static_cast<std::uint64_t>(q);
                values[i] = static_cast<std::int32_t>(
                    static_cast<std::uint64_t>(mid1) + scaled);
            }
        }
    }
    EDGEPCC_CHECK_CORRUPT(!reader.overrun(),
                          "segment payload: truncated");

    recordKernel(recorder,
                 KernelWork{.name = "attrdec.seg_unpack",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 3 * 4,
                            .bytes = n * 3 * 6});
    return channels;
}

}  // namespace edgepcc
