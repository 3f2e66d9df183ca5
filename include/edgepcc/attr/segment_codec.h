/**
 * @file
 * Morton-segment "Base + Deltas" attribute codec — the paper's
 * intra-frame attribute proposal (Sec. IV-C).
 *
 * Points arrive sorted by Morton code, so contiguous ranges
 * ("segments", the paper's macro blocks) are spatially compact and
 * their attributes similar (Fig. 3a). Each segment stores one base
 * value (the mid-range, the paper's "Mid") per channel plus
 * quantized residuals. A second, lossless layer re-applies the same
 * base+residual idea to the quantized residuals and bit-packs them
 * with a per-segment width — this is the paper's "2-layer encoder"
 * (Sec. VI-B). Every step is a data-parallel kernel.
 *
 * The codec is generic over int32 channels so the inter-frame path
 * can reuse it on signed block deltas ("treat the obtained delta
 * values as new attributes", Sec. VI-B).
 */

#ifndef EDGEPCC_ATTR_SEGMENT_CODEC_H
#define EDGEPCC_ATTR_SEGMENT_CODEC_H

#include <array>
#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/entropy/bitstream.h"

namespace edgepcc {

/** Three equally-long channels of attribute values. */
using AttrChannels = std::array<std::vector<std::int32_t>, 3>;

/** Segment codec configuration. */
struct SegmentCodecConfig {
    /**
     * Number of segments. 0 = auto: one segment per ~24 points,
     * which reproduces the paper's 30000-block design point at
     * 8iVFB frame sizes.
     */
    std::uint32_t num_segments = 0;

    /** Residual quantization step (1 = lossless layer 1). The
     *  default lands near the paper's ~48.5 dB intra operating
     *  point. */
    std::uint32_t quant_step = 4;

    /** Enable the second (lossless) re-encoding layer. */
    bool two_layer = true;
};

/** Resolved segmentation geometry. */
struct SegmentLayout {
    std::uint32_t num_segments = 0;
    std::uint32_t points_per_segment = 0;  ///< last segment may be short

    std::size_t
    begin(std::uint32_t segment) const
    {
        return static_cast<std::size_t>(segment) *
               points_per_segment;
    }
    std::size_t
    end(std::uint32_t segment, std::size_t n) const
    {
        const std::size_t e = begin(segment) + points_per_segment;
        return e < n ? e : n;
    }
};

/** Computes the segmentation for n points under `config`. */
SegmentLayout makeSegmentLayout(std::size_t n,
                                const SegmentCodecConfig &config);

/**
 * Encodes three attribute channels. Values may be any int32 range
 * (colors use [0,255]; inter-frame deltas are signed).
 */
Expected<std::vector<std::uint8_t>> encodeSegmentAttr(
    const AttrChannels &channels, const SegmentCodecConfig &config,
    WorkRecorder *recorder = nullptr);

/** Decodes a segment-codec payload back to three channels. */
Expected<AttrChannels> decodeSegmentAttr(
    ByteSpan payload, WorkRecorder *recorder = nullptr);

}  // namespace edgepcc

#endif  // EDGEPCC_ATTR_SEGMENT_CODEC_H
