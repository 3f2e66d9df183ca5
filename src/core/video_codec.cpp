#include "edgepcc/core/video_codec.h"

#include <algorithm>
#include <new>

#include "edgepcc/common/trace.h"
#include "edgepcc/entropy/bitstream.h"

namespace edgepcc {

namespace {

/** Attribute payload kinds in the frame container. */
enum class AttrKind : std::uint8_t {
    kRaht = 0,
    kSegment = 1,
    kRawEntropy = 2,
    kInterBlockMatch = 3,
    kInterMacroBlock = 4,
    kPredicting = 5,
};

constexpr std::uint8_t kContainerVersion = 1;

/** Converts a cloud's colors to int32 channels for the segment
 *  codec. */
AttrChannels
colorsToChannels(const VoxelCloud &cloud)
{
    AttrChannels channels;
    const std::size_t n = cloud.size();
    for (auto &channel : channels)
        channel.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        channels[0][i] = cloud.r()[i];
        channels[1][i] = cloud.g()[i];
        channels[2][i] = cloud.b()[i];
    }
    return channels;
}

/** Writes decoded channels back into a cloud, clamped to 8 bits. */
Status
channelsToColors(const AttrChannels &channels, VoxelCloud &cloud)
{
    const std::size_t n = cloud.size();
    if (channels[0].size() != n)
        return corruptBitstream(
            "attribute stream size does not match geometry");
    for (std::size_t i = 0; i < n; ++i) {
        cloud.mutableR()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[0][i], 0, 255));
        cloud.mutableG()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[1][i], 0, 255));
        cloud.mutableB()[i] = static_cast<std::uint8_t>(
            std::clamp(channels[2][i], 0, 255));
    }
    return Status::ok();
}

std::vector<std::uint8_t>
assembleContainer(Frame::Type type, AttrKind attr_kind,
                  int grid_bits, ByteSpan geometry, ByteSpan attr)
{
    BitWriter writer;
    writer.writeBits('E', 8);
    writer.writeBits('P', 8);
    writer.writeBits('C', 8);
    writer.writeBits(kContainerVersion, 8);
    writer.writeBits(
        type == Frame::Type::kPredicted ? 1u : 0u, 8);
    writer.writeBits(static_cast<std::uint8_t>(attr_kind), 8);
    writer.writeBits(static_cast<std::uint64_t>(grid_bits), 8);
    writer.writeBlock(geometry);
    writer.writeBlock(attr);
    return writer.take();
}

/** The container's fields; the blocks are views into its bytes. */
struct ParsedContainer {
    Frame::Type type = Frame::Type::kIntra;
    AttrKind attr_kind = AttrKind::kSegment;
    int grid_bits = 10;
    ByteSpan geometry;
    ByteSpan attr;
};

Expected<ParsedContainer>
parseContainer(ByteSpan bitstream)
{
    BitReader reader(bitstream);
    if (reader.readBits(8) != 'E' || reader.readBits(8) != 'P' ||
        reader.readBits(8) != 'C') {
        return corruptBitstream("frame container: bad magic");
    }
    if (reader.readBits(8) != kContainerVersion)
        return corruptBitstream(
            "frame container: unsupported version");
    ParsedContainer parsed;
    parsed.type = reader.readBits(8) == 1
                      ? Frame::Type::kPredicted
                      : Frame::Type::kIntra;
    const std::uint64_t kind = reader.readBits(8);
    if (kind > 5)
        return corruptBitstream(
            "frame container: unknown attribute kind");
    parsed.attr_kind = static_cast<AttrKind>(kind);
    parsed.grid_bits = static_cast<int>(reader.readBits(8));

    parsed.geometry = reader.readBlock();
    parsed.attr = reader.readBlock();
    if (reader.overrun())
        return corruptBitstream("frame container: truncated block");
    return parsed;
}

/** Decodes an intra attribute payload into `cloud`. */
Status
decodeIntraAttrInto(AttrKind kind, ByteSpan payload,
                    VoxelCloud &cloud, WorkRecorder *recorder)
{
    switch (kind) {
      case AttrKind::kRaht:
        return decodeRahtInto(payload, cloud, recorder);
      case AttrKind::kSegment: {
          auto channels = decodeSegmentAttr(payload, recorder);
          if (!channels)
              return channels.status();
          return channelsToColors(*channels, cloud);
      }
      case AttrKind::kRawEntropy:
        return decodeRawEntropyAttrInto(payload, cloud, recorder);
      case AttrKind::kPredicting:
        return decodePredictingInto(payload, cloud, recorder);
      default:
        return corruptBitstream(
            "intra frame with inter attribute payload");
    }
}

}  // namespace

VideoEncoder::VideoEncoder(CodecConfig config)
    : config_(std::move(config))
{
}

void
VideoEncoder::reset()
{
    frame_counter_ = 0;
    has_reference_ = false;
}

void
VideoEncoder::forceKeyframe()
{
    // Restart the GOP phase; dropping the reference guarantees the
    // next frame cannot be predicted even mid-GOP.
    frame_counter_ = 0;
    has_reference_ = false;
}

void
VideoEncoder::setGopSize(int gop_size)
{
    config_.gop_size = gop_size < 1 ? 1 : gop_size;
}

void
VideoEncoder::updateCoding(const CodecConfig &config)
{
    config_ = config;
    if (config_.gop_size < 1)
        config_.gop_size = 1;
}

VideoEncoder::StateSnapshot
VideoEncoder::snapshotState() const
{
    StateSnapshot state;
    state.config = config_;
    state.frame_counter = frame_counter_;
    state.reference = reference_;
    state.has_reference = has_reference_;
    return state;
}

void
VideoEncoder::restoreState(const StateSnapshot &state)
{
    config_ = state.config;
    frame_counter_ = state.frame_counter;
    reference_ = state.reference;
    has_reference_ = state.has_reference;
}

Expected<EncodedFrame>
VideoEncoder::encode(const VoxelCloud &cloud)
{
    // Encoding a frame allocates freely (octree levels, attribute
    // buffers); under memory pressure that must surface as a
    // Status, never an exception escaping the public API. Arena
    // growth goes through ::operator new, so it fails (and is
    // caught) the same way — inside the try on purpose.
    try {
        arena_.reset();
        ScopedFrameArena bind(&arena_);
        return encodeImpl(cloud);
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "VideoEncoder::encode: allocation failed");
    }
}

Expected<EncodedFrame>
VideoEncoder::encodeImpl(const VoxelCloud &cloud)
{
    if (cloud.empty())
        return invalidArgument("VideoEncoder::encode: empty cloud");
    if (config_.gop_size < 1)
        return invalidArgument(
            "VideoEncoder::encode: gop_size must be >= 1");
    if (config_.inter_mode == InterMode::kMacroBlock &&
        config_.geometry.builder ==
            GeometryConfig::Builder::kParallelMorton &&
        config_.geometry.tight_bbox) {
        return invalidArgument(
            "macro-block inter coding requires lossless geometry "
            "(disable tight_bbox or use the sequential builder)");
    }

    ScopedTrace frame_trace("encode.frame");
    WorkRecorder recorder;
    EncodedFrame out;

    const bool want_p =
        config_.inter_mode != InterMode::kNone && has_reference_ &&
        (frame_counter_ %
             static_cast<std::uint32_t>(config_.gop_size) !=
         0);

    Expected<GeometryEncoded> geometry =
        encodeGeometry(cloud, config_.geometry, &recorder);
    if (!geometry)
        return geometry.status();

    std::vector<std::uint8_t> attr_payload;
    AttrKind attr_kind = AttrKind::kSegment;
    const VoxelCloud &sorted = geometry->sorted_cloud;

    if (want_p) {
        if (config_.inter_mode == InterMode::kBlockMatch) {
            auto inter = encodeInterAttr(
                sorted, reference_, config_.block_match, &recorder);
            if (!inter)
                return inter.status();
            attr_payload = std::move(inter->payload);
            attr_kind = AttrKind::kInterBlockMatch;
            out.stats.block_match = inter->stats;
        } else {
            auto inter = encodeMacroBlockAttr(
                sorted, reference_, config_.macro_block, &recorder);
            if (!inter)
                return inter.status();
            attr_payload = std::move(inter->payload);
            attr_kind = AttrKind::kInterMacroBlock;
            out.stats.macro_block = inter->stats;
        }
    } else {
        switch (config_.attr_mode) {
          case AttrMode::kRaht: {
              auto raht =
                  encodeRaht(sorted, config_.raht, &recorder);
              if (!raht)
                  return raht.status();
              attr_payload = raht.takeValue();
              attr_kind = AttrKind::kRaht;
              break;
          }
          case AttrMode::kSegment: {
              auto seg = encodeSegmentAttr(colorsToChannels(sorted),
                                           config_.segment,
                                           &recorder);
              if (!seg)
                  return seg.status();
              attr_payload = seg.takeValue();
              attr_kind = AttrKind::kSegment;
              break;
          }
          case AttrMode::kRawEntropy:
            attr_payload = encodeRawEntropyAttr(sorted, &recorder);
            attr_kind = AttrKind::kRawEntropy;
            break;
          case AttrMode::kPredicting: {
              auto predicted = encodePredicting(
                  sorted, config_.predicting, &recorder);
              if (!predicted)
                  return predicted.status();
              attr_payload = predicted.takeValue();
              attr_kind = AttrKind::kPredicting;
              break;
          }
        }
    }

    const Frame::Type type = want_p ? Frame::Type::kPredicted
                                    : Frame::Type::kIntra;
    {
        ScopedTrace trace("encode.container");
        out.bitstream =
            assembleContainer(type, attr_kind, cloud.gridBits(),
                              geometry->payload, attr_payload);
    }

    out.stats.type = type;
    out.stats.num_input_points = cloud.size();
    out.stats.num_voxels = geometry->num_voxels;
    out.stats.raw_bytes = cloud.rawBytes();
    out.stats.geometry_bytes = geometry->payload.size();
    out.stats.attr_bytes = attr_payload.size();
    out.stats.total_bytes = out.bitstream.size();
    out.profile = recorder.takeProfile();

    // Keep the reconstructed I frame as the prediction reference.
    if (!want_p && config_.inter_mode != InterMode::kNone) {
        ScopedTrace trace("encode.reference");
        reference_ = std::move(geometry->sorted_cloud);
        const Status status = decodeIntraAttrInto(
            attr_kind, attr_payload, reference_, nullptr);
        if (!status.isOk())
            return status;
        has_reference_ = true;
    }

    ++frame_counter_;
    return out;
}

void
VideoDecoder::reset()
{
    has_reference_ = false;
}

Expected<DecodedFrame>
VideoDecoder::decode(const std::vector<std::uint8_t> &bitstream)
{
    try {
        arena_.reset();
        ScopedFrameArena bind(&arena_);
        return decodeImpl(bitstream);
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "VideoDecoder::decode: allocation failed");
    }
}

Expected<DecodedFrame>
VideoDecoder::decodeImpl(const std::vector<std::uint8_t> &bitstream)
{
    ScopedTrace frame_trace("decode.frame");
    auto parsed = parseContainer(bitstream);
    if (!parsed)
        return parsed.status();

    WorkRecorder recorder;
    DecodedFrame out;
    out.type = parsed->type;

    Expected<VoxelCloud> cloud =
        decodeGeometry(parsed->geometry, &recorder);
    if (!cloud)
        return cloud.status();
    out.cloud = cloud.takeValue();

    switch (parsed->attr_kind) {
      case AttrKind::kInterBlockMatch: {
          if (!has_reference_)
              return corruptBitstream(
                  "predicted frame before any intra frame");
          const Status status = decodeInterAttrInto(
              parsed->attr, reference_, out.cloud, &recorder);
          if (!status.isOk())
              return status;
          break;
      }
      case AttrKind::kInterMacroBlock: {
          if (!has_reference_)
              return corruptBitstream(
                  "predicted frame before any intra frame");
          const Status status = decodeMacroBlockAttrInto(
              parsed->attr, reference_, out.cloud, &recorder);
          if (!status.isOk())
              return status;
          break;
      }
      default: {
          const Status status =
              decodeIntraAttrInto(parsed->attr_kind, parsed->attr,
                                  out.cloud, &recorder);
          if (!status.isOk())
              return status;
          reference_ = out.cloud;
          has_reference_ = true;
          break;
      }
    }

    out.profile = recorder.takeProfile();
    return out;
}

Expected<DecodedFrame>
VideoDecoder::decodePromoted(
    const std::vector<std::uint8_t> &bitstream,
    const VoxelCloud *conceal_source, bool *attr_concealed)
{
    try {
        arena_.reset();
        ScopedFrameArena bind(&arena_);
        return decodePromotedImpl(bitstream, conceal_source,
                                  attr_concealed);
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "VideoDecoder::decodePromoted: allocation failed");
    }
}

Expected<DecodedFrame>
VideoDecoder::decodePromotedImpl(
    const std::vector<std::uint8_t> &bitstream,
    const VoxelCloud *conceal_source, bool *attr_concealed)
{
    ScopedTrace frame_trace("decode.frame.promoted");
    if (attr_concealed != nullptr)
        *attr_concealed = false;
    auto parsed = parseContainer(bitstream);
    if (!parsed)
        return parsed.status();

    const bool inter_attr =
        parsed->attr_kind == AttrKind::kInterBlockMatch ||
        parsed->attr_kind == AttrKind::kInterMacroBlock;
    if (!inter_attr) {
        // Intra payloads need no promotion; the normal path also
        // refreshes the prediction reference.
        return decode(bitstream);
    }

    WorkRecorder recorder;
    DecodedFrame out;
    out.type = parsed->type;

    Expected<VoxelCloud> cloud =
        decodeGeometry(parsed->geometry, &recorder);
    if (!cloud)
        return cloud.status();
    out.cloud = cloud.takeValue();

    {
        ScopedTrace trace("decode.attr.conceal");
        static const VoxelCloud kEmpty{10};
        concealAttrFromReference(
            conceal_source != nullptr ? *conceal_source : kEmpty,
            out.cloud);
    }
    if (attr_concealed != nullptr)
        *attr_concealed = true;
    out.profile = recorder.takeProfile();
    return out;
}

}  // namespace edgepcc
