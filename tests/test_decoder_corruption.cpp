/**
 * @file
 * Corruption harness over every decoder entry point: round-trips
 * each codec, then sweeps truncations at every byte boundary plus
 * seeded bit flips and garbage runs, asserting that corrupt input
 * yields a clean Status (or validated output) rather than a crash,
 * sanitizer report, or out-of-bounds result. Run under the asan and
 * tsan presets to give the "no UB" half of the contract teeth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "corruption_harness.h"
#include "edgepcc/attr/predicting_transform.h"
#include "edgepcc/attr/raht.h"
#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/common/rng.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/interframe/macroblock_codec.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/octree/geometry_codec.h"
#include "edgepcc/stream/chunk_stream.h"
#include "edgepcc/stream/stream_file.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

using testing::DecodeFn;
using testing::SweepStats;
using testing::fullSweep;

/** Morton-sorted synthetic surface cloud (small: the truncation
 *  sweep decodes the payload once per byte). */
VoxelCloud
surfaceCloud(std::uint64_t seed, std::size_t n, int bits,
             int shift_x = 0)
{
    Rng rng(seed);
    std::set<std::uint64_t> codes;
    const std::uint32_t grid = 1u << bits;
    while (codes.size() < n) {
        const auto x = static_cast<std::uint32_t>(
            (rng.bounded(grid / 2) + shift_x) % grid);
        const auto y =
            static_cast<std::uint32_t>(rng.bounded(grid / 2));
        const std::uint32_t z = (x * 2 + y) % grid;
        codes.insert(mortonEncode(x, y, z));
    }
    VoxelCloud cloud(bits);
    for (const std::uint64_t code : codes) {
        const MortonXyz xyz = mortonDecode(code);
        cloud.add(static_cast<std::uint16_t>(xyz.x),
                  static_cast<std::uint16_t>(xyz.y),
                  static_cast<std::uint16_t>(xyz.z),
                  static_cast<std::uint8_t>(xyz.x * 3),
                  static_cast<std::uint8_t>(xyz.y * 5),
                  static_cast<std::uint8_t>(xyz.z * 7));
    }
    return cloud;
}

// -----------------------------------------------------------------
// BitReader
// -----------------------------------------------------------------

TEST(CorruptBitstream, BitReaderSurvivesSweeps)
{
    BitWriter writer;
    Rng rng(42);
    for (int i = 0; i < 64; ++i) {
        writer.writeVarint(rng());
        writer.writeSignedVarint(static_cast<std::int64_t>(rng()));
        writer.writeBits(rng() & 0x1f, 5);
    }
    const std::vector<std::uint8_t> payload = writer.take();

    const DecodeFn decode =
        [](const std::vector<std::uint8_t> &bytes) {
            BitReader reader(bytes);
            // Read more fields than were written so truncation is
            // always exercised; the reader must saturate via its
            // overrun flag, never read out of bounds.
            for (int i = 0; i < 80; ++i) {
                (void)reader.readVarint();
                (void)reader.readSignedVarint();
                (void)reader.readBits(5);
            }
            return reader.status();
        };

    const SweepStats stats = fullSweep(payload, decode, 1001);
    EXPECT_GT(stats.attempts, payload.size());
    EXPECT_GT(stats.rejected, 0u);
}

// -----------------------------------------------------------------
// Length prefixes near 2^64
// -----------------------------------------------------------------

using HeaderFn = std::function<void(BitWriter &)>;

/**
 * Two payloads that open with `header` and then claim a block of
 * 2^64 - 1 bytes and of 2^64 - (offset after the claim) bytes. Both
 * wrap `offset + size` below the payload size, which 32 padding
 * bytes keep above the offset.
 */
std::vector<std::vector<std::uint8_t>>
hugePrefixPayloads(const HeaderFn &header)
{
    BitWriter probe;
    header(probe);
    probe.writeVarint(~std::uint64_t{0});
    const std::uint64_t offset = probe.take().size();
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const std::uint64_t size :
         {~std::uint64_t{0}, std::uint64_t{0} - offset}) {
        BitWriter writer;
        header(writer);
        writer.writeVarint(size);
        std::vector<std::uint8_t> bytes = writer.take();
        bytes.resize(bytes.size() + 32, 0);
        payloads.push_back(std::move(bytes));
    }
    return payloads;
}

void
writeMagic(BitWriter &writer, const char *magic)
{
    for (const char *c = magic; *c != '\0'; ++c)
        writer.writeBits(static_cast<std::uint8_t>(*c), 8);
}

TEST(CorruptBitstream, HugeLengthPrefixRejected)
{
    // One point is a valid geometry for every payload header below.
    const VoxelCloud cloud = surfaceCloud(61, 1, 7);
    const std::size_t depth =
        static_cast<std::size_t>(cloud.gridBits());
    const std::pair<const char *, std::pair<HeaderFn, DecodeFn>>
        cases[] = {
            {"container",
             {[](BitWriter &w) {
                  writeMagic(w, "EPC");
                  w.writeBits(1, 8);   // container version
                  w.writeBits(0, 8);   // intra
                  w.writeBits(0, 8);   // attribute kind
                  w.writeBits(10, 8);  // grid bits
              },
              [](const std::vector<std::uint8_t> &b) {
                  VideoDecoder decoder;
                  return decoder.decode(b).status();
              }}},
            {"stream file",
             {[](BitWriter &w) {
                  writeMagic(w, "EPCV");
                  w.writeVarint(1);  // frames
              },
              [](const std::vector<std::uint8_t> &b) {
                  return unpackStream(b).status();
              }}},
            {"geometry entropy block",
             {[](BitWriter &w) {
                  writeMagic(w, "GEO");
                  w.writeBits(1u << 1, 8);  // entropy-coded
                  w.writeVarint(7);         // depth
                  w.writeVarint(1);         // voxels
                  w.writeVarint(7);         // occupancy bytes
              },
              [](const std::vector<std::uint8_t> &b) {
                  return decodeGeometry(b).status();
              }}},
            // The node-count bound rejects this claim before the
            // length check does.
            {"geometry occupancy",
             {[](BitWriter &w) {
                  writeMagic(w, "GEO");
                  w.writeBits(0, 8);
                  w.writeVarint(7);
                  w.writeVarint(1);
              },
              [](const std::vector<std::uint8_t> &b) {
                  return decodeGeometry(b).status();
              }}},
            {"inter",
             {[](BitWriter &w) {
                  writeMagic(w, "INT");
                  w.writeVarint(1);  // points
                  w.writeVarint(1);  // blocks
                  w.writeVarint(1);  // points per block
                  w.writeVarint(1);  // window
                  w.writeBits(0, 1);
                  w.writeBits(0, 1);
              },
              [&cloud](const std::vector<std::uint8_t> &b) {
                  VoxelCloud out = cloud;
                  return decodeInterAttrInto(b, cloud, out);
              }}},
            {"macro-block",
             {[](BitWriter &w) {
                  writeMagic(w, "CWP");
                  w.writeVarint(1);  // points
                  w.writeVarint(1);  // macro-block bits
                  w.writeVarint(1);  // blocks
                  w.writeBits(0, 1);
                  w.writeVarint(3);  // raw bytes
              },
              [&cloud](const std::vector<std::uint8_t> &b) {
                  VoxelCloud out = cloud;
                  return decodeMacroBlockAttrInto(b, cloud, out);
              }}},
            {"raw entropy",
             {[](BitWriter &w) {
                  writeMagic(w, "RWA");
                  w.writeVarint(1);
              },
              [&cloud](const std::vector<std::uint8_t> &b) {
                  VoxelCloud out = cloud;
                  return decodeRawEntropyAttrInto(b, out);
              }}},
            {"RAHT",
             {[depth](BitWriter &w) {
                  writeMagic(w, "RAH");
                  w.writeVarint(1000);  // quantizer step x 1000
                  w.writeVarint(1);     // points
                  w.writeVarint(0);     // merges
                  for (std::size_t s = 0; s < 3 * depth; ++s)
                      w.writeVarint(0);
                  w.writeVarint(0);  // raw bytes
              },
              [&cloud](const std::vector<std::uint8_t> &b) {
                  VoxelCloud out = cloud;
                  return decodeRahtInto(b, out);
              }}},
            {"predicting",
             {[](BitWriter &w) {
                  writeMagic(w, "PRD");
                  w.writeVarint(1000);
                  w.writeVarint(1);  // points
                  w.writeVarint(0);  // LoD levels
                  w.writeVarint(1);  // neighbours
                  w.writeVarint(0);  // raw bytes
              },
              [&cloud](const std::vector<std::uint8_t> &b) {
                  VoxelCloud out = cloud;
                  return decodePredictingInto(b, out);
              }}},
        };
    for (const auto &[name, header_and_decode] : cases) {
        const auto &[header, decode] = header_and_decode;
        for (const auto &bytes : hugePrefixPayloads(header)) {
            Status status;
            EXPECT_NO_THROW(status = decode(bytes)) << name;
            EXPECT_EQ(status.code(), StatusCode::kCorruptBitstream)
                << name << ": " << status.message();
        }
    }
}

// -----------------------------------------------------------------
// Adaptive range coder
// -----------------------------------------------------------------

TEST(CorruptBitstream, EntropyDecompressSurvivesSweeps)
{
    Rng rng(7);
    std::vector<std::uint8_t> original(4096);
    for (auto &byte : original)
        byte = static_cast<std::uint8_t>(rng.bounded(24) * 11);
    const std::vector<std::uint8_t> payload =
        entropyCompress(original);
    const std::size_t expected_size = original.size();

    const DecodeFn decode =
        [expected_size](const std::vector<std::uint8_t> &bytes)
        -> Status {
        auto decoded = entropyDecompress(bytes, expected_size);
        if (!decoded.hasValue())
            return decoded.status();
        EXPECT_EQ(decoded->size(), expected_size);
        return Status::ok();
    };

    // Sanity: the pristine payload round-trips.
    auto pristine = entropyDecompress(payload, expected_size);
    ASSERT_TRUE(pristine.hasValue());
    EXPECT_EQ(*pristine, original);

    const SweepStats stats = fullSweep(payload, decode, 1002);
    EXPECT_GT(stats.rejected, 0u);
}

TEST(CorruptBitstream, EntropyDecompressRejectsHugeClaimedSize)
{
    const std::vector<std::uint8_t> tiny = {0x01, 0x02, 0x03};
    auto decoded =
        entropyDecompress(tiny, std::size_t{1} << 60);
    ASSERT_FALSE(decoded.hasValue());
    EXPECT_EQ(decoded.status().code(),
              StatusCode::kCorruptBitstream);
}

// -----------------------------------------------------------------
// Geometry codec (all builder / entropy variants)
// -----------------------------------------------------------------

DecodeFn
geometryValidator()
{
    return [](const std::vector<std::uint8_t> &bytes) -> Status {
        auto decoded = decodeGeometry(bytes);
        if (!decoded.hasValue())
            return decoded.status();
        const VoxelCloud &cloud = *decoded;
        const std::uint32_t grid = cloud.gridSize();
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            EXPECT_LT(cloud.x()[i], grid);
            EXPECT_LT(cloud.y()[i], grid);
            EXPECT_LT(cloud.z()[i], grid);
        }
        return Status::ok();
    };
}

struct GeometryVariant {
    const char *name;
    GeometryConfig config;
};

std::vector<GeometryVariant>
geometryVariants()
{
    std::vector<GeometryVariant> variants;
    GeometryConfig sequential;
    sequential.builder = GeometryConfig::Builder::kSequential;
    sequential.tight_bbox = false;
    variants.push_back({"sequential", sequential});

    GeometryConfig parallel;
    parallel.builder = GeometryConfig::Builder::kParallelMorton;
    variants.push_back({"parallel", parallel});

    GeometryConfig entropy = parallel;
    entropy.entropy_coding = true;
    variants.push_back({"entropy", entropy});

    GeometryConfig contextual = parallel;
    contextual.contextual_entropy = true;
    variants.push_back({"contextual", contextual});
    return variants;
}

TEST(CorruptBitstream, GeometryDecoderSurvivesSweeps)
{
    const VoxelCloud cloud = surfaceCloud(21, 1500, 7);
    const DecodeFn decode = geometryValidator();
    std::uint64_t seed = 2000;
    for (const GeometryVariant &variant : geometryVariants()) {
        SCOPED_TRACE(variant.name);
        auto encoded = encodeGeometry(cloud, variant.config);
        ASSERT_TRUE(encoded.hasValue());

        // Sanity: pristine payload decodes.
        ASSERT_TRUE(decode(encoded->payload).isOk());

        const SweepStats stats =
            fullSweep(encoded->payload, decode, ++seed);
        EXPECT_GT(stats.rejected, 0u);
    }
}

TEST(CorruptBitstream, GeometryDecoderRejectsEmptyAndGarbage)
{
    const DecodeFn decode = geometryValidator();
    EXPECT_FALSE(decode({}).isOk());
    Rng rng(3);
    std::vector<std::uint8_t> garbage(512);
    for (auto &byte : garbage)
        byte = static_cast<std::uint8_t>(rng());
    EXPECT_FALSE(decode(garbage).isOk());
}

TEST(CorruptBitstream, GeometryLevelWiderThanVoxelCountRejected)
{
    // A plain payload claiming 1 voxel at depth 10 whose levels 0-6
    // are all 0xFF (~300 KB). Level 7 alone would be 2^21 nodes, so
    // the expansion must reject level 1 (8 nodes) before building
    // it, not fail on underflow after materialising level 7.
    constexpr int kFullLevels = 7;
    std::size_t occupancy_size = 0;
    for (int level = 0; level < kFullLevels; ++level)
        occupancy_size += std::size_t{1} << (3 * level);
    const std::vector<std::uint8_t> occupancy(occupancy_size, 0xFF);
    for (const bool parallel : {true, false}) {
        SCOPED_TRACE(parallel ? "breadth-first" : "depth-first");
        BitWriter writer;
        writeMagic(writer, "GEO");
        writer.writeBits(parallel ? 1u : 0u, 8);  // BFS builder flag
        writer.writeVarint(10);                   // depth
        writer.writeVarint(1);                    // voxels
        writer.writeVarint(occupancy_size);
        writer.writeBytes(occupancy.data(), occupancy.size());
        const auto status = decodeGeometry(writer.take()).status();
        EXPECT_EQ(status.code(), StatusCode::kCorruptBitstream);
        EXPECT_NE(status.message().find("than the voxel bound"),
                  std::string::npos)
            << status.message();
    }
}

// -----------------------------------------------------------------
// Segment attribute codec
// -----------------------------------------------------------------

TEST(CorruptBitstream, SegmentDecoderSurvivesSweeps)
{
    Rng rng(5);
    const std::size_t n = 2000;
    AttrChannels channels;
    for (auto &channel : channels) {
        channel.resize(n);
        for (auto &value : channel)
            value = static_cast<std::int32_t>(rng.bounded(256));
    }
    SegmentCodecConfig config;
    auto encoded = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(encoded.hasValue());

    const DecodeFn decode =
        [n](const std::vector<std::uint8_t> &bytes) -> Status {
        auto decoded = decodeSegmentAttr(bytes);
        if (!decoded.hasValue())
            return decoded.status();
        for (const auto &channel : *decoded)
            EXPECT_LE(channel.size(), std::size_t{1} << 24);
        (void)n;
        return Status::ok();
    };

    ASSERT_TRUE(decode(*encoded).isOk());
    const SweepStats stats = fullSweep(*encoded, decode, 3001);
    EXPECT_GT(stats.rejected, 0u);
}

// -----------------------------------------------------------------
// Macro-block inter-frame codec
// -----------------------------------------------------------------

TEST(CorruptBitstream, MacroBlockDecoderSurvivesSweeps)
{
    const VoxelCloud i_frame = surfaceCloud(31, 1200, 7, 0);
    const VoxelCloud p_frame = surfaceCloud(32, 1200, 7, 5);
    MacroBlockConfig config;
    auto encoded = encodeMacroBlockAttr(p_frame, i_frame, config);
    ASSERT_TRUE(encoded.hasValue());

    const DecodeFn decode =
        [&i_frame,
         &p_frame](const std::vector<std::uint8_t> &bytes) {
            // Fresh output cloud per trial: a partial decode must
            // not leave out-of-range colors behind.
            VoxelCloud out = p_frame;
            for (std::size_t i = 0; i < out.size(); ++i)
                out.setColor(i, Color{});
            return decodeMacroBlockAttrInto(bytes, i_frame, out);
        };

    ASSERT_TRUE(decode(encoded->payload).isOk());
    const SweepStats stats =
        fullSweep(encoded->payload, decode, 4001);
    EXPECT_GT(stats.rejected, 0u);
}

// -----------------------------------------------------------------
// Morton-window block matcher (the shipped P-frame path)
// -----------------------------------------------------------------

TEST(CorruptBitstream, BlockMatchDecoderSurvivesSweeps)
{
    const VoxelCloud i_frame = surfaceCloud(33, 1200, 7, 0);
    const VoxelCloud p_frame = surfaceCloud(34, 1200, 7, 5);
    BlockMatchConfig config;
    auto encoded = encodeInterAttr(p_frame, i_frame, config);
    ASSERT_TRUE(encoded.hasValue());

    const DecodeFn decode =
        [&i_frame,
         &p_frame](const std::vector<std::uint8_t> &bytes) {
            VoxelCloud out = p_frame;
            for (std::size_t i = 0; i < out.size(); ++i)
                out.setColor(i, Color{});
            return decodeInterAttrInto(bytes, i_frame, out);
        };

    ASSERT_TRUE(decode(encoded->payload).isOk());
    const SweepStats stats =
        fullSweep(encoded->payload, decode, 4101);
    EXPECT_GT(stats.rejected, 0u);

    // 80-byte headers whose block layout does not fit the 1200
    // geometry points: rejected before any per-block array is sized.
    const std::pair<std::uint64_t, std::uint64_t> layouts[] = {
        {std::uint64_t{1} << 27, 1},  // blocks, points per block
        {std::uint64_t{1} << 40, 1},
        {1, p_frame.size() + 1},
        {p_frame.size() - 1, 1},
    };
    for (const auto &[blocks, k] : layouts) {
        BitWriter writer;
        writeMagic(writer, "INT");
        writer.writeVarint(p_frame.size());
        writer.writeVarint(blocks);
        writer.writeVarint(k);
        writer.writeVarint(100);  // window
        std::vector<std::uint8_t> bytes = writer.take();
        bytes.resize(80, 0);
        Status status;
        EXPECT_NO_THROW(status = decode(bytes)) << blocks;
        EXPECT_EQ(status.code(), StatusCode::kCorruptBitstream)
            << blocks << " x " << k;
    }
}

// -----------------------------------------------------------------
// Chunked transport framing + resilient receiver
// -----------------------------------------------------------------

/** Serializes a short IPPI GOP into transport chunks. */
std::vector<std::vector<std::uint8_t>>
gopChunks(std::size_t num_frames)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    std::vector<std::vector<std::uint8_t>> chunks;
    std::uint32_t gop_id = 0;
    for (std::size_t f = 0; f < num_frames; ++f) {
        const VoxelCloud frame = surfaceCloud(
            61, 600, 7, static_cast<int>(f) * 3);
        auto encoded = encoder.encode(frame);
        EXPECT_TRUE(encoded.hasValue());
        if (encoded->stats.type == Frame::Type::kIntra)
            gop_id = static_cast<std::uint32_t>(f);
        ChunkHeader header;
        header.sequence = static_cast<std::uint32_t>(f);
        header.frame_id = static_cast<std::uint32_t>(f);
        header.gop_id = gop_id;
        header.frame_type = encoded->stats.type;
        chunks.push_back(
            serializeChunk(header, encoded->bitstream));
    }
    return chunks;
}

/** Ingests damaged wire bytes through the resilient receiver and
 *  validates every ladder output. Never returns failure: the
 *  contract is no crash / no hang / no OOB output, not rejection. */
DecodeFn
receiverValidator(std::uint32_t expected_frames)
{
    return [expected_frames](
               const std::vector<std::uint8_t> &wire) -> Status {
        StreamReceiver receiver;
        receiver.ingest(wire);
        const std::vector<SessionFrame> frames =
            receiver.decodeAll(expected_frames);
        EXPECT_EQ(frames.size(), expected_frames);
        for (const SessionFrame &frame : frames) {
            const std::uint32_t grid = frame.cloud.gridSize();
            for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
                EXPECT_LT(frame.cloud.x()[i], grid);
                EXPECT_LT(frame.cloud.y()[i], grid);
                EXPECT_LT(frame.cloud.z()[i], grid);
            }
        }
        return Status::ok();
    };
}

TEST(CorruptBitstream, ChunkedReceiverSurvivesChunkSweeps)
{
    const auto chunks = gopChunks(4);
    const DecodeFn decode = receiverValidator(4);

    // Sanity: the pristine wire decodes.
    ASSERT_TRUE(decode(testing::joinChunks(chunks)).isOk());

    const SweepStats stats =
        testing::chunkFullSweep(chunks, decode, 6001);
    EXPECT_GT(stats.attempts, 0u);
    // The receiver degrades instead of rejecting: every damaged
    // wire still yields one validated outcome per frame.
    EXPECT_EQ(stats.decoded_ok, stats.attempts);
}

TEST(CorruptBitstream, ChunkedReceiverSurvivesWireTruncation)
{
    const auto chunks = gopChunks(3);
    const std::vector<std::uint8_t> wire =
        testing::joinChunks(chunks);
    // Strided: the wire is a few KB and each trial decodes every
    // surviving chunk; step 17 still hits every alignment class
    // within the 26-byte header period.
    const SweepStats stats = testing::truncationSweep(
        wire, receiverValidator(3), /*stride=*/17);
    EXPECT_GT(stats.attempts, 0u);
    EXPECT_EQ(stats.decoded_ok, stats.attempts);
}

TEST(CorruptBitstream, ChunkedReceiverReassemblesPureReorder)
{
    const auto chunks = gopChunks(4);
    // Reversed wire order, undamaged bytes: reassembly by frame id
    // must recover every frame as ok.
    std::vector<std::vector<std::uint8_t>> reversed(
        chunks.rbegin(), chunks.rend());
    StreamReceiver receiver;
    receiver.ingest(testing::joinChunks(reversed));
    const auto frames = receiver.decodeAll(4);
    ASSERT_EQ(frames.size(), 4u);
    for (const SessionFrame &frame : frames)
        EXPECT_EQ(frame.outcome, FrameOutcome::kOk)
            << "frame " << frame.frame_id;
}

TEST(CorruptBitstream, RawEntropyAttrSurvivesSweeps)
{
    const VoxelCloud cloud = surfaceCloud(41, 1500, 7);
    const std::vector<std::uint8_t> payload =
        encodeRawEntropyAttr(cloud);

    const DecodeFn decode =
        [&cloud](const std::vector<std::uint8_t> &bytes) {
            VoxelCloud out = cloud;
            return decodeRawEntropyAttrInto(bytes, out);
        };

    ASSERT_TRUE(decode(payload).isOk());
    const SweepStats stats = fullSweep(payload, decode, 5001);
    EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace edgepcc
