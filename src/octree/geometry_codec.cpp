#include "edgepcc/octree/geometry_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>

#include "edgepcc/common/check.h"
#include "edgepcc/common/trace.h"

#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/entropy/range_coder.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/octree/parallel_builder.h"
#include "edgepcc/octree/sequential_builder.h"
#include "edgepcc/parallel/parallel_for.h"

namespace edgepcc {

namespace {

constexpr std::uint8_t kFlagBuilderParallel = 1u << 0;
constexpr std::uint8_t kFlagEntropy = 1u << 1;
constexpr std::uint8_t kFlagTightBbox = 1u << 2;
constexpr std::uint8_t kFlagContextual = 1u << 3;

/**
 * Tight-cuboid renormalization parameters (paper Fig. 5): the
 * octree is fitted to the occupied bounding cuboid instead of the
 * full capture grid. Coordinates are shifted by the per-axis
 * minimum and the tree depth shrinks to cover only the largest
 * extent, which both trims empty upper levels and keeps the Morton
 * codes short. On integer (pre-voxelized) input the shift is
 * exactly invertible; the paper's sub-voxel loss only appears for
 * float capture coordinates (see DESIGN.md).
 */
struct BoxParams {
    std::uint32_t min[3] = {0, 0, 0};
    int original_depth = 0;  ///< gridBits of the input cloud
};

/**
 * The sorted, de-duplicated cloud in one pass over the sorted codes:
 * the first point of each run of equal codes is gathered from
 * `cloud`, the input. The radix sort is stable, so that point is the
 * voxel's earliest input point and keeps its colour; gathering from
 * the input also keeps its coordinates when the codes were computed
 * on tight-bbox-shifted ones. Records the paper's gather and dedup
 * kernels with their GPU work counts.
 */
VoxelCloud
uniqueInOrder(const VoxelCloud &cloud, const MortonOrder &order,
              WorkRecorder *recorder)
{
    ScopedTrace trace("morton.gather");
    const std::size_t n = order.codes.size();
    const std::uint64_t *codes = order.codes.data();
    const std::uint32_t *perm = order.perm.data();
    VoxelCloud out(cloud.gridBits());
    out.resize(n);
    std::uint16_t *x = out.mutableX().data();
    std::uint16_t *y = out.mutableY().data();
    std::uint16_t *z = out.mutableZ().data();
    std::uint8_t *r = out.mutableR().data();
    std::uint8_t *g = out.mutableG().data();
    std::uint8_t *b = out.mutableB().data();
    std::size_t m = 0;
    for (std::size_t k = 0; k < n; ++k) {
        if (k != 0 && codes[k] == codes[k - 1])
            continue;
        const std::uint32_t src = perm[k];
        x[m] = cloud.x()[src];
        y[m] = cloud.y()[src];
        z[m] = cloud.z()[src];
        r[m] = cloud.r()[src];
        g[m] = cloud.g()[src];
        b[m] = cloud.b()[src];
        ++m;
    }
    out.resize(m);
    recordKernel(recorder,
                 KernelWork{.name = "morton.gather",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 6,
                            .bytes = n * 2 * 9});
    recordKernel(recorder,
                 KernelWork{.name = "geom.dedup",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = n,
                            .ops = n * 3,
                            .bytes = n * (8 + 9)});
    return out;
}

/**
 * The contextual coder's context rule, shared by encoder and
 * decoder: a node's context is its parent's occupancy byte. Given
 * the `n` bytes of one breadth-first level, writes the contexts of
 * the next level's nodes in order (each byte once per child it has)
 * and returns the end of what it wrote.
 */
std::uint8_t *
childContexts(const std::uint8_t *level, std::size_t n,
              std::uint8_t *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out = std::fill_n(out, std::popcount(level[i]), level[i]);
    return out;
}

/** Every branch node's context, breadth-first; the root's is 0. */
std::vector<std::uint8_t>
breadthFirstContexts(const std::vector<std::uint8_t> &occupancy)
{
    std::vector<std::uint8_t> contexts(occupancy.size(), 0);
    // [begin, end) is the level whose children get contexts next;
    // the last branch level's children are leaves, which have none.
    std::size_t begin = 0;
    std::size_t end = 1;
    while (end < occupancy.size()) {
        const std::uint8_t *next =
            childContexts(occupancy.data() + begin, end - begin,
                          contexts.data() + end);
        begin = end;
        end = static_cast<std::size_t>(next - contexts.data());
    }
    return contexts;
}

void
writeHeader(BitWriter &writer, std::uint8_t flags, int depth,
            std::size_t num_voxels, const BoxParams *box)
{
    writer.writeBits('G', 8);
    writer.writeBits('E', 8);
    writer.writeBits('O', 8);
    writer.writeBits(flags, 8);
    writer.writeVarint(static_cast<std::uint64_t>(depth));
    writer.writeVarint(num_voxels);
    if (box) {
        writer.writeVarint(
            static_cast<std::uint64_t>(box->original_depth));
        for (int a = 0; a < 3; ++a)
            writer.writeVarint(box->min[a]);
    }
}

std::vector<std::uint8_t>
assemblePayload(std::uint8_t flags, int depth, std::size_t num_voxels,
                const BoxParams *box,
                const std::vector<std::uint8_t> &occupancy,
                const std::vector<std::uint8_t> *contexts,
                WorkRecorder *recorder)
{
    const bool entropy = flags & kFlagEntropy;
    const bool try_contextual =
        (flags & kFlagContextual) && contexts != nullptr;

    std::vector<std::uint8_t> packed;
    if (entropy) {
        const std::vector<std::uint8_t> order0 =
            entropyCompress(occupancy);
        packed = order0;
        flags &= static_cast<std::uint8_t>(~kFlagContextual);
        if (try_contextual) {
            // Mode decision: context modelling wins on locally
            // dense surfaces but can lose on uniformly sparse
            // ones; keep whichever stream is smaller (TMC13-style
            // encoder-side decision, signalled via the flag).
            std::vector<std::uint8_t> ctx_packed;
            RangeEncoder encoder(ctx_packed);
            ContextualByteCoder coder;
            for (std::size_t i = 0; i < occupancy.size(); ++i)
                coder.encode(encoder, (*contexts)[i],
                             occupancy[i]);
            encoder.finish();
            if (ctx_packed.size() < order0.size()) {
                packed = std::move(ctx_packed);
                flags |= kFlagContextual;
            }
        }
    } else {
        flags &= static_cast<std::uint8_t>(~kFlagContextual);
    }

    BitWriter writer;
    writeHeader(writer, flags, depth, num_voxels, box);
    writer.writeVarint(occupancy.size());
    if (entropy) {
        writer.writeBlock(packed);
        recordKernel(
            recorder,
            KernelWork{.name = "geom.entropy",
                       .resource = ExecResource::kCpuSequential,
                       .invocations = 1,
                       .items = occupancy.size(),
                       .ops = occupancy.size() *
                              (try_contextual ? 28u : 24u),
                       .bytes = occupancy.size() + packed.size()});
    } else {
        writer.writeBytes(occupancy.data(), occupancy.size());
    }
    return writer.take();
}

}  // namespace

Expected<GeometryEncoded>
encodeGeometry(const VoxelCloud &cloud, const GeometryConfig &config,
               WorkRecorder *recorder)
{
    ScopedTrace trace("geometry.encode");
    if (cloud.empty())
        return invalidArgument("encodeGeometry: empty cloud");

    const std::size_t n = cloud.size();
    const std::uint32_t grid = cloud.gridSize();
    int depth = cloud.gridBits();

    GeometryEncoded result;

    const bool parallel =
        config.builder == GeometryConfig::Builder::kParallelMorton;
    const bool tight = parallel && config.tight_bbox;

    std::uint8_t flags = 0;
    if (parallel)
        flags |= kFlagBuilderParallel;
    const bool entropy =
        config.entropy_coding || config.contextual_entropy;
    if (entropy)
        flags |= kFlagEntropy;
    if (config.contextual_entropy)
        flags |= kFlagContextual;
    if (tight)
        flags |= kFlagTightBbox;

    // ----- Normalization (proposed pipeline only) -----------------
    // The tree is built over `coded`: the input itself, or with the
    // tight bbox a copy of its coordinates shifted into the cuboid.
    BoxParams box;
    box.original_depth = depth;
    VoxelCloud shifted(cloud.gridBits());
    if (tight) {
        ScopedStage stage(recorder, "geom.normalize");
        std::uint32_t lo[3] = {grid, grid, grid};
        std::uint32_t hi[3] = {0, 0, 0};
        for (std::size_t i = 0; i < n; ++i) {
            lo[0] = std::min<std::uint32_t>(lo[0], cloud.x()[i]);
            lo[1] = std::min<std::uint32_t>(lo[1], cloud.y()[i]);
            lo[2] = std::min<std::uint32_t>(lo[2], cloud.z()[i]);
            hi[0] = std::max<std::uint32_t>(hi[0], cloud.x()[i]);
            hi[1] = std::max<std::uint32_t>(hi[1], cloud.y()[i]);
            hi[2] = std::max<std::uint32_t>(hi[2], cloud.z()[i]);
        }
        std::uint32_t max_extent = 0;
        for (int a = 0; a < 3; ++a) {
            box.min[a] = lo[a];
            max_extent =
                std::max(max_extent, hi[a] - lo[a]);
        }
        recordKernel(recorder,
                     KernelWork{.name = "geom.bbox_reduce",
                                .resource = ExecResource::kGpu,
                                .invocations = 1,
                                .items = n,
                                .ops = n * 6,
                                .bytes = n * 6});
        // Fit the tree to the cuboid: shift out the minimum and
        // shrink the depth to cover the largest extent.
        depth = std::max(1, bitWidth(max_extent));
        shifted.resize(n);
        parallelFor(0, n, [&](std::size_t i) {
            shifted.mutableX()[i] = static_cast<std::uint16_t>(
                cloud.x()[i] - box.min[0]);
            shifted.mutableY()[i] = static_cast<std::uint16_t>(
                cloud.y()[i] - box.min[1]);
            shifted.mutableZ()[i] = static_cast<std::uint16_t>(
                cloud.z()[i] - box.min[2]);
        });
        recordKernel(recorder,
                     KernelWork{.name = "geom.requant",
                                .resource = ExecResource::kGpu,
                                .invocations = 1,
                                .items = n,
                                .ops = n * 6,
                                .bytes = n * 12});
    }
    const VoxelCloud &coded = tight ? shifted : cloud;
    result.depth = depth;

    std::vector<std::uint8_t> occupancy;
    std::vector<std::uint8_t> contexts;
    if (parallel) {
        // ----- Morton generation + sort (Fig. 4c stage 1) ---------
        MortonOrder order;
        {
            ScopedStage stage(recorder, "geom.morton");
            order = computeMortonOrder(coded, recorder);
        }

        // ----- Parallel octree construction ------------------------
        ScopedStage stage(recorder, "geom.build");
        result.sorted_cloud = uniqueInOrder(cloud, order, recorder);
        auto built = buildParallelOctree(order.codes, depth, recorder);
        if (!built)
            return built.status();
        occupancy = built.takeValue();
        if (config.contextual_entropy)
            contexts = breadthFirstContexts(occupancy);
    } else {
        // ----- Sequential baseline (Fig. 4a) -----------------------
        {
            const PointerOctree tree = [&] {
                ScopedStage stage(recorder, "geom.build");
                return buildSequentialOctree(coded, recorder);
            }();
            ScopedStage stage(recorder, "geom.serialize");
            occupancy = serializeDepthFirst(
                tree, recorder,
                config.contextual_entropy ? &contexts : nullptr);
        }
        // The attribute stage needs the Morton-sorted unique cloud;
        // in TMC13 this ordering falls out of the octree itself, so
        // its cost is part of the RAHT calibration and is not
        // recorded here.
        result.sorted_cloud = uniqueInOrder(
            cloud, computeMortonOrder(coded, nullptr), nullptr);
    }
    result.num_voxels = result.sorted_cloud.size();

    ScopedStage stage(recorder, "geom.post");
    result.payload = assemblePayload(
        flags, depth, result.num_voxels, tight ? &box : nullptr,
        occupancy, config.contextual_entropy ? &contexts : nullptr,
        recorder);
    return result;
}

namespace {

struct ParsedHeader {
    std::uint8_t flags = 0;
    int depth = 0;
    std::size_t num_voxels = 0;
    BoxParams box;
    /** Plain (or order-0 pre-decoded) occupancy bytes. Empty in
     *  contextual mode, where `packed` is decoded on the fly. */
    ByteSpan occupancy;
    ByteSpan packed;
    std::size_t occupancy_size = 0;
};

/**
 * Byte supplier for tree expansion: either a plain buffer or a
 * context-conditioned range decoder (bytes must then be pulled in
 * stream order, with each node's parent byte as context).
 */
class OccupancyByteSource
{
  public:
    explicit OccupancyByteSource(const ParsedHeader &header)
        : header_(&header)
    {
        if (header.flags & kFlagContextual) {
            decoder_.emplace(header.packed);
            remaining_ = header.occupancy_size;
        }
    }

    /** Next occupancy byte; -1 on underflow/corruption. */
    int
    next(std::uint8_t parent_byte)
    {
        if (decoder_) {
            if (remaining_ == 0)
                return -1;
            --remaining_;
            const std::uint8_t byte =
                coder_.decode(*decoder_, parent_byte);
            if (decoder_->overrun())
                return -1;
            return byte;
        }
        if (cursor_ >= header_->occupancy.size())
            return -1;
        return header_->occupancy[cursor_++];
    }

    /**
     * The next `n` bytes, one per node of a BFS level in stream
     * order; in contextual mode node i is decoded with
     * `parent_bytes[i]` as its context. Null on underflow or
     * corruption. Plain bytes are returned in place, decoded ones
     * in `scratch`.
     */
    const std::uint8_t *
    nextLevel(const std::uint8_t *parent_bytes, std::size_t n,
              std::vector<std::uint8_t> &scratch)
    {
        if (!decoder_) {
            if (n > header_->occupancy.size() - cursor_)
                return nullptr;
            const std::uint8_t *level =
                header_->occupancy.data() + cursor_;
            cursor_ += n;
            return level;
        }
        scratch.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const int byte = next(parent_bytes[i]);
            if (byte < 0)
                return nullptr;
            scratch[i] = static_cast<std::uint8_t>(byte);
        }
        return scratch.data();
    }

    /** True when exactly all bytes were consumed. */
    bool
    exhausted() const
    {
        return decoder_ ? remaining_ == 0
                        : cursor_ == header_->occupancy.size();
    }

  private:
    const ParsedHeader *header_;
    std::size_t cursor_ = 0;
    std::optional<RangeDecoder> decoder_;
    ContextualByteCoder coder_;
    std::size_t remaining_ = 0;
};

/**
 * Reads the header and finds the occupancy bytes: views into
 * `payload`, or into `unpacked`, which receives the order-0 entropy
 * decoder's output.
 */
Expected<ParsedHeader>
parsePayload(ByteSpan payload, std::vector<std::uint8_t> &unpacked)
{
    BitReader reader(payload);
    ParsedHeader header;
    const auto g = reader.readBits(8);
    const auto e = reader.readBits(8);
    const auto o = reader.readBits(8);
    if (g != 'G' || e != 'E' || o != 'O')
        return corruptBitstream("geometry payload: bad magic");
    header.flags = static_cast<std::uint8_t>(reader.readBits(8));
    header.depth = static_cast<int>(reader.readVarint());
    header.num_voxels =
        static_cast<std::size_t>(reader.readVarint());
    EDGEPCC_CHECK_CORRUPT(header.depth >= 1 &&
                              header.depth <= kMaxMortonBitsPerAxis,
                          "geometry payload: bad depth");
    EDGEPCC_CHECK_CORRUPT(header.num_voxels <= kMaxDecodeItems,
                          "geometry payload: implausible voxel count");
    if (header.flags & kFlagTightBbox) {
        header.box.original_depth =
            static_cast<int>(reader.readVarint());
        EDGEPCC_CHECK_CORRUPT(
            header.box.original_depth >= header.depth &&
                header.box.original_depth <= kMaxMortonBitsPerAxis,
            "geometry payload: bad original depth");
        for (int a = 0; a < 3; ++a) {
            header.box.min[a] =
                static_cast<std::uint32_t>(reader.readVarint());
            // The shift-back in decodeGeometry adds box.min to
            // 21-bit Morton components; an unchecked 2^32-scale
            // minimum would wrap std::uint32_t and dodge the grid
            // bound below.
            EDGEPCC_CHECK_CORRUPT(
                header.box.min[a] <
                    (1u << header.box.original_depth),
                "geometry payload: bbox origin outside grid");
        }
    }
    const auto occupancy_size =
        static_cast<std::size_t>(reader.readVarint());
    header.occupancy_size = occupancy_size;
    // Every occupancy byte is one branch node; a stream can never
    // legitimately carry more nodes than leaves it can produce.
    EDGEPCC_CHECK_CORRUPT(occupancy_size <= kMaxDecodeItems * 2,
                          "geometry payload: implausible node count");
    if (header.flags & kFlagEntropy) {
        const ByteSpan packed = reader.readBlock();
        EDGEPCC_CHECK_CORRUPT(!reader.overrun(),
                              "geometry payload: truncated entropy block");
        if (header.flags & kFlagContextual) {
            // Contextual decoding interleaves with expansion.
            header.packed = packed;
        } else {
            auto decoded = entropyDecompress(packed, occupancy_size);
            if (!decoded)
                return decoded.status();
            unpacked = decoded.takeValue();
            header.occupancy = unpacked;
        }
    } else {
        header.occupancy = reader.readBytes(occupancy_size);
        if (reader.overrun())
            return corruptBitstream(
                "geometry payload: truncated occupancy");
    }
    return header;
}

/**
 * Widest level (and largest leaf count) the header allows. Every
 * branch node has at least one child, so no level of a valid tree
 * holds more nodes than its leaves.
 */
std::size_t
maxTreeWidth(const ParsedHeader &header)
{
    return header.num_voxels != 0 ? header.num_voxels
                                  : kMaxDecodeItems;
}

/**
 * Expands BFS occupancy bytes into sorted leaf codes. Each level
 * fetches its bytes, sizes the next level exactly from their
 * popcounts (rejected before allocation when wider than the tree
 * can be), then emits each byte's children in octant order.
 */
Expected<std::vector<std::uint64_t>>
expandBreadthFirst(const ParsedHeader &header)
{
    OccupancyByteSource source(header);
    const bool contextual = header.flags & kFlagContextual;
    const std::size_t max_width = maxTreeWidth(header);
    std::vector<std::uint64_t> codes{0};
    std::vector<std::uint64_t> next_codes;
    // Each node's parent byte: the context of its own byte.
    std::vector<std::uint8_t> parent_bytes{0};
    std::vector<std::uint8_t> decoded;
    for (int level = 0; level < header.depth; ++level) {
        const std::size_t n = codes.size();
        const std::uint8_t *occupancy =
            source.nextLevel(parent_bytes.data(), n, decoded);
        if (occupancy == nullptr)
            return corruptBitstream(
                "geometry payload: occupancy underflow");
        std::size_t children = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (occupancy[i] == 0)
                return corruptBitstream(
                    "geometry payload: empty branch node");
            children += static_cast<std::size_t>(
                std::popcount(occupancy[i]));
        }
        EDGEPCC_CHECK_CORRUPT(
            children <= max_width,
            "geometry payload: level wider than the voxel bound");

        next_codes.resize(children);
        std::uint64_t *out = next_codes.data();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t base = codes[i] << 3;
            for (unsigned bits = occupancy[i]; bits != 0;
                 bits &= bits - 1) {
                *out++ = base | static_cast<std::uint64_t>(
                                    std::countr_zero(bits));
            }
        }
        if (contextual) {
            parent_bytes.resize(children);
            childContexts(occupancy, n, parent_bytes.data());
        }
        codes.swap(next_codes);
    }
    if (!source.exhausted())
        return corruptBitstream(
            "geometry payload: trailing occupancy bytes");
    return codes;
}

/** Expands DFS occupancy bytes into sorted leaf codes. */
Expected<std::vector<std::uint64_t>>
expandDepthFirst(const ParsedHeader &header)
{
    OccupancyByteSource source(header);
    const std::size_t max_leaves = maxTreeWidth(header);
    std::vector<std::uint64_t> leaves;

    struct StackEntry {
        std::uint64_t code;
        int level;
        std::uint8_t parent_byte;
    };
    std::vector<StackEntry> stack{{0, 0, 0}};
    while (!stack.empty()) {
        const StackEntry entry = stack.back();
        stack.pop_back();
        if (entry.level == header.depth) {
            EDGEPCC_CHECK_CORRUPT(
                leaves.size() < max_leaves,
                "geometry payload: more leaves than the voxel bound");
            leaves.push_back(entry.code);
            continue;
        }
        const int bits = source.next(entry.parent_byte);
        if (bits < 0)
            return corruptBitstream(
                "geometry payload: occupancy underflow");
        if (bits == 0)
            return corruptBitstream(
                "geometry payload: empty branch node");
        // Push octants in reverse so they pop in ascending order.
        for (int octant = 7; octant >= 0; --octant) {
            if (bits & (1 << octant)) {
                stack.push_back(
                    {(entry.code << 3) |
                         static_cast<std::uint64_t>(octant),
                     entry.level + 1,
                     static_cast<std::uint8_t>(bits)});
            }
        }
    }
    if (!source.exhausted())
        return corruptBitstream(
            "geometry payload: trailing occupancy bytes");
    return leaves;
}

}  // namespace

Expected<VoxelCloud>
decodeGeometry(ByteSpan payload, WorkRecorder *recorder)
{
    ScopedStage parse_stage(recorder, "geomdec.parse");
    std::vector<std::uint8_t> unpacked;
    auto header = parsePayload(payload, unpacked);
    if (!header)
        return header.status();
    recordKernel(recorder,
                 KernelWork{.name = "geomdec.parse",
                            .resource = ExecResource::kCpuSequential,
                            .invocations = 1,
                            .items = header->occupancy_size,
                            .ops = header->occupancy_size *
                                   ((header->flags & kFlagEntropy)
                                        ? 30u
                                        : 1u),
                            .bytes = payload.size()});

    const bool parallel = header->flags & kFlagBuilderParallel;
    Expected<std::vector<std::uint64_t>> leaves =
        parallel ? expandBreadthFirst(*header)
                 : expandDepthFirst(*header);
    if (!leaves)
        return leaves.status();
    recordKernel(
        recorder,
        KernelWork{.name = "geomdec.expand",
                   .resource = parallel
                                   ? ExecResource::kGpu
                                   : ExecResource::kCpuSequential,
                   .invocations =
                       static_cast<std::uint64_t>(header->depth),
                   .items = header->occupancy_size,
                   .ops = header->occupancy_size * 10,
                   .bytes = header->occupancy_size +
                            leaves->size() * 8});

    if (header->num_voxels != 0 &&
        leaves->size() != header->num_voxels) {
        return corruptBitstream(
            "geometry payload: voxel count mismatch");
    }

    const bool tight = header->flags & kFlagTightBbox;
    // The output cloud lives on the original capture grid; the
    // coded tree may be shallower (cuboid-fitted).
    VoxelCloud cloud(tight ? header->box.original_depth
                           : header->depth);
    cloud.resize(leaves->size());
    const auto &codes = *leaves;
    const std::uint32_t grid_limit = cloud.gridSize();
    // Written concurrently by parallelFor chunks; relaxed is enough
    // (the flag only ever goes false -> true and is read after the
    // implicit join).
    std::atomic<bool> out_of_grid{false};
    const std::uint32_t off_x = tight ? header->box.min[0] : 0;
    const std::uint32_t off_y = tight ? header->box.min[1] : 0;
    const std::uint32_t off_z = tight ? header->box.min[2] : 0;
    std::uint16_t *cloud_x = cloud.mutableX().data();
    std::uint16_t *cloud_y = cloud.mutableY().data();
    std::uint16_t *cloud_z = cloud.mutableZ().data();
    const std::uint64_t *code_ptr = codes.data();
    parallelForChunks(
        0, codes.size(),
        [&](std::size_t lo, std::size_t hi) {
            // Decode in stack tiles so the SIMD batch kernel gets
            // contiguous SoA outputs without a heap round trip.
            constexpr std::size_t kTile = 512;
            std::uint32_t tx[kTile];
            std::uint32_t ty[kTile];
            std::uint32_t tz[kTile];
            for (std::size_t base = lo; base < hi; base += kTile) {
                const std::size_t n = std::min(kTile, hi - base);
                mortonDecodeBatch(code_ptr + base, n, tx, ty, tz);
                for (std::size_t k = 0; k < n; ++k) {
                    const std::uint32_t ox = tx[k] + off_x;
                    const std::uint32_t oy = ty[k] + off_y;
                    const std::uint32_t oz = tz[k] + off_z;
                    if (ox >= grid_limit || oy >= grid_limit ||
                        oz >= grid_limit) {
                        out_of_grid.store(
                            true, std::memory_order_relaxed);
                        continue;
                    }
                    cloud_x[base + k] =
                        static_cast<std::uint16_t>(ox);
                    cloud_y[base + k] =
                        static_cast<std::uint16_t>(oy);
                    cloud_z[base + k] =
                        static_cast<std::uint16_t>(oz);
                }
            }
        });
    if (out_of_grid.load(std::memory_order_relaxed))
        return corruptBitstream(
            "geometry payload: decoded voxel outside grid");
    recordKernel(recorder,
                 KernelWork{.name = "geomdec.dequant",
                            .resource = parallel
                                            ? ExecResource::kGpu
                                            : ExecResource::
                                                  kCpuSequential,
                            .invocations = 1,
                            .items = codes.size(),
                            .ops = codes.size() * 24,
                            .bytes = codes.size() * 14});
    return cloud;
}

}  // namespace edgepcc
