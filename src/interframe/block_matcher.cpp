#include "edgepcc/interframe/block_matcher.h"

#include <algorithm>
#include <cmath>

#include "edgepcc/entropy/bitstream.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/platform/arena.h"
#include "edgepcc/platform/simd.h"

#if EDGEPCC_SIMD_X86
#include <immintrin.h>
#endif

namespace edgepcc {

namespace {

/** Per-block candidate window in the reference frame. */
struct Window {
    std::size_t start = 0;
    std::size_t count = 0;
};

Window
candidateWindow(std::size_t p_block, std::size_t p_blocks,
                std::size_t i_blocks, std::size_t window)
{
    Window w;
    const std::size_t center = static_cast<std::size_t>(
        static_cast<double>(p_block) *
        static_cast<double>(i_blocks) /
        static_cast<double>(std::max<std::size_t>(1, p_blocks)));
    const std::size_t half = window / 2;
    std::size_t start = center > half ? center - half : 0;
    if (start + window > i_blocks)
        start = i_blocks > window ? i_blocks - window : 0;
    w.start = start;
    w.count = std::min(window, i_blocks - start);
    return w;
}

/** Paper Eq. 2 over the first `count` point pairs of two blocks. */
std::uint64_t
blockDiffSquared(const VoxelCloud &p, std::size_t p_begin,
                 const VoxelCloud &i, std::size_t i_begin,
                 std::size_t count)
{
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < count; ++j) {
        const std::int32_t dr =
            static_cast<std::int32_t>(p.r()[p_begin + j]) -
            static_cast<std::int32_t>(i.r()[i_begin + j]);
        const std::int32_t dg =
            static_cast<std::int32_t>(p.g()[p_begin + j]) -
            static_cast<std::int32_t>(i.g()[i_begin + j]);
        const std::int32_t db =
            static_cast<std::int32_t>(p.b()[p_begin + j]) -
            static_cast<std::int32_t>(i.b()[i_begin + j]);
        sum += static_cast<std::uint64_t>(
            dr * dr + dg * dg + db * db);
    }
    return sum;
}

/** Pairs one P-block of `kp` points compares with I-block `ib`:
 *  all of them, unless the I-block is the short last one. */
std::size_t
matchLength(std::size_t kp, std::size_t ib, std::size_t k,
            std::size_t ni)
{
    const std::size_t i_begin = ib * k;
    return std::min(kp, std::min(ni, i_begin + k) - i_begin);
}

/**
 * Scores the P-block [p_begin, p_begin + kp) against every
 * candidate of `window`: sums[c] is blockDiffSquared over the
 * matchLength() pairs of I-block window.start + c. The reference
 * variant.
 */
void
scoreWindowScalar(const VoxelCloud &p, std::size_t p_begin,
                  std::size_t kp, const VoxelCloud &i,
                  std::size_t k, Window window, std::uint64_t *sums)
{
    for (std::size_t c = 0; c < window.count; ++c) {
        const std::size_t ib = window.start + c;
        sums[c] = blockDiffSquared(p, p_begin, i, ib * k,
                                   matchLength(kp, ib, k, i.size()));
    }
}

#if EDGEPCC_SIMD_X86

// The same sums on 16 x i16 lanes. Widened bytes differ by at most
// 255, so each vpmaddwd pair sum and each 32-bit lane total over a
// block of <= 32 pairs (32 * 3 * 255^2 < 2^31) is exact: the sums
// equal the scalar ones, not approximate them.

/** Zero-extends 16 colour bytes to 16 x i16. */
__attribute__((target("avx2"))) inline __m256i
widenAvx2(const std::uint8_t *bytes)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(bytes)));
}

/** Squares of `p - widen(i)` for the lanes in `keep`, as 8 x i32
 *  pair sums. */
__attribute__((target("avx2"))) inline __m256i
squaredDiffAvx2(__m256i p, const std::uint8_t *i, __m256i keep)
{
    const __m256i d =
        _mm256_and_si256(_mm256_sub_epi16(p, widenAvx2(i)), keep);
    return _mm256_madd_epi16(d, d);
}

__attribute__((target("avx2"))) inline std::uint32_t
horizontalSumAvx2(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

/**
 * scoreWindowScalar for 16 <= kp <= 32. Pairs [0, 16) take one
 * load per channel; pairs [16, kp) take one load at kp - 16 that
 * overlaps the first, with the lanes already summed masked off. The
 * P-block is widened once per window. A candidate that is the short
 * last I-block (fewer than kp points) takes the scalar loop.
 */
__attribute__((target("avx2"))) void
scoreWindowAvx2(const VoxelCloud &p, std::size_t p_begin,
                std::size_t kp, const VoxelCloud &i,
                std::size_t k, Window window, std::uint64_t *sums)
{
    const std::size_t tail = kp - 16;
    const __m256i head_r = widenAvx2(p.r().data() + p_begin);
    const __m256i head_g = widenAvx2(p.g().data() + p_begin);
    const __m256i head_b = widenAvx2(p.b().data() + p_begin);
    const __m256i tail_r = widenAvx2(p.r().data() + p_begin + tail);
    const __m256i tail_g = widenAvx2(p.g().data() + p_begin + tail);
    const __m256i tail_b = widenAvx2(p.b().data() + p_begin + tail);
    // Lane j of the tail load is pair tail + j: new once >= 16.
    const __m256i all = _mm256_set1_epi16(-1);
    const __m256i keep_tail = _mm256_cmpgt_epi16(
        _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                          13, 14, 15),
        _mm256_set1_epi16(static_cast<std::int16_t>(15 - tail)));
    for (std::size_t c = 0; c < window.count; ++c) {
        const std::size_t block = window.start + c;
        const std::size_t i_begin = block * k;
        const std::size_t km = matchLength(kp, block, k, i.size());
        if (km != kp) {
            sums[c] = blockDiffSquared(p, p_begin, i, i_begin, km);
            continue;
        }
        const std::uint8_t *r = i.r().data() + i_begin;
        const std::uint8_t *g = i.g().data() + i_begin;
        const std::uint8_t *b = i.b().data() + i_begin;
        __m256i acc = _mm256_add_epi32(
            _mm256_add_epi32(squaredDiffAvx2(head_r, r, all),
                             squaredDiffAvx2(head_g, g, all)),
            squaredDiffAvx2(head_b, b, all));
        if (tail != 0) {
            acc = _mm256_add_epi32(
                acc,
                _mm256_add_epi32(
                    _mm256_add_epi32(
                        squaredDiffAvx2(tail_r, r + tail, keep_tail),
                        squaredDiffAvx2(tail_g, g + tail, keep_tail)),
                    squaredDiffAvx2(tail_b, b + tail, keep_tail)));
        }
        sums[c] = horizontalSumAvx2(acc);
    }
}

#endif  // EDGEPCC_SIMD_X86

/** Dispatches on `level`, read once per encode by the caller. */
void
scoreWindow(SimdLevel level, const VoxelCloud &p, std::size_t p_begin,
            std::size_t kp, const VoxelCloud &i, std::size_t k,
            Window window, std::uint64_t *sums)
{
#if EDGEPCC_SIMD_X86
    if (level >= SimdLevel::kAvx2 && kp >= 16 && kp <= 32) {
        scoreWindowAvx2(p, p_begin, kp, i, k, window, sums);
        return;
    }
#endif
    (void)level;
    scoreWindowScalar(p, p_begin, kp, i, k, window, sums);
}

constexpr const char kMagic[3] = {'I', 'N', 'T'};

}  // namespace

Expected<InterAttrEncoded>
encodeInterAttr(const VoxelCloud &p_sorted,
                const VoxelCloud &i_reference,
                const BlockMatchConfig &config,
                WorkRecorder *recorder)
{
    const std::size_t np = p_sorted.size();
    const std::size_t ni = i_reference.size();
    if (np == 0 || ni == 0)
        return invalidArgument("encodeInterAttr: empty cloud");
    if (config.candidate_window == 0)
        return invalidArgument(
            "encodeInterAttr: candidate_window must be >= 1");

    // Block layouts share the points-per-block K so that block k of
    // each frame covers a comparable spatial span of the sorted
    // order.
    SegmentCodecConfig layout_cfg;
    layout_cfg.num_segments =
        config.num_blocks != 0
            ? config.num_blocks
            : static_cast<std::uint32_t>(
                  std::max<std::size_t>(1, np / 16));
    const SegmentLayout p_layout = makeSegmentLayout(np, layout_cfg);
    const std::size_t k = p_layout.points_per_segment;
    const std::size_t i_blocks = (ni + k - 1) / k;
    const std::size_t p_blocks = p_layout.num_segments;

    InterAttrEncoded result;
    result.stats.num_blocks =
        static_cast<std::uint32_t>(p_blocks);

    std::vector<std::uint32_t> best_offset(p_blocks, 0);
    std::vector<std::uint8_t> reuse_flag(p_blocks, 0);

    std::uint64_t total_comparisons = 0;
    std::uint64_t reused_points = 0;

    {
        ScopedStage stage(recorder, "inter.match");
        // One Eq.-2 sum per candidate of the current window; no
        // window holds more candidates than there are I-blocks.
        const std::size_t max_window = std::min<std::size_t>(
            config.candidate_window, i_blocks);
        FrameArena *arena = currentFrameArena();
        std::vector<std::uint64_t> sums_heap;
        std::uint64_t *sums = nullptr;
        if (arena != nullptr) {
            sums = arena->allocateArray<std::uint64_t>(max_window);
        } else {
            sums_heap.resize(max_window);
            sums = sums_heap.data();
        }
        const SimdLevel level = activeSimdLevel();
        for (std::size_t pb = 0; pb < p_blocks; ++pb) {
            const std::size_t p_begin = p_layout.begin(
                static_cast<std::uint32_t>(pb));
            const std::size_t p_end = p_layout.end(
                static_cast<std::uint32_t>(pb), np);
            const std::size_t kp = p_end - p_begin;

            const Window window = candidateWindow(
                pb, p_blocks, i_blocks, config.candidate_window);
            scoreWindow(level, p_sorted, p_begin, kp, i_reference, k,
                        window, sums);

            std::uint64_t best_diff = 0;
            std::uint32_t best = 0;
            std::size_t best_km = 1;
            bool have_best = false;
            for (std::size_t c = 0; c < window.count; ++c) {
                const std::size_t km =
                    matchLength(kp, window.start + c, k, ni);
                if (km == 0)
                    continue;
                const std::uint64_t diff = sums[c];
                total_comparisons += km;
                // Normalize per point so short tail blocks compare
                // fairly against full-size ones.
                if (!have_best ||
                    diff * best_km < best_diff * km) {
                    best_diff = diff;
                    best = static_cast<std::uint32_t>(c);
                    best_km = km;
                    have_best = true;
                }
            }
            if (!have_best)
                best_diff = ~std::uint64_t{0} / 2;
            best_offset[pb] = best;
            const double per_point =
                static_cast<double>(best_diff) /
                static_cast<double>(best_km);
            if (per_point <= config.reuse_threshold) {
                reuse_flag[pb] = 1;
                ++result.stats.reused_blocks;
                reused_points += kp;
            } else {
                result.stats.delta_points += kp;
            }
        }

        recordKernel(
            recorder,
            KernelWork{.name = "bm.diff_squared",
                       .resource = ExecResource::kGpu,
                       // All block pairs are scored by one batched
                       // kernel launch on device.
                       .invocations = 1,
                       .items = total_comparisons,
                       .ops = total_comparisons * 9,
                       .bytes = total_comparisons * 6});
        recordKernel(
            recorder,
            KernelWork{.name = "bm.squared_sum",
                       .resource = ExecResource::kGpu,
                       .invocations = 1,
                       .items = total_comparisons,
                       .ops = total_comparisons,
                       .bytes = total_comparisons * 8});
        recordKernel(
            recorder,
            KernelWork{.name = "bm.argmin",
                       .resource = ExecResource::kGpu,
                       .invocations = 1,
                       .items = p_blocks * config.candidate_window,
                       .ops = p_blocks * config.candidate_window * 2,
                       .bytes = p_blocks * config.candidate_window *
                                8});
    }

    // Delta extraction for non-reused blocks.
    AttrChannels deltas;
    {
        ScopedStage stage(recorder, "inter.delta");
        for (auto &channel : deltas)
            channel.reserve(result.stats.delta_points);
        for (std::size_t pb = 0; pb < p_blocks; ++pb) {
            if (reuse_flag[pb])
                continue;
            const std::size_t p_begin = p_layout.begin(
                static_cast<std::uint32_t>(pb));
            const std::size_t p_end = p_layout.end(
                static_cast<std::uint32_t>(pb), np);
            const Window window = candidateWindow(
                pb, p_blocks, i_blocks, config.candidate_window);
            const std::size_t ib = window.start + best_offset[pb];
            const std::size_t i_begin = ib * k;
            const std::size_t i_last =
                std::min(ni, i_begin + k) - 1;
            for (std::size_t j = 0; j < p_end - p_begin; ++j) {
                const std::size_t src =
                    std::min(i_begin + j, i_last);
                deltas[0].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.r()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.r()[src]));
                deltas[1].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.g()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.g()[src]));
                deltas[2].push_back(
                    static_cast<std::int32_t>(
                        p_sorted.b()[p_begin + j]) -
                    static_cast<std::int32_t>(
                        i_reference.b()[src]));
            }
        }
        // Address generation: every delta point's output slot comes
        // from a prefix sum over block sizes (Fig. 9's 32% stage).
        recordKernel(
            recorder,
            KernelWork{.name = "bm.address_gen",
                       .resource = ExecResource::kGpu,
                       .invocations = 2,
                       .items = p_blocks + result.stats.delta_points,
                       .ops = p_blocks * 8 +
                              result.stats.delta_points * 4,
                       .bytes = result.stats.delta_points * 12 +
                                p_blocks * 8});
        recordKernel(recorder,
                     KernelWork{.name = "bm.reuse_copy",
                                .resource = ExecResource::kGpu,
                                .invocations = 1,
                                .items = reused_points,
                                .ops = reused_points * 2,
                                .bytes = reused_points * 6});
    }

    // Encode the deltas as "new attributes" (paper Sec. VI-B).
    std::vector<std::uint8_t> delta_payload;
    if (result.stats.delta_points > 0) {
        auto encoded =
            encodeSegmentAttr(deltas, config.delta_codec, recorder);
        if (!encoded)
            return encoded.status();
        delta_payload = encoded.takeValue();
    }

    // Assemble the stream.
    ScopedStage stage(recorder, "inter.assemble");
    BitWriter writer;
    writer.writeBits(static_cast<std::uint8_t>(kMagic[0]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[1]), 8);
    writer.writeBits(static_cast<std::uint8_t>(kMagic[2]), 8);
    writer.writeVarint(np);
    writer.writeVarint(p_blocks);
    writer.writeVarint(k);
    writer.writeVarint(config.candidate_window);
    const int ptr_bits =
        std::max(1, bitWidth(config.candidate_window - 1));
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        writer.writeBits(reuse_flag[pb], 1);
        writer.writeBits(best_offset[pb], ptr_bits);
    }
    writer.writeBlock(delta_payload);
    result.payload = writer.take();
    return result;
}

Status
decodeInterAttrInto(ByteSpan payload, const VoxelCloud &i_reference,
                    VoxelCloud &p_cloud, WorkRecorder *recorder)
{
    const std::size_t np = p_cloud.size();
    const std::size_t ni = i_reference.size();
    if (np == 0 || ni == 0)
        return invalidArgument("decodeInterAttrInto: empty cloud");

    BitReader reader(payload);
    if (reader.readBits(8) != 'I' || reader.readBits(8) != 'N' ||
        reader.readBits(8) != 'T') {
        return corruptBitstream("inter payload: bad magic");
    }
    const std::size_t n_stored =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t p_blocks =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t k =
        static_cast<std::size_t>(reader.readVarint());
    const std::size_t window_size =
        static_cast<std::size_t>(reader.readVarint());
    if (reader.overrun() || p_blocks == 0 || k == 0 ||
        window_size == 0)
        return corruptBitstream("inter payload: bad header");
    if (n_stored != np)
        return corruptBitstream(
            "inter payload: point count mismatch with geometry");
    // The encoder always writes k <= np and p_blocks == ceil(np / k);
    // checked before p_blocks sizes the per-block arrays below.
    if (k > np || p_blocks != np / k + (np % k != 0 ? 1 : 0))
        return corruptBitstream(
            "inter payload: block layout mismatch with geometry");

    const std::size_t i_blocks = (ni + k - 1) / k;
    const int ptr_bits = std::max(
        1, bitWidth(static_cast<std::uint64_t>(window_size) - 1));

    std::vector<std::uint8_t> reuse_flag(p_blocks);
    std::vector<std::uint32_t> best_offset(p_blocks);
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        reuse_flag[pb] =
            static_cast<std::uint8_t>(reader.readBits(1));
        best_offset[pb] =
            static_cast<std::uint32_t>(reader.readBits(ptr_bits));
    }
    const ByteSpan delta_payload = reader.readBlock();
    if (reader.overrun())
        return corruptBitstream("inter payload: truncated");

    AttrChannels deltas;
    if (!delta_payload.empty()) {
        auto decoded = decodeSegmentAttr(delta_payload, recorder);
        if (!decoded)
            return decoded.status();
        deltas = decoded.takeValue();
    }

    ScopedStage stage(recorder, "interdec.reconstruct");
    std::size_t delta_cursor = 0;
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        const std::size_t p_begin = pb * k;
        const std::size_t p_end = std::min(np, p_begin + k);
        const Window window = candidateWindow(
            pb, p_blocks, i_blocks, window_size);
        const std::size_t ib = window.start + best_offset[pb];
        if (ib >= i_blocks)
            return corruptBitstream(
                "inter payload: match pointer out of range");
        const std::size_t i_begin = ib * k;
        const std::size_t i_last = std::min(ni, i_begin + k) - 1;
        for (std::size_t j = 0; j < p_end - p_begin; ++j) {
            const std::size_t src = std::min(i_begin + j, i_last);
            std::int32_t r = i_reference.r()[src];
            std::int32_t g = i_reference.g()[src];
            std::int32_t b = i_reference.b()[src];
            if (!reuse_flag[pb]) {
                if (delta_cursor >= deltas[0].size())
                    return corruptBitstream(
                        "inter payload: delta stream exhausted");
                r += deltas[0][delta_cursor];
                g += deltas[1][delta_cursor];
                b += deltas[2][delta_cursor];
                ++delta_cursor;
            }
            p_cloud.mutableR()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(r, 0, 255));
            p_cloud.mutableG()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(g, 0, 255));
            p_cloud.mutableB()[p_begin + j] =
                static_cast<std::uint8_t>(std::clamp(b, 0, 255));
        }
    }
    recordKernel(recorder,
                 KernelWork{.name = "interdec.reconstruct",
                            .resource = ExecResource::kGpu,
                            .invocations = 1,
                            .items = np,
                            .ops = np * 8,
                            .bytes = np * 12});
    return Status::ok();
}

void
concealAttrFromReference(const VoxelCloud &reference,
                         VoxelCloud &cloud)
{
    const std::size_t n = cloud.size();
    if (reference.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            cloud.setColor(i, Color{128, 128, 128});
        return;
    }
    // Both clouds are Morton-sorted, so the nearest voxel *in sorted
    // order* is spatially close with high probability — the same
    // locality the block matcher's candidate window exploits. Binary
    // search per point keeps this O(n log m) with no scratch state.
    std::vector<std::uint64_t> ref_codes(reference.size());
    mortonEncodeBatch(reference.x().data(), reference.y().data(),
                      reference.z().data(), reference.size(),
                      ref_codes.data());
    std::vector<std::uint64_t> codes(n);
    mortonEncodeBatch(cloud.x().data(), cloud.y().data(),
                      cloud.z().data(), n, codes.data());
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t code = codes[i];
        const auto it = std::lower_bound(ref_codes.begin(),
                                         ref_codes.end(), code);
        std::size_t best =
            it == ref_codes.end()
                ? ref_codes.size() - 1
                : static_cast<std::size_t>(it -
                                           ref_codes.begin());
        if (best > 0 && (it == ref_codes.end() ||
                         code - ref_codes[best - 1] <
                             ref_codes[best] - code))
            --best;
        cloud.setColor(i, reference.color(best));
    }
}

}  // namespace edgepcc
