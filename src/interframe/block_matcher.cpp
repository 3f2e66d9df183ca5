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

/** Candidates the vector window score takes per step. */
constexpr std::size_t kGroup = 16;

/**
 * Largest K the vector window score takes. Its sums are exact far
 * beyond this (a 32-bit lane holds at most 3 * 255^2 * K, below
 * 2^31 for K <= 11008); 64 keeps the packed P-block on the stack
 * and covers every automatic layout, which has K <= 31.
 */
constexpr std::size_t kMaxVectorK = 64;

/** Rows of the candidate-major layout at K points per block: K
 *  red/green rows, then ceil(K / 2) blue-pair rows. */
constexpr std::size_t
candidateRowCount(std::size_t k)
{
    return k + (k + 1) / 2;
}

/**
 * The I-frame reference in candidate-major order, for the vector
 * window score. Every row holds one u32 word per I-block, two i16
 * lanes each:
 *  - row j < K: point j, red in the low lane, green in the high;
 *  - row K + jj: blue of points 2jj (low) and 2jj + 1 (high, 0 when
 *    2jj + 1 == K).
 * A row has `stride` = I-blocks + kGroup words, zero past the data,
 * so a group of kGroup candidates never reads outside its row. The
 * short last I-block's missing points read as zero too, so its sum
 * is wrong and the caller rescores it. About 6 B per reference
 * point. Empty (`words` null) when the vector path is off.
 */
struct CandidateRows {
    const std::uint32_t *words = nullptr;
    std::size_t stride = 0;
    std::size_t count = 0;
};

#if EDGEPCC_SIMD_X86

/**
 * Writes the block of `n` <= K points at `begin` as one column of
 * the CandidateRows layout: word `row` goes to out[row * step], and
 * points n..K-1 read as zero.
 */
void
packColumn(const VoxelCloud &cloud, std::size_t begin, std::size_t n,
           std::size_t k, std::uint32_t *out, std::size_t step)
{
    const std::uint8_t *r = cloud.r().data() + begin;
    const std::uint8_t *g = cloud.g().data() + begin;
    const std::uint8_t *b = cloud.b().data() + begin;
    const auto lane = [&](const std::uint8_t *channel,
                          std::size_t j) -> std::uint32_t {
        return j < n ? channel[j] : 0u;
    };
    for (std::size_t j = 0; j < k; ++j)
        out[j * step] = lane(r, j) | lane(g, j) << 16;
    for (std::size_t jj = 0; jj < (k + 1) / 2; ++jj)
        out[(k + jj) * step] =
            lane(b, 2 * jj) | lane(b, 2 * jj + 1) << 16;
}

/** Transposes `i` into CandidateRows: one packColumn per I-block,
 *  then kGroup zero words closing every row. */
CandidateRows
transposeReference(const VoxelCloud &i, std::size_t k,
                   FrameArena *arena,
                   std::vector<std::uint32_t> &heap)
{
    const std::size_t ni = i.size();
    const std::size_t i_blocks = (ni + k - 1) / k;
    CandidateRows rows;
    rows.stride = i_blocks + kGroup;
    rows.count = candidateRowCount(k);
    std::uint32_t *words =
        scratchArray(arena, heap, rows.count * rows.stride);
    for (std::size_t ib = 0; ib < i_blocks; ++ib) {
        const std::size_t begin = ib * k;
        packColumn(i, begin, std::min(k, ni - begin), k, words + ib,
                   rows.stride);
    }
    for (std::size_t row = 0; row < rows.count; ++row) {
        std::uint32_t *pad = words + row * rows.stride + i_blocks;
        std::fill(pad, pad + kGroup, 0u);
    }
    rows.words = words;
    return rows;
}

/**
 * scoreWindowScalar for a full P-block (kp == K <= kMaxVectorK),
 * kGroup candidates per step from `rows`. The P-block is packed
 * like one I-block column and each of its words is broadcast; per
 * row, `vpsubw`, `vpmaddwd` and `vpaddd` feed two 8 x u32
 * accumulators, with no widening and no horizontal add. The sums
 * are exact (kMaxVectorK). Writes whole groups, so `sums` holds the
 * window's count rounded up to kGroup. The short last I-block's
 * sum includes its zero padding; the dispatcher rescores it.
 */
__attribute__((target("avx2"))) void
scoreCandidateRowsAvx2(const CandidateRows &rows,
                       const VoxelCloud &p, std::size_t p_begin,
                       std::size_t k, Window window,
                       std::uint64_t *sums)
{
    std::uint32_t packed[candidateRowCount(kMaxVectorK)];
    packColumn(p, p_begin, k, k, packed, 1);
    for (std::size_t c = 0; c < window.count; c += kGroup) {
        const std::uint32_t *group = rows.words + window.start + c;
        __m256i lo = _mm256_setzero_si256();
        __m256i hi = _mm256_setzero_si256();
        for (std::size_t row = 0; row < rows.count;
             ++row, group += rows.stride) {
            const __m256i pw =
                _mm256_set1_epi32(static_cast<int>(packed[row]));
            const __m256i d_lo = _mm256_sub_epi16(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(group)),
                pw);
            const __m256i d_hi = _mm256_sub_epi16(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(group + 8)),
                pw);
            lo = _mm256_add_epi32(lo, _mm256_madd_epi16(d_lo, d_lo));
            hi = _mm256_add_epi32(hi, _mm256_madd_epi16(d_hi, d_hi));
        }
        __m256i *out = reinterpret_cast<__m256i *>(sums + c);
        _mm256_storeu_si256(
            out, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(lo)));
        _mm256_storeu_si256(
            out + 1,
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(lo, 1)));
        _mm256_storeu_si256(
            out + 2,
            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(hi)));
        _mm256_storeu_si256(
            out + 3,
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(hi, 1)));
    }
}

#endif  // EDGEPCC_SIMD_X86

/** Dispatches on `rows`, which exist only when the active level
 *  reaches AVX2 and K <= kMaxVectorK. The short last P-block stays
 *  scalar. */
void
scoreWindow(const CandidateRows &rows, const VoxelCloud &p,
            std::size_t p_begin, std::size_t kp, const VoxelCloud &i,
            std::size_t k, Window window, std::uint64_t *sums)
{
#if EDGEPCC_SIMD_X86
    if (rows.words != nullptr && kp == k) {
        scoreCandidateRowsAvx2(rows, p, p_begin, k, window, sums);
        const std::size_t last = window.start + window.count - 1;
        const std::size_t km = matchLength(kp, last, k, i.size());
        if (km != kp)  // the short last I-block: drop its padding
            sums[window.count - 1] =
                blockDiffSquared(p, p_begin, i, last * k, km);
        return;
    }
#endif
    (void)rows;
    scoreWindowScalar(p, p_begin, kp, i, k, window, sums);
}

/** One P-block's entry in the match plan. */
struct BlockMatch {
    std::uint64_t sum = 0;     ///< the chosen I-block's Eq.-2 sum
    std::uint32_t offset = 0;  ///< chosen I-block, from window.start
    std::uint32_t km = 1;      ///< pairs `sum` covers (<= K, a u32)
};

/**
 * The per-point rule of perPointMinimum when every candidate has
 * km == kp: diff * kp < best * kp is diff < best, so the first
 * minimum wins. One min pass, then one find pass.
 */
BlockMatch
firstMinimum(const std::uint64_t *sums, std::size_t count,
             std::size_t kp)
{
    std::uint64_t least = sums[0];
    for (std::size_t c = 1; c < count; ++c)
        least = std::min(least, sums[c]);
    const auto offset = std::find(sums, sums + count, least) - sums;
    return {least, static_cast<std::uint32_t>(offset),
            static_cast<std::uint32_t>(kp)};
}

/** The candidate with the least sum per compared point, the first
 *  on ties; for windows that hold the short last I-block. */
BlockMatch
perPointMinimum(const std::uint64_t *sums, Window window,
                std::size_t kp, std::size_t k, std::size_t ni)
{
    BlockMatch best{sums[0], 0,
                    static_cast<std::uint32_t>(
                        matchLength(kp, window.start, k, ni))};
    for (std::size_t c = 1; c < window.count; ++c) {
        const std::size_t km =
            matchLength(kp, window.start + c, k, ni);
        // Normalize per point so short tail blocks compare fairly
        // against full-size ones.
        if (sums[c] * best.km < best.sum * km)
            best = {sums[c], static_cast<std::uint32_t>(c),
                    static_cast<std::uint32_t>(km)};
    }
    return best;
}

/**
 * Fills plan[pb] with P-block pb's best match in its candidate
 * window of I-blocks of `i` (K points each); returns the point
 * pairs scored, the count the bm.* records price. At AVX2 and
 * K <= kMaxVectorK the reference is first transposed into
 * CandidateRows.
 */
std::uint64_t
planMatches(const VoxelCloud &p, const SegmentLayout &p_layout,
            const VoxelCloud &i, std::uint32_t window_size,
            BlockMatch *plan)
{
    const std::size_t np = p.size();
    const std::size_t ni = i.size();
    const std::size_t k = p_layout.points_per_segment;
    const std::size_t i_blocks = (ni + k - 1) / k;
    const std::size_t p_blocks = p_layout.num_segments;
    FrameArena *arena = currentFrameArena();
    // One Eq.-2 sum per candidate of the current window, in whole
    // vector groups; no window holds more candidates than there
    // are I-blocks.
    const std::size_t max_window =
        std::min<std::size_t>(window_size, i_blocks);
    std::vector<std::uint64_t> sums_heap;
    std::uint64_t *sums = scratchArray(
        arena, sums_heap, (max_window + kGroup - 1) / kGroup * kGroup);
    CandidateRows rows;
    std::vector<std::uint32_t> rows_heap;
#if EDGEPCC_SIMD_X86
    if (activeSimdLevel() >= SimdLevel::kAvx2 && k <= kMaxVectorK)
        rows = transposeReference(i, k, arena, rows_heap);
#endif

    std::uint64_t comparisons = 0;
    for (std::size_t pb = 0; pb < p_blocks; ++pb) {
        const auto block = static_cast<std::uint32_t>(pb);
        const std::size_t p_begin = p_layout.begin(block);
        const std::size_t kp = p_layout.end(block, np) - p_begin;
        const Window window =
            candidateWindow(pb, p_blocks, i_blocks, window_size);
        scoreWindow(rows, p, p_begin, kp, i, k, window, sums);
        // Only the last I-block can be short.
        const std::size_t km_last = matchLength(
            kp, window.start + window.count - 1, k, ni);
        comparisons += (window.count - 1) * kp + km_last;
        plan[pb] = km_last == kp
                       ? firstMinimum(sums, window.count, kp)
                       : perPointMinimum(sums, window, kp, k, ni);
    }
    return comparisons;
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

    // The plan outlives the match stage and stays on the heap: next
    // to the candidate rows in the frame arena, it would need one
    // more 1 MB arena block at 100k points.
    std::vector<BlockMatch> plan(p_blocks);
    std::vector<std::uint8_t> reuse_flag(p_blocks, 0);
    std::uint64_t reused_points = 0;

    {
        ScopedStage stage(recorder, "inter.match");
        const std::uint64_t total_comparisons = planMatches(
            p_sorted, p_layout, i_reference, config.candidate_window,
            plan.data());
        for (std::size_t pb = 0; pb < p_blocks; ++pb) {
            const std::size_t kp =
                p_layout.end(static_cast<std::uint32_t>(pb), np) -
                p_layout.begin(static_cast<std::uint32_t>(pb));
            const double per_point =
                static_cast<double>(plan[pb].sum) /
                static_cast<double>(plan[pb].km);
            reuse_flag[pb] = per_point <= config.reuse_threshold;
            if (reuse_flag[pb]) {
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
            const std::size_t ib = window.start + plan[pb].offset;
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
        writer.writeBits(plan[pb].offset, ptr_bits);
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
