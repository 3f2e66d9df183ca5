/**
 * @file
 * Carry-aware byte-oriented range coder with adaptive models.
 *
 * This is the "Entropy Encoding" stage of the baseline pipelines
 * (paper Fig. 4a/4b): the TMC13-like codec runs occupancy bytes and
 * quantized RAHT coefficients through it, and the proposed codec can
 * optionally enable it (paper Sec. IV-B3 measures that trade-off).
 *
 * The implementation is the classic LZMA-style encoder (64-bit low
 * with carry cache) paired with a Subbotin-style decoder, plus a
 * Fenwick-tree adaptive 256-ary byte model.
 */

#ifndef EDGEPCC_ENTROPY_RANGE_CODER_H
#define EDGEPCC_ENTROPY_RANGE_CODER_H

#include <array>
#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/entropy/bitstream.h"

namespace edgepcc {

/** Range encoder emitting into a caller-owned byte vector. */
class RangeEncoder
{
  public:
    explicit RangeEncoder(std::vector<std::uint8_t> &out)
        : out_(&out)
    {
    }

    /**
     * Encodes a symbol occupying [cum, cum + freq) of [0, total).
     * total must be <= kMaxTotal and freq >= 1.
     */
    void encodeSpan(std::uint32_t cum, std::uint32_t freq,
                    std::uint32_t total);

    /** Flushes the final bytes; the encoder is dead afterwards. */
    void finish();

    static constexpr std::uint32_t kMaxTotal = 1u << 16;

  private:
    void shiftLow();

    std::vector<std::uint8_t> *out_;
    std::uint64_t low_ = 0;
    std::uint32_t range_ = 0xffffffffu;
    std::uint8_t cache_ = 0;
    std::uint64_t cache_size_ = 1;
};

/** Matching range decoder over a read-only byte buffer. */
class RangeDecoder
{
  public:
    explicit RangeDecoder(ByteSpan bytes);

    /** The decoder only borrows the buffer; a temporary would
     *  dangle. */
    explicit RangeDecoder(std::vector<std::uint8_t> &&) = delete;

    /**
     * Returns the scaled cumulative value in [0, total); the caller
     * looks up which symbol's [cum, cum+freq) contains it, then calls
     * decodeSpan with that interval.
     */
    std::uint32_t decodeGetValue(std::uint32_t total);

    void decodeSpan(std::uint32_t cum, std::uint32_t freq);

    /** True once the decoder consumed past the end (corrupt data). */
    bool overrun() const { return overrun_; }

    Status
    status() const
    {
        return overrun_ ? corruptBitstream("range decoder overrun")
                        : Status::ok();
    }

  private:
    std::uint8_t nextByte();
    void normalize();

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::uint32_t range_ = 0xffffffffu;
    std::uint32_t code_ = 0;
    bool overrun_ = false;
};

/**
 * Adaptive order-0 model over bytes, backed by a Fenwick tree so
 * both cumulative lookups and symbol-from-cumulative searches are
 * O(log 256).
 */
class AdaptiveByteModel
{
  public:
    AdaptiveByteModel();

    void encode(RangeEncoder &encoder, std::uint8_t symbol);
    std::uint8_t decode(RangeDecoder &decoder);

  private:
    std::uint32_t cumFreq(int symbol) const;  ///< sum of freq[0..symbol)
    int symbolFromCum(std::uint32_t cum) const;
    void update(int symbol);
    void rescale();

    std::array<std::uint32_t, 257> tree_{};  ///< 1-based Fenwick
    std::uint32_t total_ = 0;

    static constexpr std::uint32_t kIncrement = 24;
    static constexpr std::uint32_t kRescaleLimit = 1u << 15;
};

/**
 * Context-conditioned occupancy coder for octree streams.
 *
 * TMC13 codes each occupancy byte under contexts derived from the
 * already-decoded neighbourhood. This implementation keeps one
 * adaptive byte model per parent-density bucket: a node whose
 * parent is sparse (few children) draws its occupancy from a very
 * different distribution than one inside a dense region, and
 * separating the models recovers that mutual information. The
 * encoder pairs this with a per-payload mode decision against the
 * order-0 model, so enabling it can never hurt.
 */
class ContextualByteCoder
{
  public:
    static constexpr int kParentBuckets = 3;

    /** Parent-density bucket: 0 = sparse (0-2 children),
     *  1 = medium (3-5), 2 = dense (6-8). */
    static int parentBucket(std::uint8_t parent_byte);

    void encode(RangeEncoder &encoder, std::uint8_t parent_byte,
                std::uint8_t symbol);
    std::uint8_t decode(RangeDecoder &decoder,
                        std::uint8_t parent_byte);

  private:
    AdaptiveByteModel models_[kParentBuckets];
};

/** Convenience: entropy-encodes a whole buffer with an order-0
 *  adaptive byte model. */
std::vector<std::uint8_t> entropyCompress(
    const std::vector<std::uint8_t> &input);

/** Inverse of entropyCompress; `output_size` must be known (EdgePCC
 *  streams carry it in their headers). */
Expected<std::vector<std::uint8_t>> entropyDecompress(
    ByteSpan input, std::size_t output_size);

}  // namespace edgepcc

#endif  // EDGEPCC_ENTROPY_RANGE_CODER_H
