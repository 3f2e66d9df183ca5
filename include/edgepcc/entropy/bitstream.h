/**
 * @file
 * Bit-granular serialization used by the fixed-width packers (the
 * proposed codec's quantized deltas, reuse pointers, headers).
 */

#ifndef EDGEPCC_ENTROPY_BITSTREAM_H
#define EDGEPCC_ENTROPY_BITSTREAM_H

#include <cstdint>
#include <vector>

#include "edgepcc/common/status.h"

namespace edgepcc {

/** Accumulates bits LSB-first into a byte vector. */
class BitWriter
{
  public:
    /** Appends the low `count` bits of `value` (count in [0, 64]). */
    void writeBits(std::uint64_t value, int count);

    /** Pads with zero bits to the next byte boundary. */
    void alignToByte();

    /** Appends whole bytes (implies alignToByte()). */
    void writeBytes(const std::uint8_t *data, std::size_t size);

    /** Unsigned LEB128. */
    void writeVarint(std::uint64_t value);

    /** Zigzag-mapped signed LEB128. */
    void writeSignedVarint(std::int64_t value);

    std::size_t bitCount() const { return bytes_.size() * 8 - (8 - fill_) % 8; }

    /** Finalizes (aligns) and returns the buffer. */
    std::vector<std::uint8_t> take();

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    int fill_ = 8;  ///< bits already used in the last byte (8 = full)
};

/** Reads bits LSB-first from a byte buffer. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit BitReader(const std::vector<std::uint8_t> &bytes)
        : BitReader(bytes.data(), bytes.size())
    {
    }

    /** The reader only borrows the buffer; a temporary would
     *  dangle. */
    explicit BitReader(std::vector<std::uint8_t> &&) = delete;

    /** Reads `count` bits; sets the overrun flag past the end. */
    std::uint64_t readBits(int count);

    /** Skips to the next byte boundary. */
    void alignToByte();

    std::uint64_t readVarint();
    std::int64_t readSignedVarint();

    /** True once any read went past the buffer end. */
    bool overrun() const { return overrun_; }

    /** Bytes fully or partially consumed so far. */
    std::size_t byteOffset() const { return byte_; }

    /**
     * True when `n` more bytes follow byteOffset(). Exact for any
     * `n`: a length prefix read from hostile bytes near 2^64 cannot
     * wrap the test the way `byteOffset() + n <= size` does.
     */
    bool hasBytes(std::size_t n) const { return n <= size_ - byte_; }

    Status
    status() const
    {
        return overrun_ ? corruptBitstream("bit reader overrun")
                        : Status::ok();
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t byte_ = 0;
    int bit_ = 0;
    bool overrun_ = false;
};

/** Zigzag mapping: 0,-1,1,-2,... -> 0,1,2,3,... */
inline std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Bits needed to represent `value` (0 -> 0 bits). */
int bitWidth(std::uint64_t value);

}  // namespace edgepcc

#endif  // EDGEPCC_ENTROPY_BITSTREAM_H
