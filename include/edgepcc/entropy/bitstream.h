/**
 * @file
 * Bit-granular serialization used by the fixed-width packers (the
 * proposed codec's quantized deltas, reuse pointers, headers).
 *
 * Layout: bits are packed LSB-first, so bit i of the stream is bit
 * (i % 8) of byte (i / 8). Both classes move a 64-bit word at a
 * time on their fast paths; the bytes produced and consumed are
 * exactly those of a bit-at-a-time loop (tests/test_bitstream.cpp
 * keeps that loop as the reference model).
 */

#ifndef EDGEPCC_ENTROPY_BITSTREAM_H
#define EDGEPCC_ENTROPY_BITSTREAM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "edgepcc/common/status.h"

namespace edgepcc {

/** Read-only view of bytes owned elsewhere. */
using ByteSpan = std::span<const std::uint8_t>;

/** Accumulates bits LSB-first into a byte vector. */
class BitWriter
{
  public:
    /** Appends the low `count` bits of `value` (count in [0, 64]). */
    void
    writeBits(std::uint64_t value, int count)
    {
        assert(count >= 0 && count <= 64);
        if (count < 64)
            value &= (std::uint64_t{1} << count) - 1;
        const int used = pending_;
        word_ |= value << used;
        pending_ = used + count;
        if (pending_ >= 64) {
            appendWord(word_);
            pending_ -= 64;
            // The bits of `value` that did not fit; none when the
            // word was empty (count was then exactly 64).
            word_ = used == 0 ? 0 : value >> (64 - used);
        }
    }

    /** Pads with zero bits to the next byte boundary. */
    void alignToByte();

    /** Appends whole bytes (implies alignToByte()). */
    void writeBytes(const std::uint8_t *data, std::size_t size);

    /** A length-prefixed block: the varint length, then the bytes
     *  (writeBytes). BitReader::readBlock reads it back. */
    void
    writeBlock(ByteSpan bytes)
    {
        writeVarint(bytes.size());
        writeBytes(bytes.data(), bytes.size());
    }

    /** Unsigned LEB128. */
    void writeVarint(std::uint64_t value);

    /** Zigzag-mapped signed LEB128. */
    void writeSignedVarint(std::int64_t value);

    /** Finalizes (aligns) and returns the buffer. */
    std::vector<std::uint8_t> take();

  private:
    void appendWord(std::uint64_t word);

    std::vector<std::uint8_t> bytes_;
    std::uint64_t word_ = 0;  ///< pending bits, LSB first
    int pending_ = 0;         ///< valid bits in word_, in [0, 63]
};

/** Reads bits LSB-first from a byte buffer. */
class BitReader
{
  public:
    explicit BitReader(ByteSpan bytes)
        : data_(bytes.data()), size_(bytes.size())
    {
    }

    /** The reader only borrows the buffer; a temporary would
     *  dangle. */
    explicit BitReader(std::vector<std::uint8_t> &&) = delete;

    /**
     * Reads `count` bits (count in [0, 64]); sets the overrun flag
     * past the end and then returns the bits that were there. A
     * read of at most 56 bits with 8 bytes left is one word load;
     * every other read takes the byte loop.
     */
    std::uint64_t
    readBits(int count)
    {
        assert(count >= 0 && count <= 64);
        if (count > 56 || size_ - byte_ < 8)
            return readBitsTail(count);
        const std::uint64_t value =
            (loadWord(data_ + byte_) >> bit_) &
            ((std::uint64_t{1} << count) - 1);
        const int end = bit_ + count;
        byte_ += static_cast<std::size_t>(end >> 3);
        bit_ = end & 7;
        return value;
    }

    /** Skips to the next byte boundary. */
    void alignToByte();

    /**
     * The next `n` bytes after a skip to the byte boundary, as a
     * view into the reader's buffer (valid while that buffer
     * lives). The bounds test is exact for any `n`, so a hostile
     * length prefix near 2^64 cannot wrap it. Past the end it
     * returns an empty view, clamps to the end and sets the overrun
     * flag.
     */
    ByteSpan readBytes(std::uint64_t n);

    /** A block written by BitWriter::writeBlock. */
    ByteSpan readBlock() { return readBytes(readVarint()); }

    std::uint64_t readVarint();
    std::int64_t readSignedVarint();

    /** True once any read went past the buffer end. */
    bool overrun() const { return overrun_; }

    /** Bytes fully or partially consumed so far. */
    std::size_t byteOffset() const { return byte_; }

    Status
    status() const
    {
        return overrun_ ? corruptBitstream("bit reader overrun")
                        : Status::ok();
    }

  private:
    /** Little-endian 8-byte load. Written out byte by byte so it is
     *  portable; GCC and Clang fold it into one load on
     *  little-endian targets (a loop form is not folded). */
    static std::uint64_t
    loadWord(const std::uint8_t *p)
    {
        return static_cast<std::uint64_t>(p[0]) |
               static_cast<std::uint64_t>(p[1]) << 8 |
               static_cast<std::uint64_t>(p[2]) << 16 |
               static_cast<std::uint64_t>(p[3]) << 24 |
               static_cast<std::uint64_t>(p[4]) << 32 |
               static_cast<std::uint64_t>(p[5]) << 40 |
               static_cast<std::uint64_t>(p[6]) << 48 |
               static_cast<std::uint64_t>(p[7]) << 56;
    }

    /** The byte loop: reads near the end, wide reads, overruns. */
    std::uint64_t readBitsTail(int count);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t byte_ = 0;  ///< never past size_
    int bit_ = 0;           ///< in [0, 7]; non-zero only below size_
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
