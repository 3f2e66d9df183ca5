#include "edgepcc/entropy/bitstream.h"

#include <bit>

namespace edgepcc {

void
BitWriter::appendWord(std::uint64_t word)
{
    // Written out so compilers merge it into one 8-byte store on
    // little-endian targets (a loop form is not merged).
    const std::uint8_t bytes[8] = {
        static_cast<std::uint8_t>(word),
        static_cast<std::uint8_t>(word >> 8),
        static_cast<std::uint8_t>(word >> 16),
        static_cast<std::uint8_t>(word >> 24),
        static_cast<std::uint8_t>(word >> 32),
        static_cast<std::uint8_t>(word >> 40),
        static_cast<std::uint8_t>(word >> 48),
        static_cast<std::uint8_t>(word >> 56)};
    bytes_.insert(bytes_.end(), bytes, bytes + 8);
}

void
BitWriter::alignToByte()
{
    // Moves every started byte out; the bits above pending_ are
    // zero, so a partial last byte is padded with zeros.
    for (int k = 0; k < pending_; k += 8)
        bytes_.push_back(static_cast<std::uint8_t>(word_ >> k));
    word_ = 0;
    pending_ = 0;
}

void
BitWriter::writeBytes(const std::uint8_t *data, std::size_t size)
{
    alignToByte();
    bytes_.insert(bytes_.end(), data, data + size);
}

void
BitWriter::writeVarint(std::uint64_t value)
{
    while (value >= 0x80) {
        writeBits((value & 0x7f) | 0x80, 8);
        value >>= 7;
    }
    writeBits(value, 8);
}

void
BitWriter::writeSignedVarint(std::int64_t value)
{
    writeVarint(zigzagEncode(value));
}

std::vector<std::uint8_t>
BitWriter::take()
{
    alignToByte();
    return std::move(bytes_);
}

std::uint64_t
BitReader::readBitsTail(int count)
{
    std::uint64_t value = 0;
    int produced = 0;
    while (produced < count) {
        if (byte_ >= size_) {
            overrun_ = true;
            return value;
        }
        const int avail = 8 - bit_;
        const int take = (count - produced) < avail
                             ? (count - produced)
                             : avail;
        const std::uint64_t chunk =
            (static_cast<std::uint64_t>(data_[byte_]) >> bit_) &
            ((std::uint64_t{1} << take) - 1);
        value |= chunk << produced;
        produced += take;
        bit_ += take;
        if (bit_ == 8) {
            bit_ = 0;
            ++byte_;
        }
    }
    return value;
}

void
BitReader::alignToByte()
{
    if (bit_ != 0) {
        bit_ = 0;
        ++byte_;
    }
}

ByteSpan
BitReader::readBytes(std::uint64_t n)
{
    alignToByte();
    if (n > size_ - byte_) {
        byte_ = size_;
        overrun_ = true;
        return {};
    }
    const ByteSpan bytes(data_ + byte_, static_cast<std::size_t>(n));
    byte_ += static_cast<std::size_t>(n);
    return bytes;
}

std::uint64_t
BitReader::readVarint()
{
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
        const std::uint64_t byte = readBits(8);
        if (overrun_)
            return value;
        value |= (byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
        if (shift >= 64) {
            overrun_ = true;
            return value;
        }
    }
}

std::int64_t
BitReader::readSignedVarint()
{
    return zigzagDecode(readVarint());
}

int
bitWidth(std::uint64_t value)
{
    return value == 0 ? 0 : 64 - std::countl_zero(value);
}

}  // namespace edgepcc
