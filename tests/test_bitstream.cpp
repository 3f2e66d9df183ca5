/** @file Unit and property tests for the bit-level serialization. */

#include "edgepcc/entropy/bitstream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "edgepcc/common/rng.h"

namespace edgepcc {
namespace {

TEST(BitWriter, SingleBits)
{
    BitWriter writer;
    writer.writeBits(1, 1);
    writer.writeBits(0, 1);
    writer.writeBits(1, 1);
    const auto bytes = writer.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0b101u);
}

TEST(BitWriter, CrossesByteBoundary)
{
    BitWriter writer;
    writer.writeBits(0xABC, 12);
    writer.writeBits(0xDE, 8);
    const auto bytes = writer.take();
    BitReader reader(bytes);
    EXPECT_EQ(reader.readBits(12), 0xABCu);
    EXPECT_EQ(reader.readBits(8), 0xDEu);
    EXPECT_FALSE(reader.overrun());
}

TEST(BitWriter, ZeroWidthWriteIsNoop)
{
    BitWriter writer;
    writer.writeBits(123, 0);
    EXPECT_TRUE(writer.take().empty());
}

TEST(BitWriter, MasksHighBits)
{
    BitWriter writer;
    writer.writeBits(0xFF, 4);  // only low 4 bits survive
    writer.writeBits(0x0, 4);
    const auto bytes = writer.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0x0Fu);
}

TEST(BitWriter, SixtyFourBitValues)
{
    const std::uint64_t value = 0xDEADBEEFCAFEBABEull;
    BitWriter writer;
    writer.writeBits(value, 64);
    const std::vector<std::uint8_t> buffer = writer.take();
    BitReader reader(buffer);
    EXPECT_EQ(reader.readBits(64), value);
}

TEST(BitWriter, AlignToByte)
{
    BitWriter writer;
    writer.writeBits(1, 3);
    writer.alignToByte();
    writer.writeBits(0xFF, 8);
    const auto bytes = writer.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 0x01u);
    EXPECT_EQ(bytes[1], 0xFFu);
}

TEST(BitReader, OverrunFlagSticks)
{
    const std::vector<std::uint8_t> bytes{0xAA};
    BitReader reader(bytes);
    EXPECT_EQ(reader.readBits(8), 0xAAu);
    EXPECT_FALSE(reader.overrun());
    reader.readBits(1);
    EXPECT_TRUE(reader.overrun());
    EXPECT_FALSE(reader.status().isOk());
}

TEST(Varint, RoundtripBoundaries)
{
    const std::uint64_t cases[] = {
        0, 1, 127, 128, 16383, 16384, 0xFFFFFFFFull,
        ~std::uint64_t{0}};
    BitWriter writer;
    for (const auto value : cases)
        writer.writeVarint(value);
    const std::vector<std::uint8_t> buffer = writer.take();
    BitReader reader(buffer);
    for (const auto value : cases)
        EXPECT_EQ(reader.readVarint(), value);
    EXPECT_FALSE(reader.overrun());
}

TEST(Varint, SignedRoundtrip)
{
    const std::int64_t cases[] = {0, -1, 1, -64, 63, -65, 1000,
                                  -123456789, INT64_MAX,
                                  INT64_MIN + 1};
    BitWriter writer;
    for (const auto value : cases)
        writer.writeSignedVarint(value);
    const std::vector<std::uint8_t> buffer = writer.take();
    BitReader reader(buffer);
    for (const auto value : cases)
        EXPECT_EQ(reader.readSignedVarint(), value);
}

TEST(Zigzag, KnownMapping)
{
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
    EXPECT_EQ(zigzagDecode(4), 2);
}

TEST(Zigzag, RoundtripRandom)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto value =
            static_cast<std::int64_t>(rng()) >> (i % 40);
        EXPECT_EQ(zigzagDecode(zigzagEncode(value)), value);
    }
}

TEST(BitWidth, KnownValues)
{
    EXPECT_EQ(bitWidth(0), 0);
    EXPECT_EQ(bitWidth(1), 1);
    EXPECT_EQ(bitWidth(2), 2);
    EXPECT_EQ(bitWidth(3), 2);
    EXPECT_EQ(bitWidth(255), 8);
    EXPECT_EQ(bitWidth(256), 9);
    EXPECT_EQ(bitWidth(~std::uint64_t{0}), 64);
}

/** Property: any interleaving of writes reads back identically. */
class BitstreamFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BitstreamFuzz, RandomMixedRoundtrip)
{
    Rng rng(GetParam());
    struct Op {
        std::uint64_t value;
        int bits;
    };
    std::vector<Op> ops;
    BitWriter writer;
    for (int i = 0; i < 500; ++i) {
        const int bits = static_cast<int>(rng.bounded(64)) + 1;
        std::uint64_t value = rng();
        if (bits < 64)
            value &= (std::uint64_t{1} << bits) - 1;
        ops.push_back({value, bits});
        writer.writeBits(value, bits);
    }
    const std::vector<std::uint8_t> buffer = writer.take();
    BitReader reader(buffer);
    for (const Op &op : ops)
        EXPECT_EQ(reader.readBits(op.bits), op.value);
    EXPECT_FALSE(reader.overrun());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

// -----------------------------------------------------------------
// Differential tests against a bit-at-a-time reference model
// -----------------------------------------------------------------

/** Reference writer: one byte-granular loop, no word buffering. */
class RefWriter
{
  public:
    void
    writeBits(std::uint64_t value, int count)
    {
        if (count < 64)
            value &= (std::uint64_t{1} << count) - 1;
        while (count > 0) {
            if (fill_ == 8) {
                bytes_.push_back(0);
                fill_ = 0;
            }
            const int space = 8 - fill_;
            const int take = count < space ? count : space;
            bytes_.back() |= static_cast<std::uint8_t>(
                (value & ((std::uint64_t{1} << take) - 1)) << fill_);
            value >>= take;
            fill_ += take;
            count -= take;
        }
    }

    void alignToByte() { fill_ = 8; }

    void
    writeBytes(const std::uint8_t *data, std::size_t size)
    {
        alignToByte();
        bytes_.insert(bytes_.end(), data, data + size);
    }

    void
    writeVarint(std::uint64_t value)
    {
        while (value >= 0x80) {
            writeBits((value & 0x7f) | 0x80, 8);
            value >>= 7;
        }
        writeBits(value, 8);
    }

    void writeSignedVarint(std::int64_t value)
    {
        writeVarint(zigzagEncode(value));
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    int fill_ = 8;
};

/** Reference reader: every read goes through the byte loop. */
class RefReader
{
  public:
    explicit RefReader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes)
    {
    }

    std::uint64_t
    readBits(int count)
    {
        std::uint64_t value = 0;
        int produced = 0;
        while (produced < count) {
            if (byte_ >= bytes_.size()) {
                overrun_ = true;
                return value;
            }
            const int avail = 8 - bit_;
            const int take = (count - produced) < avail
                                 ? (count - produced)
                                 : avail;
            const std::uint64_t chunk =
                (static_cast<std::uint64_t>(bytes_[byte_]) >> bit_) &
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
    alignToByte()
    {
        if (bit_ != 0) {
            bit_ = 0;
            ++byte_;
        }
    }

    std::uint64_t
    readVarint()
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

    /**
     * An align, then `n` byte reads. Past the end the first failed
     * read sets the flag and clamps; later ones would change
     * nothing, so they are not made. Returns where the bytes start.
     */
    std::size_t
    readBytes(std::uint64_t n)
    {
        alignToByte();
        const std::size_t start = byte_;
        for (std::uint64_t k = 0; k < n; ++k) {
            const bool past_end = byte_ >= bytes_.size();
            readBits(8);
            if (past_end)
                break;
        }
        return start;
    }

    bool overrun() const { return overrun_; }
    std::size_t byteOffset() const { return byte_; }

  private:
    const std::vector<std::uint8_t> &bytes_;
    std::size_t byte_ = 0;
    int bit_ = 0;
    bool overrun_ = false;
};

/** A value with a random magnitude, so every width gets traffic. */
std::uint64_t
randomMagnitude(Rng &rng)
{
    return rng() >> rng.bounded(64);
}

TEST(BitWriterDifferential, RandomSequencesMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        BitWriter writer;
        RefWriter ref;
        const int ops = static_cast<int>(rng.bounded(300));
        for (int op = 0; op < ops; ++op) {
            switch (rng.bounded(7)) {
              case 0:
              case 1: {
                  // Unmasked values, so the high-bit masking runs.
                  const std::uint64_t value = rng();
                  const int width = static_cast<int>(rng.bounded(65));
                  writer.writeBits(value, width);
                  ref.writeBits(value, width);
                  break;
              }
              case 2: {
                  const std::uint64_t value = randomMagnitude(rng);
                  writer.writeVarint(value);
                  ref.writeVarint(value);
                  break;
              }
              case 3: {
                  // ~x, not -x: negating INT64_MIN overflows.
                  const auto value =
                      static_cast<std::int64_t>(randomMagnitude(rng));
                  const std::int64_t signed_value =
                      rng.bounded(2) ? value : ~value;
                  writer.writeSignedVarint(signed_value);
                  ref.writeSignedVarint(signed_value);
                  break;
              }
              case 4:
                writer.alignToByte();
                ref.alignToByte();
                break;
              case 5: {
                  std::vector<std::uint8_t> data(rng.bounded(13));
                  for (auto &byte : data)
                      byte = static_cast<std::uint8_t>(rng());
                  writer.writeBytes(data.data(), data.size());
                  ref.writeBytes(data.data(), data.size());
                  break;
              }
              default: {
                  std::vector<std::uint8_t> data(rng.bounded(13));
                  for (auto &byte : data)
                      byte = static_cast<std::uint8_t>(rng());
                  // A block is its varint length, then the bytes.
                  ref.writeVarint(data.size());
                  ref.writeBytes(data.data(), data.size());
                  writer.writeBlock(data);
                  break;
              }
            }
        }
        ref.alignToByte();
        ASSERT_EQ(writer.take(), ref.bytes()) << "seed " << seed;
    }
}

/** Both readers are at the same offset with the same flag. */
::testing::AssertionResult
sameState(const BitReader &reader, const RefReader &ref)
{
    if (reader.byteOffset() == ref.byteOffset() &&
        reader.overrun() == ref.overrun())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "byteOffset " << reader.byteOffset() << " vs "
           << ref.byteOffset() << ", overrun " << reader.overrun()
           << " vs " << ref.overrun();
}

/**
 * Runs readBytes(*n), or readBlock() when `n` is empty, on both
 * readers. Their state must match, and a read that got all its
 * bytes must return them in place.
 */
::testing::AssertionResult
sameBytesRead(BitReader &reader, RefReader &ref,
              const std::vector<std::uint8_t> &bytes,
              std::optional<std::uint64_t> n)
{
    const ByteSpan view = n ? reader.readBytes(*n) : reader.readBlock();
    const std::uint64_t length = n ? *n : ref.readVarint();
    const std::size_t start = ref.readBytes(length);
    const bool whole = ref.byteOffset() - start == length;
    const bool in_place = view.data() == bytes.data() + start;
    if (whole ? !in_place || view.size() != length : !view.empty()) {
        return ::testing::AssertionFailure()
               << "view of " << view.size() << " bytes, in place "
               << in_place << "; reference: " << length
               << " bytes at " << start << ", whole " << whole;
    }
    return sameState(reader, ref);
}

TEST(BitReaderDifferential, RandomSequencesMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        Rng rng(seed);
        std::vector<std::uint8_t> bytes(rng.bounded(41));
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng());
        BitReader reader(bytes);
        RefReader ref(bytes);
        // Keep reading past the end: the overrun flag and the
        // partial values must match there too.
        for (int op = 0; op < 80; ++op) {
            const std::uint64_t kind = rng.bounded(6);
            if (kind <= 1) {
                // Half of these are 57-64 bits wide, past the word
                // path's 56-bit limit.
                const int width =
                    kind == 0 ? static_cast<int>(rng.bounded(57))
                              : 57 + static_cast<int>(rng.bounded(8));
                ASSERT_EQ(reader.readBits(width), ref.readBits(width))
                    << "seed " << seed << " op " << op;
            } else if (kind == 2) {
                reader.alignToByte();
                ref.alignToByte();
            } else if (kind == 3) {
                ASSERT_EQ(reader.readVarint(), ref.readVarint())
                    << "seed " << seed << " op " << op;
            } else if (kind == 4) {
                ASSERT_EQ(reader.readSignedVarint(),
                          zigzagDecode(ref.readVarint()))
                    << "seed " << seed << " op " << op;
            } else if (rng.bounded(2)) {
                ASSERT_TRUE(sameBytesRead(reader, ref, bytes,
                                          rng.bounded(12)))
                    << "seed " << seed << " op " << op;
            } else {
                // The length is whatever varint the bytes hold.
                ASSERT_TRUE(
                    sameBytesRead(reader, ref, bytes, std::nullopt))
                    << "seed " << seed << " op " << op;
            }
            ASSERT_TRUE(sameState(reader, ref))
                << "seed " << seed << " op " << op;
        }
    }
}

TEST(BitReaderDifferential, BlockLengthsAtTheEdgesMatchReference)
{
    // After the start bits, the length (readBlock only) and the skip
    // to a byte boundary, ten bytes are left. Lengths 0, ten, eleven
    // and 2^64 - 1, from odd start bits.
    constexpr std::uint64_t kLeft = 10;
    for (int start_bit = 1; start_bit < 24; start_bit += 2) {
        for (const bool block : {false, true}) {
            for (const std::uint64_t n :
                 {std::uint64_t{0}, kLeft, kLeft + 1,
                  ~std::uint64_t{0}}) {
                BitWriter writer;
                writer.writeBits(0x2DB5A5, start_bit);
                if (block)
                    writer.writeVarint(n);
                for (std::uint64_t k = 0; k < kLeft; ++k)
                    writer.writeBits(0xC3 ^ k, 8);
                const std::vector<std::uint8_t> bytes = writer.take();
                BitReader reader(bytes);
                RefReader ref(bytes);
                reader.readBits(start_bit);
                ref.readBits(start_bit);
                const auto where = ::testing::Message()
                                   << "start bit " << start_bit
                                   << " block " << block << " n " << n;
                ASSERT_TRUE(sameBytesRead(
                    reader, ref, bytes,
                    block ? std::nullopt : std::optional(n)))
                    << where;
                EXPECT_EQ(reader.overrun(), n > kLeft) << where;
            }
        }
    }
}

TEST(BitReaderDifferential, EveryReadNearTheEndMatchesReference)
{
    Rng rng(99);
    for (std::size_t size = 0; size <= 40; ++size) {
        std::vector<std::uint8_t> bytes(size);
        for (auto &byte : bytes)
            byte = static_cast<std::uint8_t>(rng());
        const std::size_t end_bit = size * 8;
        // Every bit offset from 9 bytes before the end (so the last
        // word-path read is covered) through the end itself.
        const std::size_t first = end_bit > 72 ? end_bit - 72 : 0;
        for (std::size_t start = first; start <= end_bit; ++start) {
            for (int width = 0; width <= 64; ++width) {
                BitReader reader(bytes);
                RefReader ref(bytes);
                for (std::size_t k = 0; k < start / 8; ++k) {
                    reader.readBits(8);
                    ref.readBits(8);
                }
                const int bit = static_cast<int>(start % 8);
                reader.readBits(bit);
                ref.readBits(bit);
                const auto where = ::testing::Message()
                                   << "size " << size << " start "
                                   << start << " width " << width;
                ASSERT_EQ(reader.readBits(width), ref.readBits(width))
                    << where;
                ASSERT_TRUE(sameState(reader, ref)) << where;
                // A second read shows the flag and position stick.
                ASSERT_EQ(reader.readBits(width), ref.readBits(width))
                    << where;
                ASSERT_TRUE(sameState(reader, ref)) << where;
            }
        }
    }
}

}  // namespace
}  // namespace edgepcc
