/** @file Unit and property tests for the adaptive range coder. */

#include "edgepcc/entropy/range_coder.h"

#include <gtest/gtest.h>

#include "edgepcc/common/rng.h"

namespace edgepcc {
namespace {

std::vector<std::uint8_t>
randomBytes(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<std::uint8_t> bytes(count);
    for (auto &byte : bytes)
        byte = static_cast<std::uint8_t>(rng.bounded(256));
    return bytes;
}

TEST(RangeCoder, EmptyRoundtrip)
{
    const std::vector<std::uint8_t> empty;
    const auto packed = entropyCompress(empty);
    const auto unpacked = entropyDecompress(packed, 0);
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_TRUE(unpacked->empty());
}

TEST(RangeCoder, SingleByteRoundtrip)
{
    for (int value : {0, 1, 127, 128, 255}) {
        const std::vector<std::uint8_t> input{
            static_cast<std::uint8_t>(value)};
        const auto packed = entropyCompress(input);
        const auto unpacked = entropyDecompress(packed, 1);
        ASSERT_TRUE(unpacked.hasValue());
        EXPECT_EQ(*unpacked, input);
    }
}

TEST(RangeCoder, RandomBytesRoundtrip)
{
    const auto input = randomBytes(42, 20000);
    const auto packed = entropyCompress(input);
    const auto unpacked = entropyDecompress(packed, input.size());
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, input);
}

TEST(RangeCoder, RandomDataIsIncompressible)
{
    const auto input = randomBytes(43, 20000);
    const auto packed = entropyCompress(input);
    // Random data must not shrink by more than ~1%.
    EXPECT_GT(packed.size(), input.size() * 99 / 100);
    // ...and the adaptive model's expansion stays below 2%.
    EXPECT_LT(packed.size(), input.size() * 102 / 100 + 64);
}

TEST(RangeCoder, SkewedDataCompressesWell)
{
    Rng rng(44);
    std::vector<std::uint8_t> input(50000);
    for (auto &byte : input) {
        // ~90% zeros, rest small values: typical residual stream.
        byte = rng.uniform() < 0.9
                   ? 0
                   : static_cast<std::uint8_t>(rng.bounded(8));
    }
    const auto packed = entropyCompress(input);
    EXPECT_LT(packed.size(), input.size() / 5);
    const auto unpacked = entropyDecompress(packed, input.size());
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, input);
}

TEST(RangeCoder, ConstantDataCompressesExtremely)
{
    const std::vector<std::uint8_t> input(100000, 7);
    const auto packed = entropyCompress(input);
    EXPECT_LT(packed.size(), input.size() / 50);
    const auto unpacked = entropyDecompress(packed, input.size());
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, input);
}

TEST(RangeCoder, TruncatedStreamReportsCorruption)
{
    const auto input = randomBytes(45, 4096);
    auto packed = entropyCompress(input);
    packed.resize(packed.size() / 2);
    const auto unpacked = entropyDecompress(packed, input.size());
    EXPECT_FALSE(unpacked.hasValue());
    EXPECT_EQ(unpacked.status().code(),
              StatusCode::kCorruptBitstream);
}

TEST(RangeCoder, SpanInterfaceRoundtrip)
{
    // Direct span coding with a fixed 4-symbol model.
    const std::uint32_t freqs[4] = {10, 20, 30, 40};
    const std::uint32_t cums[4] = {0, 10, 30, 60};
    const std::uint32_t total = 100;
    Rng rng(47);
    std::vector<int> symbols(3000);
    for (auto &symbol : symbols)
        symbol = static_cast<int>(rng.bounded(4));

    std::vector<std::uint8_t> out;
    RangeEncoder encoder(out);
    for (const int s : symbols)
        encoder.encodeSpan(cums[s], freqs[s], total);
    encoder.finish();

    RangeDecoder decoder(out);
    for (const int s : symbols) {
        const std::uint32_t value = decoder.decodeGetValue(total);
        int found = 3;
        for (int k = 0; k < 4; ++k) {
            if (value < cums[k] + freqs[k]) {
                found = k;
                break;
            }
        }
        EXPECT_EQ(found, s);
        decoder.decodeSpan(cums[found], freqs[found]);
    }
    EXPECT_FALSE(decoder.overrun());
}

TEST(ContextualByteCoder, ParentBuckets)
{
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x00), 0);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x01), 0);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x03), 0);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x07), 1);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x1F), 1);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0x3F), 2);
    EXPECT_EQ(ContextualByteCoder::parentBucket(0xFF), 2);
}

TEST(ContextualByteCoder, RoundtripWithMatchingContexts)
{
    Rng rng(48);
    std::vector<std::uint8_t> symbols(5000);
    std::vector<std::uint8_t> contexts(5000);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        contexts[i] =
            static_cast<std::uint8_t>(rng.bounded(256));
        // Correlate symbol density with context density.
        symbols[i] = static_cast<std::uint8_t>(
            ContextualByteCoder::parentBucket(contexts[i]) == 2
                ? 255 - rng.bounded(8)
                : 1u << rng.bounded(8));
    }
    std::vector<std::uint8_t> out;
    RangeEncoder encoder(out);
    ContextualByteCoder enc_coder;
    for (std::size_t i = 0; i < symbols.size(); ++i)
        enc_coder.encode(encoder, contexts[i], symbols[i]);
    encoder.finish();

    RangeDecoder decoder(out);
    ContextualByteCoder dec_coder;
    for (std::size_t i = 0; i < symbols.size(); ++i)
        EXPECT_EQ(dec_coder.decode(decoder, contexts[i]),
                  symbols[i]);
    EXPECT_FALSE(decoder.overrun());
}

TEST(ContextualByteCoder, SeparatesMixtureDistributions)
{
    // Two context-dependent distributions: contextual coding must
    // beat a single order-0 model on the mixture.
    Rng rng(49);
    std::vector<std::uint8_t> symbols(40000);
    std::vector<std::uint8_t> contexts(40000);
    for (std::size_t i = 0; i < symbols.size(); ++i) {
        const bool dense = rng.uniform() < 0.5;
        contexts[i] = dense ? 0xFF : 0x01;
        symbols[i] = static_cast<std::uint8_t>(
            dense ? 0xF0 | rng.bounded(16)
                  : 1u << rng.bounded(8));
    }
    std::vector<std::uint8_t> contextual;
    {
        RangeEncoder encoder(contextual);
        ContextualByteCoder coder;
        for (std::size_t i = 0; i < symbols.size(); ++i)
            coder.encode(encoder, contexts[i], symbols[i]);
        encoder.finish();
    }
    const std::vector<std::uint8_t> order0 =
        entropyCompress(symbols);
    EXPECT_LT(contextual.size(), order0.size());
}

/** Property sweep: roundtrip across sizes and distributions. */
class RangeCoderSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(RangeCoderSweep, Roundtrip)
{
    const auto [size, skew] = GetParam();
    Rng rng(static_cast<std::uint64_t>(size) * 31 +
            static_cast<std::uint64_t>(skew * 100));
    std::vector<std::uint8_t> input(
        static_cast<std::size_t>(size));
    for (auto &byte : input) {
        byte = rng.uniform() < skew
                   ? 0
                   : static_cast<std::uint8_t>(rng.bounded(256));
    }
    const auto packed = entropyCompress(input);
    const auto unpacked = entropyDecompress(packed, input.size());
    ASSERT_TRUE(unpacked.hasValue());
    EXPECT_EQ(*unpacked, input);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSkews, RangeCoderSweep,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 1000,
                                         33333),
                       ::testing::Values(0.0, 0.5, 0.99)));

}  // namespace
}  // namespace edgepcc
