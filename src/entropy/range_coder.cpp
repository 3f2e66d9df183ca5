#include "edgepcc/entropy/range_coder.h"

#include <algorithm>
#include <cassert>

#include "edgepcc/common/check.h"

namespace edgepcc {

namespace {
constexpr std::uint32_t kTopValue = 1u << 24;
}  // namespace

// ---------------------------------------------------------------------
// RangeEncoder
// ---------------------------------------------------------------------

void
RangeEncoder::shiftLow()
{
    if (static_cast<std::uint32_t>(low_) < 0xff000000u ||
        (low_ >> 32) != 0) {
        std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
        std::uint8_t byte = cache_;
        do {
            out_->push_back(
                static_cast<std::uint8_t>(byte + carry));
            byte = 0xff;
        } while (--cache_size_ != 0);
        cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ & 0x00ffffffULL) << 8;
}

void
RangeEncoder::encodeSpan(std::uint32_t cum, std::uint32_t freq,
                         std::uint32_t total)
{
    assert(freq > 0 && cum + freq <= total && total <= kMaxTotal);
    range_ /= total;
    low_ += static_cast<std::uint64_t>(cum) * range_;
    range_ *= freq;
    while (range_ < kTopValue) {
        range_ <<= 8;
        shiftLow();
    }
}

void
RangeEncoder::finish()
{
    for (int i = 0; i < 5; ++i)
        shiftLow();
}

// ---------------------------------------------------------------------
// RangeDecoder
// ---------------------------------------------------------------------

RangeDecoder::RangeDecoder(ByteSpan bytes)
    : data_(bytes.data()), size_(bytes.size())
{
    // The first emitted byte is the encoder's initial zero cache;
    // reading 5 bytes into a 32-bit code shifts it out.
    for (int i = 0; i < 5; ++i)
        code_ = (code_ << 8) | nextByte();
}

std::uint8_t
RangeDecoder::nextByte()
{
    if (pos_ >= size_) {
        overrun_ = true;
        return 0;
    }
    return data_[pos_++];
}

void
RangeDecoder::normalize()
{
    while (range_ < kTopValue) {
        code_ = (code_ << 8) | nextByte();
        range_ <<= 8;
    }
}

std::uint32_t
RangeDecoder::decodeGetValue(std::uint32_t total)
{
    assert(total > 0 && total <= RangeEncoder::kMaxTotal);
    range_ /= total;
    std::uint32_t value = code_ / range_;
    if (value >= total) {
        value = total - 1;
        overrun_ = true;
    }
    return value;
}

void
RangeDecoder::decodeSpan(std::uint32_t cum, std::uint32_t freq)
{
    code_ -= cum * range_;
    range_ *= freq;
    normalize();
}

// ---------------------------------------------------------------------
// AdaptiveByteModel
// ---------------------------------------------------------------------

AdaptiveByteModel::AdaptiveByteModel()
{
    // Initialize every symbol with frequency 1.
    for (int symbol = 0; symbol < 256; ++symbol) {
        for (int i = symbol + 1; i <= 256; i += i & (-i))
            ++tree_[i];
    }
    total_ = 256;
}

std::uint32_t
AdaptiveByteModel::cumFreq(int symbol) const
{
    std::uint32_t sum = 0;
    for (int i = symbol; i > 0; i -= i & (-i))
        sum += tree_[i];
    return sum;
}

int
AdaptiveByteModel::symbolFromCum(std::uint32_t cum) const
{
    // Largest prefix whose cumulative frequency is <= cum.
    int index = 0;
    std::uint32_t remaining = cum;
    for (int step = 256; step > 0; step >>= 1) {
        const int next = index + step;
        if (next <= 256 && tree_[next] <= remaining) {
            index = next;
            remaining -= tree_[next];
        }
    }
    return index;  // symbol whose interval contains cum
}

void
AdaptiveByteModel::update(int symbol)
{
    for (int i = symbol + 1; i <= 256; i += i & (-i))
        tree_[i] += kIncrement;
    total_ += kIncrement;
    if (total_ >= kRescaleLimit)
        rescale();
}

void
AdaptiveByteModel::rescale()
{
    // Recover per-symbol frequencies, halve (floor at 1), rebuild.
    std::array<std::uint32_t, 256> freq;
    for (int symbol = 0; symbol < 256; ++symbol)
        freq[symbol] = cumFreq(symbol + 1) - cumFreq(symbol);
    tree_.fill(0);
    total_ = 0;
    for (int symbol = 0; symbol < 256; ++symbol) {
        const std::uint32_t f = (freq[symbol] + 1) / 2;
        total_ += f;
        for (int i = symbol + 1; i <= 256; i += i & (-i))
            tree_[i] += f;
    }
}

void
AdaptiveByteModel::encode(RangeEncoder &encoder, std::uint8_t symbol)
{
    const std::uint32_t cum = cumFreq(symbol);
    const std::uint32_t freq = cumFreq(symbol + 1) - cum;
    encoder.encodeSpan(cum, freq, total_);
    update(symbol);
}

std::uint8_t
AdaptiveByteModel::decode(RangeDecoder &decoder)
{
    const std::uint32_t value = decoder.decodeGetValue(total_);
    const int symbol = symbolFromCum(value);
    const std::uint32_t cum = cumFreq(symbol);
    const std::uint32_t freq = cumFreq(symbol + 1) - cum;
    decoder.decodeSpan(cum, freq);
    update(symbol);
    return static_cast<std::uint8_t>(symbol);
}

// ---------------------------------------------------------------------
// ContextualByteCoder
// ---------------------------------------------------------------------

int
ContextualByteCoder::parentBucket(std::uint8_t parent_byte)
{
    int count = 0;
    for (int bit = 0; bit < 8; ++bit)
        count += (parent_byte >> bit) & 1;
    if (count <= 2)
        return 0;
    return count <= 5 ? 1 : 2;
}

void
ContextualByteCoder::encode(RangeEncoder &encoder,
                            std::uint8_t parent_byte,
                            std::uint8_t symbol)
{
    models_[parentBucket(parent_byte)].encode(encoder, symbol);
}

std::uint8_t
ContextualByteCoder::decode(RangeDecoder &decoder,
                            std::uint8_t parent_byte)
{
    return models_[parentBucket(parent_byte)].decode(decoder);
}

// ---------------------------------------------------------------------
// Whole-buffer helpers
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
entropyCompress(const std::vector<std::uint8_t> &input)
{
    std::vector<std::uint8_t> out;
    out.reserve(input.size() / 2 + 16);
    RangeEncoder encoder(out);
    AdaptiveByteModel model;
    for (const std::uint8_t byte : input)
        model.encode(encoder, byte);
    encoder.finish();
    return out;
}

Expected<std::vector<std::uint8_t>>
entropyDecompress(ByteSpan input, std::size_t output_size)
{
    // `output_size` comes from an untrusted stream header: cap the
    // up-front reservation and let push_back grow on demand, so a
    // corrupt 2^60 claim fails via decoder overrun instead of OOM.
    EDGEPCC_CHECK_CORRUPT(output_size <= kMaxDecodeItems * 8,
                          "entropyDecompress: implausible size");
    std::vector<std::uint8_t> out;
    out.reserve(std::min(output_size, input.size() * 8 + 64));
    RangeDecoder decoder(input);
    AdaptiveByteModel model;
    for (std::size_t i = 0; i < output_size; ++i) {
        out.push_back(model.decode(decoder));
        if (decoder.overrun())
            return corruptBitstream(
                "entropyDecompress: truncated stream");
    }
    return out;
}

}  // namespace edgepcc
