/** @file Tests for the Morton-segment Base+Delta attribute codec. */

#include "edgepcc/attr/segment_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "edgepcc/common/rng.h"

namespace edgepcc {
namespace {

AttrChannels
randomChannels(std::uint64_t seed, std::size_t n, std::int32_t lo,
               std::int32_t hi)
{
    Rng rng(seed);
    AttrChannels channels;
    for (auto &channel : channels) {
        channel.resize(n);
        for (auto &value : channel) {
            value = lo + static_cast<std::int32_t>(rng.bounded(
                             static_cast<std::uint64_t>(hi - lo)));
        }
    }
    return channels;
}

AttrChannels
smoothChannels(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    AttrChannels channels;
    for (auto &channel : channels) {
        channel.resize(n);
        double value = 128.0;
        for (std::size_t i = 0; i < n; ++i) {
            value += rng.gaussian() * 1.5;
            value = std::clamp(value, 0.0, 255.0);
            channel[i] = static_cast<std::int32_t>(value);
        }
    }
    return channels;
}

std::int32_t
maxAbsError(const AttrChannels &a, const AttrChannels &b)
{
    std::int32_t max_err = 0;
    for (int c = 0; c < 3; ++c) {
        for (std::size_t i = 0; i < a[0].size(); ++i) {
            max_err = std::max(
                max_err, std::abs(a[static_cast<std::size_t>(c)][i] -
                                  b[static_cast<std::size_t>(c)][i]));
        }
    }
    return max_err;
}

TEST(SegmentLayout, AutoSegments)
{
    SegmentCodecConfig config;
    const SegmentLayout layout = makeSegmentLayout(24000, config);
    EXPECT_EQ(layout.num_segments, 1000u);
    EXPECT_EQ(layout.points_per_segment, 24u);
}

TEST(SegmentLayout, NoEmptyTrailingSegments)
{
    SegmentCodecConfig config;
    config.num_segments = 7;
    const SegmentLayout layout = makeSegmentLayout(20, config);
    // ceil(20/7)=3 per segment -> 7 segments would leave the last
    // empty; the layout recomputes to ceil(20/3)=7... check bounds.
    const std::size_t last =
        layout.begin(layout.num_segments - 1);
    EXPECT_LT(last, 20u);
    EXPECT_EQ(layout.end(layout.num_segments - 1, 20), 20u);
}

TEST(SegmentLayout, MoreSegmentsThanPointsClamps)
{
    SegmentCodecConfig config;
    config.num_segments = 100;
    const SegmentLayout layout = makeSegmentLayout(5, config);
    EXPECT_LE(layout.num_segments, 5u);
    EXPECT_GE(layout.points_per_segment, 1u);
}

TEST(SegmentCodec, RejectsBadInput)
{
    AttrChannels empty;
    EXPECT_FALSE(
        encodeSegmentAttr(empty, SegmentCodecConfig{}).hasValue());

    AttrChannels uneven;
    uneven[0] = {1, 2, 3};
    uneven[1] = {1, 2};
    uneven[2] = {1, 2, 3};
    EXPECT_FALSE(
        encodeSegmentAttr(uneven, SegmentCodecConfig{}).hasValue());

    AttrChannels ok;
    ok[0] = ok[1] = ok[2] = {1, 2, 3};
    SegmentCodecConfig zero_q;
    zero_q.quant_step = 0;
    EXPECT_FALSE(encodeSegmentAttr(ok, zero_q).hasValue());
}

TEST(SegmentCodec, LosslessWithUnitQuantStep)
{
    const AttrChannels channels = randomChannels(80, 5000, 0, 256);
    SegmentCodecConfig config;
    config.quant_step = 1;
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    auto decoded = decodeSegmentAttr(*payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(*decoded, channels);
}

TEST(SegmentCodec, ErrorBoundedByHalfQuantStep)
{
    const AttrChannels channels = randomChannels(81, 5000, 0, 256);
    for (std::uint32_t q : {2u, 3u, 4u, 8u}) {
        SegmentCodecConfig config;
        config.quant_step = q;
        auto payload = encodeSegmentAttr(channels, config);
        ASSERT_TRUE(payload.hasValue());
        auto decoded = decodeSegmentAttr(*payload);
        ASSERT_TRUE(decoded.hasValue());
        EXPECT_LE(maxAbsError(channels, *decoded),
                  static_cast<std::int32_t>(q) / 2 + 1)
            << "quant step " << q;
    }
}

TEST(SegmentCodec, HandlesSignedValues)
{
    // Inter-frame deltas are signed; the codec must roundtrip them.
    const AttrChannels channels =
        randomChannels(82, 3000, -255, 256);
    SegmentCodecConfig config;
    config.quant_step = 1;
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    auto decoded = decodeSegmentAttr(*payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(*decoded, channels);
}

TEST(SegmentCodec, SingleValue)
{
    AttrChannels channels;
    channels[0] = {42};
    channels[1] = {-7};
    channels[2] = {255};
    SegmentCodecConfig config;
    config.quant_step = 1;
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    auto decoded = decodeSegmentAttr(*payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ(*decoded, channels);
}

TEST(SegmentCodec, Int32ExtremesRoundtripLosslessly)
{
    // The residuals against the mid-range of INT32_MIN and INT32_MAX
    // need 33 bits; the encoder must compute them without signed
    // overflow (the asan+ubsan preset traps one).
    AttrChannels channels;
    channels[0] = {INT32_MIN, 0, INT32_MAX};
    channels[1] = {INT32_MAX, INT32_MIN, -1};
    channels[2] = {0, INT32_MAX, INT32_MIN};
    for (const bool two_layer : {true, false}) {
        SegmentCodecConfig config;
        config.quant_step = 1;
        config.num_segments = 1;
        config.two_layer = two_layer;
        auto payload = encodeSegmentAttr(channels, config);
        ASSERT_TRUE(payload.hasValue());
        auto decoded = decodeSegmentAttr(*payload);
        ASSERT_TRUE(decoded.hasValue());
        EXPECT_EQ(*decoded, channels) << "two_layer " << two_layer;
    }
}

TEST(SegmentCodec, SmoothDataBeatsRawSize)
{
    const AttrChannels channels = smoothChannels(83, 24000);
    SegmentCodecConfig config;  // defaults: q=4, two-layer, auto
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    // Raw would be 3 bytes/point.
    EXPECT_LT(payload->size(), 24000u * 3u);
}

TEST(SegmentCodec, TwoLayerHelpsOnSmoothData)
{
    const AttrChannels channels = smoothChannels(84, 24000);
    SegmentCodecConfig with;
    with.two_layer = true;
    SegmentCodecConfig without;
    without.two_layer = false;
    auto a = encodeSegmentAttr(channels, with);
    auto b = encodeSegmentAttr(channels, without);
    ASSERT_TRUE(a.hasValue());
    ASSERT_TRUE(b.hasValue());
    EXPECT_LE(a->size(), b->size());
}

TEST(SegmentCodec, ConstantDataIsTiny)
{
    AttrChannels channels;
    for (auto &channel : channels)
        channel.assign(10000, 77);
    SegmentCodecConfig config;
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    // Only per-segment headers remain (zero-width residuals).
    EXPECT_LT(payload->size(), 10000u / 2);
    auto decoded = decodeSegmentAttr(*payload);
    ASSERT_TRUE(decoded.hasValue());
    EXPECT_EQ((*decoded)[0][123], 77);
}

TEST(SegmentCodec, CorruptPayloadRejected)
{
    const AttrChannels channels = randomChannels(85, 1000, 0, 256);
    auto payload = encodeSegmentAttr(channels,
                                     SegmentCodecConfig{});
    ASSERT_TRUE(payload.hasValue());
    auto bad = *payload;
    bad[0] = 'Z';
    EXPECT_FALSE(decodeSegmentAttr(bad).hasValue());
    bad = *payload;
    bad.resize(bad.size() / 2);
    EXPECT_FALSE(decodeSegmentAttr(bad).hasValue());
}

TEST(SegmentCodec, RecordsKernels)
{
    const AttrChannels channels = randomChannels(86, 2000, 0, 256);
    WorkRecorder recorder;
    auto payload = encodeSegmentAttr(channels,
                                     SegmentCodecConfig{},
                                     &recorder);
    ASSERT_TRUE(payload.hasValue());
    const auto profile = recorder.takeProfile();
    ASSERT_EQ(profile.stages.size(), 1u);
    EXPECT_EQ(profile.stages[0].name, "attr.segment");
    EXPECT_EQ(profile.stages[0].kernels.size(), 4u);
}

/** Sweep over segment counts, quant steps and layer modes. */
class SegmentCodecSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, bool>>
{
};

TEST_P(SegmentCodecSweep, RoundtripWithinQuantBound)
{
    const auto [segments, q, two_layer] = GetParam();
    const AttrChannels channels = randomChannels(
        static_cast<std::uint64_t>(segments) * 91 + q, 4321, 0,
        256);
    SegmentCodecConfig config;
    config.num_segments = segments;
    config.quant_step = q;
    config.two_layer = two_layer;
    auto payload = encodeSegmentAttr(channels, config);
    ASSERT_TRUE(payload.hasValue());
    auto decoded = decodeSegmentAttr(*payload);
    ASSERT_TRUE(decoded.hasValue());
    ASSERT_EQ((*decoded)[0].size(), channels[0].size());
    EXPECT_LE(maxAbsError(channels, *decoded),
              static_cast<std::int32_t>(q) / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentCodecSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 10u, 1000u,
                                         10000u),
                       ::testing::Values(1u, 4u, 16u),
                       ::testing::Bool()));

}  // namespace
}  // namespace edgepcc
