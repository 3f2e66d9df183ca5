/** @file Tests for the tracing/metrics observability layer. */

#include "edgepcc/common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string_view>
#include <thread>

#include "edgepcc/common/work_counters.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace {

/** Restores the global tracer to a clean, disabled state. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::global().clear();
        Tracer::global().setEnabled(false);
    }
    void
    TearDown() override
    {
        Tracer::global().setEnabled(false);
        Tracer::global().clear();
    }
};

TEST_F(TraceTest, DisabledSpansRecordNothing)
{
    {
        ScopedTrace span("test.disabled");
    }
    EXPECT_EQ(Tracer::global().eventCount(), 0u);
}

TEST_F(TraceTest, EnabledSpansRecordNameAndDuration)
{
    Tracer::global().setEnabled(true);
    {
        ScopedTrace span("test.enabled");
    }
    const auto events = Tracer::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "test.enabled");
    EXPECT_GE(events[0].dur_s, 0.0);
    EXPECT_GE(events[0].start_s, 0.0);
}

/** The per-group FEC kernels and the per-frame controller decision
 *  record whenever tracing is on; rs_decode fires once a group
 *  becomes solvable. */
TEST_F(TraceTest, StreamKernelSpansRecordWithTracingOn)
{
    VideoSpec spec;
    spec.name = "trace-stream";
    spec.target_points = 3000;
    const SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    for (int f = 0; f < 4; ++f)
        frames.push_back(video.frame(f));
    SessionConfig session;
    session.channel = ChannelSpec::bursty(0.05, 2, 1);
    session.mtu_payload = 400;
    session.fec.enabled = true;
    session.fec.scheme = FecScheme::kReedSolomon;
    session.fec.group_size = 6;
    session.fec.parity_chunks = 3;

    Tracer::global().setEnabled(true);
    StreamSession stream(makeIntraInterV1Config(), session);
    auto report = stream.run(frames);
    Tracer::global().setEnabled(false);
    ASSERT_TRUE(report.hasValue());
    ASSERT_GT(report->fec.recovered_chunks, 0u);

    const auto events = Tracer::global().events();
    for (const char *name :
         {"stream.rs_encode", "stream.rs_decode",
          "stream.redundancy_decide"}) {
        EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                                [&](const TraceEvent &event) {
                                    return std::string_view(
                                               event.name) == name;
                                }))
            << name;
    }
}

TEST_F(TraceTest, StopEndsSpanEarlyAndIsIdempotent)
{
    Tracer::global().setEnabled(true);
    {
        ScopedTrace span("test.stop");
        span.stop();
        span.stop();  // second stop and destructor must not re-record
    }
    EXPECT_EQ(Tracer::global().eventCount(), 1u);
}

TEST_F(TraceTest, SpansTakeEffectMidstream)
{
    {
        ScopedTrace off("test.off");
        Tracer::global().setEnabled(true);
    }
    // Span opened while disabled: not recorded even though tracing
    // was enabled before it closed.
    EXPECT_EQ(Tracer::global().eventCount(), 0u);
    {
        ScopedTrace on("test.on");
    }
    EXPECT_EQ(Tracer::global().eventCount(), 1u);
}

TEST_F(TraceTest, ScopedStageFeedsBothSinks)
{
    Tracer::global().setEnabled(true);
    WorkRecorder recorder;
    {
        ScopedStage stage(&recorder, "test.stage");
        recordKernel(&recorder, KernelWork{.name = "test.kernel",
                                           .items = 10,
                                           .ops = 20,
                                           .bytes = 30});
    }
    // A null recorder still gets its span.
    {
        ScopedStage unrecorded(nullptr, "test.unrecorded");
    }
    const auto &profile = recorder.profile();
    ASSERT_EQ(profile.stages.size(), 1u);
    EXPECT_EQ(profile.stages[0].name, "test.stage");
    EXPECT_EQ(profile.stages[0].totalOps(), 20u);
    const auto events = Tracer::global().events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "test.stage");
    EXPECT_EQ(events[0].dur_s, profile.stages[0].host_seconds);
    EXPECT_STREQ(events[1].name, "test.unrecorded");
}

TEST_F(TraceTest, EveryPaperStageIsASpanOfTheSameDuration)
{
    VideoSpec spec;
    spec.name = "trace-test";
    spec.target_points = 3000;
    const SyntheticHumanVideo video(spec);
    for (const CodecConfig &config : allPaperConfigs()) {
        SCOPED_TRACE(config.name);
        Tracer::global().clear();
        Tracer::global().setEnabled(true);
        VideoEncoder encoder(config);
        VideoDecoder decoder;
        std::vector<PipelineProfile> profiles;
        for (int f = 0; f < 2; ++f) {  // I, then P where inter-coded
            auto encoded = encoder.encode(video.frame(f));
            ASSERT_TRUE(encoded.hasValue());
            auto decoded = decoder.decode(encoded->bitstream);
            ASSERT_TRUE(decoded.hasValue());
            profiles.push_back(encoded->profile);
            profiles.push_back(decoded->profile);
        }
        Tracer::global().setEnabled(false);
        const auto events = Tracer::global().events();
        std::size_t stages = 0;
        for (const PipelineProfile &profile : profiles) {
            for (const StageProfile &stage : profile.stages) {
                ++stages;
                const bool has_span = std::any_of(
                    events.begin(), events.end(),
                    [&](const TraceEvent &event) {
                        return stage.name == event.name &&
                               event.dur_s == stage.host_seconds;
                    });
                EXPECT_TRUE(has_span) << stage.name;
            }
        }
        EXPECT_GE(stages, 4u);
    }
}

TEST_F(TraceTest, ThreadsGetDistinctIds)
{
    Tracer::global().setEnabled(true);
    {
        ScopedTrace span("test.main");
    }
    std::thread worker([] { ScopedTrace span("test.worker"); });
    worker.join();
    const auto events = Tracer::global().events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ChromeExportIsWellFormed)
{
    Tracer::global().setEnabled(true);
    {
        ScopedTrace span("test.\"quoted\"\\span");
    }
    std::ostringstream out;
    writeChromeTrace(Tracer::global().events(), out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    int depth = 0;
    for (const char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Percentiles, EmptyGivesZeros)
{
    const PercentileStats stats = computePercentiles({});
    EXPECT_EQ(stats.count, 0u);
    EXPECT_EQ(stats.p50, 0.0);
    EXPECT_EQ(stats.max, 0.0);
}

TEST(Percentiles, SingleSample)
{
    const PercentileStats stats = computePercentiles({3.5});
    EXPECT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.mean, 3.5);
    EXPECT_DOUBLE_EQ(stats.p50, 3.5);
    EXPECT_DOUBLE_EQ(stats.p95, 3.5);
    EXPECT_DOUBLE_EQ(stats.max, 3.5);
}

TEST(Percentiles, NearestRankOnHundredSamples)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)  // unsorted on purpose
        samples.push_back(i);
    const PercentileStats stats =
        computePercentiles(std::move(samples));
    EXPECT_DOUBLE_EQ(stats.p50, 50.0);
    EXPECT_DOUBLE_EQ(stats.p95, 95.0);
    EXPECT_DOUBLE_EQ(stats.max, 100.0);
    EXPECT_DOUBLE_EQ(stats.mean, 50.5);
    EXPECT_DOUBLE_EQ(stats.total, 5050.0);
}

}  // namespace
}  // namespace edgepcc
