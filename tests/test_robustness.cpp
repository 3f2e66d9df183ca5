/**
 * @file
 * Failure-injection tests: randomized corruption of valid
 * bitstreams must never crash, hang or read out of bounds — every
 * decode either fails cleanly or returns a structurally valid
 * cloud. Also the resource-exhaustion contract: the public codec
 * entry points return RESOURCE_EXHAUSTED (never throw) when an
 * allocation fails mid-encode/decode/session/serve — also when the
 * failing allocation happens in a pool task, the pool's own
 * constructor or a closing stage or span — and degenerate inputs
 * (empty or all-duplicate clouds) round-trip or fail cleanly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "edgepcc/common/rng.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/common/work_counters.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/octree/parallel_builder.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/arena.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "edgepcc/stream/stream_file.h"
#include "edgepcc/stream/stream_session.h"

// -----------------------------------------------------------------
// Allocation-failure injection
//
// Global operator new replacement with a thread-local single-shot
// countdown: the N-th allocation on the *armed thread* throws
// std::bad_alloc, then the hook disarms itself (so the error path —
// Status strings and all — allocates freely). Worker threads of the
// codec's thread pool are never armed; only the caller-thread
// allocation stream is attacked, which is exactly the path the
// Status-returning wrappers must cover. The nothrow forms are
// replaced too, outside the countdown (they report failure with a
// null pointer, not an exception): std::stable_sort's temporary
// buffer comes from them and goes back through operator delete,
// so both sides must use the same heap.
// -----------------------------------------------------------------

namespace {
/** Allocations left before the injected failure; -1 = disarmed. */
thread_local std::int64_t g_alloc_countdown = -1;
/** Calls of the throwing operator new forms on this thread. */
thread_local std::int64_t g_alloc_count = 0;

struct ScopedAllocFailure {
    explicit ScopedAllocFailure(std::int64_t after)
    {
        g_alloc_countdown = after;
    }
    ~ScopedAllocFailure() { g_alloc_countdown = -1; }
    /** True when the injected failure actually fired. */
    bool
    fired() const
    {
        return g_alloc_countdown == -1;
    }
};

void *
countdownAlloc(std::size_t size)
{
    ++g_alloc_count;
    if (g_alloc_countdown >= 0) {
        if (g_alloc_countdown == 0) {
            g_alloc_countdown = -1;  // single shot, then disarm
            throw std::bad_alloc();
        }
        --g_alloc_countdown;
    }
    if (size == 0)
        size = 1;
    void *ptr = std::malloc(size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}
}  // namespace

void *
operator new(std::size_t size)
{
    return countdownAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countdownAlloc(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return std::malloc(size == 0 ? 1 : size);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

namespace edgepcc {
namespace {

class RobustnessTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        VideoSpec spec;
        spec.name = "robust";
        spec.seed = 4321;
        spec.target_points = 8000;
        video_ = new SyntheticHumanVideo(spec);
        frames_.push_back(video_->frame(0));
        frames_.push_back(video_->frame(1));
    }

    static void
    TearDownTestSuite()
    {
        delete video_;
        video_ = nullptr;
        frames_.clear();
    }

    /** Decodes a (possibly corrupted) stream; on success the cloud
     *  must satisfy its invariants. */
    static void
    decodeMustNotMisbehave(VideoDecoder &decoder,
                           const std::vector<std::uint8_t> &stream)
    {
        auto decoded = decoder.decode(stream);
        if (decoded.hasValue()) {
            EXPECT_TRUE(decoded->cloud.checkInvariants());
        }
    }

    /** Allocation-failure sweeps over the codec entry points: a
     *  failure that fires must surface as kResourceExhausted. */
    static void encodeSweep();
    static void encodePFrameSweep();
    static void decodeSweep();
    static void decodePromotedSweep();

    static SyntheticHumanVideo *video_;
    static std::vector<VoxelCloud> frames_;
};

SyntheticHumanVideo *RobustnessTest::video_ = nullptr;
std::vector<VoxelCloud> RobustnessTest::frames_;

TEST_F(RobustnessTest, SingleByteFlipsNeverCrash)
{
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(frames_[0]);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        Rng rng(1);
        for (int trial = 0; trial < 60; ++trial) {
            auto corrupted = encoded->bitstream;
            const std::size_t pos =
                rng.bounded(corrupted.size());
            corrupted[pos] ^= static_cast<std::uint8_t>(
                1u << rng.bounded(8));
            VideoDecoder decoder;
            decodeMustNotMisbehave(decoder, corrupted);
        }
    }
}

TEST_F(RobustnessTest, TruncationsNeverCrash)
{
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(frames_[0]);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        for (const double fraction :
             {0.0, 0.05, 0.3, 0.5, 0.9, 0.999}) {
            auto truncated = encoded->bitstream;
            truncated.resize(static_cast<std::size_t>(
                static_cast<double>(truncated.size()) *
                fraction));
            VideoDecoder decoder;
            decodeMustNotMisbehave(decoder, truncated);
        }
    }
}

TEST_F(RobustnessTest, CorruptedPFrameNeverCrashes)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    ASSERT_TRUE(i_frame.hasValue());
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(p_frame.hasValue());

    Rng rng(2);
    for (int trial = 0; trial < 60; ++trial) {
        VideoDecoder decoder;
        ASSERT_TRUE(decoder.decode(i_frame->bitstream).hasValue());
        auto corrupted = p_frame->bitstream;
        const std::size_t pos = rng.bounded(corrupted.size());
        corrupted[pos] ^=
            static_cast<std::uint8_t>(1u << rng.bounded(8));
        decodeMustNotMisbehave(decoder, corrupted);
    }
}

TEST_F(RobustnessTest, RandomGarbageNeverCrashes)
{
    Rng rng(3);
    VideoDecoder decoder;
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> garbage(
            rng.bounded(4096) + 1);
        for (auto &byte : garbage)
            byte = static_cast<std::uint8_t>(rng.bounded(256));
        decodeMustNotMisbehave(decoder, garbage);
    }
}

TEST_F(RobustnessTest, ValidHeaderGarbagePayloadNeverCrashes)
{
    // Keep the container magic intact and scramble everything
    // after it, which stresses the per-codec payload parsers.
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());
    Rng rng(4);
    for (int trial = 0; trial < 40; ++trial) {
        auto corrupted = encoded->bitstream;
        for (std::size_t i = 8; i < corrupted.size(); ++i) {
            if (rng.uniform() < 0.1) {
                corrupted[i] = static_cast<std::uint8_t>(
                    rng.bounded(256));
            }
        }
        VideoDecoder decoder;
        decodeMustNotMisbehave(decoder, corrupted);
    }
}

TEST_F(RobustnessTest, SwappedFrameOrderIsRejectedOrSafe)
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());
    // P before I must fail cleanly.
    VideoDecoder decoder;
    EXPECT_FALSE(decoder.decode(p_frame->bitstream).hasValue());
    // And the decoder must still work afterwards.
    EXPECT_TRUE(decoder.decode(i_frame->bitstream).hasValue());
    EXPECT_TRUE(decoder.decode(p_frame->bitstream).hasValue());
}

TEST_F(RobustnessTest, ReferenceFromDifferentVideoIsSafe)
{
    // Decode a P frame against a *wrong* reference (decoder state
    // from another stream with identical frame counts): must not
    // crash; output may be garbage but structurally valid.
    VideoEncoder encoder_a(makeIntraInterV1Config());
    auto ia = encoder_a.encode(frames_[0]);
    auto pa = encoder_a.encode(frames_[1]);
    ASSERT_TRUE(ia.hasValue());
    ASSERT_TRUE(pa.hasValue());

    VideoSpec other;
    other.name = "other";
    other.seed = 999;
    other.target_points = 8000;
    SyntheticHumanVideo other_video(other);
    VideoEncoder encoder_b(makeIntraInterV1Config());
    auto ib = encoder_b.encode(other_video.frame(0));
    ASSERT_TRUE(ib.hasValue());

    VideoDecoder decoder;
    ASSERT_TRUE(decoder.decode(ib->bitstream).hasValue());
    decodeMustNotMisbehave(decoder, pa->bitstream);
}

// -----------------------------------------------------------------
// Resource exhaustion: Status, not exceptions
// -----------------------------------------------------------------

void
RobustnessTest::encodeSweep()
{
    for (const CodecConfig &config : allPaperConfigs()) {
        bool saw_exhausted = false;
        for (const std::int64_t after :
             {std::int64_t{0}, std::int64_t{1}, std::int64_t{7},
              std::int64_t{40}, std::int64_t{200},
              std::int64_t{1000}}) {
            VideoEncoder encoder(config);
            bool fired = false;
            auto encoded = [&] {
                ScopedAllocFailure arm(after);
                auto result = encoder.encode(frames_[0]);
                fired = arm.fired();
                return result;
            }();
            if (fired) {
                saw_exhausted = true;
                ASSERT_FALSE(encoded.hasValue())
                    << config.name << " after=" << after;
                EXPECT_EQ(encoded.status().code(),
                          StatusCode::kResourceExhausted)
                    << config.name << " after=" << after;
            } else {
                EXPECT_TRUE(encoded.hasValue())
                    << config.name << " after=" << after;
            }
        }
        EXPECT_TRUE(saw_exhausted) << config.name;

        // The encoder survives the failures: a fresh clean encode
        // still succeeds on the same instance path.
        VideoEncoder encoder(config);
        {
            ScopedAllocFailure arm(0);
            (void)encoder.encode(frames_[0]);
        }
        EXPECT_TRUE(encoder.encode(frames_[0]).hasValue())
            << config.name;
    }
}

void
RobustnessTest::encodePFrameSweep()
{
    // The inter coders run only on a P frame, after a clean I
    // frame: fail each allocation of the P encode in turn, until
    // one encode needs no more. After every failure the same
    // encoder must produce the reference P frame.
    for (const CodecConfig &config :
         {makeIntraInterV1Config(), makeIntraInterV2Config(),
          makeCwipcLikeConfig()}) {
        VideoEncoder clean(config);
        ASSERT_TRUE(clean.encode(frames_[0]).hasValue())
            << config.name;
        auto reference = clean.encode(frames_[1]);
        ASSERT_TRUE(reference.hasValue()) << config.name;
        ASSERT_EQ(reference->stats.type, Frame::Type::kPredicted)
            << config.name;
        for (std::int64_t after = 0;; ++after) {
            VideoEncoder encoder(config);
            ASSERT_TRUE(encoder.encode(frames_[0]).hasValue())
                << config.name;
            bool fired = false;
            auto encoded = [&] {
                ScopedAllocFailure arm(after);
                auto result = encoder.encode(frames_[1]);
                fired = arm.fired();
                return result;
            }();
            if (!fired) {
                ASSERT_TRUE(encoded.hasValue())
                    << config.name << " after=" << after;
                EXPECT_EQ(encoded->bitstream, reference->bitstream)
                    << config.name << " after=" << after;
                break;
            }
            ASSERT_FALSE(encoded.hasValue())
                << config.name << " after=" << after;
            EXPECT_EQ(encoded.status().code(),
                      StatusCode::kResourceExhausted)
                << config.name << " after=" << after;
            auto retried = encoder.encode(frames_[1]);
            ASSERT_TRUE(retried.hasValue())
                << config.name << " after=" << after;
            EXPECT_EQ(retried->bitstream, reference->bitstream)
                << config.name << " after=" << after;
        }
    }
}

void
RobustnessTest::decodeSweep()
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());

    bool saw_exhausted = false;
    for (const std::int64_t after :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{7},
          std::int64_t{40}, std::int64_t{200},
          std::int64_t{1000}}) {
        VideoDecoder decoder;
        bool fired = false;
        auto decoded = [&] {
            ScopedAllocFailure arm(after);
            auto result = decoder.decode(i_frame->bitstream);
            fired = arm.fired();
            return result;
        }();
        if (fired) {
            saw_exhausted = true;
            ASSERT_FALSE(decoded.hasValue()) << "after=" << after;
            EXPECT_EQ(decoded.status().code(),
                      StatusCode::kResourceExhausted)
                << "after=" << after;
            // The decoder is still usable after the failure.
            EXPECT_TRUE(
                decoder.decode(i_frame->bitstream).hasValue());
        } else {
            EXPECT_TRUE(decoded.hasValue()) << "after=" << after;
        }
    }
    EXPECT_TRUE(saw_exhausted);
}

void
RobustnessTest::decodePromotedSweep()
{
    VideoEncoder encoder(makeIntraInterV1Config());
    auto i_frame = encoder.encode(frames_[0]);
    auto p_frame = encoder.encode(frames_[1]);
    ASSERT_TRUE(i_frame.hasValue());
    ASSERT_TRUE(p_frame.hasValue());

    bool saw_exhausted = false;
    for (const std::int64_t after :
         {std::int64_t{0}, std::int64_t{7}, std::int64_t{40},
          std::int64_t{200}, std::int64_t{1000}}) {
        VideoDecoder decoder;  // no reference: promoted path
        bool fired = false;
        bool concealed = false;
        auto promoted = [&] {
            ScopedAllocFailure arm(after);
            auto result = decoder.decodePromoted(
                p_frame->bitstream, &frames_[0], &concealed);
            fired = arm.fired();
            return result;
        }();
        if (fired) {
            saw_exhausted = true;
            ASSERT_FALSE(promoted.hasValue()) << "after=" << after;
            EXPECT_EQ(promoted.status().code(),
                      StatusCode::kResourceExhausted)
                << "after=" << after;
        } else {
            EXPECT_TRUE(promoted.hasValue()) << "after=" << after;
        }
    }
    EXPECT_TRUE(saw_exhausted);
}

TEST_F(RobustnessTest, EncodeReturnsStatusOnAllocFailure)
{
    encodeSweep();
}

TEST_F(RobustnessTest, EncodePFrameReturnsStatusOnAllocFailure)
{
    encodePFrameSweep();
}

TEST_F(RobustnessTest, DecodeReturnsStatusOnAllocFailure)
{
    decodeSweep();
}

TEST_F(RobustnessTest, DecodePromotedReturnsStatusOnAllocFailure)
{
    decodePromotedSweep();
}

TEST_F(RobustnessTest, CodecSweepsBackToBackOnThreeWorkers)
{
    // One process, a pool with workers: a failure injected into a
    // chunk the caller helps run must come back as a Status too,
    // and no stage or span may allocate while closing.
    ScopedGlobalPool pool(3);
    encodeSweep();
    decodeSweep();
    decodePromotedSweep();
}

TEST_F(RobustnessTest, ServeSchedulerReturnsStatusOnAllocFailure)
{
    // Two replicas, per-frame checkpoints and a twin tenant that
    // hits the reference cache: the batch tasks restore and snapshot
    // encoder state outside the encoder's own guard.
    serve::ServeConfig config;
    config.replicas = 2;
    config.quantum_s = 10.0;
    config.batch_max = 4;
    config.checkpoint_interval_frames = 1;
    std::vector<serve::TenantSpec> tenants(3);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        tenants[t].name = std::string(1, static_cast<char>('A' + t));
        tenants[t].codec = makeIntraInterV1Config();
        tenants[t].frames = frames_;
    }
    tenants[1].arrival_offset_s = 0.01;  // A's twin, one step behind
    tenants[2].codec = makeIntraOnlyConfig();
    tenants[2].deadline_class = serve::DeadlineClass::kInteractive;

    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{3}}) {
        ScopedGlobalPool pool(workers);
        auto clean = serve::ServeScheduler(config, tenants).run();
        ASSERT_TRUE(clean.hasValue());
        ASSERT_GT(clean->cache.hits, 0u);
        const std::string expected = serve::traceString(*clean);

        // Step through the whole run until the failure no longer
        // fires; that last, clean run must match the reference.
        for (std::int64_t after = 0;; after += 23) {
            ASSERT_LT(after, 100000) << "the sweep never completed";
            serve::ServeScheduler scheduler(config, tenants);
            bool fired = false;
            auto report = [&] {
                ScopedAllocFailure arm(after);
                auto result = scheduler.run();
                fired = arm.fired();
                return result;
            }();
            if (!fired) {
                ASSERT_TRUE(report.hasValue())
                    << workers << " workers";
                EXPECT_EQ(serve::traceString(*report), expected);
                break;
            }
            ASSERT_FALSE(report.hasValue())
                << workers << " workers, after=" << after;
            EXPECT_EQ(report.status().code(),
                      StatusCode::kResourceExhausted)
                << workers << " workers, after=" << after;
        }
    }
}

/** Every SessionStats and FecStats counter of a report, one line. */
std::string
sessionCounters(const SessionReport &report)
{
    const SessionStats &s = report.stats;
    const FecStats &f = report.fec;
    std::ostringstream out;
    out << std::setprecision(17) << "chunks " << s.chunks_sent
        << " parity " << s.parity_sent << " delivered "
        << s.frames_delivered << " lost " << s.frames_lost
        << " nacks " << s.nacks << " retransmits " << s.retransmits
        << " keyframes " << s.keyframes_forced << " ok "
        << s.frames_ok << " resynced " << s.frames_resynced
        << " concealed " << s.frames_concealed << " skipped "
        << s.frames_skipped << " wire " << s.wire_bytes
        << " backoff " << s.backoff_s << " | groups " << f.groups
        << " parity " << f.parity_received << " recovered "
        << f.recovered_chunks << " single " << f.single_loss_groups
        << '/' << f.single_loss_recovered << " multi "
        << f.multi_loss_groups << '/' << f.multi_loss_recovered
        << " unrecovered " << f.unrecovered_groups;
    return out.str();
}

TEST_F(RobustnessTest, StreamSessionReturnsStatusOnAllocFailure)
{
    // Slicing, RS parity, the lossy channel, NACK rounds and the
    // receiver all allocate outside the encoder's own guard. A
    // decoder failure inside the receiver may instead degrade one
    // frame down the ladder (conceal or skip), which still reports
    // every frame.
    const CodecConfig codec = makeIntraInterV1Config();
    SessionConfig config;
    config.channel = ChannelSpec::lossy(0.05, 3);
    config.mtu_payload = 600;
    config.fec.enabled = true;
    config.fec.scheme = FecScheme::kReedSolomon;
    config.fec.group_size = 4;
    config.fec.parity_chunks = 2;

    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{3}}) {
        ScopedGlobalPool pool(workers);
        auto clean = StreamSession(codec, config).run(frames_);
        ASSERT_TRUE(clean.hasValue());
        const std::string expected = sessionCounters(*clean);

        // Step through the whole run until the failure no longer
        // fires; that last, clean run must match the reference.
        bool saw_exhausted = false;
        for (std::int64_t after = 0;; after += 23) {
            ASSERT_LT(after, 100000) << "the sweep never completed";
            StreamSession session(codec, config);
            std::optional<Expected<SessionReport>> report;
            bool fired = false;
            try {
                ScopedAllocFailure arm(after);
                report.emplace(session.run(frames_));
                fired = arm.fired();
            } catch (const std::bad_alloc &) {
                FAIL() << "bad_alloc escaped run(): " << workers
                       << " workers, after=" << after;
            }
            if (!fired) {
                ASSERT_TRUE(report->hasValue())
                    << workers << " workers";
                EXPECT_EQ(sessionCounters(**report), expected)
                    << workers << " workers";
                break;
            }
            if (report->hasValue()) {
                EXPECT_EQ((*report)->frames.size(), frames_.size())
                    << workers << " workers, after=" << after;
            } else {
                saw_exhausted = true;
                EXPECT_EQ(report->status().code(),
                          StatusCode::kResourceExhausted)
                    << workers << " workers, after=" << after;
            }
        }
        EXPECT_TRUE(saw_exhausted) << workers << " workers";
    }
}

// -----------------------------------------------------------------
// Allocation failure in the pool and in closing scopes
// -----------------------------------------------------------------

TEST_F(RobustnessTest, ThreadPoolConstructorIsExceptionSafe)
{
    // Starting the 2nd or 3rd worker can fail while the 1st already
    // waits for work: the constructor must join it and rethrow,
    // never hang on the condition variable or terminate.
    for (std::int64_t after = 0;; ++after) {
        ASSERT_LT(after, 10000) << "the pool never constructed";
        std::unique_ptr<ThreadPool> pool;
        {
            ScopedAllocFailure arm(after);
            try {
                pool = std::make_unique<ThreadPool>(3);
            } catch (const std::bad_alloc &) {
                EXPECT_TRUE(arm.fired()) << "after=" << after;
            }
        }
        if (pool != nullptr) {
            EXPECT_EQ(pool->numThreads(), 3u);
            break;
        }
    }
}

TEST_F(RobustnessTest, TaskGroupTakesBackAFailedSubmit)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    {
        ScopedAllocFailure arm(0);
        EXPECT_THROW(group.run([&ran] { ++ran; }), std::bad_alloc);
        EXPECT_TRUE(arm.fired());
    }
    group.run([&ran] { ++ran; });
    group.wait();  // must not wait for the task never queued
    EXPECT_EQ(ran.load(), 1);
}

TEST_F(RobustnessTest, ClosingAStageNeverAllocates)
{
    // ~ScopedStage runs while unwinding, so a failure there would
    // terminate the process: only opening the stage or recording a
    // kernel may throw. Swept with the span off and on.
    Tracer &tracer = Tracer::global();
    for (const bool tracing : {false, true}) {
        tracer.setEnabled(tracing);
        for (std::int64_t after = 0;; ++after) {
            ASSERT_LT(after, 1000) << "the sweep never completed";
            tracer.clear();
            WorkRecorder recorder;
            int phase = 0;  // 0 opening, 1 recording, 2 closing
            bool fired = false;
            {
                ScopedAllocFailure arm(after);
                try {
                    ScopedStage stage(
                        &recorder, "robustness.stage_with_a_long_name");
                    phase = 1;
                    recordKernel(&recorder,
                                 {"robustness.kernel_with_a_long_name",
                                  ExecResource::kGpu, 1, 64, 64, 512});
                    phase = 2;
                } catch (const std::bad_alloc &) {
                    EXPECT_LT(phase, 2)
                        << "after=" << after << " tracing=" << tracing;
                }
                fired = arm.fired();
            }
            if (!fired) {
                const auto &stages = recorder.profile().stages;
                ASSERT_EQ(stages.size(), 1u);
                EXPECT_EQ(stages[0].kernels.size(), 1u);
                const auto events = tracer.events();
                ASSERT_EQ(events.size(), tracing ? 1u : 0u);
                if (tracing) {
                    EXPECT_EQ(events[0].dur_s, stages[0].host_seconds);
                }
                break;
            }
        }
    }
    tracer.setEnabled(false);
    tracer.clear();
}

TEST_F(RobustnessTest, ClosingATraceSpanNeverAllocates)
{
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(true);
    for (std::int64_t after = 0;; ++after) {
        ASSERT_LT(after, 1000) << "the sweep never completed";
        tracer.clear();
        bool fired = false;
        {
            ScopedAllocFailure arm(after);
            try {
                for (int i = 0; i < 40; ++i) {
                    ScopedTrace outer("robustness.outer");
                    ScopedTrace inner("robustness.inner");
                }
            } catch (const std::bad_alloc &) {
                // Opening a span may fail; closing one may not.
            }
            fired = arm.fired();
        }
        if (!fired) {
            EXPECT_EQ(tracer.eventCount(), 80u);
            break;
        }
    }
    tracer.setEnabled(false);
    tracer.clear();
}

// -----------------------------------------------------------------
// Degenerate inputs
// -----------------------------------------------------------------

TEST_F(RobustnessTest, EmptyCloudReturnsCleanlyEverywhere)
{
    const VoxelCloud empty(frames_[0].gridBits());
    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(empty);
        if (!encoded.hasValue()) {
            // A clean rejection is acceptable — but it must be a
            // Status, which reaching this line proves.
            continue;
        }
        VideoDecoder decoder;
        auto decoded = decoder.decode(encoded->bitstream);
        if (decoded.hasValue()) {
            EXPECT_TRUE(decoded->cloud.checkInvariants())
                << config.name;
            EXPECT_EQ(decoded->cloud.size(), 0u) << config.name;
        }
    }
}

TEST_F(RobustnessTest, AllDuplicatePointsRoundTrip)
{
    // 64 copies of one voxel: the degenerate cloud every dedup,
    // segmentation and block-match path must survive.
    VoxelCloud dupes(frames_[0].gridBits());
    for (int i = 0; i < 64; ++i)
        dupes.add(100, 200, 50, 10, 20, 30);

    for (const CodecConfig &config : allPaperConfigs()) {
        VideoEncoder encoder(config);
        auto encoded = encoder.encode(dupes);
        ASSERT_TRUE(encoded.hasValue()) << config.name;
        VideoDecoder decoder;
        auto decoded = decoder.decode(encoded->bitstream);
        ASSERT_TRUE(decoded.hasValue()) << config.name;
        EXPECT_TRUE(decoded->cloud.checkInvariants())
            << config.name;
        ASSERT_EQ(decoded->cloud.size(), 1u) << config.name;
        EXPECT_EQ(decoded->cloud.x()[0], 100) << config.name;
        EXPECT_EQ(decoded->cloud.y()[0], 200) << config.name;
        EXPECT_EQ(decoded->cloud.z()[0], 50) << config.name;
    }
}

// -----------------------------------------------------------------
// FrameArena: growth failure + steady-state reuse
// -----------------------------------------------------------------

TEST_F(RobustnessTest, ArenaGrowthFailurePropagatesAsBadAlloc)
{
    FrameArena arena(1u << 12);
    {
        ScopedAllocFailure arm(0);
        EXPECT_THROW(arena.allocate(64), std::bad_alloc);
        EXPECT_TRUE(arm.fired());
    }
    // The failed growth must leave the arena consistent: the next
    // attempt (heap healthy again) succeeds.
    EXPECT_NE(arena.allocate(64), nullptr);
}

TEST_F(RobustnessTest, ArenaSteadyStateReusesWarmBlocks)
{
    FrameArena arena;
    // Warm-up frame: carve a realistic mix of scratch sizes,
    // including one spilling past the first block.
    for (int i = 0; i < 8; ++i)
        arena.allocateArray<std::uint64_t>(40000);
    const std::size_t reserved = arena.bytesReserved();
    const std::size_t blocks = arena.upstreamBlockCount();
    arena.reset();
    EXPECT_EQ(arena.bytesUsed(), 0u);
    {
        // Replay the same carve with the very next heap allocation
        // armed to fail: the warm blocks must satisfy it with zero
        // upstream traffic, or the countdown fires and throws.
        ScopedAllocFailure arm(0);
        for (int i = 0; i < 8; ++i)
            arena.allocateArray<std::uint64_t>(40000);
        EXPECT_FALSE(arm.fired());
    }
    EXPECT_EQ(arena.bytesReserved(), reserved);
    EXPECT_EQ(arena.upstreamBlockCount(), blocks);
}

TEST_F(RobustnessTest, ParallelOctreeAllocationsIndependentOfDepth)
{
    // On a warm bound arena every sweep's scratch is carved from
    // it, so the heap sees the same allocations at any depth.
    FrameArena arena;
    ScopedFrameArena bind(&arena);
    const int depths[] = {2, 10, 21};
    std::vector<std::vector<std::uint64_t>> inputs;
    Rng rng(27);
    for (const int depth : depths) {
        const std::uint64_t mask =
            (std::uint64_t{1} << (3 * depth)) - 1;
        std::vector<std::uint64_t> codes(2000);
        for (auto &code : codes)
            code = rng() & mask;
        std::sort(codes.begin(), codes.end());
        inputs.push_back(std::move(codes));
    }
    for (std::size_t d = 0; d < inputs.size(); ++d) {
        arena.reset();
        ASSERT_TRUE(buildParallelOctree(inputs[d], depths[d]));
    }
    std::vector<std::int64_t> allocations;
    for (std::size_t d = 0; d < inputs.size(); ++d) {
        arena.reset();
        const std::int64_t before = g_alloc_count;
        const auto occupancy =
            buildParallelOctree(inputs[d], depths[d]);
        allocations.push_back(g_alloc_count - before);
        ASSERT_TRUE(occupancy);
    }
    EXPECT_EQ(allocations[0], allocations[1]);
    EXPECT_EQ(allocations[0], allocations[2]);
}

TEST_F(RobustnessTest, ScopedFrameArenaRestoresPreviousBinding)
{
    EXPECT_EQ(currentFrameArena(), nullptr);
    FrameArena outer_arena;
    FrameArena inner_arena;
    {
        ScopedFrameArena outer(&outer_arena);
        EXPECT_EQ(currentFrameArena(), &outer_arena);
        {
            ScopedFrameArena inner(&inner_arena);
            EXPECT_EQ(currentFrameArena(), &inner_arena);
        }
        EXPECT_EQ(currentFrameArena(), &outer_arena);
    }
    EXPECT_EQ(currentFrameArena(), nullptr);
}

#ifdef EDGEPCC_CLI_BINARY
TEST_F(RobustnessTest, CliRejectsTruncatedStreamWithNonZeroExit)
{
    // End-to-end: a .epcv whose frame payload is cut short must
    // make `edgepcc_cli decode` print a diagnostic and exit
    // non-zero, not crash or write a bogus reconstruction.
    VideoEncoder encoder(makeIntraOnlyConfig());
    auto encoded = encoder.encode(frames_[0]);
    ASSERT_TRUE(encoded.hasValue());

    auto truncated = encoded->bitstream;
    ASSERT_GT(truncated.size(), 16u);
    truncated.resize(truncated.size() / 3);

    const std::string dir = ::testing::TempDir();
    const std::string epcv = dir + "edgepcc_truncated.epcv";
    ASSERT_TRUE(writeStreamFile(epcv, {truncated}).isOk());

    const std::string command = std::string(EDGEPCC_CLI_BINARY) +
                                " decode " + epcv + " " + dir +
                                "edgepcc_truncated_out 2>/dev/null";
    const int exit_code = std::system(command.c_str());
    EXPECT_NE(exit_code, 0);

    // Sanity for the harness itself: a pristine stream decodes
    // with exit code 0 through the same path.
    const std::string good = dir + "edgepcc_good.epcv";
    ASSERT_TRUE(
        writeStreamFile(good, {encoded->bitstream}).isOk());
    const std::string good_command =
        std::string(EDGEPCC_CLI_BINARY) + " decode " + good +
        " " + dir + "edgepcc_good_out >/dev/null 2>&1";
    EXPECT_EQ(std::system(good_command.c_str()), 0);
}

/**
 * Runs `edgepcc_cli synth` with `flags`; true when it exits 2 and
 * writes no frame.
 */
::testing::AssertionResult
synthRefuses(const std::string &flags)
{
    // One prefix per test, so tests that run at once do not share
    // a frame file.
    const std::string prefix =
        ::testing::TempDir() + "edgepcc_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string frame = prefix + "_0000.ply";
    std::remove(frame.c_str());
    const std::string command = std::string(EDGEPCC_CLI_BINARY) +
                                " synth " + prefix + " " + flags +
                                " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    const bool wrote = std::ifstream(frame).good();
    if (WIFEXITED(status) && WEXITSTATUS(status) == 2 && !wrote)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "'" << flags << "': wait status " << status
           << ", wrote a frame " << wrote;
}

TEST_F(RobustnessTest, CliRejectsMalformedNumbers)
{
    // atoi/atof would read "abc" as 0 and "1x" as 1.
    for (const char *flags :
         {"--frames abc", "--frames 1x", "--points abc",
          "--frames 1 --points 1x", "--frames 1 --scale abc",
          "--frames 1 --scale 0.01x"}) {
        EXPECT_TRUE(synthRefuses(flags));
    }
}

TEST_F(RobustnessTest, CliRejectsOutOfRangeNumbers)
{
    for (const char *flags :
         {"--frames 0", "--frames -1", "--frames 99999999999",
          "--points 0", "--points -1", "--scale 0", "--scale -0.5",
          "--scale 2", "--scale nan", "--scale inf", "--frames"}) {
        EXPECT_TRUE(synthRefuses(flags));
    }
    // The bounds themselves are accepted.
    const std::string command =
        std::string(EDGEPCC_CLI_BINARY) + " synth " +
        ::testing::TempDir() +
        "edgepcc_accepted --frames 1 --points 1 --scale 1 "
        ">/dev/null 2>&1";
    EXPECT_EQ(std::system(command.c_str()), 0);
    std::remove(
        (::testing::TempDir() + "edgepcc_accepted_0000.ply").c_str());
}
#endif  // EDGEPCC_CLI_BINARY

}  // namespace
}  // namespace edgepcc
