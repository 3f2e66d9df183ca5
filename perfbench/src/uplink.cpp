/**
 * uplink-burst: evaluatePipeline with the real transport over an LTE
 * uplink — Intra-Inter-V1 at 10k points per frame in 1200-byte
 * slices, RS FEC under the redundancy controller, over a seeded
 * bursty channel lossy enough that FEC recovery, NACK rounds and the
 * receiver's degradation ladder all act. Closed loop, single-threaded
 * (0 pool workers): at 10k points the pool's parallel sections are
 * shorter than waking a worker on a shared host, so on 3 workers the
 * workload ran slower and its frame-time tail measured wake-ups. Each
 * call carries one 60-frame stream, and consecutive calls cycle 16
 * seeded channel streams. The session times its codec calls on the
 * wall clock, so host encode and decode latency come from the same
 * frames replayed in capture order through a VideoEncoder and a
 * VideoDecoder between timed calls. Set-up is the pool plus two
 * warm-up calls on the stream.
 */

#include <memory>
#include <optional>

#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "workload.h"

namespace perfbench {

using namespace edgepcc;

namespace {

constexpr std::size_t kPoints = 10000;
/** One call's stream: four 15-frame clips. */
constexpr int kClips = 4;
constexpr int kStreamFrames = 60;
constexpr int kChannelStreams = 16;
constexpr int kWarmupCalls = 2;
/** Frames (4 IPP GOPs) replayed for host latency after each timed
 *  call. */
constexpr int kReplayFrames = 12;
/** Capture-to-render budget of a live frame: the paper's
 *  near-real-time target of ~10 frames/s, one frame per 100 ms. */
constexpr double kLatencyBudgetS = 0.100;
/** Concealed frames count, so the floor sits below intact quality. */
constexpr double kPsnrFloorDb = 20.0;

bool
samePricing(const PipelineReport &a, const PipelineReport &b)
{
    if (a.frames.size() != b.frames.size() ||
        a.session.wire_bytes != b.session.wire_bytes ||
        a.session.frames_delivered != b.session.frames_delivered)
        return false;
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        if (a.frames[f].total() != b.frames[f].total() ||
            a.frames[f].outcome != b.frames[f].outcome)
            return false;
    }
    return true;
}

}  // namespace

void
runUplinkBurst(const Options &options, Report &report, SpanLog *spans)
{
    const CodecConfig codec = makeIntraInterV1Config();
    const std::vector<VoxelCloud> frames = generateClips(
        options.seed, kPoints, kClips, kStreamFrames / kClips);
    std::vector<PipelineConfig> channels;
    for (int c = 0; c < kChannelStreams; ++c)
        channels.push_back(uplinkPipeline(mixSeed(options.seed, 100 + c)));
    report.record("pool_workers", "0");
    report.record("stream_frames", std::to_string(kStreamFrames));

    RssProbe rss;
    rss.reset();
    report.record("rss_reset", rss.resetWorked() ? "1" : "0");

    std::unique_ptr<ScopedGlobalPool> threads;
    bool ok = true;
    SetupTimer setup(
        [&] { threads.reset(); },
        [&] {
            threads = std::make_unique<ScopedGlobalPool>(0);
            for (int c = 0; c < kWarmupCalls && ok; ++c) {
                report.attempt();
                ok = report.expectValue(
                    evaluatePipeline(frames, codec, channels[c]),
                    "warm-up evaluatePipeline");
            }
        },
        spans != nullptr ? 1 : kSetupRepeats);
    setup.run();

    // Timed calls cycle the channel streams through evaluatePipeline
    // (the modelled pricing). On the second cycle each channel stream
    // runs its session directly instead, untimed, for the decoded
    // frames and to check that it sends what evaluatePipeline priced.
    // In the traced mode every channel stream is traced on every other
    // one of its timed calls.
    std::vector<Window> traced, untraced;
    std::vector<std::vector<double>> call_s(kChannelStreams);
    std::vector<PipelineReport> priced(kChannelStreams);
    std::optional<SessionReport> kept;

    // Host latency: between timed calls (outside their windows) the
    // driver's own encoder and decoder carry on through the stream.
    VideoEncoder encoder(codec);
    VideoDecoder decoder;
    std::vector<double> frame_ms;
    std::vector<std::vector<double>> encode_by_frame(frames.size()),
        decode_by_frame(frames.size()), frame_by_frame(frames.size());
    std::size_t next_replay = 0;
    const auto replay = [&] {
        for (int k = 0; k < kReplayFrames; ++k) {
            const std::size_t f = next_replay++ % frames.size();
            const VoxelCloud &input = frames[f];
            report.attempt(2);
            double start_s = cpuSeconds();
            auto bits = encoder.encode(input);
            const double enc = cpuSeconds() - start_s;
            if (!report.expectValue(bits, "replayed encode"))
                return false;
            start_s = cpuSeconds();
            auto cloud = decoder.decode(bits->bitstream);
            const double dec = cpuSeconds() - start_s;
            if (!report.expectValue(cloud, "replayed decode"))
                return false;
            report.check(cloud->cloud.size() == bits->stats.num_voxels,
                         "replayed frame decoded to the wrong voxel count");
            encode_by_frame[f].push_back(enc * 1e3);
            decode_by_frame[f].push_back(dec * 1e3);
            frame_by_frame[f].push_back((enc + dec) * 1e3);
            frame_ms.push_back((enc + dec) * 1e3);
        }
        return true;
    };
    const Usage usage_before = processUsage();
    setup.startPhase(options.seconds);
    int call = 0;
    while (ok && (!setup.phaseDone() || call < 2 * kChannelStreams)) {
        const int c = call % kChannelStreams;
        const int cycle = call / kChannelStreams;
        report.attempt();
        if (cycle == 1) {
            StreamSession session(codec, channels[c].session);
            auto result = session.run(frames);
            if (!(ok = report.expectValue(result, "StreamSession::run")))
                break;
            bool same = result->frames.size() == frames.size();
            for (std::size_t f = 0; same && f < frames.size(); ++f)
                same = result->frames[f].wire_bytes ==
                       priced[c].frames[f].wire_bytes;
            report.check(same, "session run of channel stream " +
                                   std::to_string(c) +
                                   " differs from evaluatePipeline");
            if (c == 0)
                kept = std::move(*result);
        } else {
            const int round = cycle == 0 ? 0 : cycle - 1;
            const bool traced_window =
                spans != nullptr && (c + round) % 2 == 0;
            Span span(traced_window ? spans : nullptr, "pipeline.evaluate",
                      call);
            auto result = evaluatePipeline(frames, codec, channels[c]);
            const double seconds = span.stop();
            if (!(ok = report.expectValue(result, "evaluatePipeline")))
                break;
            report.check(result->frames.size() == frames.size(),
                         "one frame out of the session per input");
            if (cycle == 0)
                priced[c] = std::move(*result);
            else
                report.check(samePricing(priced[c], *result),
                             "repeated call " + std::to_string(call) +
                                 " priced differently");
            call_s[static_cast<std::size_t>(c)].push_back(seconds);
            (traced_window ? traced : untraced)
                .push_back(Window{static_cast<double>(frames.size()),
                                  seconds});
        }
        ++call;
        if (spans == nullptr)
            ok = replay();
        setup.between();
    }
    const double wall_s = setup.phaseSeconds();
    const Usage usage_after = processUsage();
    const double peak_mb = rss.peakAboveBaselineMb();
    report.record("timed_calls", std::to_string(call));
    if (!ok)
        return;
    setup.finish();

    // The channel must load every recovery path: RS recovery, NACK
    // rounds, and frames the receiver's ladder resynced, concealed or
    // skipped.
    std::size_t fec_recovered = 0, nacks = 0, not_ok = 0;
    for (const PipelineReport &stream : priced) {
        fec_recovered += stream.fec.single_loss_recovered +
                         stream.fec.multi_loss_recovered;
        nacks += stream.session.nacks;
        for (const FrameLatency &frame : stream.frames)
            not_ok += frame.outcome != FrameOutcome::kOk ? 1 : 0;
    }
    report.record("fec_recovered_groups", std::to_string(fec_recovered));
    report.record("nacks", std::to_string(nacks));
    report.record("frames_not_ok", std::to_string(not_ok));
    report.check(fec_recovered > 0, "no group recovered by FEC");
    report.check(nacks > 0, "no NACK round");
    report.check(not_ok > 0, "every frame arrived intact");

    if (spans != nullptr) {
        std::vector<CodedFrame> coded;
        replayStreamLayer(frames, codec, channels[0], spans, report,
                          &coded);
        replayCodecLayers(coded, spans, report);
        FleetShape shape;
        shape.seed = options.seed;
        replayServeLayer(buildTenants(probeContents(frames), shape),
                         fleetConfig(shape), spans, report);
        reportProcessLayers(usage_before, usage_after, wall_s,
                            static_cast<double>(call) * kStreamFrames,
                            report);
        reportTraceOverhead(traced, untraced, report);
        return;
    }

    // Pricing of every channel stream (identical on every call).
    std::vector<double> model_encode, model_e2e;
    double wire = 0.0, delivered = 0.0, missed = 0.0, offered = 0.0;
    for (const PipelineReport &stream : priced) {
        for (const FrameLatency &frame : stream.frames) {
            model_encode.push_back(frame.encode_s * 1e3);
            model_e2e.push_back(frame.total() * 1e3);
            const bool intact = frame.outcome == FrameOutcome::kOk ||
                                frame.outcome == FrameOutcome::kResynced;
            if (!intact || frame.total() > kLatencyBudgetS)
                missed += 1.0;
            wire += static_cast<double>(frame.wire_bytes);
        }
        delivered += static_cast<double>(stream.session.frames_delivered);
        offered += static_cast<double>(stream.frames.size());
    }

    // Quality of what the viewer got on channel stream 0, concealed
    // frames included.
    std::vector<double> psnr;
    for (std::size_t f = 0; f < kept->frames.size(); ++f) {
        const SessionFrame &frame = kept->frames[f];
        if (frame.outcome != FrameOutcome::kSkipped)
            psnr.push_back(attributePsnr(frames[f], frame.cloud).psnr);
    }
    const double mean_psnr = computePercentiles(psnr).mean;
    report.check(mean_psnr >= kPsnrFloorDb, "PSNR below the floor");

    const PercentileStats e2e = computePercentiles(model_e2e);
    report.metric("setup_s", setup.medianSeconds(), "s");
    report.metric("fps",
                  bestFps(call_s, std::vector<double>(
                                      call_s.size(),
                                      static_cast<double>(frames.size()))),
                  "frames/s");
    report.metric("frame_ms_p50", medianOfBests(frame_by_frame), "ms");
    report.metric("frame_ms_p95", computePercentiles(frame_ms).p95, "ms");
    report.metric("encode_ms_p50", medianOfBests(encode_by_frame), "ms");
    report.metric("decode_ms_p50", medianOfBests(decode_by_frame), "ms");
    report.deterministicMetric("model_encode_ms_p50",
                               computePercentiles(model_encode).p50, "ms");
    report.deterministicMetric("model_e2e_ms_p50", e2e.p50, "ms");
    report.deterministicMetric("model_e2e_ms_p95", e2e.p95, "ms");
    report.deterministicMetric(
        "bytes_per_point",
        wire / (countPoints(frames) * kChannelStreams), "B/pt");
    report.deterministicMetric("attr_psnr_db", mean_psnr, "dB");
    report.deterministicMetric("delivered_frac", delivered / offered,
                               "fraction");
    report.deterministicMetric("deadline_miss_frac", missed / offered,
                               "fraction");
    report.metric("peak_rss_mb", peak_mb, "MB");
}

}  // namespace perfbench
