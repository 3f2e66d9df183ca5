/**
 * live-v1: the paper's shipped design (Intra-Inter-V1: IPP, GOP 3,
 * entropy off) at 100k points per frame, closed loop — each frame is
 * encoded, then decoded, in capture order, one frame in flight, on
 * one thread (0 pool workers: on a shared 4-vCPU host, 3 workers were
 * no faster and their wake-ups made frame times wander). Set-up is
 * the pool, the encoder and decoder, and a warm-up over the first 12
 * frames.
 */

#include <algorithm>
#include <memory>

#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "workload.h"

namespace perfbench {

using namespace edgepcc;

namespace {

constexpr std::size_t kPoints = 100000;
/** Distinct frames cycled by the timed loop: eight 3-frame clips,
 *  one IPP GOP each, so content varies less from seed to seed. */
constexpr int kClips = 8;
constexpr int kPoolFrames = 24;
/** Frames per throughput window (4 GOPs); set-ups interleaved with
 *  the timed phase fall between windows, so on GOP boundaries. */
constexpr int kWindowFrames = 12;
constexpr int kWarmupFrames = 12;
constexpr double kPsnrFloorDb = 30.0;

/**
 * Share of live captures the device pipeline misses. A camera at
 * kCaptureFps feeds a one-frame mailbox; the pipeline takes the newest
 * capture whenever it is free and holds it, one frame in flight,
 * through modelled encode, Wi-Fi transfer, modelled decode and render.
 * A capture overwritten before it is taken misses its display slot; in
 * the long run that is 1 - capture period / mean time in flight.
 */
double
missedCaptureFraction(const std::vector<FrameLatency> &frames)
{
    double in_flight_s = 0.0;
    for (const FrameLatency &frame : frames)
        in_flight_s += frame.total() - frame.capture_s;
    const double mean_s = in_flight_s / static_cast<double>(frames.size());
    return std::max(0.0, 1.0 - 1.0 / (kCaptureFps * mean_s));
}

}  // namespace

void
runLiveV1(const Options &options, Report &report, SpanLog *spans)
{
    const CodecConfig codec = makeIntraInterV1Config();
    const std::vector<VoxelCloud> pool =
        generateClips(options.seed, kPoints, kClips, kPoolFrames / kClips);
    report.record("pool_workers", "0");
    report.record("frames_cycled", std::to_string(kPoolFrames));

    RssProbe rss;
    rss.reset();
    report.record("rss_reset", rss.resetWorked() ? "1" : "0");

    std::unique_ptr<ScopedGlobalPool> threads;
    std::unique_ptr<VideoEncoder> encoder;
    std::unique_ptr<VideoDecoder> decoder;
    bool ok = true;
    SetupTimer setup(
        [&] {
            decoder.reset();
            encoder.reset();
            threads.reset();
        },
        [&] {
            threads = std::make_unique<ScopedGlobalPool>(0);
            encoder = std::make_unique<VideoEncoder>(codec);
            decoder = std::make_unique<VideoDecoder>();
            for (int f = 0; f < kWarmupFrames && ok; ++f) {
                report.attempt(2);
                auto encoded =
                    encoder->encode(pool[static_cast<std::size_t>(f)]);
                ok = report.expectValue(encoded, "warm-up encode") &&
                     report.expectValue(
                         decoder->decode(encoded->bitstream),
                         "warm-up decode");
            }
            encoder->reset();
            decoder->reset();
        },
        spans != nullptr ? 1 : kSetupRepeats);
    setup.run();

    // Timed closed loop. Even windows are traced in the traced mode,
    // odd ones not, for trace.overhead_frac.
    std::vector<double> frame_s;
    std::vector<std::vector<double>> frame_by_slot(kPoolFrames),
        encode_by_slot(kPoolFrames), decode_by_slot(kPoolFrames);
    std::vector<Window> windows, traced, untraced;
    std::vector<CodedFrame> coded(kPoolFrames);
    std::vector<VoxelCloud> decoded(kPoolFrames);
    std::vector<std::uint64_t> cycle_bytes(kPoolFrames, 0);
    double intact = 0.0;

    const Usage usage_before = processUsage();
    setup.startPhase(options.seconds);
    std::int64_t frame_id = 0;
    while (ok && (!setup.phaseDone() || frame_id < 2 * kPoolFrames)) {
        const bool traced_window =
            spans != nullptr && windows.size() % 2 == 0;
        SpanLog *log = traced_window ? spans : nullptr;
        Window window;
        const double window_start = cpuSeconds();
        for (int k = 0; k < kWindowFrames && ok; ++k, ++frame_id) {
            const std::size_t slot =
                static_cast<std::size_t>(frame_id % kPoolFrames);
            Span frame_span(log, "live.frame", frame_id);
            Span encode_span(log, "core.encode", frame_id);
            auto encoded = encoder->encode(pool[slot]);
            const double enc = encode_span.stop();
            report.attempt();
            if (!(ok = report.expectValue(encoded, "encode")))
                break;
            Span decode_span(log, "core.decode", frame_id);
            auto frame = decoder->decode(encoded->bitstream);
            const double dec = decode_span.stop();
            report.attempt();
            if (!(ok = report.expectValue(frame, "decode")))
                break;
            frame_s.push_back(frame_span.stop());
            frame_by_slot[slot].push_back(frame_s.back());
            encode_by_slot[slot].push_back(enc);
            decode_by_slot[slot].push_back(dec);
            window.frames += 1.0;

            const FrameStats &stats = encoded->stats;
            if (frame->cloud.size() == stats.num_voxels)
                intact += 1.0;
            else
                report.check(false, "frame " + std::to_string(frame_id) +
                                        " decoded to the wrong voxel "
                                        "count");
            if (frame_id < kPoolFrames)
                cycle_bytes[slot] = stats.total_bytes;
            else if (cycle_bytes[slot] != stats.total_bytes)
                report.check(false, "frame " + std::to_string(frame_id) +
                                        " coded differently from its "
                                        "first cycle");
            coded[slot] = CodedFrame{&pool[slot], &codec, stats, enc, dec};
            decoded[slot] = std::move(frame->cloud);
        }
        window.seconds = cpuSeconds() - window_start;
        windows.push_back(window);
        (traced_window ? traced : untraced).push_back(window);
        setup.between();
    }
    const double wall_s = setup.phaseSeconds();
    const Usage usage_after = processUsage();
    const double peak_mb = rss.peakAboveBaselineMb();
    report.record("timed_frames", std::to_string(frame_id));
    if (!ok)
        return;
    setup.finish();

    if (spans != nullptr) {
        // Per-layer metrics: the codec layers replayed on one cycle,
        // with each slot's median call times for the core residual.
        for (std::size_t s = 0; s < coded.size(); ++s) {
            coded[s].encode_s = computePercentiles(encode_by_slot[s]).p50;
            coded[s].decode_s = computePercentiles(decode_by_slot[s]).p50;
        }
        replayCodecLayers(coded, spans, report);
        const std::vector<VoxelCloud> prefix(pool.begin(),
                                             pool.begin() + 12);
        replayStreamLayer(prefix, codec,
                          uplinkPipeline(mixSeed(options.seed, 1)),
                          spans, report, nullptr);
        // Half the fleet at a third of the rate, so failover has room
        // at 100k points.
        FleetShape shape;
        shape.tenants = 6;
        shape.fps = kCaptureFps / 3.0;
        shape.frames_per_tenant = 8;
        shape.seed = options.seed;
        replayServeLayer(buildTenants(probeContents(pool), shape),
                         fleetConfig(shape), spans, report);
        reportProcessLayers(usage_before, usage_after, wall_s,
                            static_cast<double>(frame_id), report);
        reportTraceOverhead(traced, untraced, report);
        return;
    }

    // Output checks after the timed phase: quality of the last cycle,
    // and the program's own pricing of the same frames.
    std::vector<double> psnr;
    for (std::size_t s = 0; s < pool.size(); ++s) {
        psnr.push_back(attributePsnr(pool[s], decoded[s]).psnr);
        if (psnr.back() < kPsnrFloorDb)
            report.check(false, "frame slot " + std::to_string(s) +
                                    " below the PSNR floor");
    }
    const PipelineConfig pipe;
    report.attempt();
    auto priced = evaluatePipeline(pool, codec, pipe);
    if (!report.expectValue(priced, "evaluatePipeline"))
        return;
    std::vector<double> model_encode, model_e2e;
    for (std::size_t s = 0; s < priced->frames.size(); ++s) {
        const FrameLatency &frame = priced->frames[s];
        model_encode.push_back(frame.encode_s * 1e3);
        model_e2e.push_back(frame.total() * 1e3);
        report.check(frame.bytes == cycle_bytes[s],
                     "evaluatePipeline coded slot " + std::to_string(s) +
                         " differently from the timed loop");
    }
    double bytes = 0.0;
    for (const std::uint64_t b : cycle_bytes)
        bytes += static_cast<double>(b);

    const double frames = static_cast<double>(frame_id);
    const PercentileStats e2e_ms = computePercentiles(model_e2e);
    report.metric("setup_s", setup.medianSeconds(), "s");
    report.metric("fps",
                  bestFps(frame_by_slot,
                          std::vector<double>(frame_by_slot.size(), 1.0)),
                  "frames/s");
    report.metric("frame_ms_p50", medianOfBests(frame_by_slot) * 1e3, "ms");
    report.metric("frame_ms_p95", computePercentiles(frame_s).p95 * 1e3,
                  "ms");
    report.metric("encode_ms_p50", medianOfBests(encode_by_slot) * 1e3,
                  "ms");
    report.metric("decode_ms_p50", medianOfBests(decode_by_slot) * 1e3,
                  "ms");
    report.deterministicMetric("model_encode_ms_p50",
                               computePercentiles(model_encode).p50, "ms");
    report.deterministicMetric("model_e2e_ms_p50", e2e_ms.p50, "ms");
    report.deterministicMetric("model_e2e_ms_p95", e2e_ms.p95, "ms");
    report.deterministicMetric("bytes_per_point", bytes / countPoints(pool),
                               "B/pt");
    report.deterministicMetric("attr_psnr_db",
                               computePercentiles(psnr).mean, "dB");
    report.deterministicMetric("delivered_frac", intact / frames,
                               "fraction");
    report.deterministicMetric("deadline_miss_frac",
                               missedCaptureFraction(priced->frames),
                               "fraction");
    report.metric("peak_rss_mb", peak_mb, "MB");
}

}  // namespace perfbench
