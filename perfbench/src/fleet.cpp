/**
 * fleet-failover: the serve scheduler with 12 tenants on 3 replicas
 * at 31k points per frame on average, 30 fps per tenant, open loop on
 * the virtual device clock. Pairs of tenants share content (reference
 * cache hits), deadline classes cycle interactive/standard/bulk,
 * every tenant codes Intra-Only and bulk tenants add contextual
 * geometry entropy. Checkpointing is on and one replica crashes for
 * good mid-stream, so failover has to shed; timed calls crash replica
 * 0, 1 and 2 in turn. Single-threaded (0 pool workers); each timed
 * call schedules the whole fleet stream. Set-up is the pool plus one
 * scheduler run on a 10-frame prefix of every tenant's stream.
 */

#include <memory>
#include <optional>

#include "edgepcc/metrics/quality.h"
#include "edgepcc/parallel/thread_pool.h"
#include "workload.h"

namespace perfbench {

using namespace edgepcc;

namespace {

/**
 * Points per frame of each content. The interactive and standard
 * tenants get the light ones, the bulk tenants the heavy ones: after
 * any one crash the survivors then hold every displaced interactive
 * and standard tenant but no displaced bulk tenant, with about a
 * tenth of a replica to spare either way. Distinct sizes keep the
 * virtual-clock schedule from locking into a few latency steps whose
 * mix would flip from seed to seed.
 */
constexpr std::size_t kContentPoints[kFleetContents] = {
    17000, 19000, 21000, 23000, 52000, 56000};
constexpr int kContentFrames = 6;
constexpr int kWarmupFrames = 10;
/** Timed calls crash replica 0, 1 and 2 in turn. */
constexpr int kScenarios = 3;
/** Frames replayed for host codec latency after every timed call. */
constexpr std::size_t kSampledFrames = 48;
constexpr double kPsnrFloorDb = 30.0;

/** One scheduler call reduced to what the run reports. */
struct Summary {
    std::string trace;
    std::vector<double> model_encode_ms, model_e2e_ms;
    double offered = 0.0, served = 0.0, missed = 0.0, bytes = 0.0,
           points = 0.0;
    std::size_t shed = 0, cache_hits = 0;
};

/**
 * Reduces one scheduler call and checks it: no tenant loses frames,
 * the crash sheds, only bulk tenants are shed, and the reference cache
 * hits.
 */
Summary
summarize(const serve::ServeReport &run,
          const std::vector<serve::TenantSpec> &tenants, Report &report)
{
    Summary out;
    out.trace =
        serve::traceString(run) + "|" + serve::recoveryTraceString(run);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::TenantReport &tenant = run.tenants[t];
        const serve::TenantStats &s = tenant.stats;
        report.check(s.served + s.dropped + s.shed + s.faulted +
                             s.quarantined ==
                         s.frames,
                     "tenant " + tenant.name + " loses frames");
        report.check(s.shed == 0 || tenants[t].deadline_class ==
                                        serve::DeadlineClass::kBulk,
                     "failover shed non-bulk tenant " + tenant.name);
        out.shed += s.shed;
        out.cache_hits += s.cache_hits;
        out.offered += static_cast<double>(s.frames);
        out.served += static_cast<double>(s.served);
        out.missed += static_cast<double>(s.deadline_misses + s.dropped +
                                          s.shed + s.faulted +
                                          s.quarantined);
        for (const serve::ServedFrame &frame : tenant.frames) {
            const bool encoded =
                frame.outcome == serve::ServeOutcome::kEncoded;
            if (!encoded && frame.outcome != serve::ServeOutcome::kCacheHit)
                continue;
            if (encoded)
                out.model_encode_ms.push_back(frame.cost_s * 1e3);
            out.model_e2e_ms.push_back(
                (frame.completion_s - frame.arrival_s) * 1e3);
            out.bytes += static_cast<double>(frame.bitstream.size());
            out.points += static_cast<double>(
                tenants[t].frames[frame.frame_id].size());
        }
    }
    report.check(out.shed > 0, "the crash shed no frame");
    report.check(out.cache_hits > 0, "the reference cache never hit");
    return out;
}

}  // namespace

void
runFleetFailover(const Options &options, Report &report, SpanLog *spans)
{
    std::vector<std::vector<VoxelCloud>> contents;
    for (std::size_t c = 0; c < kFleetContents; ++c) {
        contents.push_back(generateFrames(mixSeed(options.seed, 200 + c),
                                          kContentPoints[c],
                                          kContentFrames));
    }
    FleetShape shape;
    shape.seed = options.seed;
    const std::vector<serve::TenantSpec> tenants =
        buildTenants(contents, shape);
    std::vector<serve::ServeConfig> scenarios;
    for (int r = 0; r < kScenarios; ++r)
        scenarios.push_back(fleetConfig(shape, r));
    FleetShape warmup_shape = shape;
    warmup_shape.frames_per_tenant = kWarmupFrames;
    const std::vector<serve::TenantSpec> warmup =
        buildTenants(contents, warmup_shape);
    report.record("pool_workers", "0");
    report.record("crash_at_s",
                  std::to_string(scenarios[0].faults.events.front().at_s));

    RssProbe rss;
    rss.reset();
    report.record("rss_reset", rss.resetWorked() ? "1" : "0");

    std::unique_ptr<ScopedGlobalPool> threads;
    bool ok = true;
    SetupTimer setup(
        [&] { threads.reset(); },
        [&] {
            threads = std::make_unique<ScopedGlobalPool>(0);
            serve::ServeScheduler scheduler(fleetConfig(warmup_shape),
                                            warmup);
            report.attempt();
            ok = ok && report.expectValue(scheduler.run(), "warm-up run");
        },
        spans != nullptr ? 1 : kSetupRepeats);
    setup.run();

    // Timed calls cycle the crash scenarios. Building a scheduler
    // copies its tenants, so only run() is timed. In the traced mode
    // every scenario is traced on one cycle out of two.
    std::vector<Window> windows, traced, untraced;
    std::vector<std::vector<double>> call_s(kScenarios);
    std::vector<double> served_per_call(kScenarios, 0.0);
    std::vector<Summary> summaries(kScenarios);
    std::optional<serve::ServeReport> kept;

    // Host encode and decode latency: the scheduler encodes inside
    // run(), so between timed calls (outside their windows) the driver
    // replays kSampledFrames of the frames the crash-replica-0 call
    // encoded, spread evenly over them, the same ones every time.
    std::vector<std::pair<std::size_t, const serve::ServedFrame *>> encoded;
    std::vector<VideoEncoder> encoders;
    for (const serve::TenantSpec &spec : tenants)
        encoders.emplace_back(spec.codec);
    VideoDecoder decoder;
    std::vector<double> frame_ms;
    std::vector<std::vector<double>> encode_by_frame(kSampledFrames),
        decode_by_frame(kSampledFrames), frame_by_frame(kSampledFrames);
    const auto sample = [&] {
        for (std::size_t k = 0; k < kSampledFrames; ++k) {
            const auto &[t, frame] =
                encoded[k * encoded.size() / kSampledFrames];
            report.attempt(2);
            double start_s = cpuSeconds();
            auto bits =
                encoders[t].encode(tenants[t].frames[frame->frame_id]);
            const double enc = (cpuSeconds() - start_s) * 1e3;
            start_s = cpuSeconds();
            auto cloud = decoder.decode(frame->bitstream);
            const double dec = (cpuSeconds() - start_s) * 1e3;
            if (!report.expectValue(bits, "replayed encode") ||
                !report.expectValue(cloud, "decode of a served frame"))
                return false;
            encode_by_frame[k].push_back(enc);
            decode_by_frame[k].push_back(dec);
            frame_by_frame[k].push_back(enc + dec);
            frame_ms.push_back(enc + dec);
        }
        return true;
    };
    const Usage usage_before = processUsage();
    setup.startPhase(options.seconds);
    int call = 0;
    const int min_calls = (spans != nullptr ? 2 : 1) * kScenarios;
    while (ok && (!setup.phaseDone() || call < min_calls)) {
        const int scenario = call % kScenarios;
        const int cycle = call / kScenarios;
        serve::ServeScheduler scheduler(
            scenarios[static_cast<std::size_t>(scenario)], tenants);
        const bool traced_window =
            spans != nullptr && (scenario + cycle) % 2 == 0;
        Span span(traced_window ? spans : nullptr, "serve.run", call);
        report.attempt();
        auto result = scheduler.run();
        const double seconds = span.stop();
        if (!(ok = report.expectValue(result, "ServeScheduler::run")))
            break;
        double served = 0.0;
        for (const serve::TenantReport &tenant : result->tenants)
            served += static_cast<double>(tenant.stats.served);
        const Window window{served, seconds};
        call_s[static_cast<std::size_t>(scenario)].push_back(seconds);
        served_per_call[static_cast<std::size_t>(scenario)] = served;
        windows.push_back(window);
        (traced_window ? traced : untraced).push_back(window);
        Summary &summary = summaries[static_cast<std::size_t>(scenario)];
        if (cycle == 0) {
            summary = summarize(*result, tenants, report);
            if (scenario == 0) {
                kept = std::move(*result);
                for (std::size_t t = 0; t < tenants.size(); ++t) {
                    for (const serve::ServedFrame &frame :
                         kept->tenants[t].frames) {
                        if (frame.outcome == serve::ServeOutcome::kEncoded)
                            encoded.emplace_back(t, &frame);
                    }
                }
            }
        } else {
            report.check(serve::traceString(*result) + "|" +
                                 serve::recoveryTraceString(*result) ==
                             summary.trace,
                         "repeated call " + std::to_string(call) +
                             " scheduled differently");
        }
        ++call;
        if (spans == nullptr && !encoded.empty())
            ok = sample();
        setup.between();
    }
    const double wall_s = setup.phaseSeconds();
    const Usage usage_after = processUsage();
    const double peak_mb = rss.peakAboveBaselineMb();
    report.record("timed_calls", std::to_string(call));
    if (!ok)
        return;
    setup.finish();
    std::string shed, hits;
    for (const Summary &s : summaries) {
        shed += (shed.empty() ? "" : "/") + std::to_string(s.shed);
        hits += (hits.empty() ? "" : "/") + std::to_string(s.cache_hits);
    }
    report.record("shed_by_crashed_replica", shed);
    report.record("cache_hits_by_crashed_replica", hits);

    if (spans != nullptr) {
        // Codec layers on two contents: an Intra-Only tenant's and a
        // bulk (entropy) tenant's frames, each call timed here.
        std::vector<CodedFrame> coded;
        for (const std::size_t t : {std::size_t{0}, std::size_t{2}}) {
            const serve::TenantSpec &spec = tenants[t];
            for (int f = 0; f < kContentFrames; ++f) {
                const VoxelCloud &input =
                    spec.frames[static_cast<std::size_t>(f)];
                Span enc_span(spans, "core.encode", f);
                auto bits = encoders[t].encode(input);
                const double enc_s = enc_span.stop();
                report.attempt(2);
                if (!report.expectValue(bits, "encode"))
                    return;
                Span dec_span(spans, "core.decode", f);
                const bool decoded = report.expectValue(
                    decoder.decode(bits->bitstream), "decode");
                const double dec_s = dec_span.stop();
                if (!decoded)
                    return;
                coded.push_back(CodedFrame{&input, &spec.codec,
                                           bits->stats, enc_s, dec_s});
            }
        }
        replayCodecLayers(coded, spans, report);
        const std::vector<VoxelCloud> prefix(
            tenants[0].frames.begin(), tenants[0].frames.begin() + 12);
        replayStreamLayer(prefix, tenants[0].codec,
                          uplinkPipeline(mixSeed(options.seed, 1)), spans,
                          report, nullptr);
        replayServeLayer(tenants, scenarios[1], spans, report);
        double served = 0.0;
        for (const Window &w : windows)
            served += w.frames;
        reportProcessLayers(usage_before, usage_after, wall_s, served,
                            report);
        reportTraceOverhead(traced, untraced, report);
        return;
    }

    // Output checks on the crash-replica-0 call: every served
    // bitstream decodes to its voxel count, and every encoded one is
    // reproduced byte for byte by a VideoEncoder replay.
    std::vector<double> psnr;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::TenantSpec &spec = tenants[t];
        for (const serve::ServedFrame &frame : kept->tenants[t].frames) {
            const bool hit = frame.outcome == serve::ServeOutcome::kCacheHit;
            if (frame.outcome != serve::ServeOutcome::kEncoded && !hit)
                continue;
            const VoxelCloud &input = spec.frames[frame.frame_id];
            report.attempt();
            auto cloud = decoder.decode(frame.bitstream);
            if (!report.expectValue(cloud, "decode of a served frame"))
                continue;
            report.check(cloud->cloud.size() == frame.stats.num_voxels,
                         "served frame decodes to the wrong voxel count");
            psnr.push_back(attributePsnr(input, cloud->cloud).psnr);
            if (hit)
                continue;
            report.attempt();
            auto bits = encoders[t].encode(input);
            if (report.expectValue(bits, "replayed encode"))
                report.check(bits->bitstream == frame.bitstream,
                             "replayed encode differs from the served "
                             "bitstream");
        }
    }
    const double mean_psnr = computePercentiles(psnr).mean;
    report.check(mean_psnr >= kPsnrFloorDb, "PSNR below the floor");

    Summary all;
    for (const Summary &s : summaries) {
        all.model_encode_ms.insert(all.model_encode_ms.end(),
                                   s.model_encode_ms.begin(),
                                   s.model_encode_ms.end());
        all.model_e2e_ms.insert(all.model_e2e_ms.end(),
                                s.model_e2e_ms.begin(),
                                s.model_e2e_ms.end());
        all.offered += s.offered;
        all.served += s.served;
        all.missed += s.missed;
        all.bytes += s.bytes;
        all.points += s.points;
    }

    const PercentileStats e2e = computePercentiles(all.model_e2e_ms);
    report.metric("setup_s", setup.medianSeconds(), "s");
    report.metric("fps", bestFps(call_s, served_per_call), "frames/s");
    report.metric("frame_ms_p50", medianOfBests(frame_by_frame), "ms");
    report.metric("frame_ms_p95", computePercentiles(frame_ms).p95, "ms");
    report.metric("encode_ms_p50", medianOfBests(encode_by_frame), "ms");
    report.metric("decode_ms_p50", medianOfBests(decode_by_frame), "ms");
    report.deterministicMetric("model_encode_ms_p50",
                               computePercentiles(all.model_encode_ms).p50,
                               "ms");
    report.deterministicMetric("model_e2e_ms_p50", e2e.p50, "ms");
    report.deterministicMetric("model_e2e_ms_p95", e2e.p95, "ms");
    report.deterministicMetric("bytes_per_point", all.bytes / all.points,
                               "B/pt");
    report.deterministicMetric("attr_psnr_db", mean_psnr, "dB");
    report.deterministicMetric("delivered_frac", all.served / all.offered,
                               "fraction");
    report.deterministicMetric(
        "deadline_miss_frac", all.missed / all.offered, "fraction");
    report.metric("peak_rss_mb", peak_mb, "MB");
}

}  // namespace perfbench
