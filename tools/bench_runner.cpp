/**
 * @file
 * Perf-regression bench driver.
 *
 * Runs a fixed synthetic-human workload through one codec
 * configuration and emits a machine-readable BENCH_results.json:
 * per-stage latency percentiles (measured host + modelled Jetson),
 * end-to-end fps, compressed bytes/point, and PSNR. Every perf PR
 * records its trajectory by diffing two such files with
 * tools/compare_bench.py (see docs/OBSERVABILITY.md for the
 * schema).
 *
 * Usage:
 *   bench_runner [--config v1|v2|intra|tmc13|cwipc] [--frames N]
 *                [--points N] [--seed N] [--threads N]
 *                [--out FILE] [--trace FILE] [--trace-verbosity N]
 *                [--measure-overhead]
 *                [--loss R] [--channel-seed N]
 *                [--network wifi|lte|5g] [--mtu N] [--fec-group K]
 *                [--fec-scheme xor|rs] [--fec-parity M]
 *                [--burst-rate R] [--burst-length L]
 *                [--deadline-ms MS] [--load-spec SPEC]
 *                [--sessions N] [--replicas N] [--faults SPEC]
 *
 * --trace-verbosity 1 adds the per-kernel spans to the --trace
 * export.
 *
 * With --loss R the same workload additionally runs through the
 * loss-resilient StreamSession over a ChannelSpec::lossy(R) channel
 * and a "resilience" section (ladder outcome counts, retransmission
 * cost, concealed-frame quality) is added to the JSON. The section
 * also carries a "modes" comparison: the full network-aware
 * pipeline (paper Fig. 9 — capture -> encode -> transfer incl.
 * loss recovery -> decode -> render) evaluated once with pure
 * NACK/retransmission and once with XOR-parity FEC enabled, over a
 * channel derived from the selected --network profile at the given
 * loss rate. --fec-scheme rs adds a third, Reed-Solomon mode with
 * --fec-parity rows per group, and --burst-rate/--burst-length
 * replace that channel with a pure burst channel.
 *
 * With --deadline-ms MS the workload additionally runs through the
 * deadline-aware overload ladder (stream/overload_controller.h)
 * under the synthetic load of --load-spec, and an "overload" JSON
 * section (rung occupancy, deadline-miss rate, modelled encode
 * latency percentiles incl. p99) is added. Fully deterministic:
 * the ladder walks modelled Jetson seconds, not host time.
 *
 * With --sessions N a fleet of N tenant streams (deadline classes
 * cycled, content shared in pairs so the reference cache engages)
 * runs through the multi-tenant ServeScheduler and a "serve" JSON
 * section is added: sessions per device, per-tenant latency
 * percentiles incl. the worst-tenant p99, the Jain fairness index
 * and cache hit accounting. --replicas sizes the device fleet and
 * --faults injects device faults, whose recovery lands in the
 * section's "recovery" object. Deterministic for the same reason
 * the overload section is: the fleet runs on the virtual device
 * clock.
 */

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/rng.h"
#include "edgepcc/common/timer.h"
#include "edgepcc/common/trace.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/interframe/block_matcher.h"
#include "edgepcc/metrics/quality.h"
#include "edgepcc/morton/morton.h"
#include "edgepcc/parallel/radix_sort.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/platform/arena.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/platform/simd.h"
#include "edgepcc/serve/fault_injector.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "edgepcc/stream/overload_controller.h"
#include "edgepcc/stream/pipeline.h"
#include "edgepcc/stream/stream_session.h"

namespace {

using namespace edgepcc;

/** One stage's samples over the measured frames. */
struct StageSamples {
    std::string name;
    std::vector<double> host_s;
    std::vector<double> model_s;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
};

/** One encode+decode pass over the workload. */
struct RunMetrics {
    std::vector<StageSamples> stages;  ///< first-seen order
    std::vector<double> enc_host_s;
    std::vector<double> dec_host_s;
    std::vector<double> enc_model_s;
    std::vector<double> dec_model_s;
    std::uint64_t compressed_bytes = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t points = 0;
    double attr_psnr_db = 0.0;  ///< mean over frames
    double geom_psnr_db = 0.0;

    double
    meanEncodeHostSeconds() const
    {
        double sum = 0.0;
        for (const double s : enc_host_s)
            sum += s;
        return enc_host_s.empty()
                   ? 0.0
                   : sum / static_cast<double>(enc_host_s.size());
    }

    double
    totalEncodeHostSeconds() const
    {
        double sum = 0.0;
        for (const double s : enc_host_s)
            sum += s;
        return sum;
    }

    /** Folds one frame's stages, priced by `timing`, into `stages`. */
    void
    addStages(const PipelineProfile &profile,
              const PipelineTiming &timing)
    {
        for (std::size_t i = 0; i < profile.stages.size(); ++i) {
            const StageProfile &stage = profile.stages[i];
            auto it = std::find_if(
                stages.begin(), stages.end(),
                [&](const StageSamples &s) {
                    return s.name == stage.name;
                });
            if (it == stages.end()) {
                stages.emplace_back().name = stage.name;
                it = stages.end() - 1;
            }
            it->host_s.push_back(stage.host_seconds);
            it->model_s.push_back(timing.stages[i].model_seconds);
            it->ops += stage.totalOps();
            it->bytes += stage.totalBytes();
        }
    }
};

/** Caps lossless-infinite PSNR for JSON (inf is not valid JSON). */
double
jsonPsnr(double psnr)
{
    return psnr > 999.0 ? 999.0 : psnr;
}

/** One transport mode's end-to-end (Fig. 9 style) numbers. */
struct ModeMetrics {
    PercentileStats e2e_latency_s;  ///< capture..render incl. recovery
    double transmit_s_mean = 0.0;
    double recovery_s_mean = 0.0;
    std::uint64_t wire_bytes = 0;
    std::size_t retransmits = 0;
    std::size_t parity_sent = 0;
    std::size_t fec_recovered_chunks = 0;
    double fec_single_loss_recovered_fraction = 1.0;
    double fec_multi_loss_recovered_fraction = 1.0;
    double ok_or_concealed_fraction = 0.0;
};

/** Lossy-channel session results (present only with --loss). */
struct ResilienceMetrics {
    bool enabled = false;
    double loss_rate = 0.0;
    std::uint64_t channel_seed = 1;
    SessionStats stats;
    WireScanStats wire;
    /** Mean attribute PSNR of concealed frames vs the originals;
     *  negative when no frame was concealed. */
    double concealed_attr_psnr_db = -1.0;

    /** FEC-vs-NACK end-to-end comparison over --network. */
    std::string network_name;
    std::size_t mtu_payload = 0;
    int fec_group_size = 0;
    /** RS mode (present only with --fec-scheme rs). */
    bool rs_enabled = false;
    int fec_parity = 0;
    double burst_rate = 0.0;
    int burst_length = 0;
    ModeMetrics nack;
    ModeMetrics fec;
    ModeMetrics rs;
};

/** Channel shaping shared by all modes of one comparison. */
struct ModeChannel {
    /** > 0 replaces the network-derived channel with a pure burst
     *  channel (burst_rate per-chunk start probability). */
    double burst_rate = 0.0;
    int burst_length = 4;
};

/** Network-aware end-to-end evaluation of one transport mode. */
Expected<ModeMetrics>
runMode(const std::vector<VoxelCloud> &frames,
        const CodecConfig &config, const NetworkSpec &network,
        std::size_t mtu_payload, bool fec_enabled,
        int fec_group_size, FecScheme fec_scheme, int fec_parity,
        const ModeChannel &shape, std::uint64_t channel_seed)
{
    PipelineConfig pipe;
    pipe.network = network;
    pipe.transport = true;
    pipe.transport_seed = channel_seed;
    pipe.session.mtu_payload = mtu_payload;
    pipe.session.fec.enabled = fec_enabled;
    pipe.session.fec.group_size = fec_group_size;
    pipe.session.fec.scheme = fec_scheme;
    pipe.session.fec.parity_chunks = fec_parity;
    if (shape.burst_rate > 0.0) {
        // Same bursty channel for every mode in the comparison, so
        // nack-vs-xor-vs-rs differ only in the recovery scheme.
        pipe.use_session_channel = true;
        pipe.session.channel = ChannelSpec::bursty(
            shape.burst_rate, shape.burst_length, channel_seed);
    }

    auto report = evaluatePipeline(frames, config, pipe);
    if (!report)
        return report.status();

    ModeMetrics mode;
    std::vector<double> totals;
    totals.reserve(report->frames.size());
    double transmit_sum = 0.0;
    double recovery_sum = 0.0;
    for (const FrameLatency &frame : report->frames) {
        totals.push_back(frame.total());
        transmit_sum += frame.transmit_s;
        recovery_sum += frame.recovery_s;
    }
    const double n =
        report->frames.empty()
            ? 1.0
            : static_cast<double>(report->frames.size());
    mode.e2e_latency_s = computePercentiles(totals);
    mode.transmit_s_mean = transmit_sum / n;
    mode.recovery_s_mean = recovery_sum / n;
    mode.wire_bytes = report->session.wire_bytes;
    mode.retransmits = report->session.retransmits;
    mode.parity_sent = report->session.parity_sent;
    mode.fec_recovered_chunks = report->fec.recovered_chunks;
    mode.fec_single_loss_recovered_fraction =
        report->fec.singleLossRecoveredFraction();
    mode.fec_multi_loss_recovered_fraction =
        report->fec.multiLossRecoveredFraction();
    mode.ok_or_concealed_fraction =
        report->session.okOrConcealedFraction();
    return mode;
}

Expected<ResilienceMetrics>
runResilience(const std::vector<VoxelCloud> &frames,
              const CodecConfig &config, double loss_rate,
              std::uint64_t channel_seed)
{
    SessionConfig session;
    session.channel = ChannelSpec::lossy(loss_rate, channel_seed);

    StreamSession stream(config, session);
    auto report = stream.run(frames);
    if (!report)
        return report.status();

    ResilienceMetrics metrics;
    metrics.enabled = true;
    metrics.loss_rate = loss_rate;
    metrics.channel_seed = channel_seed;
    metrics.stats = report->stats;
    metrics.wire = report->wire;

    double psnr_sum = 0.0;
    std::size_t concealed = 0;
    for (std::size_t f = 0; f < report->frames.size(); ++f) {
        if (report->frames[f].outcome !=
            FrameOutcome::kConcealed)
            continue;
        psnr_sum +=
            attributePsnr(frames[f], report->frames[f].cloud)
                .psnr;
        ++concealed;
    }
    if (concealed > 0)
        metrics.concealed_attr_psnr_db =
            psnr_sum / static_cast<double>(concealed);
    return metrics;
}

/** Deadline-ladder results (present only with --deadline-ms). */
struct OverloadBenchMetrics {
    bool enabled = false;
    double deadline_ms = 0.0;
    std::string load_spec;
    OverloadStats stats;
    /** Modelled encode latency of non-dropped frames. */
    PercentileStats encode_latency;
};

/**
 * Runs the workload through the overload-armed session on a clean
 * channel: the only stressor is the injected LoadSpec, so the rung
 * walk and miss rate are deterministic and comparable across runs.
 */
Expected<OverloadBenchMetrics>
runOverload(const std::vector<VoxelCloud> &frames,
            const CodecConfig &config, double deadline_ms,
            const std::string &load_spec)
{
    auto load = LoadSpec::parse(load_spec);
    if (!load)
        return load.status();

    SessionConfig session;
    // Fixed GOP: isolate the deadline ladder.
    session.redundancy.min_gop_size = config.gop_size;
    session.redundancy.max_gop_size = config.gop_size;
    session.overload.enabled = true;
    session.overload.deadline_s = deadline_ms * 1e-3;
    session.overload.load = *load;

    StreamSession stream(config, session);
    auto report = stream.run(frames);
    if (!report)
        return report.status();

    OverloadBenchMetrics metrics;
    metrics.enabled = true;
    metrics.deadline_ms = deadline_ms;
    metrics.load_spec = load_spec;
    metrics.stats = report->overload;
    metrics.encode_latency =
        computePercentiles(report->overload.encode_latency_s);
    return metrics;
}

/** Multi-tenant fleet results (present only with --sessions). */
struct ServeBenchMetrics {
    bool enabled = false;
    int sessions = 0;
    /** Canonical fault-spec string for the JSON recovery section. */
    std::string faults = "none";
    serve::ServeReport report;
    /** arrival..completion percentiles per admitted tenant, in
     *  report order. */
    std::vector<PercentileStats> tenant_latency;
    double worst_tenant_p99_s = 0.0;
};

/**
 * Runs a fleet of `sessions` tenant streams over the serve
 * scheduler. Deadline classes cycle interactive/standard/bulk;
 * consecutive tenant pairs share a content seed so the reference
 * cache sees realistic popular-content reuse. Deterministic: the
 * fleet is scheduled on the virtual device clock.
 */
Expected<ServeBenchMetrics>
runServe(const CodecConfig &config, int sessions,
         std::uint64_t seed, int frames, std::size_t points,
         int replicas, const serve::DeviceFaultSpec &faults)
{
    std::vector<serve::TenantSpec> tenants;
    tenants.reserve(static_cast<std::size_t>(sessions));
    for (int t = 0; t < sessions; ++t) {
        serve::TenantSpec tenant;
        tenant.name = "tenant-" + std::to_string(t);
        tenant.codec = config;
        VideoSpec spec;
        spec.name = "serve-bench";
        spec.seed = seed * 1000 +
                    static_cast<std::uint64_t>(t / 2);
        spec.target_points = points;
        const SyntheticHumanVideo video(spec);
        tenant.frames.reserve(static_cast<std::size_t>(frames));
        for (int f = 0; f < frames; ++f)
            tenant.frames.push_back(video.frame(f));
        tenant.deadline_class = static_cast<serve::DeadlineClass>(
            t % serve::kDeadlineClassCount);
        tenant.weight = 1.0 + static_cast<double>(t % 2);
        tenant.arrival_offset_s = 0.004 * static_cast<double>(t);
        // The bench gates tail latency and fairness across a fixed
        // tenant set, so admit everyone and report utilization
        // instead of shedding.
        tenant.queue_capacity = 64;
        tenants.push_back(std::move(tenant));
    }

    serve::ServeConfig fleet;
    fleet.admission_utilization_cap = 1e9;
    fleet.replicas = replicas;
    fleet.faults = faults;
    // Checkpointing only matters once faults can lose encoder
    // state; zero cost keeps the no-crash schedule identical.
    if (!faults.isIdle())
        fleet.checkpoint_interval_frames = 2;
    serve::ServeScheduler scheduler(fleet, std::move(tenants));
    auto report = scheduler.run();
    if (!report)
        return report.status();

    ServeBenchMetrics metrics;
    metrics.enabled = true;
    metrics.sessions = sessions;
    metrics.faults = faults.toString();
    metrics.report = std::move(*report);
    for (const serve::TenantReport &tenant :
         metrics.report.tenants) {
        metrics.tenant_latency.push_back(
            computePercentiles(tenant.stats.latency_s));
        metrics.worst_tenant_p99_s =
            std::max(metrics.worst_tenant_p99_s,
                     metrics.tenant_latency.back().p99);
    }
    return metrics;
}

Expected<RunMetrics>
runWorkload(const std::vector<VoxelCloud> &frames,
            const CodecConfig &config, const EdgeDeviceModel &model,
            bool collect_stages)
{
    VideoEncoder encoder(config);
    VideoDecoder decoder;
    RunMetrics metrics;

    for (const VoxelCloud &frame : frames) {
        WallTimer enc_timer;
        auto encoded = encoder.encode(frame);
        const double enc_host = enc_timer.seconds();
        if (!encoded)
            return encoded.status();

        WallTimer dec_timer;
        auto decoded = decoder.decode(encoded->bitstream);
        const double dec_host = dec_timer.seconds();
        if (!decoded)
            return decoded.status();

        const PipelineTiming enc_timing =
            model.evaluate(encoded->profile);
        const PipelineTiming dec_timing =
            model.evaluate(decoded->profile);

        metrics.enc_host_s.push_back(enc_host);
        metrics.dec_host_s.push_back(dec_host);
        metrics.enc_model_s.push_back(enc_timing.modelSeconds());
        metrics.dec_model_s.push_back(dec_timing.modelSeconds());
        metrics.compressed_bytes += encoded->bitstream.size();
        metrics.raw_bytes += frame.rawBytes();
        metrics.points += frame.size();

        if (collect_stages) {
            metrics.addStages(encoded->profile, enc_timing);
            metrics.addStages(decoded->profile, dec_timing);
            metrics.attr_psnr_db +=
                attributePsnr(frame, decoded->cloud).psnr;
            metrics.geom_psnr_db +=
                geometryPsnrD1(frame, decoded->cloud).psnr;
        }
    }
    if (collect_stages && !frames.empty()) {
        metrics.attr_psnr_db /=
            static_cast<double>(frames.size());
        metrics.geom_psnr_db /=
            static_cast<double>(frames.size());
    }
    return metrics;
}

// -----------------------------------------------------------------
// Dispatched-kernel micro-bench (the "kernels" JSON section; see
// docs/PERFORMANCE.md "Reading the kernel bench")
// -----------------------------------------------------------------

/** One dispatched kernel, measured under the active ISA and again
 *  under forced-scalar dispatch on identical inputs. */
struct KernelBenchResult {
    std::string name;
    std::size_t points = 0;  ///< items per rep (bytes for the
                             ///< byte-stream kernels)
    double p50_ns_per_point = 0.0;
    double p95_ns_per_point = 0.0;
    double scalar_p50_ns_per_point = 0.0;

    double
    speedupVsScalar() const
    {
        return p50_ns_per_point > 0.0
                   ? scalar_p50_ns_per_point / p50_ns_per_point
                   : 0.0;
    }
};

struct KernelBenchMetrics {
    std::string simd_level;  ///< ISA the non-scalar pass ran on
    std::vector<KernelBenchResult> kernels;

    /** Geometric mean of the per-kernel speedups — the number the
     *  >=2x SIMD acceptance gate pins. */
    double
    aggregateSpeedup() const
    {
        if (kernels.empty())
            return 0.0;
        double log_sum = 0.0;
        for (const KernelBenchResult &k : kernels)
            log_sum += std::log(
                std::max(k.speedupVsScalar(), 1e-9));
        return std::exp(log_sum /
                        static_cast<double>(kernels.size()));
    }
};

/** Defeats dead-code elimination of the timed kernels. */
volatile std::uint64_t g_kernel_sink = 0;

/** Runs fn() `reps` times after one warm-up; ns/point stats. */
PercentileStats
timeKernel(int reps, std::size_t points,
           const std::function<void()> &fn)
{
    fn();  // warm-up: page in buffers, settle dispatch
    std::vector<double> ns_per_point;
    ns_per_point.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        fn();
        ns_per_point.push_back(timer.seconds() * 1e9 /
                               static_cast<double>(points));
    }
    return computePercentiles(ns_per_point);
}

/**
 * Micro-benches the hot kernels on fixed synthetic inputs, once
 * under the active dispatch level and once under forced scalar.
 * Every SIMD-dispatched kernel has a row here — a vector variant
 * ships only with a row that shows it paying — and the radix sort
 * and segment residual pack, which stay scalar, are reported
 * alongside. Runs with a bound FrameArena like a real frame, so the
 * arena-scratch paths are the ones measured.
 */
KernelBenchMetrics
runKernelBench()
{
    constexpr std::size_t kPoints = 1u << 17;
    // Cache-resident on purpose: at DRAM-bound sizes every ISA
    // saturates the memory bus and the numbers measure the machine,
    // not the kernel.
    constexpr std::size_t kBytes = 256u << 10;
    constexpr int kReps = 15;

    KernelBenchMetrics metrics;
    metrics.simd_level = simdLevelName(activeSimdLevel());

    FrameArena arena;
    ScopedFrameArena bind(&arena);

    Rng rng(20260809);
    std::vector<std::uint16_t> x(kPoints), y(kPoints), z(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
        x[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
        y[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
        z[i] = static_cast<std::uint16_t>(rng.bounded(1u << 16));
    }
    std::vector<std::uint64_t> codes(kPoints);
    mortonEncodeBatch(x.data(), y.data(), z.data(), kPoints,
                      codes.data());
    std::vector<std::uint32_t> dx(kPoints), dy(kPoints),
        dz(kPoints);
    std::vector<std::uint64_t> work_keys(kPoints);
    std::vector<std::uint32_t> work_vals(kPoints);
    AttrChannels channels;
    for (auto &channel : channels) {
        channel.resize(kPoints);
        for (std::size_t i = 0; i < kPoints; ++i)
            channel[i] =
                static_cast<std::int32_t>(rng.bounded(256));
    }
    const SegmentCodecConfig seg_config{};
    std::vector<std::uint8_t> bytes(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        bytes[i] = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<std::uint8_t> parity(kBytes, 0);
    // Consecutive frames: a smooth random-walk reference and a P
    // frame that is the reference plus +-2 of noise.
    VoxelCloud match_reference;
    VoxelCloud match_p;
    {
        int walk[3] = {128, 128, 128};
        for (std::size_t i = 0; i < kPoints; ++i) {
            std::uint8_t ref[3];
            std::uint8_t cur[3];
            for (int c = 0; c < 3; ++c) {
                walk[c] = std::clamp(
                    walk[c] + static_cast<int>(rng.bounded(5)) - 2,
                    0, 255);
                ref[c] = static_cast<std::uint8_t>(walk[c]);
                cur[c] = static_cast<std::uint8_t>(std::clamp(
                    walk[c] + static_cast<int>(rng.bounded(5)) - 2,
                    0, 255));
            }
            const auto vx = static_cast<std::uint16_t>(i % 1024);
            const auto vy = static_cast<std::uint16_t>(i / 1024);
            match_reference.add(vx, vy, 0, ref[0], ref[1], ref[2]);
            match_p.add(vx, vy, 0, cur[0], cur[1], cur[2]);
        }
    }
    const BlockMatchConfig match_config{};

    struct Kernel {
        const char *name;
        std::size_t points;
        std::function<void()> fn;
    };
    const Kernel kernels[] = {
        {"morton.encode", kPoints,
         [&] {
             mortonEncodeBatch(x.data(), y.data(), z.data(),
                               kPoints, codes.data());
             g_kernel_sink = g_kernel_sink + codes[kPoints - 1];
         }},
        {"morton.decode", kPoints,
         [&] {
             mortonDecodeBatch(codes.data(), kPoints, dx.data(),
                               dy.data(), dz.data());
             g_kernel_sink = g_kernel_sink + dx[kPoints - 1];
         }},
        {"radix.sort", kPoints,
         [&] {
             // The copy-in is timed for both ISA passes alike, so
             // the speedup ratio is undistorted; the reset keeps
             // block growth of the arena scratch out of the row.
             arena.reset();
             std::copy(codes.begin(), codes.end(),
                       work_keys.begin());
             for (std::size_t i = 0; i < kPoints; ++i)
                 work_vals[i] = static_cast<std::uint32_t>(i);
             radixSortKeysValues(work_keys.data(),
                                 work_vals.data(), kPoints, 48);
             g_kernel_sink = g_kernel_sink + work_keys[kPoints - 1];
         }},
        {"residual.pack", kPoints,
         [&] {
             arena.reset();
             auto payload =
                 encodeSegmentAttr(channels, seg_config);
             g_kernel_sink =
                 g_kernel_sink +
                 (payload.hasValue() ? payload->size() : 0);
         }},
        {"crc32c", kBytes,
         [&] {
             g_kernel_sink =
                 g_kernel_sink + crc32c(bytes.data(), kBytes);
         }},
        // XOR parity is the GF(256) multiply-add at coefficient 1.
        {"fec.xor", kBytes,
         [&] {
             gfMulAddBytes(parity.data(), bytes.data(), 1, kBytes);
             g_kernel_sink = g_kernel_sink + parity[kBytes - 1];
         }},
        {"gf.muladd", kBytes,
         [&] {
             gfMulAddBytes(parity.data(), bytes.data(), 0x53,
                           kBytes);
             g_kernel_sink = g_kernel_sink + parity[kBytes - 1];
         }},
        // The whole inter attribute encode, so the row shows what
        // the dispatched window score buys a P frame.
        {"bm.match", kPoints,
         [&] {
             arena.reset();
             auto encoded = encodeInterAttr(match_p, match_reference,
                                            match_config);
             g_kernel_sink =
                 g_kernel_sink +
                 (encoded.hasValue() ? encoded->payload.size() : 0);
         }},
    };

    for (const Kernel &kernel : kernels) {
        KernelBenchResult result;
        result.name = kernel.name;
        result.points = kernel.points;
        const PercentileStats active =
            timeKernel(kReps, kernel.points, kernel.fn);
        result.p50_ns_per_point = active.p50;
        result.p95_ns_per_point = active.p95;
        setSimdLevelForTesting(SimdLevel::kScalar);
        const PercentileStats scalar =
            timeKernel(kReps, kernel.points, kernel.fn);
        clearSimdLevelForTesting();
        result.scalar_p50_ns_per_point = scalar.p50;
        metrics.kernels.push_back(result);
    }
    return metrics;
}

void
writeStats(std::FILE *out, const char *key,
           const PercentileStats &stats, const char *trailer)
{
    (void)std::fprintf(out,
                 "    \"%s\": {\"mean\": %.9g, \"p50\": %.9g, "
                 "\"p95\": %.9g, \"p99\": %.9g, \"max\": %.9g}%s\n",
                 key, stats.mean, stats.p50, stats.p95, stats.p99,
                 stats.max, trailer);
}

int
writeResults(const std::string &path, const CodecConfig &config,
             const VideoSpec &spec, int frames, std::size_t threads,
             const RunMetrics &metrics, double overhead_fraction,
             std::size_t trace_events,
             const KernelBenchMetrics &kernel_bench,
             const ResilienceMetrics &resilience,
             const OverloadBenchMetrics &overload,
             const ServeBenchMetrics &serve_bench)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        (void)std::fprintf(stderr, "bench_runner: cannot write %s\n",
                     path.c_str());
        return 1;
    }

    const double enc_host_total = [&] {
        double sum = 0.0;
        for (const double s : metrics.enc_host_s)
            sum += s;
        return sum;
    }();
    const double host_fps =
        enc_host_total > 0.0
            ? static_cast<double>(frames) / enc_host_total
            : 0.0;
    // Modelled pipelined fps is bounded by the slowest of encode
    // and decode on the modelled device.
    const PercentileStats enc_model =
        computePercentiles(metrics.enc_model_s);
    const PercentileStats dec_model =
        computePercentiles(metrics.dec_model_s);
    const double model_bottleneck =
        enc_model.mean > dec_model.mean ? enc_model.mean
                                        : dec_model.mean;
    const double model_fps =
        model_bottleneck > 0.0 ? 1.0 / model_bottleneck : 0.0;

    (void)std::fprintf(out, "{\n");
    (void)std::fprintf(out, "  \"schema\": \"edgepcc-bench-v1\",\n");
    (void)std::fprintf(out, "  \"workload\": {\n");
    (void)std::fprintf(out, "    \"config\": %s,\n",
                 jsonString(config.name).c_str());
    (void)std::fprintf(out, "    \"frames\": %d,\n", frames);
    (void)std::fprintf(out, "    \"target_points\": %zu,\n",
                 spec.target_points);
    (void)std::fprintf(out, "    \"seed\": %" PRIu64 ",\n", spec.seed);
    (void)std::fprintf(out, "    \"grid_bits\": %d,\n", spec.grid_bits);
    (void)std::fprintf(out, "    \"threads\": %zu\n", threads);
    (void)std::fprintf(out, "  },\n");
    (void)std::fprintf(out, "  \"end_to_end\": {\n");
    writeStats(out, "encode_host_s",
               computePercentiles(metrics.enc_host_s), ",");
    writeStats(out, "decode_host_s",
               computePercentiles(metrics.dec_host_s), ",");
    writeStats(out, "encode_model_s", enc_model, ",");
    writeStats(out, "decode_model_s", dec_model, ",");
    (void)std::fprintf(out, "    \"host_fps\": %.9g,\n", host_fps);
    (void)std::fprintf(out, "    \"model_fps\": %.9g,\n", model_fps);
    (void)std::fprintf(out, "    \"points\": %" PRIu64 ",\n",
                 metrics.points);
    (void)std::fprintf(out, "    \"raw_bytes\": %" PRIu64 ",\n",
                 metrics.raw_bytes);
    (void)std::fprintf(out, "    \"compressed_bytes\": %" PRIu64 ",\n",
                 metrics.compressed_bytes);
    (void)std::fprintf(out, "    \"bytes_per_point\": %.9g,\n",
                 metrics.points > 0
                     ? static_cast<double>(
                           metrics.compressed_bytes) /
                           static_cast<double>(metrics.points)
                     : 0.0);
    (void)std::fprintf(out, "    \"compression_ratio\": %.9g,\n",
                 metrics.compressed_bytes > 0
                     ? static_cast<double>(metrics.raw_bytes) /
                           static_cast<double>(
                               metrics.compressed_bytes)
                     : 0.0);
    (void)std::fprintf(out, "    \"attr_psnr_db\": %.9g,\n",
                 jsonPsnr(metrics.attr_psnr_db));
    (void)std::fprintf(out, "    \"geom_psnr_db\": %.9g\n",
                 jsonPsnr(metrics.geom_psnr_db));
    (void)std::fprintf(out, "  },\n");

    (void)std::fprintf(out, "  \"stages\": [\n");
    for (std::size_t i = 0; i < metrics.stages.size(); ++i) {
        const StageSamples &stage = metrics.stages[i];
        const PercentileStats host = computePercentiles(stage.host_s);
        const PercentileStats model =
            computePercentiles(stage.model_s);
        (void)std::fprintf(out, "    {\"name\": %s, \"frames\": %zu,",
                     jsonString(stage.name).c_str(),
                     stage.host_s.size());
        (void)std::fprintf(out,
                     " \"host_s\": {\"mean\": %.9g, \"p50\": %.9g,"
                     " \"p95\": %.9g, \"max\": %.9g},",
                     host.mean, host.p50, host.p95, host.max);
        (void)std::fprintf(out,
                     " \"model_s\": {\"mean\": %.9g, \"p50\": %.9g,"
                     " \"p95\": %.9g, \"max\": %.9g},",
                     model.mean, model.p50, model.p95, model.max);
        (void)std::fprintf(out,
                     " \"ops\": %" PRIu64 ", \"bytes\": %" PRIu64
                     "}%s\n",
                     stage.ops, stage.bytes,
                     i + 1 < metrics.stages.size() ? "," : "");
    }
    (void)std::fprintf(out, "  ],\n");

    (void)std::fprintf(out, "  \"kernels\": {\n");
    (void)std::fprintf(out, "    \"simd_level\": %s,\n",
                 jsonString(kernel_bench.simd_level).c_str());
    (void)std::fprintf(out,
                 "    \"aggregate_speedup_vs_scalar\": %.9g,\n",
                 kernel_bench.aggregateSpeedup());
    (void)std::fprintf(out, "    \"items\": [\n");
    for (std::size_t i = 0; i < kernel_bench.kernels.size(); ++i) {
        const KernelBenchResult &k = kernel_bench.kernels[i];
        (void)std::fprintf(
            out,
            "      {\"name\": %s, \"points\": %zu, "
            "\"p50_ns_per_point\": %.9g, "
            "\"p95_ns_per_point\": %.9g, "
            "\"scalar_p50_ns_per_point\": %.9g, "
            "\"speedup_vs_scalar\": %.9g}%s\n",
            jsonString(k.name).c_str(), k.points, k.p50_ns_per_point,
            k.p95_ns_per_point, k.scalar_p50_ns_per_point,
            k.speedupVsScalar(),
            i + 1 < kernel_bench.kernels.size() ? "," : "");
    }
    (void)std::fprintf(out, "    ]\n");
    (void)std::fprintf(out, "  },\n");
    if (resilience.enabled) {
        const SessionStats &s = resilience.stats;
        (void)std::fprintf(out, "  \"resilience\": {\n");
        (void)std::fprintf(out, "    \"loss_rate\": %.9g,\n",
                     resilience.loss_rate);
        (void)std::fprintf(out, "    \"channel_seed\": %" PRIu64 ",\n",
                     resilience.channel_seed);
        (void)std::fprintf(out, "    \"frames_ok\": %zu,\n",
                     s.frames_ok);
        (void)std::fprintf(out, "    \"frames_resynced\": %zu,\n",
                     s.frames_resynced);
        (void)std::fprintf(out, "    \"frames_concealed\": %zu,\n",
                     s.frames_concealed);
        (void)std::fprintf(out, "    \"frames_skipped\": %zu,\n",
                     s.frames_skipped);
        (void)std::fprintf(out,
                     "    \"ok_or_concealed_fraction\": %.9g,\n",
                     s.okOrConcealedFraction());
        (void)std::fprintf(out, "    \"frames_lost\": %zu,\n",
                     s.frames_lost);
        (void)std::fprintf(out, "    \"retransmits\": %zu,\n",
                     s.retransmits);
        (void)std::fprintf(out, "    \"keyframes_forced\": %zu,\n",
                     s.keyframes_forced);
        (void)std::fprintf(out, "    \"backoff_s\": %.9g,\n",
                     s.backoff_s);
        (void)std::fprintf(out, "    \"chunks_bad_crc\": %zu,\n",
                     resilience.wire.chunks_bad_crc);
        (void)std::fprintf(out, "    \"chunks_truncated\": %zu,\n",
                     resilience.wire.chunks_truncated);
        (void)std::fprintf(out, "    \"wire_bytes_skipped\": %zu,\n",
                     resilience.wire.bytes_skipped);
        (void)std::fprintf(out, "    \"network\": %s,\n",
                     jsonString(resilience.network_name).c_str());
        (void)std::fprintf(out, "    \"mtu_payload\": %zu,\n",
                     resilience.mtu_payload);
        (void)std::fprintf(out, "    \"fec_group_size\": %d,\n",
                     resilience.fec_group_size);
        (void)std::fprintf(out, "    \"fec_scheme\": \"%s\",\n",
                     resilience.rs_enabled ? "rs" : "xor");
        (void)std::fprintf(out, "    \"fec_parity\": %d,\n",
                     resilience.fec_parity);
        (void)std::fprintf(out, "    \"burst_rate\": %.9g,\n",
                     resilience.burst_rate);
        (void)std::fprintf(out, "    \"burst_length\": %d,\n",
                     resilience.burst_length);
        (void)std::fprintf(out, "    \"modes\": {\n");
        const auto write_mode = [out](const char *name,
                                      const ModeMetrics &m,
                                      const char *trailer) {
            (void)std::fprintf(out, "      \"%s\": {\n", name);
            (void)std::fprintf(
                out,
                "        \"e2e_latency_s\": {\"mean\": %.9g, "
                "\"p50\": %.9g, \"p95\": %.9g, \"max\": %.9g},\n",
                m.e2e_latency_s.mean, m.e2e_latency_s.p50,
                m.e2e_latency_s.p95, m.e2e_latency_s.max);
            (void)std::fprintf(out,
                         "        \"transmit_s_mean\": %.9g,\n",
                         m.transmit_s_mean);
            (void)std::fprintf(out,
                         "        \"recovery_s_mean\": %.9g,\n",
                         m.recovery_s_mean);
            (void)std::fprintf(out,
                         "        \"wire_bytes\": %" PRIu64 ",\n",
                         m.wire_bytes);
            (void)std::fprintf(out, "        \"retransmits\": %zu,\n",
                         m.retransmits);
            (void)std::fprintf(out, "        \"parity_sent\": %zu,\n",
                         m.parity_sent);
            (void)std::fprintf(out,
                         "        \"fec_recovered_chunks\": %zu,\n",
                         m.fec_recovered_chunks);
            (void)std::fprintf(
                out,
                "        \"fec_single_loss_recovered_fraction\": "
                "%.9g,\n",
                m.fec_single_loss_recovered_fraction);
            (void)std::fprintf(
                out,
                "        \"fec_multi_loss_recovered_fraction\": "
                "%.9g,\n",
                m.fec_multi_loss_recovered_fraction);
            (void)std::fprintf(
                out,
                "        \"ok_or_concealed_fraction\": %.9g\n",
                m.ok_or_concealed_fraction);
            (void)std::fprintf(out, "      }%s\n", trailer);
        };
        write_mode("nack", resilience.nack, ",");
        write_mode("fec", resilience.fec,
                   resilience.rs_enabled ? "," : "");
        if (resilience.rs_enabled)
            write_mode("rs", resilience.rs, "");
        (void)std::fprintf(out, "    },\n");
        if (resilience.concealed_attr_psnr_db >= 0.0)
            (void)std::fprintf(
                out, "    \"concealed_attr_psnr_db\": %.9g\n",
                jsonPsnr(resilience.concealed_attr_psnr_db));
        else
            (void)std::fprintf(
                out, "    \"concealed_attr_psnr_db\": null\n");
        (void)std::fprintf(out, "  },\n");
    }
    if (overload.enabled) {
        const OverloadStats &s = overload.stats;
        (void)std::fprintf(out, "  \"overload\": {\n");
        (void)std::fprintf(out, "    \"deadline_ms\": %.9g,\n",
                     overload.deadline_ms);
        (void)std::fprintf(out, "    \"load_spec\": %s,\n",
                     jsonString(overload.load_spec).c_str());
        (void)std::fprintf(out, "    \"frames\": %zu,\n", s.frames);
        (void)std::fprintf(out, "    \"deadline_misses\": %zu,\n",
                     s.deadline_misses);
        (void)std::fprintf(out, "    \"deadline_miss_rate\": %.9g,\n",
                     s.deadlineMissRate());
        (void)std::fprintf(out,
                     "    \"max_consecutive_misses\": %zu,\n",
                     s.max_consecutive_misses);
        (void)std::fprintf(out, "    \"watchdog_stalls\": %zu,\n",
                     s.watchdog_stalls);
        (void)std::fprintf(out, "    \"queue_drops\": %zu,\n",
                     s.queue_drops);
        (void)std::fprintf(out, "    \"frames_skipped\": %zu,\n",
                     s.frames_skipped);
        (void)std::fprintf(out, "    \"alloc_failures\": %zu,\n",
                     s.alloc_failures);
        (void)std::fprintf(out, "    \"rung_transitions\": %zu,\n",
                     s.rung_transitions);
        (void)std::fprintf(out, "    \"rung_occupancy\": {");
        for (int r = 0; r < kOverloadRungCount; ++r)
            (void)std::fprintf(
                out, "\"%s\": %zu%s",
                overloadRungName(static_cast<OverloadRung>(r)),
                s.rung_occupancy[r],
                r + 1 < kOverloadRungCount ? ", " : "");
        (void)std::fprintf(out, "},\n");
        writeStats(out, "encode_latency_s",
                   overload.encode_latency, "");
        (void)std::fprintf(out, "  },\n");
    }
    if (serve_bench.enabled) {
        const serve::ServeReport &fleet = serve_bench.report;
        (void)std::fprintf(out, "  \"serve\": {\n");
        (void)std::fprintf(out, "    \"sessions\": %d,\n",
                     serve_bench.sessions);
        (void)std::fprintf(out, "    \"admitted\": %zu,\n",
                     fleet.fleet.admitted);
        (void)std::fprintf(out, "    \"rejected\": %zu,\n",
                     fleet.fleet.rejected);
        (void)std::fprintf(out, "    \"makespan_s\": %.9g,\n",
                     fleet.fleet.makespan_s);
        (void)std::fprintf(out, "    \"device_busy_s\": %.9g,\n",
                     fleet.fleet.device_busy_s);
        (void)std::fprintf(out, "    \"utilization\": %.9g,\n",
                     fleet.fleet.utilization());
        (void)std::fprintf(out,
                     "    \"sessions_per_device\": %.9g,\n",
                     fleet.fleet.sessionsPerDevice());
        (void)std::fprintf(out, "    \"fairness_index\": %.9g,\n",
                     fleet.fairness_index);
        (void)std::fprintf(out,
                     "    \"worst_tenant_p99_s\": %.9g,\n",
                     serve_bench.worst_tenant_p99_s);
        (void)std::fprintf(
            out,
            "    \"cache\": {\"lookups\": %zu, \"hits\": %zu, "
            "\"misses\": %zu, \"hit_rate\": %.9g, "
            "\"saved_device_s\": %.9g},\n",
            fleet.cache.lookups, fleet.cache.hits,
            fleet.cache.misses, fleet.cache.hitRate(),
            fleet.cache.saved_device_s);
        // Always present so compare_bench.py can gate fault runs
        // and confirm clean runs stayed clean.
        const serve::RecoveryStats &rec = fleet.recovery;
        (void)std::fprintf(out, "    \"recovery\": {\n");
        (void)std::fprintf(out, "      \"replicas\": %zu,\n",
                     fleet.fleet.replicas);
        (void)std::fprintf(out, "      \"faults\": %s,\n",
                     jsonString(serve_bench.faults).c_str());
        (void)std::fprintf(out, "      \"crashes\": %zu,\n",
                     rec.crashes);
        (void)std::fprintf(out, "      \"failovers\": %zu,\n",
                     rec.failovers);
        (void)std::fprintf(out, "      \"tenants_shed\": %zu,\n",
                     rec.tenants_shed);
        (void)std::fprintf(out, "      \"checkpoints\": %zu,\n",
                     rec.checkpoints);
        (void)std::fprintf(out, "      \"breaker_trips\": %zu,\n",
                     rec.breaker_trips);
        (void)std::fprintf(out, "      \"faulted_frames\": %zu,\n",
                     rec.faulted_frames);
        (void)std::fprintf(out,
                     "      \"quarantined_frames\": %zu,\n",
                     rec.quarantined_frames);
        (void)std::fprintf(out, "      \"mttr_s\": %.9g,\n",
                     rec.mttr_s);
        (void)std::fprintf(out, "      \"worst_recovery_s\": %.9g\n",
                     rec.worst_recovery_s);
        (void)std::fprintf(out, "    },\n");
        (void)std::fprintf(out, "    \"tenants\": {\n");
        for (std::size_t t = 0; t < fleet.tenants.size(); ++t) {
            const serve::TenantReport &tenant = fleet.tenants[t];
            const PercentileStats &lat =
                serve_bench.tenant_latency[t];
            (void)std::fprintf(
                out,
                "      %s: {\"class\": %s, "
                "\"replica\": %d, "
                "\"served\": %zu, \"dropped\": %zu, "
                "\"faulted\": %zu, \"quarantined\": %zu, "
                "\"shed\": %zu, "
                "\"cache_hits\": %zu, \"deadline_misses\": %zu, "
                "\"latency_s\": {\"mean\": %.9g, \"p50\": %.9g, "
                "\"p95\": %.9g, \"p99\": %.9g, \"max\": %.9g}}%s\n",
                jsonString(tenant.name).c_str(),
                jsonString(serve::deadlineClassName(
                               tenant.deadline_class))
                    .c_str(),
                tenant.replica,
                tenant.stats.served, tenant.stats.dropped,
                tenant.stats.faulted, tenant.stats.quarantined,
                tenant.stats.shed,
                tenant.stats.cache_hits,
                tenant.stats.deadline_misses, lat.mean, lat.p50,
                lat.p95, lat.p99, lat.max,
                t + 1 < fleet.tenants.size() ? "," : "");
        }
        (void)std::fprintf(out, "    }\n");
        (void)std::fprintf(out, "  },\n");
    }
    (void)std::fprintf(out, "  \"trace\": {\n");
    (void)std::fprintf(out, "    \"events\": %zu,\n", trace_events);
    // NaN = measurement failed; slightly negative values are real
    // (noise around zero overhead) and worth keeping.
    if (std::isnan(overhead_fraction))
        (void)std::fprintf(out, "    \"overhead_fraction\": null\n");
    else
        (void)std::fprintf(out, "    \"overhead_fraction\": %.9g\n",
                     overhead_fraction);
    (void)std::fprintf(out, "  }\n");
    (void)std::fprintf(out, "}\n");
    std::fclose(out);
    return 0;
}

CodecConfig
configByName(const std::string &name, bool *ok)
{
    *ok = true;
    if (name == "tmc13")
        return makeTmc13LikeConfig();
    if (name == "cwipc")
        return makeCwipcLikeConfig();
    if (name == "intra")
        return makeIntraOnlyConfig();
    if (name == "v1")
        return makeIntraInterV1Config();
    if (name == "v2")
        return makeIntraInterV2Config();
    *ok = false;
    return CodecConfig{};
}

NetworkSpec
networkByName(const std::string &name, bool *ok)
{
    *ok = true;
    if (name == "wifi")
        return NetworkSpec::wifi();
    if (name == "lte")
        return NetworkSpec::lte();
    if (name == "5g")
        return NetworkSpec::fiveG();
    *ok = false;
    return NetworkSpec{};
}

int
usage()
{
    (void)std::fprintf(
        stderr,
        "usage: bench_runner [--config tmc13|cwipc|intra|v1|v2]\n"
        "                    [--frames N] [--points N] [--seed N]\n"
        "                    [--threads N] [--out FILE]\n"
        "                    [--trace FILE] [--trace-verbosity N]\n"
        "                    [--measure-overhead]\n"
        "                    [--loss R] [--channel-seed N]\n"
        "                    [--network wifi|lte|5g] [--mtu N]\n"
        "                    [--fec-group K] [--fec-scheme xor|rs]\n"
        "                    [--fec-parity M] [--burst-rate R]\n"
        "                    [--burst-length L] [--deadline-ms MS]\n"
        "                    [--load-spec SPEC] [--sessions N]\n"
        "                    [--replicas N] [--faults SPEC]\n"
        "\n"
        "  --trace-verbosity N  span detail for --trace: 0 (default)\n"
        "                    stage-grained only, >= 1 adds the\n"
        "                    per-kernel spans (stream.rs_encode,\n"
        "                    stream.rs_decode,\n"
        "                    stream.redundancy_decide)\n"
        "  --loss R          run the loss-resilient session at\n"
        "                    chunk-loss rate R and add a\n"
        "                    \"resilience\" JSON section, including\n"
        "                    an end-to-end FEC-vs-NACK comparison\n"
        "                    over the --network profile\n"
        "  --network NAME    link profile for the end-to-end modes\n"
        "                    (default wifi)\n"
        "  --mtu N           slice frame payloads into N-byte\n"
        "                    chunks in the modes comparison\n"
        "                    (default 1200)\n"
        "  --fec-group K     FEC group size: K data chunks per\n"
        "                    parity group (default 4, min 2)\n"
        "  --fec-scheme S    xor (default) or rs: with rs, a third\n"
        "                    \"rs\" entry joins the modes comparison\n"
        "                    using Reed-Solomon parity\n"
        "  --fec-parity M    RS parity rows per group (default 2,\n"
        "                    must be < --fec-group; read with\n"
        "                    --fec-scheme rs only)\n"
        "  --burst-rate R    replace the modes-comparison channel\n"
        "                    with a pure burst channel: bursts of\n"
        "                    --burst-length drops start with\n"
        "                    probability R per chunk (default off)\n"
        "  --burst-length L  chunks swallowed per burst (default 4)\n"
        "  --deadline-ms MS  run the deadline-aware overload ladder\n"
        "                    with a per-frame encode budget of MS\n"
        "                    milliseconds and add an \"overload\"\n"
        "                    JSON section\n"
        "  --load-spec SPEC  synthetic load for the overload run: a\n"
        "                    preset (none|burst2x|stall-geometry) or\n"
        "                    key=value pairs (default none)\n"
        "  --sessions N      run N tenant streams through the\n"
        "                    multi-tenant serve scheduler and add a\n"
        "                    \"serve\" JSON section (per-tenant\n"
        "                    latency percentiles, fairness index,\n"
        "                    cache hit accounting)\n"
        "  --replicas N      size of the device fleet for the serve\n"
        "                    run (default 1)\n"
        "  --faults SPEC     inject device faults into the serve\n"
        "                    run: a preset (none|crash-secondary|\n"
        "                    thermal-brownout) or ';'-separated\n"
        "                    kind=stall|throttle|oom|crash events\n"
        "                    with replica=/at-ms=/dur-ms=/derate=\n"
        "                    fields; recovery results land in the\n"
        "                    serve section's \"recovery\" object\n");
    return 2;
}

/**
 * Parses the value of numeric flag `flag` into `*out`. The whole
 * token must parse, land in [lo, hi], and carry no sign when T is
 * unsigned; otherwise prints a one-line reason and returns false.
 */
template <typename T>
bool
parseNumber(const std::string &flag, const char *text, T *out,
            std::type_identity_t<T> lo,
            std::type_identity_t<T> hi =
                std::numeric_limits<T>::max())
{
    const char *end = text + std::strlen(text);
    T value{};
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc() && ptr == end && value >= lo &&
        value <= hi) {
        *out = value;
        return true;
    }
    char lo_text[32] = {};
    char hi_text[32] = {};
    (void)std::to_chars(lo_text, lo_text + sizeof(lo_text) - 1, lo);
    (void)std::to_chars(hi_text, hi_text + sizeof(hi_text) - 1, hi);
    (void)std::fprintf(stderr,
                       "bench_runner: %s must be a number in "
                       "[%s, %s], got '%s'\n",
                       flag.c_str(), lo_text, hi_text, text);
    return false;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string config_name = "v1";
    std::string out_path = "BENCH_results.json";
    std::string trace_path;
    int trace_verbosity = 0;
    int frames = 8;
    std::size_t points = 20000;
    std::uint64_t seed = 1;
    long threads = -1;
    bool measure_overhead = false;
    double loss_rate = -1.0;
    std::uint64_t channel_seed = 1;
    std::string network_name = "wifi";
    std::size_t mtu_payload = 1200;
    int fec_group = 4;
    std::string fec_scheme_name = "xor";
    int fec_parity = 2;
    double burst_rate = 0.0;
    int burst_length = 4;
    double deadline_ms = -1.0;
    std::string load_spec = "none";
    int sessions = 0;
    int replicas = 1;
    std::string faults_spec = "none";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--measure-overhead") {
            measure_overhead = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        bool ok = true;
        if (arg == "--config")
            config_name = value;
        else if (arg == "--out")
            out_path = value;
        else if (arg == "--trace")
            trace_path = value;
        else if (arg == "--network")
            network_name = value;
        else if (arg == "--fec-scheme")
            fec_scheme_name = value;
        else if (arg == "--load-spec")
            load_spec = value;
        else if (arg == "--faults")
            faults_spec = value;
        else if (arg == "--frames")
            ok = parseNumber(arg, value, &frames, 1);
        else if (arg == "--points")
            ok = parseNumber(arg, value, &points, 1);
        else if (arg == "--seed")
            ok = parseNumber(arg, value, &seed, 0);
        else if (arg == "--threads")
            ok = parseNumber(arg, value, &threads, -1, 1024);
        else if (arg == "--trace-verbosity")
            ok = parseNumber(arg, value, &trace_verbosity, 0);
        else if (arg == "--loss")
            ok = parseNumber(arg, value, &loss_rate, 0.0, 1.0);
        else if (arg == "--channel-seed")
            ok = parseNumber(arg, value, &channel_seed, 0);
        else if (arg == "--mtu")
            ok = parseNumber(arg, value, &mtu_payload, 0);
        else if (arg == "--fec-group")
            ok = parseNumber(arg, value, &fec_group, 2);
        else if (arg == "--fec-parity")
            ok = parseNumber(arg, value, &fec_parity, 1);
        else if (arg == "--burst-rate")
            ok = parseNumber(arg, value, &burst_rate, 0.0, 1.0);
        else if (arg == "--burst-length")
            ok = parseNumber(arg, value, &burst_length, 1);
        else if (arg == "--deadline-ms")
            ok = parseNumber(arg, value, &deadline_ms, 0.0);
        else if (arg == "--sessions")
            ok = parseNumber(arg, value, &sessions, 0);
        else if (arg == "--replicas")
            ok = parseNumber(arg, value, &replicas, 1);
        else
            return usage();
        if (!ok)
            return 2;
    }
    if (fec_scheme_name != "xor" && fec_scheme_name != "rs") {
        (void)std::fprintf(stderr,
                     "bench_runner: --fec-scheme must be xor or "
                     "rs\n");
        return 2;
    }
    if (fec_scheme_name == "rs" && fec_parity >= fec_group) {
        (void)std::fprintf(stderr,
                     "bench_runner: --fec-parity must be in "
                     "[1, --fec-group)\n");
        return 2;
    }
    if ((replicas > 1 || faults_spec != "none") && sessions < 1) {
        (void)std::fprintf(stderr,
                     "bench_runner: --replicas/--faults require "
                     "--sessions\n");
        return 2;
    }
    auto parsed_faults = serve::DeviceFaultSpec::parse(faults_spec);
    if (!parsed_faults) {
        (void)std::fprintf(stderr, "bench_runner: %s\n",
                     parsed_faults.status().message().c_str());
        return 2;
    }
    if (deadline_ms == 0.0) {
        (void)std::fprintf(stderr,
                     "bench_runner: --deadline-ms must be > 0\n");
        return 2;
    }
    if (load_spec != "none" && deadline_ms < 0.0) {
        (void)std::fprintf(stderr,
                     "bench_runner: --load-spec requires "
                     "--deadline-ms\n");
        return 2;
    }
    if (deadline_ms > 0.0) {
        // Reject a malformed spec before the bench runs, not after.
        auto parsed = LoadSpec::parse(load_spec);
        if (!parsed) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         parsed.status().message().c_str());
            return 2;
        }
    }
    bool network_ok = false;
    NetworkSpec network = networkByName(network_name, &network_ok);
    if (!network_ok) {
        (void)std::fprintf(stderr,
                     "bench_runner: unknown network '%s'\n",
                     network_name.c_str());
        return usage();
    }

    bool config_ok = false;
    const CodecConfig config = configByName(config_name, &config_ok);
    if (!config_ok) {
        (void)std::fprintf(stderr, "bench_runner: unknown config '%s'\n",
                     config_name.c_str());
        return usage();
    }

    std::unique_ptr<ScopedGlobalPool> pool_override;
    if (threads >= 0) {
        // --threads N means "N workers"; 0 = fully sequential.
        pool_override = std::make_unique<ScopedGlobalPool>(
            static_cast<std::size_t>(threads));
    }
    const std::size_t worker_count =
        ThreadPool::global().numThreads();

    VideoSpec spec;
    spec.name = "bench-human";
    spec.seed = seed;
    spec.target_points = points;
    spec.num_frames = frames;

    const SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> cloud_frames;
    cloud_frames.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i)
        cloud_frames.push_back(video.frame(i));

    const EdgeDeviceModel model;

    // Warmup pass (thread-pool spin-up, page faults) — not counted.
    {
        auto warm = runWorkload({cloud_frames.front()}, config,
                                model, false);
        if (!warm) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         warm.status().message().c_str());
            return 1;
        }
    }

    Tracer::global().clear();
    Tracer::global().setEnabled(!trace_path.empty());
    Tracer::global().setVerbosity(trace_verbosity);
    auto metrics =
        runWorkload(cloud_frames, config, model, true);
    Tracer::global().setEnabled(false);
    if (!metrics) {
        (void)std::fprintf(stderr, "bench_runner: %s\n",
                     metrics.status().message().c_str());
        return 1;
    }
    // Stash the main-run spans; the resilience session spans (the
    // stream.* kernels behind --trace-verbosity) are appended below
    // and the file is written once, after both captures.
    std::vector<TraceEvent> trace_capture =
        Tracer::global().events();

    // Tracing overhead: the identical workload with spans off vs
    // on, alternated so slow host drift (frequency scaling, cache
    // state) hits both modes equally, and compared on the best
    // pass of each mode — the minimum is the noise-robust estimate
    // of true cost. Acceptance bar for the span layer: < 2% of
    // encode time. Always measured so every BENCH_results.json
    // carries trace.overhead_fraction; --measure-overhead upgrades
    // to a 3-pass best-of for lower noise.
    double overhead_fraction =
        std::numeric_limits<double>::quiet_NaN();
    {
        const int overhead_passes = measure_overhead ? 3 : 1;
        double off_best = 0.0, on_best = 0.0;
        bool failed = false;
        for (int pass = 0;
             pass < overhead_passes && !failed; ++pass) {
            for (const bool traced : {false, true}) {
                Tracer::global().clear();
                Tracer::global().setEnabled(traced);
                auto run =
                    runWorkload(cloud_frames, config, model, false);
                Tracer::global().setEnabled(false);
                if (!run) {
                    failed = true;
                    break;
                }
                const double total = run->totalEncodeHostSeconds();
                double &best = traced ? on_best : off_best;
                if (pass == 0 || total < best)
                    best = total;
            }
        }
        if (!failed && off_best > 0.0) {
            const double per_frame =
                1.0 / static_cast<double>(cloud_frames.size());
            overhead_fraction = on_best / off_best - 1.0;
            (void)std::fprintf(
                stderr,
                "tracing overhead: %.2f%% of encode time "
                "(best-of-%d: off %.3f ms, on %.3f ms per frame)\n",
                overhead_fraction * 100.0, overhead_passes,
                off_best * per_frame * 1e3,
                on_best * per_frame * 1e3);
        }
    }

    ResilienceMetrics resilience;
    if (loss_rate >= 0.0) {
        // Trace the session runs too: the stream-layer spans
        // (stream.rs_encode / stream.rs_decode /
        // stream.redundancy_decide at kernel verbosity) only fire
        // inside the resilient sessions, not the codec-only run.
        Tracer::global().clear();
        Tracer::global().setEnabled(!trace_path.empty());
        auto run = runResilience(cloud_frames, config, loss_rate,
                                 channel_seed);
        if (!run) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         run.status().message().c_str());
            return 1;
        }
        resilience = *run;
        (void)std::fprintf(
            stderr,
            "resilience at loss %.3g: ok %zu, resynced %zu, "
            "concealed %zu, skipped %zu (%zu retransmits)\n",
            loss_rate, resilience.stats.frames_ok,
            resilience.stats.frames_resynced,
            resilience.stats.frames_concealed,
            resilience.stats.frames_skipped,
            resilience.stats.retransmits);

        // Fig.-9-style end-to-end comparison: the same network
        // profile at the requested loss rate, with and without
        // FEC. Recovery latency (NACK RTTs + backoff) is part of
        // the reported per-frame total.
        network.packet_loss_rate = loss_rate;
        resilience.network_name = network.name;
        resilience.mtu_payload = mtu_payload;
        resilience.fec_group_size = fec_group;
        resilience.rs_enabled = fec_scheme_name == "rs";
        resilience.fec_parity = fec_parity;
        resilience.burst_rate = burst_rate;
        resilience.burst_length = burst_length;
        ModeChannel shape;
        shape.burst_rate = burst_rate;
        shape.burst_length = burst_length;
        auto nack_mode =
            runMode(cloud_frames, config, network, mtu_payload,
                    /*fec_enabled=*/false, fec_group,
                    FecScheme::kXor, fec_parity, shape,
                    channel_seed);
        auto fec_mode =
            runMode(cloud_frames, config, network, mtu_payload,
                    /*fec_enabled=*/true, fec_group,
                    FecScheme::kXor, fec_parity, shape,
                    channel_seed);
        if (!nack_mode || !fec_mode) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         (!nack_mode ? nack_mode.status()
                                     : fec_mode.status())
                             .message()
                             .c_str());
            return 1;
        }
        resilience.nack = *nack_mode;
        resilience.fec = *fec_mode;
        if (resilience.rs_enabled) {
            auto rs_mode = runMode(
                cloud_frames, config, network, mtu_payload,
                /*fec_enabled=*/true, fec_group,
                FecScheme::kReedSolomon, fec_parity, shape,
                channel_seed);
            if (!rs_mode) {
                (void)std::fprintf(
                    stderr, "bench_runner: %s\n",
                    rs_mode.status().message().c_str());
                return 1;
            }
            resilience.rs = *rs_mode;
            (void)std::fprintf(
                stderr,
                "rs mode p50 %.1f ms (%zu retransmits, %zu "
                "chunks recovered, multi-loss recovery %.0f%%)\n",
                resilience.rs.e2e_latency_s.p50 * 1e3,
                resilience.rs.retransmits,
                resilience.rs.fec_recovered_chunks,
                resilience.rs.fec_multi_loss_recovered_fraction *
                    100.0);
        }
        (void)std::fprintf(
            stderr,
            "end-to-end over %s at loss %.3g: nack p50 %.1f ms "
            "(%zu retransmits), fec p50 %.1f ms (%zu retransmits, "
            "%zu chunks recovered, single-loss recovery %.0f%%)\n",
            network.name.c_str(), loss_rate,
            resilience.nack.e2e_latency_s.p50 * 1e3,
            resilience.nack.retransmits,
            resilience.fec.e2e_latency_s.p50 * 1e3,
            resilience.fec.retransmits,
            resilience.fec.fec_recovered_chunks,
            resilience.fec.fec_single_loss_recovered_fraction *
                100.0);
        Tracer::global().setEnabled(false);
        const auto session_events = Tracer::global().events();
        trace_capture.insert(trace_capture.end(),
                             session_events.begin(),
                             session_events.end());
    }

    const std::size_t trace_events = trace_capture.size();
    if (!trace_path.empty()) {
        std::ofstream trace_out(trace_path);
        writeChromeTrace(trace_capture, trace_out);
        if (!trace_out) {
            (void)std::fprintf(stderr,
                         "bench_runner: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
    }

    OverloadBenchMetrics overload;
    if (deadline_ms > 0.0) {
        auto run = runOverload(cloud_frames, config, deadline_ms,
                               load_spec);
        if (!run) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         run.status().message().c_str());
            return 1;
        }
        overload = *run;
        const OverloadStats &s = overload.stats;
        (void)std::fprintf(
            stderr,
            "overload at %.3g ms deadline (%s): miss rate %.3g "
            "(max %zu consecutive), %zu queue drops, %zu skipped, "
            "encode p99 %.2f ms\n",
            deadline_ms, load_spec.c_str(), s.deadlineMissRate(),
            s.max_consecutive_misses, s.queue_drops,
            s.frames_skipped, overload.encode_latency.p99 * 1e3);
    }

    ServeBenchMetrics serve_bench;
    if (sessions > 0) {
        // Smaller clouds per tenant: the fleet runs N whole
        // streams, and the serve gates track scheduling tails, not
        // single-stream cost (the end_to_end section covers that).
        const std::size_t tenant_points =
            std::max<std::size_t>(points / 4, 1000);
        auto run = runServe(config, sessions, seed, frames,
                            tenant_points, replicas,
                            *parsed_faults);
        if (!run) {
            (void)std::fprintf(stderr, "bench_runner: %s\n",
                         run.status().message().c_str());
            return 1;
        }
        serve_bench = std::move(*run);
        (void)std::fprintf(
            stderr,
            "serve with %d sessions on %d replica(s): %.2f "
            "sessions/device, fairness %.3f, worst-tenant p99 "
            "%.2f ms, cache hit rate %.2f\n",
            sessions, replicas,
            serve_bench.report.fleet.sessionsPerDevice(),
            serve_bench.report.fairness_index,
            serve_bench.worst_tenant_p99_s * 1e3,
            serve_bench.report.cache.hitRate());
        const serve::RecoveryStats &rec =
            serve_bench.report.recovery;
        if (rec.crashes > 0)
            (void)std::fprintf(
                stderr,
                "recovery after %zu crash(es): %zu failovers, %zu "
                "shed, mttr %.2f ms (worst %.2f ms)\n",
                rec.crashes, rec.failovers, rec.tenants_shed,
                rec.mttr_s * 1e3, rec.worst_recovery_s * 1e3);
    }

    const KernelBenchMetrics kernel_bench = runKernelBench();
    (void)std::fprintf(
        stderr,
        "kernels on %s: aggregate speedup vs scalar %.2fx\n",
        kernel_bench.simd_level.c_str(),
        kernel_bench.aggregateSpeedup());

    const int rc = writeResults(out_path, config, spec, frames,
                                worker_count, *metrics,
                                overhead_fraction, trace_events,
                                kernel_bench, resilience, overload,
                                serve_bench);
    if (rc == 0)
        (void)std::fprintf(stderr, "wrote %s (%d frames, config %s)\n",
                     out_path.c_str(), frames,
                     config.name.c_str());
    return rc;
}
