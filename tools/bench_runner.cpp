/**
 * @file
 * Perf-regression bench driver.
 *
 * Runs a fixed synthetic-human workload through one codec
 * configuration and emits a machine-readable BENCH_results.json:
 * per-stage latency percentiles (measured host + modelled Jetson),
 * end-to-end fps, compressed bytes/point, and PSNR.
 * tools/compare_bench.py requires two such files to agree on every
 * deterministic leaf; the tier-1 test bench_runner.trajectory_pinned
 * holds one run with every section on to the latest
 * results/bench/BENCH_*.json (docs/OBSERVABILITY.md has the
 * schema and the rule).
 *
 * Each run below returns its own section of the document, built
 * once from the report the library hands back; main appends the
 * sections that ran, in schema order, and writes the document once.
 *
 * Usage:
 *   bench_runner [--config v1|v2|intra|tmc13|cwipc] [--frames N]
 *                [--points N] [--seed N] [--threads N]
 *                [--out FILE] [--trace FILE]
 *                [--loss R] [--channel-seed N]
 *                [--network wifi|lte|5g] [--mtu N] [--fec-group K]
 *                [--fec-scheme xor|rs] [--fec-parity M]
 *                [--burst-rate R] [--burst-length L]
 *                [--deadline-ms MS] [--load-spec SPEC]
 *                [--sessions N] [--replicas N] [--faults SPEC]
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
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "edgepcc/attr/segment_codec.h"
#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/parse_number.h"
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

/**
 * One value of the results document: an object that keeps its keys
 * in insertion order, an array, or a scalar held as its JSON text.
 * Doubles print as %.9g, integers exactly and strings through
 * jsonString; a non-finite double prints as null, as does a
 * default-constructed value.
 */
class Json
{
  public:
    Json() = default;
    Json(double value)
    {
        if (std::isfinite(value)) {
            char text[32];
            (void)std::snprintf(text, sizeof(text), "%.9g", value);
            text_ = text;
        }
    }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Json(T value) : text_(std::to_string(value))
    {
    }
    Json(const char *text) : text_(jsonString(text)) {}
    Json(const std::string &text) : text_(jsonString(text)) {}

    static Json
    object()
    {
        Json value;
        value.kind_ = Kind::kObject;
        return value;
    }
    static Json
    array()
    {
        Json value;
        value.kind_ = Kind::kArray;
        return value;
    }

    /** Appends `key: value` to an object. */
    Json &
    add(std::string key, Json value)
    {
        members_.emplace_back(std::move(key), std::move(value));
        return *this;
    }
    /** Appends `value` to an array. */
    Json &
    push(Json value)
    {
        return add(std::string(), std::move(value));
    }

    /** Appends the JSON text, nested `indent` spaces deep. A
     *  container of scalars stays on one line. */
    void
    write(std::string &out, std::size_t indent) const
    {
        if (kind_ == Kind::kScalar) {
            out += text_;
            return;
        }
        const bool flat = std::all_of(
            members_.begin(), members_.end(), [](const auto &member) {
                return member.second.kind_ == Kind::kScalar;
            });
        const std::string pad =
            flat ? " " : "\n" + std::string(indent + 2, ' ');
        out += kind_ == Kind::kObject ? '{' : '[';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i > 0)
                out += ',';
            if (i > 0 || !flat)
                out += pad;
            if (kind_ == Kind::kObject)
                out += jsonString(members_[i].first) + ": ";
            members_[i].second.write(out, indent + 2);
        }
        if (!flat)
            out += "\n" + std::string(indent, ' ');
        out += kind_ == Kind::kObject ? '}' : ']';
    }

  private:
    enum class Kind : std::uint8_t { kScalar, kObject, kArray };

    Kind kind_ = Kind::kScalar;
    std::string text_ = "null";  ///< a scalar's JSON text
    /** Members in insertion order; the keys of an array are
     *  empty. */
    std::vector<std::pair<std::string, Json>> members_;
};

/** The {mean, p50, p95, p99, max} summary of every latency key. */
Json
percentiles(std::vector<double> samples)
{
    const PercentileStats stats =
        computePercentiles(std::move(samples));
    Json summary = Json::object();
    summary.add("mean", stats.mean)
        .add("p50", stats.p50)
        .add("p95", stats.p95)
        .add("p99", stats.p99)
        .add("max", stats.max);
    return summary;
}

/** Caps lossless-infinite PSNR at 999, so a lossless run reads as a
 *  number rather than the null a non-finite value is written as. */
double
jsonPsnr(double psnr)
{
    return psnr > 999.0 ? 999.0 : psnr;
}

/** Prints `message` as bench_runner's one-line diagnostic. */
void
printError(const std::string &message)
{
    (void)std::fprintf(stderr, "bench_runner: %s\n", message.c_str());
}

/** Parsed and checked command line. */
struct Options {
    CodecConfig config;
    std::string out_path = "BENCH_results.json";
    std::string trace_path;
    int frames = 8;
    std::size_t points = 20000;
    std::uint64_t seed = 1;
    long threads = -1;  ///< -1 = default pool
    double loss_rate = -1.0;  ///< < 0: no resilience run
    std::uint64_t channel_seed = 1;
    NetworkSpec network;
    std::size_t mtu_payload = 1200;
    int fec_group = 4;
    bool rs = false;  ///< --fec-scheme rs
    int fec_parity = 2;
    double burst_rate = 0.0;
    int burst_length = 4;
    double deadline_ms = -1.0;  ///< < 0: no overload run
    std::string load_spec = "none";
    LoadSpec load;
    int sessions = 0;  ///< 0: no serve run
    int replicas = 1;
    serve::DeviceFaultSpec faults;
};

/** One stage's samples over the measured frames. */
struct StageSamples {
    std::string name;
    std::vector<double> host_s;
    std::vector<double> model_s;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
};

/** Per-frame samples of one encode+decode pass over the workload. */
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

/** Encodes and decodes `frames` in order, sampling each frame's host
 *  and modelled seconds, stages, size and quality. */
Expected<RunMetrics>
runWorkload(const std::vector<VoxelCloud> &frames,
            const CodecConfig &config)
{
    const EdgeDeviceModel model;
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
        metrics.addStages(encoded->profile, enc_timing);
        metrics.addStages(decoded->profile, dec_timing);
        metrics.attr_psnr_db +=
            attributePsnr(frame, decoded->cloud).psnr;
        metrics.geom_psnr_db +=
            geometryPsnrD1(frame, decoded->cloud).psnr;
    }
    if (!frames.empty()) {
        metrics.attr_psnr_db /= static_cast<double>(frames.size());
        metrics.geom_psnr_db /= static_cast<double>(frames.size());
    }
    return metrics;
}

/** The workload section: what ran, on how many pool workers. */
Json
workloadSection(const Options &opts, const VideoSpec &spec)
{
    Json section = Json::object();
    section.add("config", opts.config.name)
        .add("frames", opts.frames)
        .add("target_points", spec.target_points)
        .add("seed", spec.seed)
        .add("grid_bits", spec.grid_bits)
        .add("threads", ThreadPool::global().numThreads());
    return section;
}

/** The end_to_end section: whole-run latency, fps, size, quality. */
Json
endToEndSection(const RunMetrics &m)
{
    double enc_host_total = 0.0;
    for (const double s : m.enc_host_s)
        enc_host_total += s;
    // Modelled pipelined fps is bounded by the slowest of encode
    // and decode on the modelled device.
    const double model_bottleneck =
        std::max(computePercentiles(m.enc_model_s).mean,
                 computePercentiles(m.dec_model_s).mean);
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    Json section = Json::object();
    section.add("encode_host_s", percentiles(m.enc_host_s))
        .add("decode_host_s", percentiles(m.dec_host_s))
        .add("encode_model_s", percentiles(m.enc_model_s))
        .add("decode_model_s", percentiles(m.dec_model_s))
        .add("host_fps",
             ratio(static_cast<double>(m.enc_host_s.size()),
                   enc_host_total))
        .add("model_fps", ratio(1.0, model_bottleneck))
        .add("points", m.points)
        .add("raw_bytes", m.raw_bytes)
        .add("compressed_bytes", m.compressed_bytes)
        .add("bytes_per_point",
             ratio(static_cast<double>(m.compressed_bytes),
                   static_cast<double>(m.points)))
        .add("compression_ratio",
             ratio(static_cast<double>(m.raw_bytes),
                   static_cast<double>(m.compressed_bytes)))
        .add("attr_psnr_db", jsonPsnr(m.attr_psnr_db))
        .add("geom_psnr_db", jsonPsnr(m.geom_psnr_db));
    return section;
}

/** The stages[] rows, in first-seen (pipeline) order. */
Json
stagesSection(const RunMetrics &m)
{
    Json rows = Json::array();
    for (const StageSamples &stage : m.stages) {
        Json row = Json::object();
        row.add("name", stage.name)
            .add("frames", stage.host_s.size())
            .add("host_s", percentiles(stage.host_s))
            .add("model_s", percentiles(stage.model_s))
            .add("ops", stage.ops)
            .add("bytes", stage.bytes);
        rows.push(std::move(row));
    }
    return rows;
}

// -----------------------------------------------------------------
// Dispatched-kernel micro-bench (the "kernels" JSON section; see
// docs/PERFORMANCE.md "Reading the kernel bench")
// -----------------------------------------------------------------

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

/** One timed kernel: `fn` processes `points` items per call. */
struct Kernel {
    const char *name;
    std::size_t points;  ///< items per rep (bytes for the
                         ///< byte-stream kernels)
    std::function<void()> fn;
};

/**
 * The kernels section: times every kernel under the active dispatch
 * level and again under forced scalar on the same inputs. A row's
 * speedup is scalar p50 over active p50; the aggregate is their
 * geometric mean, the number the >= 2x SIMD acceptance gate pins.
 */
Json
timeKernels(std::span<const Kernel> kernels)
{
    constexpr int kReps = 15;
    const std::string simd_level = simdLevelName(activeSimdLevel());
    Json items = Json::array();
    double log_speedup_sum = 0.0;
    for (const Kernel &kernel : kernels) {
        const PercentileStats active =
            timeKernel(kReps, kernel.points, kernel.fn);
        setSimdLevelForTesting(SimdLevel::kScalar);
        const PercentileStats scalar =
            timeKernel(kReps, kernel.points, kernel.fn);
        clearSimdLevelForTesting();
        const double speedup =
            active.p50 > 0.0 ? scalar.p50 / active.p50 : 0.0;
        log_speedup_sum += std::log(std::max(speedup, 1e-9));
        Json item = Json::object();
        item.add("name", kernel.name)
            .add("points", kernel.points)
            .add("p50_ns_per_point", active.p50)
            .add("p95_ns_per_point", active.p95)
            .add("scalar_p50_ns_per_point", scalar.p50)
            .add("speedup_vs_scalar", speedup);
        items.push(std::move(item));
    }
    const double aggregate = std::exp(
        log_speedup_sum / static_cast<double>(kernels.size()));
    (void)std::fprintf(
        stderr, "kernels on %s: aggregate speedup vs scalar %.2fx\n",
        simd_level.c_str(), aggregate);

    Json section = Json::object();
    section.add("simd_level", simd_level)
        .add("aggregate_speedup_vs_scalar", aggregate)
        .add("items", std::move(items));
    return section;
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
Json
runKernelBench()
{
    constexpr std::size_t kPoints = 1u << 17;
    // Cache-resident on purpose: at DRAM-bound sizes every ISA
    // saturates the memory bus and the numbers measure the machine,
    // not the kernel.
    constexpr std::size_t kBytes = 256u << 10;

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

    return timeKernels(kernels);
}

// -----------------------------------------------------------------
// Optional runs: resilience (--loss), overload (--deadline-ms) and
// serve (--sessions)
// -----------------------------------------------------------------

/** One transport mode's end-to-end (Fig. 9 style) numbers. */
Json
modeSection(const char *name, const PipelineReport &report)
{
    std::vector<double> totals;
    totals.reserve(report.frames.size());
    double transmit_sum = 0.0;
    double recovery_sum = 0.0;
    for (const FrameLatency &frame : report.frames) {
        totals.push_back(frame.total());  // capture..render
        transmit_sum += frame.transmit_s;
        recovery_sum += frame.recovery_s;
    }
    const double n =
        report.frames.empty()
            ? 1.0
            : static_cast<double>(report.frames.size());
    (void)std::fprintf(
        stderr,
        "%s mode: e2e p50 %.1f ms (%zu retransmits, %zu chunks "
        "recovered, single-loss recovery %.0f%%, multi-loss "
        "%.0f%%)\n",
        name, computePercentiles(totals).p50 * 1e3,
        report.session.retransmits, report.fec.recovered_chunks,
        report.fec.singleLossRecoveredFraction() * 100.0,
        report.fec.multiLossRecoveredFraction() * 100.0);

    Json mode = Json::object();
    mode.add("e2e_latency_s", percentiles(std::move(totals)))
        .add("transmit_s_mean", transmit_sum / n)
        .add("recovery_s_mean", recovery_sum / n)
        .add("wire_bytes", report.session.wire_bytes)
        .add("retransmits", report.session.retransmits)
        .add("parity_sent", report.session.parity_sent)
        .add("fec_recovered_chunks", report.fec.recovered_chunks)
        .add("fec_single_loss_recovered_fraction",
             report.fec.singleLossRecoveredFraction())
        .add("fec_multi_loss_recovered_fraction",
             report.fec.multiLossRecoveredFraction())
        .add("ok_or_concealed_fraction",
             report.session.okOrConcealedFraction());
    return mode;
}

/**
 * The modes comparison: the network-aware pipeline evaluated with
 * NACK only, with XOR parity and (--fec-scheme rs) with RS parity,
 * all over one channel, so the modes differ only in the recovery
 * scheme. Recovery latency (NACK RTTs + backoff) is part of each
 * frame's total.
 */
Expected<Json>
runModes(const Options &opts, const std::vector<VoxelCloud> &frames)
{
    PipelineConfig pipe;
    pipe.network = opts.network;
    pipe.network.packet_loss_rate = opts.loss_rate;
    pipe.transport = true;
    pipe.transport_seed = opts.channel_seed;
    pipe.session.mtu_payload = opts.mtu_payload;
    pipe.session.fec.group_size = opts.fec_group;
    pipe.session.fec.parity_chunks = opts.fec_parity;
    if (opts.burst_rate > 0.0) {
        pipe.use_session_channel = true;
        pipe.session.channel = ChannelSpec::bursty(
            opts.burst_rate, opts.burst_length, opts.channel_seed);
    }

    struct Mode {
        const char *name;
        bool fec;
        FecScheme scheme;
    };
    const Mode modes[] = {{"nack", false, FecScheme::kXor},
                          {"fec", true, FecScheme::kXor},
                          {"rs", true, FecScheme::kReedSolomon}};
    Json section = Json::object();
    for (const Mode &mode : modes) {
        if (mode.scheme == FecScheme::kReedSolomon && !opts.rs)
            continue;
        pipe.session.fec.enabled = mode.fec;
        pipe.session.fec.scheme = mode.scheme;
        auto report = evaluatePipeline(frames, opts.config, pipe);
        if (!report)
            return report.status();
        section.add(mode.name, modeSection(mode.name, *report));
    }
    return section;
}

/**
 * The resilience section: the workload through the loss-resilient
 * session over a ChannelSpec::lossy channel, then the modes
 * comparison over --network.
 */
Expected<Json>
runResilience(const Options &opts,
              const std::vector<VoxelCloud> &frames)
{
    SessionConfig session;
    session.channel =
        ChannelSpec::lossy(opts.loss_rate, opts.channel_seed);
    StreamSession stream(opts.config, session);
    auto report = stream.run(frames);
    if (!report)
        return report.status();
    const SessionStats &s = report->stats;
    (void)std::fprintf(stderr,
                       "resilience at loss %.3g: ok %zu, resynced "
                       "%zu, concealed %zu, skipped %zu (%zu "
                       "retransmits)\n",
                       opts.loss_rate, s.frames_ok,
                       s.frames_resynced, s.frames_concealed,
                       s.frames_skipped, s.retransmits);

    auto modes = runModes(opts, frames);
    if (!modes)
        return modes.status();

    // Mean attribute PSNR of the concealed frames vs the originals;
    // null when no frame was concealed.
    Json concealed_psnr;
    double psnr_sum = 0.0;
    std::size_t concealed = 0;
    for (std::size_t f = 0; f < report->frames.size(); ++f) {
        if (report->frames[f].outcome != FrameOutcome::kConcealed)
            continue;
        psnr_sum +=
            attributePsnr(frames[f], report->frames[f].cloud).psnr;
        ++concealed;
    }
    if (concealed > 0)
        concealed_psnr =
            jsonPsnr(psnr_sum / static_cast<double>(concealed));

    Json section = Json::object();
    section.add("loss_rate", opts.loss_rate)
        .add("channel_seed", opts.channel_seed)
        .add("frames_ok", s.frames_ok)
        .add("frames_resynced", s.frames_resynced)
        .add("frames_concealed", s.frames_concealed)
        .add("frames_skipped", s.frames_skipped)
        .add("ok_or_concealed_fraction", s.okOrConcealedFraction())
        .add("frames_lost", s.frames_lost)
        .add("retransmits", s.retransmits)
        .add("keyframes_forced", s.keyframes_forced)
        .add("backoff_s", s.backoff_s)
        .add("chunks_bad_crc", report->wire.chunks_bad_crc)
        .add("chunks_truncated", report->wire.chunks_truncated)
        .add("wire_bytes_skipped", report->wire.bytes_skipped)
        .add("network", opts.network.name)
        .add("mtu_payload", opts.mtu_payload)
        .add("fec_group_size", opts.fec_group)
        .add("fec_scheme", opts.rs ? "rs" : "xor")
        .add("fec_parity", opts.fec_parity)
        .add("burst_rate", opts.burst_rate)
        .add("burst_length", opts.burst_length)
        .add("modes", modes.takeValue())
        .add("concealed_attr_psnr_db", std::move(concealed_psnr));
    return section;
}

/**
 * The overload section: the workload through the overload-armed
 * session on a clean channel, so the injected LoadSpec is the only
 * stressor and the rung walk and miss rate are deterministic and
 * comparable across runs.
 */
Expected<Json>
runOverload(const Options &opts,
            const std::vector<VoxelCloud> &frames)
{
    SessionConfig session;
    // Fixed GOP: isolate the deadline ladder.
    session.redundancy.min_gop_size = opts.config.gop_size;
    session.redundancy.max_gop_size = opts.config.gop_size;
    session.overload.enabled = true;
    session.overload.deadline_s = opts.deadline_ms * 1e-3;
    session.overload.load = opts.load;
    StreamSession stream(opts.config, session);
    auto report = stream.run(frames);
    if (!report)
        return report.status();
    const OverloadStats &s = report->overload;
    // Modelled encode latency of the non-dropped frames.
    const PercentileStats encode =
        computePercentiles(s.encode_latency_s);
    (void)std::fprintf(
        stderr,
        "overload at %.3g ms deadline (%s): miss rate %.3g "
        "(max %zu consecutive), %zu queue drops, %zu skipped, "
        "encode p99 %.2f ms\n",
        opts.deadline_ms, opts.load_spec.c_str(),
        s.deadlineMissRate(), s.max_consecutive_misses,
        s.queue_drops, s.frames_skipped, encode.p99 * 1e3);

    Json occupancy = Json::object();
    for (int r = 0; r < kOverloadRungCount; ++r)
        occupancy.add(overloadRungName(static_cast<OverloadRung>(r)),
                      s.rung_occupancy[r]);
    Json section = Json::object();
    section.add("deadline_ms", opts.deadline_ms)
        .add("load_spec", opts.load_spec)
        .add("frames", s.frames)
        .add("deadline_misses", s.deadline_misses)
        .add("deadline_miss_rate", s.deadlineMissRate())
        .add("max_consecutive_misses", s.max_consecutive_misses)
        .add("watchdog_stalls", s.watchdog_stalls)
        .add("queue_drops", s.queue_drops)
        .add("frames_skipped", s.frames_skipped)
        .add("alloc_failures", s.alloc_failures)
        .add("rung_transitions", s.rung_transitions)
        .add("rung_occupancy", std::move(occupancy))
        .add("encode_latency_s", percentiles(s.encode_latency_s));
    return section;
}

/** The fleet's device-fault recovery; present on every serve run so
 *  a clean run shows zero crashes rather than a missing section. */
Json
recoverySection(const serve::ServeReport &report,
                const serve::DeviceFaultSpec &faults)
{
    const serve::RecoveryStats &rec = report.recovery;
    Json section = Json::object();
    section.add("replicas", report.fleet.replicas)
        .add("faults", faults.toString())
        .add("crashes", rec.crashes)
        .add("failovers", rec.failovers)
        .add("tenants_shed", rec.tenants_shed)
        .add("checkpoints", rec.checkpoints)
        .add("breaker_trips", rec.breaker_trips)
        .add("faulted_frames", rec.faulted_frames)
        .add("quarantined_frames", rec.quarantined_frames)
        .add("mttr_s", rec.mttr_s)
        .add("worst_recovery_s", rec.worst_recovery_s);
    return section;
}

/**
 * The serve section: a fleet of --sessions tenant streams over the
 * serve scheduler. Deadline classes cycle
 * interactive/standard/bulk; consecutive tenant pairs share a
 * content seed so the reference cache sees realistic
 * popular-content reuse. Deterministic: the fleet is scheduled on
 * the virtual device clock.
 */
Expected<Json>
runServe(const Options &opts)
{
    // Smaller clouds per tenant: the fleet runs N whole streams, and
    // the serve gates track scheduling tails, not single-stream cost
    // (the end_to_end section covers that).
    const std::size_t tenant_points =
        std::max<std::size_t>(opts.points / 4, 1000);
    std::vector<serve::TenantSpec> tenants;
    for (int t = 0; t < opts.sessions; ++t) {
        serve::TenantSpec tenant;
        tenant.name = "tenant-" + std::to_string(t);
        tenant.codec = opts.config;
        VideoSpec spec;
        spec.name = "serve-bench";
        spec.seed = opts.seed * 1000 +
                    static_cast<std::uint64_t>(t / 2);
        spec.target_points = tenant_points;
        const SyntheticHumanVideo video(spec);
        for (int f = 0; f < opts.frames; ++f)
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
    fleet.replicas = opts.replicas;
    fleet.faults = opts.faults;
    // Checkpointing only matters once faults can lose encoder
    // state; zero cost keeps the no-crash schedule identical.
    if (!opts.faults.isIdle())
        fleet.checkpoint_interval_frames = 2;
    serve::ServeScheduler scheduler(fleet, std::move(tenants));
    auto report = scheduler.run();
    if (!report)
        return report.status();

    // arrival..completion percentiles per admitted tenant.
    Json tenant_rows = Json::object();
    double worst_p99_s = 0.0;
    for (const serve::TenantReport &tenant : report->tenants) {
        const serve::TenantStats &s = tenant.stats;
        worst_p99_s = std::max(worst_p99_s,
                               computePercentiles(s.latency_s).p99);
        Json row = Json::object();
        row.add("class",
                serve::deadlineClassName(tenant.deadline_class))
            .add("replica", tenant.replica)
            .add("served", s.served)
            .add("dropped", s.dropped)
            .add("faulted", s.faulted)
            .add("quarantined", s.quarantined)
            .add("shed", s.shed)
            .add("cache_hits", s.cache_hits)
            .add("deadline_misses", s.deadline_misses)
            .add("latency_s", percentiles(s.latency_s));
        tenant_rows.add(tenant.name, std::move(row));
    }
    const serve::FleetStats &f = report->fleet;
    const serve::CacheStats &c = report->cache;
    (void)std::fprintf(
        stderr,
        "serve with %zu sessions on %zu replica(s): %.2f "
        "sessions/device, fairness %.3f, worst-tenant p99 %.2f ms, "
        "cache hit rate %.2f\n",
        f.sessions, f.replicas, f.sessionsPerDevice(),
        report->fairness_index, worst_p99_s * 1e3, c.hitRate());
    const serve::RecoveryStats &rec = report->recovery;
    if (rec.crashes > 0)
        (void)std::fprintf(
            stderr,
            "recovery after %zu crash(es): %zu failovers, %zu "
            "shed, mttr %.2f ms (worst %.2f ms)\n",
            rec.crashes, rec.failovers, rec.tenants_shed,
            rec.mttr_s * 1e3, rec.worst_recovery_s * 1e3);

    Json cache = Json::object();
    cache.add("lookups", c.lookups)
        .add("hits", c.hits)
        .add("misses", c.misses)
        .add("hit_rate", c.hitRate())
        .add("saved_device_s", c.saved_device_s);
    Json section = Json::object();
    section.add("sessions", f.sessions)
        .add("admitted", f.admitted)
        .add("rejected", f.rejected)
        .add("makespan_s", f.makespan_s)
        .add("device_busy_s", f.device_busy_s)
        .add("utilization", f.utilization())
        .add("sessions_per_device", f.sessionsPerDevice())
        .add("fairness_index", report->fairness_index)
        .add("worst_tenant_p99_s", worst_p99_s)
        .add("cache", std::move(cache))
        .add("recovery", recoverySection(*report, opts.faults))
        .add("tenants", std::move(tenant_rows));
    return section;
}

// -----------------------------------------------------------------
// Command line
// -----------------------------------------------------------------

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

void
usage()
{
    (void)std::fprintf(
        stderr,
        "usage: bench_runner [--config tmc13|cwipc|intra|v1|v2]\n"
        "                    [--frames N] [--points N] [--seed N]\n"
        "                    [--threads N] [--out FILE]\n"
        "                    [--trace FILE]\n"
        "                    [--loss R] [--channel-seed N]\n"
        "                    [--network wifi|lte|5g] [--mtu N]\n"
        "                    [--fec-group K] [--fec-scheme xor|rs]\n"
        "                    [--fec-parity M] [--burst-rate R]\n"
        "                    [--burst-length L] [--deadline-ms MS]\n"
        "                    [--load-spec SPEC] [--sessions N]\n"
        "                    [--replicas N] [--faults SPEC]\n"
        "\n"
        "  --trace FILE      write the codec and resilience runs'\n"
        "                    spans as a chrome://tracing export\n"
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
}

/**
 * Parses the value of numeric flag `flag` into `*out`. The whole
 * token must read as one number (a whole one that fits T, or a
 * finite double; common/parse_number.h) and land in [lo, hi];
 * otherwise prints a one-line reason and returns false.
 */
template <typename T>
bool
parseNumber(const std::string &flag, const char *text, T *out,
            std::type_identity_t<T> lo,
            std::type_identity_t<T> hi =
                std::numeric_limits<T>::max())
{
    std::optional<T> value;
    if constexpr (std::is_floating_point_v<T>)
        value = finiteNumber(text);
    else
        value = wholeNumber<T>(text);
    if (value && *value >= lo && *value <= hi) {
        *out = *value;
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

/** Flag values as typed, before the names are resolved. */
struct Names {
    std::string config = "v1";
    std::string network = "wifi";
    std::string fec_scheme = "xor";
    std::string faults = "none";
};

/** Reads every `--flag value` pair into `*opts` and `*names`; false
 *  after printing why. */
bool
parseFlags(int argc, char **argv, Options *opts, Names *names)
{
    for (int i = 1; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return false;
        }
        const char *value = argv[i + 1];
        bool ok = true;
        if (arg == "--config")
            names->config = value;
        else if (arg == "--out")
            opts->out_path = value;
        else if (arg == "--trace")
            opts->trace_path = value;
        else if (arg == "--network")
            names->network = value;
        else if (arg == "--fec-scheme")
            names->fec_scheme = value;
        else if (arg == "--load-spec")
            opts->load_spec = value;
        else if (arg == "--faults")
            names->faults = value;
        else if (arg == "--frames")
            ok = parseNumber(arg, value, &opts->frames, 1);
        else if (arg == "--points")
            ok = parseNumber(arg, value, &opts->points, 1);
        else if (arg == "--seed")
            ok = parseNumber(arg, value, &opts->seed, 0);
        else if (arg == "--threads")
            ok = parseNumber(arg, value, &opts->threads, -1, 1024);
        else if (arg == "--loss")
            ok = parseNumber(arg, value, &opts->loss_rate, 0.0, 1.0);
        else if (arg == "--channel-seed")
            ok = parseNumber(arg, value, &opts->channel_seed, 0);
        else if (arg == "--mtu")
            ok = parseNumber(arg, value, &opts->mtu_payload, 0);
        else if (arg == "--fec-group")
            ok = parseNumber(arg, value, &opts->fec_group, 2);
        else if (arg == "--fec-parity")
            ok = parseNumber(arg, value, &opts->fec_parity, 1);
        else if (arg == "--burst-rate")
            ok = parseNumber(arg, value, &opts->burst_rate, 0.0, 1.0);
        else if (arg == "--burst-length")
            ok = parseNumber(arg, value, &opts->burst_length, 1);
        else if (arg == "--deadline-ms")
            ok = parseNumber(arg, value, &opts->deadline_ms, 0.0);
        else if (arg == "--sessions")
            ok = parseNumber(arg, value, &opts->sessions, 0);
        else if (arg == "--replicas")
            ok = parseNumber(arg, value, &opts->replicas, 1);
        else {
            usage();
            return false;
        }
        if (!ok)
            return false;
    }
    return true;
}

/**
 * Parses the command line into `*opts` and checks the flags
 * against each other before anything runs; false after printing
 * why (main then exits 2).
 */
bool
parseOptions(int argc, char **argv, Options *opts)
{
    Names names;
    if (!parseFlags(argc, argv, opts, &names))
        return false;
    const auto reject = [](const std::string &reason) {
        printError(reason);
        return false;
    };
    if (names.fec_scheme != "xor" && names.fec_scheme != "rs")
        return reject("--fec-scheme must be xor or rs");
    opts->rs = names.fec_scheme == "rs";
    if (opts->rs && opts->fec_parity >= opts->fec_group)
        return reject("--fec-parity must be in [1, --fec-group)");
    if ((opts->replicas > 1 || names.faults != "none") &&
        opts->sessions < 1)
        return reject("--replicas/--faults require --sessions");
    auto faults = serve::DeviceFaultSpec::parse(names.faults);
    if (!faults)
        return reject(faults.status().message());
    opts->faults = faults.takeValue();
    if (opts->deadline_ms == 0.0)
        return reject("--deadline-ms must be > 0");
    if (opts->load_spec != "none" && opts->deadline_ms < 0.0)
        return reject("--load-spec requires --deadline-ms");
    if (opts->deadline_ms > 0.0) {
        auto load = LoadSpec::parse(opts->load_spec);
        if (!load)
            return reject(load.status().message());
        opts->load = load.takeValue();
    }
    bool ok = false;
    opts->network = networkByName(names.network, &ok);
    if (!ok) {
        reject("unknown network '" + names.network + "'");
        usage();
        return false;
    }
    std::optional<CodecConfig> config =
        paperConfigByName(names.config);
    if (!config) {
        reject("unknown config '" + names.config + "'");
        usage();
        return false;
    }
    opts->config = *std::move(config);
    return true;
}

/** Writes `text` to `path`; false after printing why. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    out.close();
    if (!out)
        printError("cannot write " + path);
    return static_cast<bool>(out);
}

/** Appends a finished run's section under `key`; false after
 *  printing the run's error. */
bool
addSection(Json &doc, const char *key, Expected<Json> section)
{
    if (!section) {
        printError(section.status().message());
        return false;
    }
    doc.add(key, section.takeValue());
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseOptions(argc, argv, &opts))
        return 2;
    std::unique_ptr<ScopedGlobalPool> pool_override;
    if (opts.threads >= 0) {
        // --threads N means "N workers"; 0 = fully sequential.
        pool_override = std::make_unique<ScopedGlobalPool>(
            static_cast<std::size_t>(opts.threads));
    }

    VideoSpec spec;
    spec.name = "bench-human";
    spec.seed = opts.seed;
    spec.target_points = opts.points;
    spec.num_frames = opts.frames;
    const SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    for (int i = 0; i < opts.frames; ++i)
        frames.push_back(video.frame(i));

    Json doc = Json::object();
    doc.add("schema", "edgepcc-bench-v1")
        .add("workload", workloadSection(opts, spec));

    // Warmup pass (thread-pool spin-up, page faults), not counted.
    if (auto warm = runWorkload({frames.front()}, opts.config); !warm) {
        printError(warm.status().message());
        return 1;
    }
    // Spans are recorded for the codec run and, because the stream
    // spans fire only inside the resilient sessions, the resilience
    // run.
    const bool tracing = !opts.trace_path.empty();
    Tracer::global().setEnabled(tracing);
    auto metrics = runWorkload(frames, opts.config);
    Tracer::global().setEnabled(false);
    if (!metrics) {
        printError(metrics.status().message());
        return 1;
    }
    doc.add("end_to_end", endToEndSection(*metrics))
        .add("stages", stagesSection(*metrics))
        .add("kernels", runKernelBench());
    if (opts.loss_rate >= 0.0) {
        Tracer::global().setEnabled(tracing);
        auto resilience = runResilience(opts, frames);
        Tracer::global().setEnabled(false);
        if (!addSection(doc, "resilience", std::move(resilience)))
            return 1;
    }
    if (opts.deadline_ms > 0.0 &&
        !addSection(doc, "overload", runOverload(opts, frames)))
        return 1;
    if (opts.sessions > 0 &&
        !addSection(doc, "serve", runServe(opts)))
        return 1;

    const std::vector<TraceEvent> events = Tracer::global().events();
    Json trace = Json::object();
    trace.add("events", events.size());
    doc.add("trace", std::move(trace));
    if (tracing) {
        std::ostringstream trace_text;
        writeChromeTrace(events, trace_text);
        if (!writeFile(opts.trace_path, trace_text.str()))
            return 1;
    }
    std::string text;
    doc.write(text, 0);
    if (!writeFile(opts.out_path, text + "\n"))
        return 1;
    (void)std::fprintf(stderr, "wrote %s (%d frames, config %s)\n",
                       opts.out_path.c_str(), opts.frames,
                       opts.config.name.c_str());
    return 0;
}
