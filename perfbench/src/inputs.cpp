#include <algorithm>
#include <thread>

#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/stream/lossy_channel.h"
#include "workload.h"

namespace perfbench {

using namespace edgepcc;

std::vector<VoxelCloud>
generateFrames(std::uint64_t seed, std::size_t points, int count)
{
    VideoSpec spec;
    spec.name = "perfbench";
    spec.seed = seed;
    spec.target_points = points;
    spec.num_frames = count;
    const SyntheticHumanVideo video(spec);

    std::vector<VoxelCloud> frames(static_cast<std::size_t>(count));
    const auto work = [&](int lane, int lanes) {
        for (int f = lane; f < count; f += lanes)
            frames[static_cast<std::size_t>(f)] = video.frame(f);
    };
    const int lanes = kInputThreads;
    std::vector<std::thread> helpers;
    for (int lane = 1; lane < lanes; ++lane)
        helpers.emplace_back(work, lane, lanes);
    work(0, lanes);
    for (std::thread &helper : helpers)
        helper.join();
    return frames;
}

std::vector<VoxelCloud>
generateClips(std::uint64_t seed, std::size_t points, int clips,
              int frames_per_clip)
{
    std::vector<VoxelCloud> frames;
    for (int c = 0; c < clips; ++c) {
        std::vector<VoxelCloud> clip = generateFrames(
            mixSeed(seed, static_cast<std::uint64_t>(c)), points,
            frames_per_clip);
        for (VoxelCloud &frame : clip)
            frames.push_back(std::move(frame));
    }
    return frames;
}

std::vector<std::vector<VoxelCloud>>
probeContents(const std::vector<VoxelCloud> &frames)
{
    std::vector<std::vector<VoxelCloud>> contents(kFleetContents);
    const std::size_t per = (frames.size() + contents.size() - 1) /
                            contents.size();
    for (std::size_t f = 0; f < frames.size(); ++f)
        contents[f / per].push_back(frames[f]);
    return contents;
}

double
countPoints(const std::vector<VoxelCloud> &frames)
{
    double points = 0.0;
    for (const VoxelCloud &frame : frames)
        points += static_cast<double>(frame.size());
    return points;
}

SetupTimer::SetupTimer(std::function<void()> teardown,
                       std::function<void()> setup, int repeats)
    : teardown_(std::move(teardown)), setup_(std::move(setup)),
      repeats_(repeats)
{
}

void
SetupTimer::run()
{
    const double begin = nowSeconds();
    teardown_();
    const double start = cpuSeconds();
    setup_();
    seconds_.push_back(cpuSeconds() - start);
    if (phase_start_ > 0.0)
        paused_s_ += nowSeconds() - begin;
}

void
SetupTimer::startPhase(double seconds)
{
    phase_start_ = nowSeconds();
    phase_s_ = seconds;
    paused_s_ = 0.0;
}

double
SetupTimer::phaseSeconds() const
{
    return nowSeconds() - phase_start_ - paused_s_;
}

void
SetupTimer::between()
{
    const auto done = static_cast<double>(seconds_.size());
    if (static_cast<int>(seconds_.size()) < repeats_ &&
        phaseSeconds() >= phase_s_ * done / repeats_)
        run();
}

void
SetupTimer::finish()
{
    while (static_cast<int>(seconds_.size()) < repeats_)
        run();
}

double
SetupTimer::medianSeconds() const
{
    return computePercentiles(seconds_).p50;
}

PipelineConfig
uplinkPipeline(std::uint64_t channel_seed)
{
    PipelineConfig pipe;
    pipe.network = NetworkSpec::lte();
    pipe.transport = true;
    pipe.transport_seed = channel_seed;
    pipe.use_session_channel = true;
    pipe.session.channel =
        ChannelSpec::bursty(0.02, 4, channel_seed);
    pipe.session.channel.drop_rate = 0.04;
    pipe.session.mtu_payload = 1200;
    pipe.session.fec.enabled = true;
    pipe.session.fec.scheme = FecScheme::kReedSolomon;
    pipe.session.fec.group_size = 8;
    pipe.session.fec.parity_chunks = 2;
    pipe.session.redundancy.enabled = true;
    // Keep the paper's IPP pattern; the controller may still shorten
    // the GOP and force keyframes after unrecoverable loss.
    pipe.session.redundancy.max_gop_size = 3;
    return pipe;
}

std::vector<serve::TenantSpec>
buildTenants(const std::vector<std::vector<VoxelCloud>> &contents,
             const FleetShape &shape)
{
    std::vector<serve::TenantSpec> tenants;
    for (int t = 0; t < shape.tenants; ++t) {
        serve::TenantSpec tenant;
        tenant.name = "t" + std::to_string(t);
        tenant.deadline_class = static_cast<serve::DeadlineClass>(
            t % serve::kDeadlineClassCount);
        const bool bulk =
            tenant.deadline_class == serve::DeadlineClass::kBulk;
        tenant.codec = makeIntraOnlyConfig();
        if (bulk) {
            tenant.codec.geometry.entropy_coding = true;
            tenant.codec.geometry.contextual_entropy = true;
        }
        tenant.fps = shape.fps;
        tenant.arrival_offset_s = 0.002 * static_cast<double>(t);
        const auto &content = contents.at(
            static_cast<std::size_t>(bulk ? 4 + t / 6 : t / 3));
        for (int f = 0; f < shape.frames_per_tenant; ++f)
            tenant.frames.push_back(
                content[static_cast<std::size_t>(f) % content.size()]);
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

serve::ServeConfig
fleetConfig(const FleetShape &shape, int crash_replica)
{
    serve::ServeConfig config;
    config.replicas = shape.replicas;
    config.checkpoint_interval_frames = 4;
    config.checkpoint_cost_s = 0.0005;

    // Crash for good at 48-52% of the stream: late enough that
    // checkpoints exist, early enough that shedding shows.
    const double stream_s =
        static_cast<double>(shape.frames_per_tenant) / shape.fps;
    const double u =
        static_cast<double>(mixSeed(shape.seed, 0xc4a5) >> 11) *
        0x1.0p-53;
    serve::DeviceFaultEvent crash;
    crash.kind = serve::DeviceFaultKind::kCrash;
    crash.replica = crash_replica;
    crash.at_s = stream_s * (0.48 + 0.04 * u);
    crash.duration_s = 0.0;
    config.faults.events.push_back(crash);
    return config;
}

double
bestFps(const std::vector<std::vector<double>> &seconds_by_unit,
        const std::vector<double> &frames_by_unit)
{
    double frames = 0.0;
    double seconds = 0.0;
    for (std::size_t u = 0; u < seconds_by_unit.size(); ++u) {
        const std::vector<double> &samples = seconds_by_unit[u];
        if (samples.empty())
            continue;
        frames += frames_by_unit[u];
        seconds += *std::min_element(samples.begin(), samples.end());
    }
    return frames / seconds;
}

double
medianOfBests(const std::vector<std::vector<double>> &by_unit)
{
    std::vector<double> bests;
    for (const std::vector<double> &samples : by_unit) {
        if (!samples.empty())
            bests.push_back(*std::min_element(samples.begin(), samples.end()));
    }
    return computePercentiles(std::move(bests)).p50;
}

void
reportProcessLayers(const Usage &before, const Usage &after,
                    double wall_s, double frames, Report &report)
{
    const double user = after.user_s - before.user_s;
    const double sys = after.sys_s - before.sys_s;
    report.metric("parallel.cpu_util", (user + sys) / wall_s, "cores");
    report.metric("platform.sys_frac",
                  user + sys > 0.0 ? sys / (user + sys) : 0.0,
                  "fraction");
    report.metric("platform.minor_faults_per_frame",
                  (after.minor_faults - before.minor_faults) / frames,
                  "count");
}

void
reportTraceOverhead(const std::vector<Window> &traced,
                    const std::vector<Window> &untraced,
                    Report &report)
{
    const auto per_frame = [](const std::vector<Window> &windows) {
        double frames = 0.0;
        double seconds = 0.0;
        for (const Window &w : windows) {
            frames += w.frames;
            seconds += w.seconds;
        }
        return seconds / frames;
    };
    report.metric("trace.overhead_frac",
                  per_frame(traced) / per_frame(untraced) - 1.0,
                  "fraction");
}

}  // namespace perfbench
