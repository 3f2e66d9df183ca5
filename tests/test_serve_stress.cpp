/**
 * @file
 * Serve-layer stress: 16 tenant sessions multiplexed over a small
 * shared pool, with batches racing on the worker threads — the TSan
 * job runs this to prove the batch TaskGroup, the reference cache
 * and the per-tenant encoder handoff are data-race free. The tenant mix
 * varies with EDGEPCC_CHAOS_SEED (the chaos job sweeps it); every
 * assertion is seed-independent, and a second identical run must
 * reproduce the exact schedule (determinism under concurrency).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/serve/fault_injector.h"
#include "edgepcc/serve/serve_scheduler.h"

namespace edgepcc {
namespace serve {
namespace {

std::uint64_t
chaosSeed()
{
    const char *env = std::getenv("EDGEPCC_CHAOS_SEED");
    if (env == nullptr)
        return 0;
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<VoxelCloud>
stressVideo(int num_frames, std::uint64_t seed)
{
    VideoSpec spec;
    spec.name = "serve-stress";
    spec.seed = seed;
    spec.target_points = 1500;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

std::vector<TenantSpec>
stressMix(std::uint64_t seed)
{
    std::vector<TenantSpec> tenants;
    for (int t = 0; t < 16; ++t) {
        TenantSpec tenant;
        tenant.name = "tenant-" + std::to_string(t);
        tenant.codec = t % 2 == 0 ? makeIntraOnlyConfig()
                                  : makeIntraInterV1Config();
        // Four content groups of four: popular content, so the
        // reference cache sees real sharing under contention.
        tenant.frames = stressVideo(
            3, seed * 100 + static_cast<std::uint64_t>(t % 4));
        tenant.deadline_class =
            static_cast<DeadlineClass>(t % kDeadlineClassCount);
        tenant.weight = 1.0 + static_cast<double>(t % 3);
        tenant.arrival_offset_s = 0.003 * static_cast<double>(t);
        tenant.queue_capacity = 64;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

TEST(ServeStressTest, SixteenSessionsOnSharedPool)
{
    ScopedGlobalPool pool(4);
    const std::uint64_t seed = chaosSeed();

    ServeConfig config;
    config.quantum_s = 0.002;
    config.batch_max = 8;

    ServeScheduler scheduler(config, stressMix(seed));
    auto report = scheduler.run();
    ASSERT_TRUE(report.hasValue());

    EXPECT_EQ(report->fleet.sessions, 16u);
    EXPECT_EQ(report->fleet.admitted, 16u);
    EXPECT_GT(report->fairness_index, 0.0);
    EXPECT_LE(report->fairness_index, 1.0 + 1e-12);
    for (const TenantReport &tenant : report->tenants) {
        EXPECT_EQ(tenant.stats.served + tenant.stats.dropped +
                      tenant.stats.faulted +
                      tenant.stats.quarantined + tenant.stats.shed,
                  tenant.stats.frames)
            << tenant.name;
        EXPECT_GT(tenant.stats.served, 0u) << tenant.name;
    }
    // Content groups of four: at least the followers within each
    // group hit the cache.
    EXPECT_GT(report->cache.hits, 0u);

    // Same mix, fresh scheduler: byte-for-byte the same schedule
    // even though batches raced on 4 worker threads.
    ServeScheduler again(config, stressMix(seed));
    auto second = again.run();
    ASSERT_TRUE(second.hasValue());
    EXPECT_EQ(traceString(*report), traceString(*second));
    EXPECT_EQ(report->cache.hits, second->cache.hits);
    ASSERT_EQ(report->tenants.size(), second->tenants.size());
    for (std::size_t t = 0; t < report->tenants.size(); ++t) {
        const std::vector<ServedFrame> &a =
            report->tenants[t].frames;
        const std::vector<ServedFrame> &b =
            second->tenants[t].frames;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t f = 0; f < a.size(); ++f)
            EXPECT_EQ(a[f].bitstream, b[f].bitstream);
    }
}

TEST(ServeStressTest, CrashFailoverSweepIsDeterministic)
{
    // Chaos sweep: the 16-tenant mix runs on two replicas and the
    // secondary crashes mid-stream. Whatever the seed, the recovery
    // schedule must be reproducible run-to-run and every surviving
    // stream fully accounted for. The chaos CI job sweeps
    // EDGEPCC_CHAOS_SEED; locally this covers three fixed seeds.
    ScopedGlobalPool pool(4);
    std::vector<std::uint64_t> seeds{chaosSeed(), 17, 4242};

    for (std::uint64_t seed : seeds) {
        ServeConfig config;
        config.quantum_s = 0.002;
        config.batch_max = 8;
        config.replicas = 2;
        config.checkpoint_interval_frames = 1;
        config.faults = DeviceFaultSpec::crashSecondary();

        ServeScheduler scheduler(config, stressMix(seed));
        auto report = scheduler.run();
        ASSERT_TRUE(report.hasValue()) << "seed " << seed;

        EXPECT_EQ(report->recovery.crashes, 1u) << "seed " << seed;
        for (const TenantReport &tenant : report->tenants) {
            EXPECT_EQ(tenant.stats.served + tenant.stats.dropped +
                          tenant.stats.faulted +
                          tenant.stats.quarantined +
                          tenant.stats.shed,
                      tenant.stats.frames)
                << tenant.name << " seed " << seed;
        }

        // Every failed-over tenant's post-crash service starts at a
        // keyframe and decodes cleanly from there — the restored
        // state never leaks an undecodable reference chain.
        for (const FailoverRecord &crash : report->failovers) {
            for (const FailoverMove &move : crash.moves) {
                if (move.to_replica < 0)
                    continue;  // shed, nothing served afterwards
                const TenantReport *moved = nullptr;
                for (const TenantReport &tenant : report->tenants) {
                    if (tenant.name == move.tenant)
                        moved = &tenant;
                }
                ASSERT_NE(moved, nullptr) << move.tenant;
                VideoDecoder fresh;
                bool first_after = true;
                for (const ServedFrame &frame : moved->frames) {
                    if (frame.completion_s <= crash.at_s ||
                        frame.outcome != ServeOutcome::kEncoded)
                        continue;
                    if (first_after) {
                        EXPECT_EQ(frame.stats.type,
                                  Frame::Type::kIntra)
                            << move.tenant << " seed " << seed;
                        first_after = false;
                    }
                    EXPECT_TRUE(
                        fresh.decode(frame.bitstream).hasValue())
                        << move.tenant << " frame "
                        << frame.frame_id << " seed " << seed;
                }
            }
        }

        // Recovery is deterministic: identical traces and bytes on
        // a fresh scheduler over the same mix.
        ServeScheduler again(config, stressMix(seed));
        auto second = again.run();
        ASSERT_TRUE(second.hasValue()) << "seed " << seed;
        EXPECT_EQ(traceString(*report), traceString(*second));
        EXPECT_EQ(recoveryTraceString(*report),
                  recoveryTraceString(*second));
        ASSERT_EQ(report->tenants.size(), second->tenants.size());
        for (std::size_t t = 0; t < report->tenants.size(); ++t) {
            const std::vector<ServedFrame> &a =
                report->tenants[t].frames;
            const std::vector<ServedFrame> &b =
                second->tenants[t].frames;
            ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
            for (std::size_t f = 0; f < a.size(); ++f)
                EXPECT_EQ(a[f].bitstream, b[f].bitstream)
                    << "seed " << seed;
        }
    }
}

}  // namespace
}  // namespace serve
}  // namespace edgepcc
