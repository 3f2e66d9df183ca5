/**
 * @file
 * Fault-tolerant serving tests: the shared RetryPolicy backoff
 * math (and its bit-parity with the historical NACK schedule),
 * DeviceFaultSpec parsing/round-tripping, the circuit-breaker
 * state machine, multi-replica placement and byte-identity, and
 * the pinned deterministic crash-failover scenario — checkpoint
 * restore, keyframe-on-failover decodability, bulk-first shedding,
 * throttle/stall/oom injection and frame conservation — and the
 * whole-report fingerprints of seven seeded scenarios, pinned at 0
 * and 3 pool workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "edgepcc/common/crc32c.h"
#include "edgepcc/common/retry.h"
#include "edgepcc/core/video_codec.h"
#include "edgepcc/dataset/synthetic_human.h"
#include "edgepcc/parallel/thread_pool.h"
#include "edgepcc/serve/circuit_breaker.h"
#include "edgepcc/serve/fault_injector.h"
#include "edgepcc/serve/serve_scheduler.h"
#include "edgepcc/stream/stream_session.h"

namespace edgepcc {
namespace serve {
namespace {

std::vector<VoxelCloud>
faultVideo(int num_frames, std::uint64_t seed,
           std::size_t points = 1500)
{
    VideoSpec spec;
    spec.name = "serve-fault";
    spec.seed = seed;
    spec.target_points = points;
    SyntheticHumanVideo video(spec);
    std::vector<VoxelCloud> frames;
    frames.reserve(static_cast<std::size_t>(num_frames));
    for (int f = 0; f < num_frames; ++f)
        frames.push_back(video.frame(f));
    return frames;
}

TenantSpec
makeTenant(const std::string &name, std::uint64_t seed,
           DeadlineClass deadline_class, int num_frames = 8)
{
    TenantSpec tenant;
    tenant.name = name;
    tenant.codec = makeIntraOnlyConfig();
    tenant.frames = faultVideo(num_frames, seed);
    tenant.deadline_class = deadline_class;
    tenant.queue_capacity = 64;  // roomy: no drops unless asked
    return tenant;
}

const TenantReport &
tenantNamed(const ServeReport &report, const std::string &name)
{
    for (const TenantReport &tenant : report.tenants) {
        if (tenant.name == name)
            return tenant;
    }
    ADD_FAILURE() << "no tenant named " << name;
    static const TenantReport missing;
    return missing;
}

DeviceFaultSpec
mustParse(const std::string &text)
{
    auto spec = DeviceFaultSpec::parse(text);
    EXPECT_TRUE(spec.hasValue()) << text;
    return spec.hasValue() ? *spec : DeviceFaultSpec{};
}

/** Every offered frame must be accounted for by exactly one
 *  outcome bucket — degraded service is fine, silent loss is not. */
void
expectConservation(const TenantReport &tenant)
{
    EXPECT_EQ(tenant.stats.served + tenant.stats.dropped +
                  tenant.stats.faulted + tenant.stats.quarantined +
                  tenant.stats.shed,
              tenant.stats.frames)
        << tenant.name;
}

// -----------------------------------------------------------------
// RetryPolicy (shared by NACK retransmits and circuit breakers)
// -----------------------------------------------------------------

TEST(RetryPolicyTest, ExponentialBackoffMatchesLegacyFormula)
{
    RetryPolicy policy;
    policy.initial_backoff_s = 0.008;
    policy.multiplier = 2.0;
    policy.max_backoff_s =
        std::numeric_limits<double>::infinity();
    // Bit-identical to the historical NACK schedule
    // backoff_ms/1e3 * (1 << (round - 1)).
    for (int round = 1; round <= 6; ++round) {
        EXPECT_DOUBLE_EQ(policy.backoffFor(round),
                         0.008 * static_cast<double>(1 << (round - 1)))
            << "round " << round;
    }
}

TEST(RetryPolicyTest, BackoffIsCapped)
{
    RetryPolicy policy;
    policy.initial_backoff_s = 0.1;
    policy.multiplier = 2.0;
    policy.max_backoff_s = 0.35;
    EXPECT_DOUBLE_EQ(policy.backoffFor(1), 0.1);
    EXPECT_DOUBLE_EQ(policy.backoffFor(2), 0.2);
    EXPECT_DOUBLE_EQ(policy.backoffFor(3), 0.35);
    EXPECT_DOUBLE_EQ(policy.backoffFor(10), 0.35);
    EXPECT_DOUBLE_EQ(policy.totalBackoff(3), 0.1 + 0.2 + 0.35);
}

TEST(RetryPolicyTest, JitterIsSeededAndBounded)
{
    RetryPolicy policy;
    policy.initial_backoff_s = 0.01;
    policy.jitter = 0.25;
    policy.seed = 42;
    for (int attempt = 1; attempt <= 8; ++attempt) {
        const double factor = policy.jitterFor(attempt);
        EXPECT_GE(factor, 0.75);
        EXPECT_LE(factor, 1.25);
        // Deterministic: same (seed, attempt) -> same factor.
        EXPECT_DOUBLE_EQ(factor, policy.jitterFor(attempt));
    }
    RetryPolicy no_jitter = policy;
    no_jitter.jitter = 0.0;
    EXPECT_DOUBLE_EQ(no_jitter.jitterFor(3), 1.0);
}

TEST(RetryPolicyTest, ExhaustionBound)
{
    RetryPolicy policy;
    policy.max_attempts = 2;
    EXPECT_FALSE(policy.exhausted(0));
    EXPECT_FALSE(policy.exhausted(1));
    EXPECT_TRUE(policy.exhausted(2));
}

TEST(RetryPolicyTest, SessionRetransmitPolicyMirrorsNackSchedule)
{
    SessionConfig session;
    session.max_retransmits = 3;
    session.backoff_ms = 8.0;
    const RetryPolicy policy = session.retransmitPolicy();
    EXPECT_EQ(policy.max_attempts, 3);
    EXPECT_DOUBLE_EQ(policy.backoffFor(1), 8.0 / 1e3);
    EXPECT_DOUBLE_EQ(policy.backoffFor(2), 8.0 / 1e3 * 2.0);
    EXPECT_DOUBLE_EQ(policy.backoffFor(3), 8.0 / 1e3 * 4.0);
    EXPECT_DOUBLE_EQ(policy.jitterFor(1), 1.0);
}

// -----------------------------------------------------------------
// DeviceFaultSpec parsing
// -----------------------------------------------------------------

TEST(DeviceFaultSpecTest, KindNames)
{
    EXPECT_STREQ(deviceFaultKindName(DeviceFaultKind::kTransientStall),
                 "stall");
    EXPECT_STREQ(
        deviceFaultKindName(DeviceFaultKind::kThermalThrottle),
        "throttle");
    EXPECT_STREQ(
        deviceFaultKindName(DeviceFaultKind::kMemoryExhaustion),
        "oom");
    EXPECT_STREQ(deviceFaultKindName(DeviceFaultKind::kCrash),
                 "crash");
}

TEST(DeviceFaultSpecTest, ParsesPresets)
{
    auto none = DeviceFaultSpec::parse("none");
    ASSERT_TRUE(none.hasValue());
    EXPECT_TRUE(none->isIdle());
    EXPECT_EQ(none->toString(), "none");

    auto crash = DeviceFaultSpec::parse("crash-secondary");
    ASSERT_TRUE(crash.hasValue());
    ASSERT_EQ(crash->events.size(), 1u);
    EXPECT_EQ(crash->events[0].kind, DeviceFaultKind::kCrash);
    EXPECT_EQ(crash->events[0].replica, 1);

    auto thermal = DeviceFaultSpec::parse("thermal-brownout");
    ASSERT_TRUE(thermal.hasValue());
    ASSERT_EQ(thermal->events.size(), 1u);
    EXPECT_EQ(thermal->events[0].kind,
              DeviceFaultKind::kThermalThrottle);
}

TEST(DeviceFaultSpecTest, ParsesEventListAndRoundTrips)
{
    const std::string text =
        "kind=crash,replica=1,at-ms=60;"
        "kind=throttle,at-ms=20,dur-ms=40,derate=2.5;"
        "kind=oom,at-ms=5,dur-ms=3;"
        "kind=stall,at-ms=1,dur-ms=2";
    auto spec = DeviceFaultSpec::parse(text);
    ASSERT_TRUE(spec.hasValue());
    ASSERT_EQ(spec->events.size(), 4u);
    EXPECT_EQ(spec->events[0].kind, DeviceFaultKind::kCrash);
    EXPECT_DOUBLE_EQ(spec->events[0].at_s, 0.060);
    EXPECT_DOUBLE_EQ(spec->events[1].derate, 2.5);
    EXPECT_DOUBLE_EQ(spec->events[2].duration_s, 0.003);

    // Canonical rendering parses back to the same spec.
    auto again = DeviceFaultSpec::parse(spec->toString());
    ASSERT_TRUE(again.hasValue());
    EXPECT_EQ(again->toString(), spec->toString());
}

TEST(DeviceFaultSpecTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(DeviceFaultSpec::parse("kind=warp,at-ms=1")
                     .hasValue());
    EXPECT_FALSE(DeviceFaultSpec::parse("replica=0").hasValue());
    EXPECT_FALSE(
        DeviceFaultSpec::parse("kind=oom,at-ms=5").hasValue());
    EXPECT_FALSE(
        DeviceFaultSpec::parse("kind=crash,at-ms=abc").hasValue());
    EXPECT_FALSE(
        DeviceFaultSpec::parse("kind=throttle,dur-ms=4,derate=-1")
            .hasValue());

    // NaN compares false against every bound and an out-of-range
    // double has no integer value: both must be refused, not cast.
    std::vector<std::string> bad;
    for (const char *key : {"at-ms", "dur-ms", "derate"}) {
        for (const char *value : {"nan", "inf"})
            bad.push_back(std::string("kind=throttle,dur-ms=4,") +
                          key + "=" + value);
    }
    for (const char *value : {"-1", "1.5", "1e20"})
        bad.push_back(std::string("kind=crash,replica=") + value);
    for (const std::string &text : bad) {
        const auto spec = DeviceFaultSpec::parse(text);
        EXPECT_FALSE(spec.hasValue()) << text;
        EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
            << text;
    }
}

// -----------------------------------------------------------------
// Circuit breaker state machine
// -----------------------------------------------------------------

CircuitBreakerConfig
fastBreaker()
{
    CircuitBreakerConfig config;
    config.failure_threshold = 3;
    config.reprobe.initial_backoff_s = 0.1;
    config.reprobe.multiplier = 2.0;
    config.reprobe.max_backoff_s = 10.0;
    return config;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailures)
{
    CircuitBreaker breaker(fastBreaker());
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(breaker.allowRequest(0.0));
        breaker.onFailure(0.0);
        EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    }
    ASSERT_TRUE(breaker.allowRequest(0.0));
    breaker.onFailure(0.0);
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.trips(), 1u);
    EXPECT_DOUBLE_EQ(breaker.openUntil(), 0.1);
    EXPECT_FALSE(breaker.allowRequest(0.05));
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess)
{
    CircuitBreaker breaker(fastBreaker());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(breaker.allowRequest(0.0));
        breaker.onFailure(0.0);
    }
    ASSERT_EQ(breaker.state(), BreakerState::kOpen);
    // Quarantine expired: exactly one probe is admitted.
    ASSERT_TRUE(breaker.allowRequest(0.2));
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_FALSE(breaker.allowRequest(0.2));
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_EQ(breaker.consecutiveFailures(), 0);
    // The backoff schedule reset with the success.
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(breaker.allowRequest(1.0));
        breaker.onFailure(1.0);
    }
    EXPECT_DOUBLE_EQ(breaker.openUntil(), 1.1);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithLongerBackoff)
{
    CircuitBreaker breaker(fastBreaker());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(breaker.allowRequest(0.0));
        breaker.onFailure(0.0);
    }
    EXPECT_DOUBLE_EQ(breaker.openUntil(), 0.1);
    ASSERT_TRUE(breaker.allowRequest(0.15));  // probe
    breaker.onFailure(0.15);
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.trips(), 2u);
    // Second consecutive trip: doubled quarantine.
    EXPECT_DOUBLE_EQ(breaker.openUntil(), 0.15 + 0.2);
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips)
{
    CircuitBreakerConfig config = fastBreaker();
    config.enabled = false;
    CircuitBreaker breaker(config);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(breaker.allowRequest(0.0));
        breaker.onFailure(0.0);
    }
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, StateNames)
{
    EXPECT_STREQ(breakerStateName(BreakerState::kClosed), "closed");
    EXPECT_STREQ(breakerStateName(BreakerState::kOpen), "open");
    EXPECT_STREQ(breakerStateName(BreakerState::kHalfOpen),
                 "half-open");
}

// -----------------------------------------------------------------
// Trace rendering
// -----------------------------------------------------------------

TEST(ServeFaultHelpersTest, TraceStringMarksFaultOutcomes)
{
    ServeReport report;
    report.trace.push_back(
        {"A", 0, ServeOutcome::kFaulted, false, 0});
    report.trace.push_back(
        {"B", 1, ServeOutcome::kQuarantined, false, 0});
    report.trace.push_back({"C", 2, ServeOutcome::kShed, false, 1});
    EXPECT_EQ(traceString(report), "A0~ B1^ C2#");
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kFaulted),
                 "faulted");
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kQuarantined),
                 "quarantined");
    EXPECT_STREQ(serveOutcomeName(ServeOutcome::kShed), "shed");
}

TEST(ServeFaultHelpersTest, RecoveryTraceStringFormat)
{
    ServeReport report;
    FailoverRecord record;
    record.replica = 1;
    record.at_s = 0.0667;
    FailoverMove moved;
    moved.tenant = "B";
    moved.to_replica = 0;
    moved.restored_from_checkpoint = true;
    record.moves.push_back(moved);
    FailoverMove shed;
    shed.tenant = "D";
    shed.to_replica = -1;
    record.moves.push_back(shed);
    report.failovers.push_back(record);
    EXPECT_EQ(recoveryTraceString(report),
              "crash r1 @66700us: B->r0+ckpt D->shed");
    EXPECT_STREQ(
        rejectionReasonName(RejectionReason::kFailoverShed),
        "failover-shed");
}

// -----------------------------------------------------------------
// Scheduler validation
// -----------------------------------------------------------------

TEST(ServeFaultValidationTest, RejectsBadFaultConfigs)
{
    std::vector<TenantSpec> tenants;
    tenants.push_back(makeTenant("A", 1, DeadlineClass::kStandard, 2));

    ServeConfig zero_replicas;
    zero_replicas.replicas = 0;
    EXPECT_FALSE(
        ServeScheduler(zero_replicas, tenants).run().hasValue());

    ServeConfig out_of_range;
    out_of_range.replicas = 2;
    out_of_range.faults =
        mustParse("kind=crash,replica=5,at-ms=1");
    EXPECT_FALSE(
        ServeScheduler(out_of_range, tenants).run().hasValue());

    ServeConfig bad_checkpoint;
    bad_checkpoint.checkpoint_interval_frames = -1;
    EXPECT_FALSE(
        ServeScheduler(bad_checkpoint, tenants).run().hasValue());
}

// -----------------------------------------------------------------
// Multi-replica placement
// -----------------------------------------------------------------

TEST(ServeReplicaTest, PlacementSpreadsAcrossReplicas)
{
    ServeConfig config;
    config.replicas = 2;
    config.quantum_s = 10.0;
    config.batch_max = 8;

    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 11, DeadlineClass::kInteractive, 3));
    tenants.push_back(
        makeTenant("B", 22, DeadlineClass::kStandard, 3));
    tenants.push_back(
        makeTenant("C", 33, DeadlineClass::kStandard, 3));
    tenants.push_back(makeTenant("D", 44, DeadlineClass::kBulk, 3));

    auto report = ServeScheduler(config, tenants).run();
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->fleet.replicas, 2u);
    EXPECT_EQ(report->fleet.admitted, 4u);

    bool used[2] = {false, false};
    for (const TenantReport &tenant : report->tenants) {
        ASSERT_GE(tenant.replica, 0);
        ASSERT_LT(tenant.replica, 2);
        used[tenant.replica] = true;
        expectConservation(tenant);
        EXPECT_EQ(tenant.stats.served, tenant.stats.frames)
            << tenant.name;
    }
    EXPECT_TRUE(used[0]);
    EXPECT_TRUE(used[1]);
    EXPECT_TRUE(report->failovers.empty());
    EXPECT_EQ(recoveryTraceString(*report), "");

    // Per-tenant byte-identity holds across replicas: every
    // tenant's bitstreams equal its solo run.
    for (const TenantSpec &spec : tenants) {
        VideoEncoder solo(spec.codec);
        const TenantReport &tenant =
            tenantNamed(*report, spec.name);
        ASSERT_EQ(tenant.frames.size(), spec.frames.size());
        for (std::size_t f = 0; f < spec.frames.size(); ++f) {
            auto encoded = solo.encode(spec.frames[f]);
            ASSERT_TRUE(encoded.hasValue());
            EXPECT_EQ(tenant.frames[f].bitstream,
                      encoded->bitstream)
                << spec.name << " frame " << f;
        }
    }
}

// -----------------------------------------------------------------
// Fault injection: throttle, stall, oom
// -----------------------------------------------------------------

TEST(ServeFaultTest, ThermalThrottleDeratesCostNotBytes)
{
    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 7, DeadlineClass::kStandard, 4));

    ServeConfig base;
    base.quantum_s = 10.0;
    auto clean = ServeScheduler(base, tenants).run();
    ASSERT_TRUE(clean.hasValue());

    ServeConfig hot = base;
    hot.faults = mustParse(
        "kind=throttle,replica=0,at-ms=0,dur-ms=1e6,derate=2.5");
    ASSERT_EQ(hot.faults.events.size(), 1u);
    auto throttled = ServeScheduler(hot, tenants).run();
    ASSERT_TRUE(throttled.hasValue());

    const TenantReport &cold_tenant = tenantNamed(*clean, "A");
    const TenantReport &hot_tenant = tenantNamed(*throttled, "A");
    ASSERT_EQ(hot_tenant.frames.size(), cold_tenant.frames.size());
    for (std::size_t f = 0; f < hot_tenant.frames.size(); ++f) {
        ASSERT_EQ(hot_tenant.frames[f].outcome,
                  ServeOutcome::kEncoded);
        // 2.5x the modelled seconds, identical bytes.
        EXPECT_DOUBLE_EQ(hot_tenant.frames[f].cost_s,
                         cold_tenant.frames[f].cost_s * 2.5);
        EXPECT_EQ(hot_tenant.frames[f].bitstream,
                  cold_tenant.frames[f].bitstream);
    }
    EXPECT_GT(throttled->fleet.makespan_s,
              clean->fleet.makespan_s);
}

TEST(ServeFaultTest, TransientStallDelaysWithoutChangingBytes)
{
    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 7, DeadlineClass::kStandard, 4));

    ServeConfig base;
    base.quantum_s = 10.0;
    auto clean = ServeScheduler(base, tenants).run();
    ASSERT_TRUE(clean.hasValue());

    ServeConfig stalled_config = base;
    stalled_config.faults =
        mustParse("kind=stall,at-ms=1,dur-ms=50");
    auto stalled = ServeScheduler(stalled_config, tenants).run();
    ASSERT_TRUE(stalled.hasValue());

    // Nothing completes while the device is stalled: any frame
    // that would have finished inside the stall window is pushed
    // past its end. Later frames catch up during arrival gaps, so
    // the makespan itself can absorb the hiccup.
    const TenantReport &a = tenantNamed(*stalled, "A");
    const TenantReport &b = tenantNamed(*clean, "A");
    ASSERT_EQ(a.frames.size(), b.frames.size());
    bool saw_delayed_frame = false;
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        EXPECT_EQ(a.frames[f].bitstream, b.frames[f].bitstream);
        // Faults land at round boundaries, so only frames whose
        // round begins after the trigger observe the stall.
        const bool round_after_trigger =
            f > 0 && b.frames[f - 1].completion_s >= 0.001;
        if (round_after_trigger &&
            b.frames[f].completion_s < 0.051) {
            saw_delayed_frame = true;
            EXPECT_GE(a.frames[f].completion_s, 0.051 - 1e-9)
                << "frame " << f;
        }
    }
    EXPECT_TRUE(saw_delayed_frame);
    EXPECT_GE(stalled->fleet.makespan_s, clean->fleet.makespan_s);
}

TEST(ServeFaultTest, MemoryExhaustionFaultsAreAttributable)
{
    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 7, DeadlineClass::kStandard, 6));

    ServeConfig config;
    config.quantum_s = 10.0;
    // The first dispatch lands inside the oom window.
    config.faults = mustParse("kind=oom,at-ms=0,dur-ms=1");
    auto report = ServeScheduler(config, tenants).run();
    ASSERT_TRUE(report.hasValue());

    const TenantReport &tenant = tenantNamed(*report, "A");
    expectConservation(tenant);
    ASSERT_GE(tenant.stats.faulted, 1u);
    const ServedFrame &faulted = tenant.frames.front();
    EXPECT_EQ(faulted.outcome, ServeOutcome::kFaulted);
    EXPECT_EQ(faulted.fault_status.code(),
              StatusCode::kResourceExhausted);
    EXPECT_NE(faulted.fault_status.message().find("tenant 'A'"),
              std::string::npos);
    EXPECT_NE(faulted.fault_status.message().find("frame 0"),
              std::string::npos);
    EXPECT_NE(
        faulted.fault_status.message().find("memory exhausted"),
        std::string::npos);
    // The window passed: the rest of the stream was served.
    EXPECT_GT(tenant.stats.served, 0u);
    EXPECT_EQ(report->recovery.faulted_frames,
              tenant.stats.faulted);
}

// -----------------------------------------------------------------
// Poisoned tenants and the breaker in the scheduler
// -----------------------------------------------------------------

TEST(ServeFaultTest, PoisonedTenantIsQuarantinedAndRecovers)
{
    TenantSpec poisoned =
        makeTenant("P", 5, DeadlineClass::kStandard, 12);
    poisoned.fault_frames = {1, 2, 3};
    poisoned.queue_capacity = 0;  // tight: quarantine sheds show

    ServeConfig config;
    config.quantum_s = 10.0;
    config.breaker.failure_threshold = 3;
    config.breaker.reprobe.initial_backoff_s = 0.2;

    auto report =
        ServeScheduler(config, {poisoned}).run();
    ASSERT_TRUE(report.hasValue());
    const TenantReport &tenant = tenantNamed(*report, "P");
    expectConservation(tenant);

    // All three poisoned dispatches faulted and tripped the
    // breaker; frames arriving during the quarantine were shed as
    // quarantined, and the re-probe closed the breaker again.
    EXPECT_EQ(tenant.stats.faulted, 3u);
    EXPECT_EQ(report->recovery.breaker_trips, 1u);
    EXPECT_GT(tenant.stats.quarantined, 0u);
    EXPECT_GT(tenant.stats.served, 1u);
    EXPECT_NE(tenant.frames[1].fault_status.message().find(
                  "poisoned"),
              std::string::npos);

    // The last frames were served normally post-recovery.
    EXPECT_EQ(tenant.frames.back().outcome,
              ServeOutcome::kEncoded);
}

TEST(ServeFaultTest, FaultedFramesNeverReachTheEncoder)
{
    // Byte-identity under faults: the bitstream equals a solo run
    // over the frames actually fed (the poisoned one skipped).
    TenantSpec poisoned =
        makeTenant("P", 5, DeadlineClass::kStandard, 5);
    poisoned.codec = makeIntraInterV1Config();
    poisoned.frames = faultVideo(5, 5);
    poisoned.fault_frames = {1};

    ServeConfig config;
    config.quantum_s = 10.0;
    auto report = ServeScheduler(config, {poisoned}).run();
    ASSERT_TRUE(report.hasValue());
    const TenantReport &tenant = tenantNamed(*report, "P");
    EXPECT_EQ(tenant.stats.faulted, 1u);
    EXPECT_EQ(tenant.stats.served, 4u);

    VideoEncoder solo(poisoned.codec);
    for (const ServedFrame &frame : tenant.frames) {
        if (frame.outcome != ServeOutcome::kEncoded)
            continue;
        auto encoded =
            solo.encode(poisoned.frames[frame.frame_id]);
        ASSERT_TRUE(encoded.hasValue());
        EXPECT_EQ(frame.bitstream, encoded->bitstream)
            << "frame " << frame.frame_id;
    }
}

// -----------------------------------------------------------------
// Crash failover
// -----------------------------------------------------------------

/** The canonical failover scenario: two replicas, four tenants,
 *  replica 1 crashes permanently mid-stream. */
struct CrashScenario {
    ServeConfig config;
    std::vector<TenantSpec> tenants;
};

CrashScenario
crashScenario()
{
    CrashScenario scenario;
    scenario.config.replicas = 2;
    scenario.config.quantum_s = 10.0;
    scenario.config.batch_max = 8;
    scenario.config.checkpoint_interval_frames = 2;
    scenario.config.checkpoint_cost_s = 0.0005;
    scenario.config.faults = DeviceFaultSpec::crashSecondary();

    scenario.tenants.push_back(
        makeTenant("A", 11, DeadlineClass::kInteractive, 8));
    TenantSpec b = makeTenant("B", 22, DeadlineClass::kInteractive, 8);
    b.codec = makeIntraInterV1Config();  // IPP: restore must re-key
    scenario.tenants.push_back(std::move(b));
    scenario.tenants.push_back(
        makeTenant("C", 33, DeadlineClass::kStandard, 8));
    scenario.tenants.push_back(
        makeTenant("D", 44, DeadlineClass::kBulk, 8));
    return scenario;
}

TEST(ServeFailoverTest, CrashMidStreamRecoversDeterministically)
{
    const CrashScenario scenario = crashScenario();
    auto report =
        ServeScheduler(scenario.config, scenario.tenants).run();
    ASSERT_TRUE(report.hasValue());

    // Exactly one crash; every victim found a new home (the
    // survivor has headroom), nobody shed.
    EXPECT_EQ(report->recovery.crashes, 1u);
    ASSERT_EQ(report->failovers.size(), 1u);
    const FailoverRecord &crash = report->failovers.front();
    EXPECT_EQ(crash.replica, 1);
    ASSERT_FALSE(crash.moves.empty());
    EXPECT_EQ(report->recovery.failovers, crash.moves.size());
    EXPECT_EQ(report->recovery.tenants_shed, 0u);
    EXPECT_GT(report->recovery.checkpoints, 0u);
    EXPECT_GT(report->recovery.mttr_s, 0.0);
    EXPECT_GE(report->recovery.worst_recovery_s,
              report->recovery.mttr_s);

    for (const FailoverMove &move : crash.moves) {
        EXPECT_EQ(move.from_replica, 1);
        EXPECT_EQ(move.to_replica, 0);
        // The crash landed after 2+ served frames, so every victim
        // restored from a checkpoint instead of a cold reset.
        EXPECT_TRUE(move.restored_from_checkpoint) << move.tenant;
        const TenantReport &tenant =
            tenantNamed(*report, move.tenant);
        EXPECT_EQ(tenant.replica, 0);
        EXPECT_EQ(tenant.rejection_reason, RejectionReason::kNone);
        expectConservation(tenant);

        // The tenant recovered: frames served after the crash,
        // and the first of them within its class budget of the
        // crash (the MTTR acceptance bound; interactive is the
        // tightest class in the mix).
        const ServedFrame *first_after = nullptr;
        for (const ServedFrame &frame : tenant.frames) {
            if (frame.outcome == ServeOutcome::kEncoded &&
                frame.completion_s > crash.at_s) {
                first_after = &frame;
                break;
            }
        }
        ASSERT_NE(first_after, nullptr) << move.tenant;
        EXPECT_LE(first_after->completion_s - crash.at_s,
                  tenant.stats.deadline_s)
            << move.tenant;

        // Keyframe-on-restore: the first post-crash frame is
        // intra, so a decoder joining at the failover point (or
        // riding through it) never needs the lost reference.
        EXPECT_EQ(first_after->stats.type, Frame::Type::kIntra)
            << move.tenant;
        VideoDecoder fresh;
        bool reached_restore = false;
        for (const ServedFrame &frame : tenant.frames) {
            if (frame.completion_s <= crash.at_s ||
                frame.outcome != ServeOutcome::kEncoded)
                continue;
            reached_restore = true;
            auto decoded = fresh.decode(frame.bitstream);
            EXPECT_TRUE(decoded.hasValue())
                << move.tenant << " frame " << frame.frame_id;
        }
        EXPECT_TRUE(reached_restore) << move.tenant;
    }

    // All four tenants finish their streams despite the crash.
    for (const TenantReport &tenant : report->tenants) {
        EXPECT_TRUE(tenant.admitted) << tenant.name;
        expectConservation(tenant);
        EXPECT_GT(tenant.stats.served, 0u) << tenant.name;
    }

    // Re-run determinism: the whole recovery schedule — service
    // trace, recovery trace, bitstreams, MTTR — is reproducible.
    auto second =
        ServeScheduler(scenario.config, scenario.tenants).run();
    ASSERT_TRUE(second.hasValue());
    EXPECT_EQ(traceString(*report), traceString(*second));
    EXPECT_EQ(recoveryTraceString(*report),
              recoveryTraceString(*second));
    EXPECT_DOUBLE_EQ(report->recovery.mttr_s,
                     second->recovery.mttr_s);
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

TEST(ServeFailoverTest, PinnedRecoveryTrace)
{
    const CrashScenario scenario = crashScenario();
    auto report =
        ServeScheduler(scenario.config, scenario.tenants).run();
    ASSERT_TRUE(report.hasValue());
    // Pinned: replica 1 hosts B and D (least-loaded placement in
    // admission order A, B, C, D), the crash is detected at the
    // first batch boundary past 60 ms, and both victims restore
    // from their frame-2 checkpoints onto replica 0.
    EXPECT_EQ(recoveryTraceString(*report),
              "crash r1 @66667us: B->r0+ckpt D->r0+ckpt");
}

TEST(ServeFailoverTest, ShedsBulkTenantsFirstWhenCapacityIsGone)
{
    // Shrink the cap so the survivor can absorb exactly one victim:
    // the standard-class victim moves, the bulk one is shed.
    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 11, DeadlineClass::kInteractive, 8));
    tenants.push_back(
        makeTenant("B", 22, DeadlineClass::kStandard, 8));
    tenants.push_back(
        makeTenant("C", 33, DeadlineClass::kStandard, 8));
    tenants.push_back(makeTenant("D", 44, DeadlineClass::kBulk, 8));

    ServeConfig config;
    config.replicas = 2;
    config.quantum_s = 10.0;
    config.batch_max = 8;
    config.faults = DeviceFaultSpec::crashSecondary();
    // Cap = 3.5x one tenant's probe utilization: each replica
    // holds two, and the survivor can take exactly one more.
    const double unit_util =
        [&] {
            VideoEncoder probe(tenants[0].codec);
            auto encoded = probe.encode(tenants[0].frames.front());
            EXPECT_TRUE(encoded.hasValue());
            const EdgeDeviceModel model(DeviceSpec::jetsonXavier15W());
            return model.evaluate(encoded->profile).modelSeconds() *
                   tenants[0].fps;
        }();
    config.admission_utilization_cap = unit_util * 3.5;

    auto report = ServeScheduler(config, tenants).run();
    ASSERT_TRUE(report.hasValue());

    EXPECT_EQ(report->fleet.admitted, 4u);
    EXPECT_EQ(report->recovery.crashes, 1u);
    EXPECT_EQ(report->recovery.tenants_shed, 1u);

    // The bulk tenant is the one shed — the re-admission order
    // protects the tighter classes.
    const TenantReport &bulk = tenantNamed(*report, "D");
    EXPECT_EQ(bulk.rejection_reason,
              RejectionReason::kFailoverShed);
    EXPECT_GT(bulk.stats.shed, 0u);
    expectConservation(bulk);
    for (const ServedFrame &frame : bulk.frames) {
        if (frame.completion_s >
                report->failovers.front().at_s - 1e-9 &&
            frame.outcome != ServeOutcome::kEncoded &&
            frame.outcome != ServeOutcome::kCacheHit) {
            EXPECT_EQ(frame.outcome, ServeOutcome::kShed);
        }
    }

    // Every non-bulk tenant still completed.
    for (const char *name : {"A", "B", "C"}) {
        const TenantReport &tenant = tenantNamed(*report, name);
        EXPECT_EQ(tenant.rejection_reason, RejectionReason::kNone)
            << name;
        EXPECT_EQ(tenant.stats.served + tenant.stats.dropped,
                  tenant.stats.frames)
            << name;
    }
    const FailoverRecord &crash = report->failovers.front();
    ASSERT_EQ(crash.moves.size(), 2u);
    EXPECT_EQ(crash.moves.back().tenant, "D");
    EXPECT_EQ(crash.moves.back().to_replica, -1);
}

TEST(ServeFailoverTest, ReplicaRestartRejoinsForLaterFailovers)
{
    // Crash replica 1 with a restart delay, then crash replica 0
    // permanently: the revived replica 1 must pick the tenants up.
    std::vector<TenantSpec> tenants;
    tenants.push_back(
        makeTenant("A", 11, DeadlineClass::kInteractive, 10));
    tenants.push_back(
        makeTenant("B", 22, DeadlineClass::kStandard, 10));

    ServeConfig config;
    config.replicas = 2;
    config.quantum_s = 10.0;
    config.batch_max = 8;
    config.faults = mustParse(
        "kind=crash,replica=1,at-ms=40,dur-ms=20;"
        "kind=crash,replica=0,at-ms=100");

    auto report = ServeScheduler(config, tenants).run();
    ASSERT_TRUE(report.hasValue());
    EXPECT_EQ(report->recovery.crashes, 2u);
    EXPECT_EQ(report->recovery.tenants_shed, 0u);
    ASSERT_EQ(report->failovers.size(), 2u);
    // Second failover lands everyone back on the revived replica 1.
    for (const FailoverMove &move : report->failovers[1].moves)
        EXPECT_EQ(move.to_replica, 1) << move.tenant;
    for (const TenantReport &tenant : report->tenants) {
        expectConservation(tenant);
        EXPECT_GT(tenant.stats.served, 0u) << tenant.name;
    }
}

TEST(ServeFailoverTest, CheckpointingAloneKeepsBytesIdentical)
{
    // Checkpoints must be pure bookkeeping: same bytes as solo,
    // only the virtual clock pays.
    std::vector<TenantSpec> tenants;
    TenantSpec tenant =
        makeTenant("A", 9, DeadlineClass::kStandard, 6);
    tenant.codec = makeIntraInterV1Config();
    tenant.frames = faultVideo(6, 9);
    tenants.push_back(tenant);

    ServeConfig plain;
    plain.quantum_s = 10.0;
    auto base = ServeScheduler(plain, tenants).run();
    ASSERT_TRUE(base.hasValue());

    ServeConfig checkpointed = plain;
    checkpointed.checkpoint_interval_frames = 2;
    checkpointed.checkpoint_cost_s = 0.001;
    auto ckpt = ServeScheduler(checkpointed, tenants).run();
    ASSERT_TRUE(ckpt.hasValue());

    const TenantReport &a = tenantNamed(*base, "A");
    const TenantReport &b = tenantNamed(*ckpt, "A");
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f)
        EXPECT_EQ(a.frames[f].bitstream, b.frames[f].bitstream);
    EXPECT_EQ(b.stats.checkpoints, 3u);
    EXPECT_GT(ckpt->fleet.makespan_s, base->fleet.makespan_s);
}

// -----------------------------------------------------------------
// Whole-report fingerprints
// -----------------------------------------------------------------

long long
nanos(double seconds)
{
    return std::llround(seconds * 1e9);
}

/** Every observable field of a report on one line (times in integer
 *  ns), plus one CRC32C over each frame's outcome, start,
 *  completion, cost and bitstream, so a pin mismatch shows the
 *  whole difference at once. */
std::string
fingerprint(const ServeReport &report)
{
    std::uint32_t crc = 0;
    for (const TenantReport &tenant : report.tenants) {
        for (const ServedFrame &frame : tenant.frames) {
            std::vector<std::uint8_t> record;
            for (const long long value :
                 {static_cast<long long>(frame.outcome),
                  nanos(frame.start_s), nanos(frame.completion_s),
                  nanos(frame.cost_s)}) {
                for (int byte = 0; byte < 8; ++byte)
                    record.push_back(static_cast<std::uint8_t>(
                        static_cast<unsigned long long>(value) >>
                        (8 * byte)));
            }
            crc = crc32c(record, crc);
            crc = crc32c(frame.bitstream, crc);
        }
    }
    const FleetStats &f = report.fleet;
    const RecoveryStats &r = report.recovery;
    const CacheStats &c = report.cache;
    std::ostringstream out;
    out << traceString(report) << " | " << recoveryTraceString(report)
        << " | fleet " << f.sessions << " " << f.admitted << " "
        << f.rejected << " " << f.replicas << " busy "
        << nanos(f.device_busy_s) << " makespan "
        << nanos(f.makespan_s) << " rounds " << f.rounds
        << " batches " << f.batches << " batched "
        << f.batched_frames << " | recovery " << r.crashes << " "
        << r.failovers << " " << r.tenants_shed << " ckpt "
        << r.checkpoints << " trips " << r.breaker_trips
        << " faulted " << r.faulted_frames << " quarantined "
        << r.quarantined_frames << " mttr " << nanos(r.mttr_s)
        << " worst " << nanos(r.worst_recovery_s) << " | cache "
        << c.lookups << " " << c.hits << " " << c.misses << " "
        << c.insertions << " " << c.evictions << " " << c.entries
        << " saved " << nanos(c.saved_device_s) << " | fairness "
        << std::llround(report.fairness_index * 1e12) << " | crc "
        << crc;
    return out.str();
}

struct PinnedServe {
    const char *name;
    ServeConfig config;
    std::vector<TenantSpec> tenants;
    const char *expected;
};

/** Probe utilization of one tenant, the way admission computes it. */
double
unitUtilization(const TenantSpec &tenant)
{
    VideoEncoder probe(tenant.codec);
    auto encoded = probe.encode(tenant.frames.front());
    EXPECT_TRUE(encoded.hasValue());
    const EdgeDeviceModel model(DeviceSpec::jetsonXavier15W());
    return model.evaluate(encoded->profile).modelSeconds() *
           tenant.fps;
}

std::vector<PinnedServe>
pinnedScenarios()
{
    std::vector<PinnedServe> scenarios;
    {
        // DRR pacing with backpressure drops: a small quantum, cut
        // batches and a 6x load on tight queues.
        PinnedServe s{"drr-backpressure", {}, {}, nullptr};
        s.config.quantum_s = 0.004;
        s.config.batch_max = 3;
        s.config.load.slowdown = 6.0;
        s.tenants.push_back(
            makeTenant("A", 11, DeadlineClass::kInteractive, 6));
        s.tenants.back().weight = 2.0;
        s.tenants.push_back(
            makeTenant("B", 22, DeadlineClass::kStandard, 6));
        s.tenants.back().queue_capacity = 1;
        s.tenants.push_back(
            makeTenant("C", 33, DeadlineClass::kStandard, 6));
        s.tenants.back().fps = 60.0;
        s.tenants.back().queue_capacity = 0;
        s.tenants.push_back(
            makeTenant("D", 44, DeadlineClass::kBulk, 6));
        s.tenants.back().codec = makeIntraInterV1Config();
        s.tenants.back().arrival_offset_s = 0.01;
        s.expected =
            "A0 B0 C0 D0 C1 A1 B1 D1 C2! C3- A2 B2 D2 C4 C5 A3 B3 "
            "D3 A4 B4 D4 A5 B5 D5 |  | fleet 4 4 0 1 busy "
            "174934350 makespan 190841846 rounds 16 batches 13 "
            "batched 23 | recovery 0 0 0 ckpt 0 trips 0 faulted 0 "
            "quarantined 0 mttr 0 worst 0 | cache 23 0 23 23 0 23 "
            "saved 0 | fairness 975806451613 | crc 1023700220";
        scenarios.push_back(std::move(s));
    }
    {
        // Twin streams with the reference cache switched off.
        PinnedServe s{"cache-off", {}, {}, nullptr};
        s.config.quantum_s = 10.0;
        s.config.batch_max = 8;
        s.config.cache_capacity = 0;
        TenantSpec leader =
            makeTenant("L", 77, DeadlineClass::kStandard, 5);
        leader.codec = makeIntraInterV1Config();
        TenantSpec follower = leader;
        follower.name = "F";
        follower.arrival_offset_s = 0.05;
        s.tenants = {leader, follower};
        s.expected =
            "L0 L1 F0 L2 F1 L3 F2 L4 F3 F4 |  | fleet 2 2 0 1 "
            "busy 16347368 makespan 185141742 rounds 19 batches "
            "10 batched 10 | recovery 0 0 0 ckpt 0 trips 0 "
            "faulted 0 quarantined 0 mttr 0 worst 0 | cache 0 0 0 "
            "0 0 0 saved 0 | fairness 1000000000000 | crc "
            "259424006";
        scenarios.push_back(std::move(s));
    }
    {
        // A one-entry cache under a 20x load: hits, evictions and
        // drops all at once.
        PinnedServe s{"cache-cap1-load20x", {}, {}, nullptr};
        s.config.quantum_s = 10.0;
        s.config.batch_max = 8;
        s.config.cache_capacity = 1;
        s.config.load.slowdown = 20.0;
        TenantSpec leader =
            makeTenant("L", 77, DeadlineClass::kStandard, 6);
        leader.queue_capacity = 0;
        TenantSpec follower = leader;
        follower.name = "F";
        follower.arrival_offset_s = 0.01;
        TenantSpec other =
            makeTenant("O", 78, DeadlineClass::kBulk, 6);
        other.queue_capacity = 0;
        other.arrival_offset_s = 0.12;
        s.tenants = {leader, follower, other};
        s.expected =
            "L0 F0* L1 F1* L2 F2* L3 F3* O0 L4 F4 O1- L5 F5 O2 "
            "O3- O4 O5 |  | fleet 3 3 0 1 busy 284816153 makespan "
            "312833331 rounds 15 batches 12 batched 16 | recovery "
            "0 0 0 ckpt 0 trips 0 faulted 0 quarantined 0 mttr 0 "
            "worst 0 | cache 16 4 12 10 9 1 saved 93517268 | "
            "fairness 969696969697 | crc 4205966482";
        scenarios.push_back(std::move(s));
    }
    {
        // Three replicas, one crash, checkpoint restores.
        PinnedServe s{"crash-3rep-ckpt", {}, {}, nullptr};
        s.config.replicas = 3;
        s.config.quantum_s = 10.0;
        s.config.batch_max = 8;
        s.config.checkpoint_interval_frames = 2;
        s.config.checkpoint_cost_s = 0.0005;
        s.config.faults = mustParse("kind=crash,replica=2,at-ms=70");
        s.tenants.push_back(
            makeTenant("A", 11, DeadlineClass::kInteractive, 8));
        s.tenants.push_back(
            makeTenant("B", 22, DeadlineClass::kInteractive, 8));
        s.tenants.back().codec = makeIntraInterV1Config();
        s.tenants.push_back(
            makeTenant("C", 33, DeadlineClass::kStandard, 8));
        s.tenants.push_back(
            makeTenant("D", 44, DeadlineClass::kBulk, 8));
        s.tenants.push_back(
            makeTenant("E", 55, DeadlineClass::kStandard, 8));
        s.tenants.back().codec = makeIntraInterV1Config();
        s.expected =
            "A0 E0 B0 C0 D0 A1 E1 B1 C1 D1 A2 E2 B2 C2 D2 A3 E3 "
            "B3 C3 D3 A4 E4 D4 B4 C4 A5 E5 D5 B5 C5 A6 E6 D6 B6 "
            "C6 A7 E7 D7 B7 C7 | crash r2 @100000us: C->r1+ckpt "
            "D->r0+ckpt | fleet 5 5 0 3 busy 65579238 makespan "
            "238998851 rounds 39 batches 21 batched 40 | recovery "
            "1 2 0 ckpt 20 trips 0 faulted 0 quarantined 0 mttr "
            "4081825 worst 4919944 | cache 40 0 40 40 0 40 saved "
            "0 | fairness 1000000000000 | crc 3140398128";
        scenarios.push_back(std::move(s));
    }
    {
        // A crash the survivor cannot absorb: bulk is shed.
        PinnedServe s{"crash-sheds", {}, {}, nullptr};
        s.config.replicas = 2;
        s.config.quantum_s = 10.0;
        s.config.batch_max = 8;
        s.config.faults = DeviceFaultSpec::crashSecondary();
        s.tenants.push_back(
            makeTenant("A", 11, DeadlineClass::kInteractive, 8));
        s.tenants.push_back(
            makeTenant("B", 22, DeadlineClass::kStandard, 8));
        s.tenants.push_back(
            makeTenant("C", 33, DeadlineClass::kStandard, 8));
        s.tenants.push_back(
            makeTenant("D", 44, DeadlineClass::kBulk, 8));
        s.config.admission_utilization_cap =
            3.5 * unitUtilization(s.tenants[0]);
        s.expected =
            "A0 C0 B0 D0 A1 C1 B1 D1 A2 C2 D2# D3# D4# D5# D6# "
            "D7# B2 A3 C3 B3 A4 C4 B4 A5 C5 B5 A6 C6 B6 A7 C7 B7 "
            "| crash r1 @66667us: B->r0 D->shed | fleet 4 4 0 2 "
            "busy 32759002 makespan 237062130 rounds 21 batches "
            "11 batched 26 | recovery 1 1 1 ckpt 0 trips 0 "
            "faulted 0 quarantined 0 mttr 3931337 worst 3931337 | "
            "cache 26 0 26 26 0 26 saved 0 | fairness "
            "862244897959 | crc 2496868074";
        scenarios.push_back(std::move(s));
    }
    {
        // Restart then a second crash, with a stall and a throttle.
        PinnedServe s{"restart-stall-throttle", {}, {}, nullptr};
        s.config.replicas = 2;
        s.config.quantum_s = 0.01;
        s.config.batch_max = 4;
        s.config.checkpoint_interval_frames = 3;
        s.config.faults = mustParse(
            "kind=crash,replica=1,at-ms=40,dur-ms=20;"
            "kind=stall,replica=0,at-ms=20,dur-ms=15;"
            "kind=throttle,replica=1,at-ms=60,dur-ms=80,derate=2;"
            "kind=crash,replica=0,at-ms=100");
        s.tenants.push_back(
            makeTenant("A", 11, DeadlineClass::kInteractive, 10));
        s.tenants.push_back(
            makeTenant("B", 22, DeadlineClass::kStandard, 10));
        s.tenants.back().codec = makeIntraInterV1Config();
        s.tenants.push_back(
            makeTenant("C", 33, DeadlineClass::kBulk, 10));
        s.expected =
            "A0 C0 B0 A1 C1 B1 A2 C2 B2 A3 B3 C3 A4 B4 C4 A5 B5 "
            "C5 A6 B6 C6 A7 B7 C7 A8 B8 C8 A9 B9 C9 | crash r1 "
            "@66667us: B->r0; crash r0 @100000us: A->r1+ckpt "
            "B->r1+ckpt C->r1+ckpt | fleet 3 3 0 2 busy 47501053 "
            "makespan 303726938 rounds 27 batches 13 batched 30 | "
            "recovery 2 4 0 ckpt 9 trips 0 faulted 0 quarantined "
            "0 mttr 4647425 worst 7230432 | cache 30 0 30 30 0 30 "
            "saved 0 | fairness 1000000000000 | crc 483263135";
        scenarios.push_back(std::move(s));
    }
    {
        // An oom window plus a poisoned tenant that trips its
        // breaker.
        PinnedServe s{"oom-poisoned-breaker", {}, {}, nullptr};
        s.config.replicas = 2;
        s.config.quantum_s = 10.0;
        s.config.batch_max = 8;
        s.config.breaker.failure_threshold = 2;
        s.config.breaker.reprobe.initial_backoff_s = 0.1;
        s.config.faults =
            mustParse("kind=oom,replica=1,at-ms=30,dur-ms=40");
        s.tenants.push_back(
            makeTenant("A", 11, DeadlineClass::kInteractive, 10));
        s.tenants.push_back(
            makeTenant("P", 5, DeadlineClass::kStandard, 10));
        s.tenants.back().fault_frames = {2, 3, 4};
        s.tenants.back().queue_capacity = 0;
        s.tenants.push_back(
            makeTenant("C", 33, DeadlineClass::kBulk, 10));
        s.expected =
            "A0 C0 P0 A1 C1 P1~ A2 C2 P2~ A3 C3 A4 C4 A5 C5 P3^ "
            "P4^ P5 A6 C6 P6 A7 C7 P7 A8 C8 P8 A9 C9 P9 |  | "
            "fleet 3 3 0 2 busy 34161802 makespan 302554610 "
            "rounds 35 batches 18 batched 28 | recovery 0 0 0 "
            "ckpt 0 trips 1 faulted 2 quarantined 2 mttr 0 worst "
            "0 | cache 26 0 26 26 0 26 saved 0 | fairness "
            "954802259887 | crc 1902618457";
        scenarios.push_back(std::move(s));
    }
    return scenarios;
}

/**
 * Safety net for the scheduler: seven seeded scenarios covering
 * DRR pacing, backpressure, the cache off and at capacity 1,
 * crash failover with checkpoints and with shedding, restart,
 * stall, throttle, oom and the breaker. Every report field, both
 * trace strings and every frame's timing and bytes are pinned, and
 * must not depend on the pool's worker count.
 */
TEST(ServeFingerprint, PinnedAcrossScenarios)
{
    const std::vector<PinnedServe> scenarios = pinnedScenarios();
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{3}}) {
        ScopedGlobalPool pool(workers);
        for (const PinnedServe &pinned : scenarios) {
            auto report =
                ServeScheduler(pinned.config, pinned.tenants).run();
            ASSERT_TRUE(report.hasValue()) << pinned.name;
            EXPECT_EQ(fingerprint(*report), pinned.expected)
                << pinned.name << " at " << workers << " workers";
        }
    }
}

}  // namespace
}  // namespace serve
}  // namespace edgepcc
