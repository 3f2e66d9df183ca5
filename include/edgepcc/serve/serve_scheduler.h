/**
 * @file
 * Multi-tenant edge serving: fair-share session scheduling over a
 * small fleet of modelled device replicas (ROADMAP item 1).
 *
 * The paper sizes the pipeline so a single edge device carries one
 * session; the "millions of users" north star needs the next axis —
 * many concurrent sessions sharing a few devices. This module
 * multiplexes N tenant streams over the shared ThreadPool and
 * `replicas` copies of the modelled device:
 *
 *  - Admission control + placement: each tenant's device utilization
 *    is estimated by probe-encoding its first frame against the
 *    device model; tenants are admitted in deadline-class priority
 *    order (interactive first, then standard, then bulk; earlier
 *    arrivals first within a class) and placed on the least-loaded
 *    replica that still fits under the per-replica utilization cap.
 *
 *  - Deficit-round-robin (DRR) scheduling on each replica's virtual
 *    clock: every round, each backlogged tenant's deficit is topped
 *    up by quantum_s * weight (clamped to one quantum, so unused
 *    grants do not accumulate) and a tenant with positive deficit
 *    contributes its oldest frame to the round's batch. Costs are
 *    charged *post-paid* — the modelled encode seconds are deducted
 *    after the encode — so a tenant can overdraw by at most one
 *    frame's cost, and repays the overdraft by sitting out rounds.
 *    Invariant (pinned by tests): deficit stays within
 *    [-max_frame_cost, quantum_s * weight]. Replicas take rounds in
 *    virtual-clock order (lowest clock first, ties by index), so the
 *    fleet-wide trace is deterministic.
 *
 *  - Batched encode: the frames co-scheduled in one round form a
 *    batch (at most one per tenant, so tasks never share an
 *    encoder); the tenants run concurrently on the shared
 *    ThreadPool, interactive tenants at TaskPriority::kHigh.
 *    Virtual device time advances by the modelled cost of every
 *    frame plus one batch overhead, so schedules are deterministic
 *    and wall-clock free.
 *
 *  - Reference cache: see reference_cache.h. Identical
 *    popular-content streams share encode work without ever
 *    diverging from their solo-run bytes.
 *
 *  - Fault tolerance (fault_injector.h, circuit_breaker.h): seeded
 *    device faults — transient stalls, thermal derates, memory
 *    exhaustion windows, hard crashes — are injected on the virtual
 *    clock. A crash loses every encoder state on that replica; its
 *    tenants fail over to surviving replicas by re-admission in
 *    deadline-class priority order, each restored from its latest
 *    checkpoint (periodic VideoEncoder::StateSnapshot) and resumed
 *    with a forced keyframe so the stream stays decodable. Tenants
 *    that no longer fit anywhere are shed — bulk classes first, by
 *    construction of the re-admission order — with every remaining
 *    frame accounted, never silently corrupted. Tenants whose
 *    frames repeatedly fault are quarantined by a per-tenant
 *    circuit breaker whose re-probe schedule is the shared
 *    RetryPolicy. The whole recovery schedule is a pure function of
 *    (configs, frames, fault spec): re-runs produce identical
 *    recovery traces (recoveryTraceString).
 *
 * Byte-identity invariant: a tenant's bitstream depends only on its
 * own codec config and the sequence of frames actually fed to its
 * encoder — never on interleaving. When no frames are dropped by
 * backpressure, a tenant's bitstreams under any mix are
 * byte-identical to its solo run (a tier-1 acceptance test). With
 * replicas == 1 and no faults the scheduler reduces exactly to the
 * single-device scheduler: output is byte-identical to it.
 */

#ifndef EDGEPCC_SERVE_SERVE_SCHEDULER_H
#define EDGEPCC_SERVE_SERVE_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edgepcc/common/status.h"
#include "edgepcc/core/codec_config.h"
#include "edgepcc/geometry/point_cloud.h"
#include "edgepcc/platform/device_model.h"
#include "edgepcc/serve/circuit_breaker.h"
#include "edgepcc/serve/fault_injector.h"
#include "edgepcc/serve/reference_cache.h"
#include "edgepcc/stream/overload_controller.h"

namespace edgepcc {
namespace serve {

/**
 * Per-tenant service class. Orders admission (interactive is
 * admitted first when the device cannot hold everyone), sets the
 * per-frame completion budget (frame period times the class slack),
 * and maps to ThreadPool priority (interactive encodes are kHigh).
 */
enum class DeadlineClass : std::uint8_t {
    kInteractive = 0,
    kStandard = 1,
    kBulk = 2,
};

inline constexpr int kDeadlineClassCount = 3;

const char *deadlineClassName(DeadlineClass deadline_class);

/** Completion-budget multiplier on the frame period (1x, 2x, 4x). */
double deadlineClassSlack(DeadlineClass deadline_class);

/** One tenant stream offered to the scheduler. */
struct TenantSpec {
    std::string name;
    CodecConfig codec;
    std::vector<VoxelCloud> frames;

    /** Capture cadence; frame f arrives at offset + f / fps. */
    double fps = 30.0;
    double arrival_offset_s = 0.0;

    DeadlineClass deadline_class = DeadlineClass::kStandard;

    /** DRR quantum multiplier (share of the device). */
    double weight = 1.0;

    /** Arrived-unserved frames admitted beyond the one being
     *  encoded; older frames are dropped first (same backpressure
     *  rule as StreamSession). */
    int queue_capacity = 2;

    /** Poisoned input: these per-tenant frame indices fault at
     *  dispatch (kFaulted) instead of encoding — the deterministic
     *  stand-in for a tenant whose payloads crash the encoder.
     *  Feeds the per-tenant circuit breaker. */
    std::vector<std::uint32_t> fault_frames;
};

/** Device seconds of dispatch overhead charged once per encode
 *  batch. */
inline constexpr double kBatchOverheadS = 0.0002;
/** Device seconds charged for serving a frame from the reference
 *  cache. */
inline constexpr double kCacheHitCostS = 0.0001;

/**
 * Fleet-level scheduler knobs. Every replica is modelled as
 * DeviceSpec::jetsonXavier15W(), which all device seconds are
 * charged against.
 */
struct ServeConfig {
    /** Identical device replicas sharing the tenant load. Each has
     *  its own virtual clock, DRR state and encoder placements. */
    int replicas = 1;

    /** Base DRR quantum in device seconds (scaled per tenant by
     *  weight). */
    double quantum_s = 0.004;

    /** Max frames co-scheduled in one batch (one per tenant; the
     *  round-robin cursor carries across rounds, so a cut batch
     *  resumes where it stopped). */
    int batch_max = 4;

    /** Admission stops when the summed estimated utilization of the
     *  tenants placed on a replica would exceed this (per replica). */
    double admission_utilization_cap = 1.0;

    /** Reference-cache entries (LRU, reference_cache.h); 0 turns
     *  the cache off. */
    std::size_t cache_capacity = 64;

    /** Optional injected compute load (LoadSpec semantics from the
     *  overload subsystem, keyed by per-tenant frame index). */
    LoadSpec load{};

    /** Injected device faults (fault_injector.h). Events must name
     *  replicas < `replicas`. Empty = no faults. */
    DeviceFaultSpec faults{};

    /** Checkpoint every k-th served frame of each tenant
     *  (VideoEncoder::StateSnapshot + stream key), so failover can
     *  restore instead of restarting the stream cold. 0 = off (the
     *  default keeps no-fault runs byte-identical). */
    int checkpoint_interval_frames = 0;
    /** Device seconds charged per checkpoint (clock + fleet busy
     *  time, like batch overhead; not billed to the tenant). */
    double checkpoint_cost_s = 0.0;

    /** Per-tenant circuit breaker (circuit_breaker.h). With no
     *  faults breakers stay closed and change nothing. */
    CircuitBreakerConfig breaker{};
};

/** Why a served frame left the scheduler the way it did. */
enum class ServeOutcome : std::uint8_t {
    kEncoded = 0,      ///< encoded on the device
    kCacheHit = 1,     ///< adopted from the reference cache
    kDropped = 2,      ///< shed by queue backpressure, never encoded
    kFaulted = 3,      ///< dispatch faulted (oom window / poisoned)
    kQuarantined = 4,  ///< shed while the tenant's breaker was open
    kShed = 5,         ///< shed by failover capacity loss
};

const char *serveOutcomeName(ServeOutcome outcome);

/** Why a tenant was rejected (or partially shed). */
enum class RejectionReason : std::uint8_t {
    kNone = 0,  ///< admitted and never shed
    /** The per-replica utilization cap was already committed. */
    kAdmissionCap = 1,
    /** The tenant alone exceeds one replica's capacity. */
    kExceedsDeviceCapacity = 2,
    /** Admitted, but shed during failover: no surviving replica had
     *  capacity left. */
    kFailoverShed = 3,
};

const char *rejectionReasonName(RejectionReason reason);

/** One frame's service record. */
struct ServedFrame {
    std::uint32_t frame_id = 0;
    ServeOutcome outcome = ServeOutcome::kEncoded;

    double arrival_s = 0.0;     ///< virtual capture time
    double start_s = 0.0;       ///< batch dispatch time
    double completion_s = 0.0;  ///< service completion time
    /** Device seconds charged (encode cost or cache-hit cost). */
    double cost_s = 0.0;
    bool deadline_missed = false;

    /** Encoded bytes (also filled on cache hits; empty on drops). */
    std::vector<std::uint8_t> bitstream;
    FrameStats stats{};

    /** OK unless outcome == kFaulted; then the attributable
     *  resource-exhaustion status ("serve: tenant 'B' frame 7:
     *  ..."). */
    Status fault_status;
};

/** Per-tenant aggregate accounting. */
struct TenantStats {
    std::size_t frames = 0;  ///< frames offered
    std::size_t served = 0;  ///< encoded + cache hits
    std::size_t encoded = 0;
    std::size_t cache_hits = 0;
    std::size_t dropped = 0;
    std::size_t deadline_misses = 0;
    std::size_t faulted = 0;      ///< dispatches that faulted
    std::size_t quarantined = 0;  ///< shed while breaker open
    std::size_t shed = 0;         ///< shed by failover
    std::size_t checkpoints = 0;

    /** Device seconds charged to this tenant. */
    double device_s = 0.0;
    /** Per-frame completion budget (class slack / fps). */
    double deadline_s = 0.0;

    /** Observed DRR deficit extremes (the fairness invariant). */
    double min_deficit_s = 0.0;
    double max_deficit_s = 0.0;
    /** Largest single charged frame cost (the overdraft bound). */
    double max_frame_cost_s = 0.0;

    /** arrival -> completion latency of every served frame. */
    std::vector<double> latency_s;
};

/** One tenant's full report. */
struct TenantReport {
    std::string name;
    DeadlineClass deadline_class = DeadlineClass::kStandard;
    double weight = 1.0;

    bool admitted = false;
    /** kNone when admitted and fully served; kFailoverShed when the
     *  tenant was admitted but lost its replica without a
     *  replacement. */
    RejectionReason rejection_reason = RejectionReason::kNone;
    /** Probe-estimated share of one replica (cost * fps). */
    double estimated_utilization = 0.0;
    /** Final placement (initial placement unless failed over). */
    int replica = 0;

    /** Served/dropped frames in frame order. */
    std::vector<ServedFrame> frames;
    TenantStats stats;
};

/** Fleet-level accounting. */
struct FleetStats {
    std::size_t sessions = 0;
    std::size_t admitted = 0;
    std::size_t rejected = 0;
    std::size_t replicas = 1;

    double device_busy_s = 0.0;
    double makespan_s = 0.0;
    std::size_t rounds = 0;
    std::size_t batches = 0;
    std::size_t batched_frames = 0;

    double utilization() const;
    /** Sessions one such device sustains at full utilization. */
    double sessionsPerDevice() const;
};

/** One tenant's journey through one failover. */
struct FailoverMove {
    std::string tenant;
    int from_replica = 0;
    /** Destination replica, or -1 when the tenant was shed. */
    int to_replica = -1;
    /** Encoder state restored from a checkpoint (else cold reset;
     *  either way the next frame is a forced keyframe). */
    bool restored_from_checkpoint = false;
    /** Frames the checkpoint had served when taken (0 if none). */
    std::uint32_t checkpoint_frames = 0;
    /** First frame index to serve after the failover. */
    std::uint32_t resume_frame = 0;
};

/** One replica crash and the resulting tenant moves, in order. */
struct FailoverRecord {
    int replica = 0;
    double at_s = 0.0;  ///< crash detection time (virtual)
    std::vector<FailoverMove> moves;
};

/** Fault-tolerance accounting (ServeReport::recovery). */
struct RecoveryStats {
    std::size_t crashes = 0;
    std::size_t failovers = 0;  ///< tenants moved to a new replica
    std::size_t tenants_shed = 0;
    std::size_t checkpoints = 0;
    std::size_t breaker_trips = 0;
    std::size_t faulted_frames = 0;
    std::size_t quarantined_frames = 0;

    /** Mean over failed-over tenants of (first post-failover
     *  completion - crash time), in device seconds; 0 when no
     *  tenant recovered. */
    double mttr_s = 0.0;
    /** Slowest single tenant recovery, device seconds. */
    double worst_recovery_s = 0.0;
};

/** One service event, in device (virtual-time) order. */
struct ServeTraceEntry {
    std::string tenant;
    std::uint32_t frame_id = 0;
    ServeOutcome outcome = ServeOutcome::kEncoded;
    bool deadline_missed = false;
    int replica = 0;
};

/** The scheduler's full output. */
struct ServeReport {
    std::vector<TenantReport> tenants;  ///< input order
    FleetStats fleet;
    CacheStats cache;
    RecoveryStats recovery;
    std::vector<FailoverRecord> failovers;
    std::vector<ServeTraceEntry> trace;

    /** Jain fairness index over each admitted tenant's on-time
     *  frames (served, encoded or from the cache, with no deadline
     *  miss) per offered frame (1.0 = perfectly fair). */
    double fairness_index = 1.0;
};

/**
 * Jain's fairness index (sum x)^2 / (n * sum x^2) over non-negative
 * shares; 1.0 for empty or all-zero input.
 */
double jainFairnessIndex(const std::vector<double> &shares);

/**
 * Renders the device-order service trace as one pinnable string:
 * "<tenant><frame>" per event, '*' = cache hit, '-' = dropped,
 * '~' = faulted, '^' = quarantined, '#' = failover-shed,
 * '!' = deadline missed, e.g. "A0 B0 B1* C0! A3- B2~ C4#".
 */
std::string traceString(const ServeReport &report);

/**
 * Renders the recovery schedule as one pinnable string, one segment
 * per crash: "crash r<replica> @<microseconds>us: <moves>", where a
 * move is "<tenant>->r<replica>" (suffix "+ckpt" when restored from
 * a checkpoint) or "<tenant>->shed"; segments joined by "; ".
 * Empty when nothing crashed. Byte-identical across re-runs of the
 * same scenario (the determinism acceptance test).
 */
std::string recoveryTraceString(const ServeReport &report);

/** Multiplexes N tenant streams over a fleet of modelled device
 *  replicas. */
class ServeScheduler
{
  public:
    ServeScheduler(ServeConfig config,
                   std::vector<TenantSpec> tenants);

    /**
     * Admits, schedules and encodes every tenant stream to
     * completion, surviving any injected device faults.
     * Deterministic: depends only on the configs, frames and fault
     * spec, never on wall clock or thread interleaving.
     */
    Expected<ServeReport> run();

  private:
    ServeConfig config_;
    std::vector<TenantSpec> tenants_;
};

}  // namespace serve
}  // namespace edgepcc

#endif  // EDGEPCC_SERVE_SERVE_SCHEDULER_H
