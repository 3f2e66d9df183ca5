#include "edgepcc/serve/serve_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <utility>

#include "edgepcc/common/trace.h"
#include "edgepcc/parallel/thread_pool.h"

namespace edgepcc {
namespace serve {

namespace {

/** Arrival tolerance: frame f "has arrived" at T when
 *  offset + f/fps <= T + kArrivalEps (matches StreamSession). */
constexpr double kArrivalEps = 1e-9;

/** Folded into a tenant's stream key on failover: the forced
 *  keyframe makes the restored stream's bytes diverge from any
 *  uninterrupted stream, so its cache lineage must diverge too. */
constexpr std::uint64_t kFailoverSalt = 0xfa110f3f5a17ull;

}  // namespace

const char *
deadlineClassName(DeadlineClass deadline_class)
{
    switch (deadline_class) {
      case DeadlineClass::kInteractive:
        return "interactive";
      case DeadlineClass::kStandard:
        return "standard";
      case DeadlineClass::kBulk:
        return "bulk";
    }
    return "unknown";
}

double
deadlineClassSlack(DeadlineClass deadline_class)
{
    switch (deadline_class) {
      case DeadlineClass::kInteractive:
        return 1.0;
      case DeadlineClass::kStandard:
        return 2.0;
      case DeadlineClass::kBulk:
        return 4.0;
    }
    return 2.0;
}

const char *
serveOutcomeName(ServeOutcome outcome)
{
    switch (outcome) {
      case ServeOutcome::kEncoded:
        return "encoded";
      case ServeOutcome::kCacheHit:
        return "cache-hit";
      case ServeOutcome::kDropped:
        return "dropped";
      case ServeOutcome::kFaulted:
        return "faulted";
      case ServeOutcome::kQuarantined:
        return "quarantined";
      case ServeOutcome::kShed:
        return "shed";
    }
    return "unknown";
}

const char *
rejectionReasonName(RejectionReason reason)
{
    switch (reason) {
      case RejectionReason::kNone:
        return "";
      case RejectionReason::kAdmissionCap:
        return "admission-cap";
      case RejectionReason::kExceedsDeviceCapacity:
        return "exceeds-device-capacity";
      case RejectionReason::kFailoverShed:
        return "failover-shed";
    }
    return "unknown";
}

double
FleetStats::utilization() const
{
    return makespan_s > 0.0 ? device_busy_s / makespan_s : 0.0;
}

double
FleetStats::sessionsPerDevice() const
{
    const double util = utilization();
    return util > 0.0 ? static_cast<double>(admitted) / util : 0.0;
}

double
jainFairnessIndex(const std::vector<double> &shares)
{
    if (shares.empty())
        return 1.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double x : shares) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq <= 0.0)
        return 1.0;
    return (sum * sum) /
           (static_cast<double>(shares.size()) * sum_sq);
}

std::string
traceString(const ServeReport &report)
{
    std::string out;
    for (const ServeTraceEntry &entry : report.trace) {
        if (!out.empty())
            out += ' ';
        out += entry.tenant;
        out += std::to_string(entry.frame_id);
        if (entry.outcome == ServeOutcome::kCacheHit)
            out += '*';
        if (entry.outcome == ServeOutcome::kDropped)
            out += '-';
        if (entry.outcome == ServeOutcome::kFaulted)
            out += '~';
        if (entry.outcome == ServeOutcome::kQuarantined)
            out += '^';
        if (entry.outcome == ServeOutcome::kShed)
            out += '#';
        if (entry.deadline_missed)
            out += '!';
    }
    return out;
}

std::string
recoveryTraceString(const ServeReport &report)
{
    std::string out;
    for (const FailoverRecord &record : report.failovers) {
        if (!out.empty())
            out += "; ";
        out += "crash r" + std::to_string(record.replica) + " @" +
               std::to_string(std::llround(record.at_s * 1e6)) +
               "us:";
        for (const FailoverMove &move : record.moves) {
            out += ' ' + move.tenant + "->";
            if (move.to_replica < 0) {
                out += "shed";
            } else {
                out += 'r' + std::to_string(move.to_replica);
                if (move.restored_from_checkpoint)
                    out += "+ckpt";
            }
        }
    }
    return out;
}

// -----------------------------------------------------------------
// ServeScheduler
// -----------------------------------------------------------------

namespace {

/** A tenant's latest checkpoint: everything failover needs to
 *  resume the stream on another replica. */
struct TenantCheckpoint {
    VideoEncoder::StateSnapshot state;
    std::uint64_t stream_key = 0;
    std::uint32_t served = 0;  ///< frames served when taken
};

/** Scheduler-internal per-tenant state. */
struct TenantState {
    std::size_t input_index = 0;
    const TenantSpec *spec = nullptr;
    TenantReport *report = nullptr;

    VideoEncoder encoder;
    std::size_t next_frame = 0;
    bool done = false;

    double deficit_s = 0.0;
    double quantum_s = 0.0;  ///< config quantum * weight
    double budget_s = 0.0;   ///< per-frame completion budget
    std::uint64_t stream_key = 0;

    int replica = 0;
    /** Failover gap: invisible to the new replica's scheduler until
     *  its clock reaches the crash time (causality). */
    double resume_at_s = 0.0;
    /** Crash time awaiting this tenant's first post-failover
     *  completion (MTTR sample); < 0 when not recovering. */
    double recovering_since_s = -1.0;

    CircuitBreaker breaker;
    std::optional<TenantCheckpoint> checkpoint;

    TenantState(const TenantSpec &tenant_spec,
                const CircuitBreakerConfig &breaker_config)
        : spec(&tenant_spec), encoder(tenant_spec.codec),
          next_frame(0), breaker(breaker_config)
    {
    }

    double
    arrivalOf(std::size_t frame) const
    {
        return spec->arrival_offset_s +
               static_cast<double>(frame) / spec->fps;
    }

    /** Arrived-unserved frame count at virtual time `now_s`. */
    std::size_t
    backlogAt(double now_s) const
    {
        if (done || next_frame >= spec->frames.size())
            return 0;
        const double since =
            now_s - spec->arrival_offset_s + kArrivalEps;
        if (since < 0.0)
            return 0;
        std::size_t last = static_cast<std::size_t>(
            since * spec->fps);
        last = std::min(last, spec->frames.size() - 1);
        return last >= next_frame ? last - next_frame + 1 : 0;
    }

    bool
    poisoned(std::uint32_t frame_id) const
    {
        return std::find(spec->fault_frames.begin(),
                         spec->fault_frames.end(),
                         frame_id) != spec->fault_frames.end();
    }
};

/** One device replica: its own virtual clock, DRR cursor and
 *  tenant placements. */
struct ReplicaState {
    int index = 0;
    double clock_s = 0.0;
    std::size_t cursor = 0;
    std::vector<TenantState *> tenants;
    std::size_t unfinished = 0;
    double admitted_utilization = 0.0;
    bool crashed = false;
    /** When a crashed replica rejoins (empty); +inf = permanent. */
    double revive_at_s = std::numeric_limits<double>::infinity();
};

/** One co-scheduled frame (at most one per tenant per batch). */
struct BatchItem {
    TenantState *tenant = nullptr;
    std::uint32_t frame_id = 0;
    std::uint64_t stream_key = 0;
    std::shared_ptr<const CacheEntry> hit;

    /** Dispatch faulted (oom window / poisoned frame): the frame
     *  never reaches the encoder. */
    bool faulted = false;
    Status fault_status;

    // Filled by the encode task, read after the batch has finished.
    Status status;  ///< default-constructed = OK
    EncodedFrame encoded;
    VideoEncoder::StateSnapshot state_after;
    bool have_snapshot = false;
};

/** Everything the steps of one run() share. */
struct RunState {
    RunState(const ServeConfig &serve_config,
             const std::vector<TenantSpec> &tenant_specs)
        : config(serve_config), tenants(tenant_specs),
          replicas(static_cast<std::size_t>(serve_config.replicas)),
          cache(serve_config.cache_capacity),
          injector(serve_config.faults),
          device_model(serve_config.device)
    {
        report.tenants.resize(tenants.size());
        report.fleet.sessions = tenants.size();
        report.fleet.replicas = replicas.size();
        for (std::size_t r = 0; r < replicas.size(); ++r)
            replicas[r].index = static_cast<int>(r);
        // The shared latency hook reads only the load spec and the
        // budget source; serve always charges modelled seconds.
        latency_config.load = config.load;
        latency_config.budget_source = OverloadBudgetSource::kModelled;
    }

    const ServeConfig &config;
    const std::vector<TenantSpec> &tenants;

    ServeReport report;
    std::vector<ReplicaState> replicas;
    /** Admitted tenants in admission order (reserved up front:
     *  replicas and batches hold pointers into it). */
    std::vector<TenantState> states;
    ReferenceCache cache;
    DeviceFaultInjector injector;
    const EdgeDeviceModel device_model;
    OverloadConfig latency_config;

    std::size_t unfinished = 0;  ///< admitted tenants not yet done
    std::vector<double> recovery_samples;
};

/** Admission / failover priority: deadline class, then arrival
 *  offset, then input order. */
bool
admissionBefore(const TenantSpec &a, std::size_t ia,
                const TenantSpec &b, std::size_t ib)
{
    if (a.deadline_class != b.deadline_class)
        return a.deadline_class < b.deadline_class;
    if (a.arrival_offset_s != b.arrival_offset_s)
        return a.arrival_offset_s < b.arrival_offset_s;
    return ia < ib;
}

Status
validateInput(const ServeConfig &config,
              const std::vector<TenantSpec> &tenants)
{
    const auto invalid = [](const std::string &what) {
        return invalidArgument("ServeScheduler::run: " + what);
    };
    if (tenants.empty())
        return invalid("no tenants");
    if (config.quantum_s <= 0.0)
        return invalid("quantum_s must be > 0");
    if (config.replicas < 1)
        return invalid("replicas must be >= 1");
    if (config.checkpoint_interval_frames < 0 ||
        config.checkpoint_cost_s < 0.0)
        return invalid("checkpoint interval/cost must be >= 0");
    for (const DeviceFaultEvent &event : config.faults.events) {
        if (event.replica < 0 || event.replica >= config.replicas)
            return invalid("fault event names replica " +
                           std::to_string(event.replica) +
                           " but the fleet has " +
                           std::to_string(config.replicas) +
                           " replicas");
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        if (spec.name.empty())
            return invalid("tenant without a name");
        if (spec.frames.empty())
            return invalid("tenant '" + spec.name + "' has no frames");
        if (spec.fps <= 0.0 || spec.weight <= 0.0)
            return invalid("tenant '" + spec.name +
                           "' needs fps > 0 and weight > 0");
        for (std::size_t j = 0; j < i; ++j) {
            if (tenants[j].name == spec.name)
                return invalid("duplicate tenant name '" + spec.name +
                               "'");
        }
    }
    return Status();
}

/** The one placement rule, for admission and failover: the
 *  least-loaded replica (ties: lowest index) other than `exclude`
 *  that fits `util` under the cap, or -1. A crashed replica whose
 *  restart time has come by `at_s` rejoins on the way. */
int
pickReplica(std::vector<ReplicaState> &replicas, double util,
            double cap, double at_s, int exclude)
{
    int best = -1;
    double best_util = 0.0;
    for (ReplicaState &replica : replicas) {
        if (replica.index == exclude)
            continue;
        if (replica.crashed) {
            if (replica.revive_at_s > at_s + kArrivalEps)
                continue;
            replica.crashed = false;
            replica.clock_s =
                std::max(replica.clock_s, replica.revive_at_s);
        }
        if (replica.admitted_utilization + util >
            cap * (1.0 + kArrivalEps))
            continue;
        if (best < 0 || replica.admitted_utilization < best_util) {
            best = replica.index;
            best_util = replica.admitted_utilization;
        }
    }
    return best;
}

/**
 * Admission control: probe-encodes each tenant's first frame on a
 * scratch encoder to estimate its share of a replica, then admits
 * in deadline-class priority order (earlier arrivals first within
 * a class), placing each tenant by pickReplica.
 */
Status
admitTenants(RunState &run)
{
    const std::vector<TenantSpec> &tenants = run.tenants;
    ScopedTrace admission_trace("serve.admission");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        TenantReport &tenant_report = run.report.tenants[i];
        tenant_report.name = spec.name;
        tenant_report.deadline_class = spec.deadline_class;
        tenant_report.weight = spec.weight;

        VideoEncoder probe(spec.codec);
        auto probed = probe.encode(spec.frames.front());
        if (!probed)
            return Status(probed.status().code(),
                          "serve: tenant '" + spec.name +
                              "' frame 0 probe: " +
                              probed.status().message());
        const PipelineTiming timing =
            run.device_model.evaluate(probed->profile);
        tenant_report.estimated_utilization =
            timing.modelSeconds() * spec.fps;
    }
    admission_trace.stop();

    std::vector<std::size_t> order(tenants.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&tenants](std::size_t a, std::size_t b) {
                         return admissionBefore(tenants[a], a,
                                                tenants[b], b);
                     });

    const double cap = run.config.admission_utilization_cap;
    run.states.reserve(tenants.size());
    for (std::size_t index : order) {
        const TenantSpec &spec = tenants[index];
        TenantReport &tenant_report = run.report.tenants[index];
        const double util = tenant_report.estimated_utilization;
        if (util > cap * (1.0 + kArrivalEps)) {
            tenant_report.rejection_reason =
                RejectionReason::kExceedsDeviceCapacity;
            continue;
        }
        const int best = pickReplica(run.replicas, util, cap, 0.0, -1);
        if (best < 0) {
            tenant_report.rejection_reason =
                RejectionReason::kAdmissionCap;
            continue;
        }
        tenant_report.admitted = true;
        tenant_report.replica = best;

        run.states.emplace_back(spec, run.config.breaker);
        TenantState &state = run.states.back();
        state.input_index = index;
        state.report = &tenant_report;
        state.quantum_s = run.config.quantum_s * spec.weight;
        state.budget_s =
            deadlineClassSlack(spec.deadline_class) / spec.fps;
        state.stream_key = codecConfigDigest(spec.codec);
        state.replica = best;
        tenant_report.stats.frames = spec.frames.size();
        tenant_report.stats.deadline_s = state.budget_s;

        ReplicaState &replica =
            run.replicas[static_cast<std::size_t>(best)];
        replica.admitted_utilization += util;
        replica.tenants.push_back(&state);
        ++replica.unfinished;
    }
    run.report.fleet.admitted = run.states.size();
    run.report.fleet.rejected = tenants.size() - run.states.size();
    run.unfinished = run.states.size();
    return Status();
}

/** Appends one frame's record to its tenant, and the matching
 *  event to the device-order service trace. */
void
appendFrame(ServeReport &report, TenantState &state,
            ServedFrame record)
{
    report.trace.push_back({state.spec->name, record.frame_id,
                            record.outcome, record.deadline_missed,
                            state.replica});
    state.report->frames.push_back(std::move(record));
}

/** Accounts the tenant's next frame as never served — dropped,
 *  quarantined or shed — at `now_s`. */
void
skipFrame(ServeReport &report, TenantState &state,
          ServeOutcome outcome, double now_s)
{
    ServedFrame record;
    record.frame_id = static_cast<std::uint32_t>(state.next_frame);
    record.outcome = outcome;
    record.arrival_s = state.arrivalOf(state.next_frame);
    record.start_s = now_s;
    record.completion_s = now_s;
    appendFrame(report, state, std::move(record));
    ++state.next_frame;
}

void
finishIfDone(RunState &run, TenantState &state)
{
    if (!state.done &&
        state.next_frame >= state.spec->frames.size()) {
        state.done = true;
        --run.unfinished;
        --run.replicas[static_cast<std::size_t>(state.replica)]
              .unfinished;
    }
}

/** Oldest-drop backpressure, the StreamSession rule lifted
 *  fleet-wide: keeps the newest queue_capacity + 1 arrived frames
 *  and sheds the rest without encoding them. Frames shed while the
 *  tenant's breaker is open count as quarantined. */
void
dropStale(RunState &run, TenantState &state, double now_s)
{
    if (now_s + kArrivalEps < state.resume_at_s)
        return;  // failover gap: frozen until the crash time
    // The window also holds the frame being encoded.
    const std::size_t window =
        static_cast<std::size_t>(
            std::max(state.spec->queue_capacity, 0)) +
        1;
    while (state.backlogAt(now_s) > window) {
        ServeOutcome outcome = ServeOutcome::kDropped;
        if (state.breaker.state() == BreakerState::kOpen) {
            outcome = ServeOutcome::kQuarantined;
            ++state.report->stats.quarantined;
            ++run.report.recovery.quarantined_frames;
        } else {
            ++state.report->stats.dropped;
        }
        skipFrame(run.report, state, outcome, now_s);
    }
    finishIfDone(run, state);
}

/** Nowhere left to run: sheds a crash victim's remaining frames,
 *  accounted one by one — degraded, never corrupt. */
void
shedRemaining(RunState &run, TenantState &victim, double at_s)
{
    victim.report->rejection_reason = RejectionReason::kFailoverShed;
    while (victim.next_frame < victim.spec->frames.size()) {
        ++victim.report->stats.shed;
        skipFrame(run.report, victim, ServeOutcome::kShed, at_s);
    }
    victim.done = true;
    --run.unfinished;  // the dead replica's count is already reset
    ++run.report.recovery.tenants_shed;
}

/**
 * Crash failover: every tenant on the dead replica is re-admitted
 * to the survivors in deadline-class priority order — interactive
 * first, bulk last, so when capacity no longer fits it is the bulk
 * tenants that are shed. Moved tenants restore from their latest
 * checkpoint (cold reset when none) and resume with a forced
 * keyframe, so the stream stays decodable; their stream key is
 * re-anchored so the cache never serves pre-crash lineage bytes.
 */
void
handleCrash(RunState &run, ReplicaState &down, double at_s,
            const DeviceFaultEvent &event)
{
    ++run.report.recovery.crashes;
    FailoverRecord record;
    record.replica = down.index;
    record.at_s = at_s;

    std::vector<TenantState *> victims;
    for (TenantState *state : down.tenants) {
        if (!state->done)
            victims.push_back(state);
    }
    down.clock_s = at_s;
    down.tenants.clear();
    down.cursor = 0;
    down.unfinished = 0;
    down.admitted_utilization = 0.0;
    down.crashed = true;
    down.revive_at_s = event.duration_s > 0.0
                           ? at_s + event.duration_s
                           : std::numeric_limits<double>::infinity();
    std::stable_sort(
        victims.begin(), victims.end(),
        [](const TenantState *a, const TenantState *b) {
            return admissionBefore(*a->spec, a->input_index, *b->spec,
                                   b->input_index);
        });

    for (TenantState *victim : victims) {
        const double util = victim->report->estimated_utilization;
        FailoverMove move;
        move.tenant = victim->spec->name;
        move.from_replica = down.index;
        move.resume_frame =
            static_cast<std::uint32_t>(victim->next_frame);
        const int best =
            pickReplica(run.replicas, util,
                        run.config.admission_utilization_cap, at_s,
                        down.index);
        if (best < 0) {
            shedRemaining(run, *victim, at_s);
            record.moves.push_back(std::move(move));
            continue;
        }

        ReplicaState &target =
            run.replicas[static_cast<std::size_t>(best)];
        target.tenants.push_back(victim);
        ++target.unfinished;
        target.admitted_utilization += util;
        victim->replica = best;
        victim->report->replica = best;
        if (victim->checkpoint.has_value()) {
            victim->encoder.restoreState(victim->checkpoint->state);
            victim->stream_key = chainStreamKey(
                victim->checkpoint->stream_key, kFailoverSalt);
            move.restored_from_checkpoint = true;
            move.checkpoint_frames = victim->checkpoint->served;
        } else {
            victim->encoder.reset();
            victim->stream_key = chainStreamKey(
                codecConfigDigest(victim->spec->codec), kFailoverSalt);
        }
        victim->encoder.forceKeyframe();
        victim->deficit_s = 0.0;
        victim->resume_at_s = at_s;
        victim->recovering_since_s = at_s;
        ++run.report.recovery.failovers;
        move.to_replica = best;
        record.moves.push_back(std::move(move));
    }
    run.report.failovers.push_back(std::move(record));
}

/** The live replica with work left and the lowest clock (ties:
 *  lowest index); null when none. */
ReplicaState *
nextReplica(std::vector<ReplicaState> &replicas)
{
    ReplicaState *chosen = nullptr;
    for (ReplicaState &replica : replicas) {
        if (replica.crashed || replica.unfinished == 0)
            continue;
        if (chosen == nullptr || replica.clock_s < chosen->clock_s)
            chosen = &replica;
    }
    return chosen;
}

/** Nothing is dispatchable on `rep` at `now_s`: the time of its next
 *  event — an arrival, a failover resume point, or a breaker
 *  re-probe (-1 when no tenant is left). */
double
nextEventAt(const ReplicaState &rep, double now_s)
{
    double next_event = -1.0;
    for (const TenantState *state : rep.tenants) {
        if (state->done)
            continue;
        double event_s;
        if (now_s + kArrivalEps < state->resume_at_s) {
            event_s = std::max(state->resume_at_s,
                               state->arrivalOf(state->next_frame));
        } else if (state->backlogAt(now_s) > 0) {
            event_s = state->breaker.openUntil();
        } else {
            event_s = state->arrivalOf(state->next_frame);
        }
        if (next_event < 0.0 || event_s < next_event)
            next_event = event_s;
    }
    return next_event;
}

/**
 * One DRR round on `rep`: selects up to batch_max backlogged
 * tenants, one frame each, starting at the round-robin cursor
 * (which carries across rounds so a cut batch resumes where it
 * stopped). When nothing is dispatchable, jumps the replica's
 * clock to its next event instead.
 */
std::vector<BatchItem>
selectBatch(RunState &run, ReplicaState &rep, double now_s)
{
    const auto batch_max =
        static_cast<std::size_t>(std::max(run.config.batch_max, 1));
    std::vector<BatchItem> batch;
    bool any_backlog = false;
    std::size_t examined = 0;
    std::size_t index = rep.cursor;
    for (; examined < rep.tenants.size(); ++examined, ++index) {
        TenantState &state = *rep.tenants[index % rep.tenants.size()];
        if (state.done)
            continue;
        if (now_s + kArrivalEps < state.resume_at_s)
            continue;  // failover gap: not yet visible here
        if (state.backlogAt(now_s) == 0) {
            // Idle tenants forfeit their deficit: DRR's classic
            // no-banking-while-empty rule.
            state.deficit_s = 0.0;
            continue;
        }
        state.deficit_s = std::min(state.deficit_s + state.quantum_s,
                                   state.quantum_s);
        state.report->stats.max_deficit_s = std::max(
            state.report->stats.max_deficit_s, state.deficit_s);
        if (state.deficit_s <= 0.0) {
            // Still repaying an overdraft: a free re-round makes
            // progress, so count the backlog.
            any_backlog = true;
            continue;
        }
        if (!state.breaker.allowRequest(now_s)) {
            // Quarantined: re-rounding cannot help; the clock must
            // reach the re-probe time (empty-batch jump).
            continue;
        }
        BatchItem item;
        item.tenant = &state;
        item.frame_id = static_cast<std::uint32_t>(state.next_frame);
        const bool poisoned = state.poisoned(item.frame_id);
        item.faulted =
            poisoned || run.injector.memoryExhausted(rep.index, now_s);
        if (item.faulted) {
            // The frame never reaches the encoder, so neither the
            // stream key nor the cache may see it.
            item.fault_status = resourceExhausted(
                "serve: tenant '" + state.spec->name + "' frame " +
                std::to_string(item.frame_id) + ": " +
                (poisoned ? "poisoned input frame"
                          : "replica " + std::to_string(rep.index) +
                                " memory exhausted"));
        } else {
            state.stream_key = chainStreamKey(
                state.stream_key,
                cloudDigest(state.spec->frames[state.next_frame]));
            item.stream_key = state.stream_key;
            if (run.config.cache_capacity > 0)
                item.hit = run.cache.find(item.stream_key);
        }
        ++state.next_frame;
        batch.push_back(std::move(item));
        if (batch.size() >= batch_max) {
            ++index;
            break;
        }
    }
    rep.cursor = index % rep.tenants.size();
    // Nothing to dispatch and no overdraft to repay by re-rounding:
    // jump to the next event.
    if (batch.empty() && !any_backlog)
        rep.clock_s = std::max(now_s, nextEventAt(rep, now_s));
    return batch;
}

/**
 * Encodes a batch as one TaskGroup on the shared pool (interactive
 * tenants at high priority); cache hits only restore encoder
 * state. A tenant appears at most once per batch, so tasks never
 * share an encoder; faulted dispatches never touch theirs.
 */
Status
runBatch(const ServeConfig &config, std::vector<BatchItem> &batch)
{
    ScopedTrace batch_trace("serve.batch");
    // A snapshot is only worth taking for the cache to keep.
    const bool want_snapshot = config.cache_capacity > 0;
    TaskGroup group(ThreadPool::global());
    for (BatchItem &item : batch) {
        if (item.faulted)
            continue;
        const TaskPriority priority =
            item.tenant->spec->deadline_class ==
                    DeadlineClass::kInteractive
                ? TaskPriority::kHigh
                : TaskPriority::kNormal;
        group.run(
            [&item, want_snapshot] {
                TenantState &state = *item.tenant;
                if (item.hit) {
                    state.encoder.restoreState(item.hit->state_after);
                    return;
                }
                auto encoded = state.encoder.encode(
                    state.spec->frames[item.frame_id]);
                if (!encoded) {
                    item.status = encoded.status();
                    return;
                }
                item.encoded = std::move(*encoded);
                if (want_snapshot) {
                    item.state_after = state.encoder.snapshotState();
                    item.have_snapshot = true;
                }
            },
            priority);
    }
    group.wait();
    batch_trace.stop();
    for (const BatchItem &item : batch) {
        if (!item.status.isOk())
            return Status(item.status.code(),
                          "serve: tenant '" + item.tenant->spec->name +
                              "' frame " +
                              std::to_string(item.frame_id) + ": " +
                              item.status.message());
    }
    return Status();
}

/** Settles an encoded or cache-hit frame at `now_s`: charges its
 *  cost to the tenant and the fleet, feeds the cache and takes a
 *  due checkpoint. Returns the replica clock after it. */
double
settleServed(RunState &run, BatchItem &item, ServedFrame record,
             double now_s)
{
    const ServeConfig &config = run.config;
    TenantState &state = *item.tenant;
    TenantStats &stats = state.report->stats;

    double cost_s = 0.0;
    if (item.hit) {
        record.outcome = ServeOutcome::kCacheHit;
        cost_s = config.cache_hit_cost_s;
        run.cache.recordSavings(
            std::max(item.hit->device_cost_s - cost_s, 0.0));
        record.bitstream = item.hit->bitstream;
        record.stats = item.hit->stats;
        ++stats.cache_hits;
    } else {
        record.outcome = ServeOutcome::kEncoded;
        const PipelineTiming timing =
            run.device_model.evaluate(item.encoded.profile);
        cost_s = effectiveEncodeLatency(timing, run.latency_config,
                                        item.frame_id)
                     .total_s;
        cost_s *= run.injector.costMultiplier(state.replica, now_s);
        record.bitstream = std::move(item.encoded.bitstream);
        record.stats = item.encoded.stats;
        ++stats.encoded;
    }

    now_s += cost_s;
    record.cost_s = cost_s;
    record.completion_s = now_s;
    const double latency_s = record.completion_s - record.arrival_s;
    record.deadline_missed =
        state.budget_s > 0.0 &&
        latency_s > state.budget_s * (1.0 + kArrivalEps);

    state.deficit_s -= cost_s;
    stats.min_deficit_s =
        std::min(stats.min_deficit_s, state.deficit_s);
    stats.max_frame_cost_s = std::max(stats.max_frame_cost_s, cost_s);
    stats.device_s += cost_s;
    stats.latency_s.push_back(latency_s);
    ++stats.served;
    if (record.deadline_missed)
        ++stats.deadline_misses;
    run.report.fleet.device_busy_s += cost_s;

    state.breaker.onSuccess();
    if (state.recovering_since_s >= 0.0) {
        run.recovery_samples.push_back(record.completion_s -
                                       state.recovering_since_s);
        state.recovering_since_s = -1.0;
    }

    if (item.have_snapshot)
        run.cache.insert(item.stream_key,
                         {record.bitstream, record.stats,
                          std::move(item.state_after), cost_s});

    const auto interval =  // validated >= 0
        static_cast<std::size_t>(config.checkpoint_interval_frames);
    if (interval > 0 && stats.served % interval == 0) {
        // Snapshot after this frame: failover restores here and
        // resumes with a forced keyframe. Charged like batch
        // overhead (clock + fleet, not the tenant).
        TenantCheckpoint checkpoint;
        checkpoint.state = state.encoder.snapshotState();
        checkpoint.stream_key = state.stream_key;
        checkpoint.served =
            static_cast<std::uint32_t>(state.next_frame);
        state.checkpoint = std::move(checkpoint);
        now_s += config.checkpoint_cost_s;
        run.report.fleet.device_busy_s += config.checkpoint_cost_s;
        ++stats.checkpoints;
        ++run.report.recovery.checkpoints;
    }

    appendFrame(run.report, state, std::move(record));
    return now_s;
}

/** Settles a finished batch in selection order: each modelled
 *  replica executes its batch serially, so completion times (and
 *  the trace) are deterministic. */
void
settleBatch(RunState &run, ReplicaState &rep,
            std::vector<BatchItem> &batch, double now_s)
{
    FleetStats &fleet = run.report.fleet;
    ++fleet.batches;
    fleet.batched_frames += batch.size();
    const double batch_start_s = now_s;
    now_s += run.config.batch_overhead_s;
    fleet.device_busy_s += run.config.batch_overhead_s;
    for (BatchItem &item : batch) {
        TenantState &state = *item.tenant;
        ServedFrame record;
        record.frame_id = item.frame_id;
        record.arrival_s = state.arrivalOf(item.frame_id);
        record.start_s = batch_start_s;
        if (item.faulted) {
            // The dispatch aborted: no device seconds charged, the
            // breaker hears about it, and the record keeps the
            // attributable status.
            record.outcome = ServeOutcome::kFaulted;
            record.completion_s = now_s;
            record.fault_status = std::move(item.fault_status);
            ++state.report->stats.faulted;
            ++run.report.recovery.faulted_frames;
            state.breaker.onFailure(now_s);
            appendFrame(run.report, state, std::move(record));
        } else {
            now_s = settleServed(run, item, std::move(record), now_s);
        }
        finishIfDone(run, state);
    }
    rep.clock_s = now_s;
}

ServeReport
finishReport(RunState &run)
{
    ServeReport &report = run.report;
    for (const ReplicaState &replica : run.replicas)
        report.fleet.makespan_s =
            std::max(report.fleet.makespan_s, replica.clock_s);
    report.cache = run.cache.stats();

    std::vector<double> shares;
    for (const TenantState &state : run.states) {
        report.recovery.breaker_trips += state.breaker.trips();
        shares.push_back(state.report->stats.device_s /
                         state.spec->weight);
    }
    report.fairness_index = jainFairnessIndex(shares);

    if (!run.recovery_samples.empty()) {
        double sum = 0.0;
        for (double sample : run.recovery_samples) {
            sum += sample;
            report.recovery.worst_recovery_s =
                std::max(report.recovery.worst_recovery_s, sample);
        }
        report.recovery.mttr_s =
            sum / static_cast<double>(run.recovery_samples.size());
    }

    // Served/dropped frames were appended as scheduled; per-tenant
    // frame order is already monotonic by construction.
    return std::move(report);
}

}  // namespace

ServeScheduler::ServeScheduler(ServeConfig config,
                               std::vector<TenantSpec> tenants)
    : config_(std::move(config)), tenants_(std::move(tenants))
{
}

Expected<ServeReport>
ServeScheduler::run()
{
    // Resource exhaustion anywhere in the run — including a batch
    // task restoring or snapshotting encoder state outside the
    // encoder's own guard — surfaces as a Status.
    try {
        ScopedTrace trace("serve.run");
        EDGEPCC_RETURN_IF_ERROR(validateInput(config_, tenants_));
        RunState run(config_, tenants_);
        EDGEPCC_RETURN_IF_ERROR(admitTenants(run));

        // DRR round loop. Replicas take rounds in virtual-clock
        // order (lowest clock first, ties by index), which makes
        // the fleet-wide trace a pure function of the inputs.
        while (run.unfinished > 0) {
            ReplicaState *next = nextReplica(run.replicas);
            if (next == nullptr)
                break;  // unreachable: unfinished tenants live on one
            ReplicaState &rep = *next;
            double now_s = rep.clock_s;
            ++run.report.fleet.rounds;

            // Fault boundary: pending stalls jump the clock, then a
            // due crash takes the whole replica down.
            const double stall_s =
                run.injector.consumeStall(rep.index, now_s);
            if (stall_s > 0.0)
                now_s += stall_s;
            const int crash =
                run.injector.consumeCrash(rep.index, now_s);
            if (crash >= 0) {
                handleCrash(run, rep, now_s,
                            run.injector.event(
                                static_cast<std::size_t>(crash)));
                continue;
            }

            for (TenantState *state : rep.tenants)
                dropStale(run, *state, now_s);
            rep.clock_s = now_s;
            if (run.unfinished == 0)
                break;
            if (rep.unfinished == 0)
                continue;

            std::vector<BatchItem> batch =
                selectBatch(run, rep, now_s);
            if (batch.empty())
                continue;
            EDGEPCC_RETURN_IF_ERROR(runBatch(config_, batch));
            settleBatch(run, rep, batch, now_s);
        }
        return finishReport(run);
    } catch (const std::bad_alloc &) {
        return resourceExhausted(
            "ServeScheduler::run: allocation failed");
    }
}

}  // namespace serve
}  // namespace edgepcc
