#ifndef DFIM_CORE_SERVICE_H_
#define DFIM_CORE_SERVICE_H_

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "cloud/cluster.h"
#include "cloud/fault_model.h"
#include "cloud/storage_service.h"
#include "core/admission.h"
#include "core/journal.h"
#include "core/service_metrics.h"
#include "core/tuner.h"
#include "dataflow/workload.h"
#include "sched/exec_simulator.h"
#include "sched/skyline_scheduler.h"

namespace dfim {

/// \brief Index-management policies compared in §6.5 (Fig. 12/14, Table 7).
enum class IndexPolicy {
  /// Never builds indexes.
  kNoIndex,
  /// Randomly selects indexes from the potential set and randomly assigns
  /// their build ops to containers, never deleting anything.
  kRandom,
  /// Algorithm 1 with deletion disabled ("Gain (no delete)").
  kGainNoDelete,
  /// The full proposed approach.
  kGain,
};

std::string_view IndexPolicyToString(IndexPolicy policy);

/// \brief End-to-end index integrity: verified reads, background scrub and
/// self-healing repair builds (DESIGN.md §12).
///
/// All defaults off: with `verify_reads` false and `scrub_objects_per_quantum`
/// zero no verification, quarantine or repair code runs and the execution
/// path is bit-identical to a service without the integrity layer. The
/// corruption *sources* live in FaultOptions (torn_write_rate, bitrot_rate);
/// this struct owns detection and healing.
struct IntegrityOptions {
  /// Verify the checksums (and expected generations) of every index
  /// partition a dataflow binds to, at bind time. A failed partition is
  /// quarantined — the dataflow's index-backed ops fall back to base scans:
  /// degraded, never wrong.
  bool verify_reads = false;
  /// Simulated seconds charged per verified cache-miss fetch of an
  /// index-backed input.
  Seconds verify_latency = 1.0;
  /// Background scrub budget: objects verified per elapsed quantum, walking
  /// the store in deterministic path order with a persistent cursor
  /// (0 = scrub off). Catches latent rot before a dataflow trips on it.
  double scrub_objects_per_quantum = 0;
  /// Schedule repair rebuilds for quarantined partitions, riding the
  /// existing idle-slot knapsack (marginal-cost-zero, like normal builds).
  bool repair = false;
};

/// Repair build ops packed per dataflow at most (bounds the optional-op load
/// a single decision absorbs; the rest stay queued).
inline constexpr int kMaxRepairsPerDataflow = 2;

/// kRandom: indexes sampled from the whole catalog per dataflow.
inline constexpr int kRandomIndexesPerDataflow = 2;

/// Batch updates (ServiceOptions::update_interval_quanta): tables touched
/// per batch, and the fraction of each touched table's partitions updated.
inline constexpr int kUpdateTablesPerBatch = 1;
inline constexpr double kUpdateFraction = 0.05;

/// Bounded retry: an execution attempt that loses mandatory (dataflow)
/// operators to container crashes is followed by up to this many recovery
/// attempts, each rescheduling the unfinished DAG suffix onto
/// fresh/surviving containers and re-paying the quanta. When exhausted the
/// dataflow is recorded as failed instead of wedging the horizon loop.
inline constexpr int kMaxRecoveryAttempts = 3;

/// Rejects negative budgets/latencies and a zero verify_latency while
/// verification is on (a free verify would silently skip the charge path).
Status ValidateIntegrityOptions(const IntegrityOptions& opts);

/// \brief Elastic fleet sizing for the open-loop service (DESIGN.md §13).
///
/// Off by default: the fleet is effectively unbounded and the service's
/// acquisition path is bit-identical to the fixed-fleet service. When on,
/// the fleet target follows the queue-pressure signal (the per-dequeue
/// queue delay): nearing brownout grows the fleet, slack shrinks it, and
/// containers above the target are drained — released before their lease
/// renews idle. Requires admission.open_loop (the closed loop has no
/// pressure signal to scale on).
struct AutoscalerOptions {
  bool enabled = false;
  /// Fleet floor: the autoscaler never drains below this many containers.
  int min_containers = 1;
  /// Fleet ceiling, enforced by the Cluster capacity cap.
  int max_containers = 8;
  /// Starting fleet target (0 = min_containers).
  int initial_containers = 0;
  /// Statically provisioned always-on fleet: every alive container's lease
  /// is extended through the present at each fleet-preparation step and
  /// through the horizon at the end of the run, so idle gaps are billed
  /// instead of letting leases lapse. Models the fixed-fleet baseline the
  /// elastic sweep compares against; containers past their reclaim instant
  /// are never revived.
  bool keep_alive = false;
};

/// Queue pressure (queue delay quanta, like the brownout thresholds) at or
/// above which the autoscaler grows the fleet target by kAutoscaleGrowStep,
/// and at or below which it shrinks the target by one.
inline constexpr double kAutoscaleGrowPressure = 1.0;
inline constexpr double kAutoscaleShrinkPressure = 0.5;
inline constexpr int kAutoscaleGrowStep = 2;

/// Capped exponential backoff after a provider-denied acquire: the first
/// denial pauses fresh requests for kAcquireBackoffInitialQuanta, doubling
/// per consecutive denial up to kAcquireBackoffCapQuanta. A clean grant
/// resets the ladder; the backoff is bypassed whenever zero containers are
/// usable (it must never wedge the service at an empty fleet). Also used
/// when provider faults run without the autoscaler.
inline constexpr double kAcquireBackoffInitialQuanta = 1.0;
inline constexpr double kAcquireBackoffCapQuanta = 16.0;

/// Rejects a non-positive floor, a ceiling below the floor and an initial
/// target outside [0, max]. All checks gated on `enabled`.
Status ValidateAutoscalerOptions(const AutoscalerOptions& opts);

/// \brief Service configuration (Table 3 defaults).
struct ServiceOptions {
  IndexPolicy policy = IndexPolicy::kGain;
  TunerOptions tuner;
  /// Execution realism: a 10% estimation error keeps preemption active
  /// (exact estimates would never kill a planned build op).
  SimOptions sim;
  ContainerSpec container;
  /// Experiment horizon (Table 3: 720 quanta).
  Seconds total_time = 720.0 * 60.0;
  /// An index flagged non-beneficial is only deleted when no dataflow has
  /// credited it with a positive gain for this many quanta. This stands in
  /// for two effects the bare Eq. 4-5 miss under closed-loop issuing:
  /// per-dataflow speedup variance (each dataflow resamples from the
  /// Table 6 set) and sparse per-file references (a dataflow reads only a
  /// subset of its family's files, so useful indexes legitimately go
  /// unreferenced for tens of quanta). The default keeps random-mix
  /// workloads deletion-free (the paper's Fig. 14 observation) while phase
  /// shifts — hundreds of quanta of absence — still trigger deletion
  /// (Fig. 13).
  double deletion_grace_quanta = 200.0;
  /// Paper future work, "building indexes in a delayed manner for
  /// scenarios where idle slots are short": when true, preempted build
  /// operators keep their partial progress and later build ops only run
  /// the remaining work. Off by default (the paper's conservative
  /// discard-on-kill behaviour).
  bool resumable_builds = false;
  /// \name Batch updates (paper §3: "Data updates are performed in batches
  /// periodically... Each update creates a new version of the table
  /// partitions changed, invalidating old versions and indexes built on
  /// them.") Zero interval disables updates (the §6 experiments don't run
  /// them; the paper argues the update rate is much lower than the
  /// processing rate).
  /// @{
  /// Simulated time between update batches, in quanta (0 = off). Each
  /// batch touches kUpdateTablesPerBatch tables and kUpdateFraction of
  /// each one's partitions.
  double update_interval_quanta = 0;
  /// @}
  /// Fault rates (all zero by default: every fault draw is the identity).
  /// Crash losses are retried up to kMaxRecoveryAttempts times.
  FaultOptions faults;
  /// \name Overload robustness (all defaults keep the closed-loop paths
  /// bit-identical to a service without overload support).
  /// @{
  AdmissionOptions admission;
  BrownoutOptions brownout;
  BreakerOptions breaker;
  /// Batched admission (DESIGN.md §14; max_batch 1 = off, bit-identical to
  /// the one-at-a-time open loop). Requires admission.open_loop when on.
  BatchOptions batch;
  /// @}
  /// Tail tolerance (off by default, DESIGN.md §9). Hedges are suppressed
  /// while the persist breaker is open so duplicates never double-trip it.
  SpeculationOptions speculation;
  /// \name Integrity (verification, scrub, repair; off by default —
  /// bit-identical path with the knobs at zero, DESIGN.md §12).
  /// @{
  IntegrityOptions integrity;
  /// @}
  /// \name Elastic fleet (off by default — with the autoscaler disabled and
  /// no provider fault rates the acquisition path is bit-identical to the
  /// fixed-fleet service, DESIGN.md §13).
  /// @{
  AutoscalerOptions autoscaler;
  /// @}
  /// \name Control-plane durability (off by default — journal disabled is
  /// byte-for-byte identical to a service without the layer, DESIGN.md §15).
  /// @{
  JournalOptions journal;
  /// @}
  uint64_t seed = 99;
};

/// \brief The residue of every zero-slack ledger the service keeps: each
/// field is the left side minus the right side of one identity, so a
/// balanced run is all zeros. This is the single list of ledgers (DESIGN.md
/// §4 "Tests"); `QaasService::Run` checks it once at the end of every run.
struct ServiceSlack {
  /// arrived - finished - failed - overran - shed.
  int64_t accounting = 0;
  /// ops_speculated - spec_wins - spec_cancelled.
  int64_t speculation = 0;
  /// corruptions_injected - detected_on_read - detected_by_scrub - dead
  /// - latent.
  int64_t corruption = 0;
  /// partitions_quarantined - repairs_completed - quarantine_evicted
  /// - (entries still quarantined in the catalog).
  int64_t quarantine = 0;
  /// FleetLedger::RequestSlack(): requests - granted - denied.
  int64_t fleet_requests = 0;
  /// FleetLedger::GrantSlack(alive): granted - released - preempted
  /// - crashed - alive.
  int64_t fleet_grants = 0;
  /// Journal::LedgerSlack(): records written - replayed - truncated
  /// - tail discarded - live.
  int64_t journal_records = 0;
  /// Journal generation - snapshots replayed (one bump per recovery).
  int64_t journal_generations = 0;
  /// Catalog-built index partitions with no stored object (catalog ⊆
  /// storage).
  int64_t unstored_partitions = 0;

  bool ok() const;
  /// "ledger slack: name=value ..." over every nonzero field ("" when ok).
  std::string ToString() const;
  bool operator==(const ServiceSlack&) const = default;
};

/// The recovery suffix of `decision` (DESIGN.md §6 "Recovery") after an
/// attempt ran `plan` on the containers with ids `hosts` and produced
/// `exec`. `ids[i]` maps the attempt's op i to its combined op id, and on
/// return the suffix's. `holders[id]`, kept across attempts (all -1 at
/// first), is the container holding the output of finished mandatory op
/// `id`, -1 once it died. The suffix holds the lost mandatory ops plus,
/// transitively, producers whose output is gone; other consumed mandatory
/// outputs are re-paid as `input_mb` (cache key cleared) and lost build ops
/// are dropped. The suffix's `chosen` is left empty.
Result<TunerDecision> PlanRecoverySuffix(const TunerDecision& decision,
                                         const Schedule& plan,
                                         const ExecResult& exec,
                                         const std::vector<int>& hosts,
                                         double net_mb_per_sec,
                                         std::vector<int>* ids,
                                         std::vector<int>* holders);

/// \brief The QaaS service: executes a stream of dataflows on the simulated
/// cloud, running the configured index-management policy (paper Fig. 1).
///
/// Dataflows are issued sequentially; each is tuned (policy-dependent),
/// scheduled, executed on pooled containers (warm caches survive while a
/// container's lease is alive), and its realized/what-if index gains are
/// appended to the history Hd that drives future tuning decisions.
///
/// One instance is one tenant's isolation unit: it owns the tenant's
/// catalog binding, storage service, fleet, tuner EWMA state, admission
/// controller and history. The sharded service runs one per tenant.
class QaasService {
 public:
  QaasService(Catalog* catalog, ServiceOptions options);

  /// Consumes `client` until the horizon and returns the metrics, or
  /// Status::Internal naming every ledger that does not balance.
  Result<ServiceMetrics> Run(WorkloadClient* client);

  /// The slack of every ledger after a run that produced `metrics`, against
  /// this service's catalog, storage, fleet and journal. Cost:
  /// O(catalog partitions).
  ServiceSlack CheckInvariants(const ServiceMetrics& metrics) const;

  /// History records accumulated so far (inspection/testing).
  const std::deque<DataflowRecord>& history() const { return state_.history; }

  const StorageService& storage() const { return storage_; }

  /// The fleet authority (inspection/testing: ledger identities, bill).
  const Cluster& fleet() const { return fleet_; }

  /// The control-plane journal (inspection/testing: ledger identity,
  /// generation, retained records).
  const Journal& journal() const { return journal_; }

  /// Partial build progress carried across preemptions (resumable_builds).
  const BuildProgress& build_progress() const {
    return state_.build_progress;
  }

 private:
  /// Outcome of one dataflow execution (including recovery attempts).
  struct RunOutcome {
    /// Realized finish time (or the instant the dataflow was abandoned).
    Seconds finish = 0;
    /// Time storage was settled through: >= finish when index partitions
    /// were persisted inside the paid lease tail past the makespan.
    Seconds settled = 0;
    /// True when an injected control-plane crash interrupted the iteration
    /// (journal on only); the driver recovers and resumes. `finish` and
    /// `settled` are meaningless in that case.
    bool crashed = false;
  };

  /// What the recovery-capable execution loop settled on.
  struct ExecOutcome {
    /// Wall time from `start` through the last attempt (includes fleet
    /// waits, recovery attempts and persist backoff).
    Seconds elapsed = 0;
    /// VM quanta charged across all attempts.
    int64_t total_leased = 0;
    /// True when recovery was exhausted and the dataflow was dropped.
    bool failed = false;
    /// Latest persist instant (0 when nothing persisted).
    Seconds last_persist = 0;
  };

  /// The A-phase of one iteration over the batch in `loop_` (size >= 1):
  /// scrub, fleet plan, one `Decide` per member, bind-time verification and
  /// repair packing, then the pre-execute commit — with the b0/b1 crash
  /// boundaries around it — and on into `FinishRun`. `loop_->build_fraction`
  /// is the brownout knob (1.0 = unthrottled; 0 = no tuning at all).
  Result<RunOutcome> StartRun(ServiceMetrics* metrics);

  /// The tuning step of one dataflow: policy decision (gain tuner or
  /// baseline) bounded by the fleet plan, plus the builds-shed accounting.
  Result<TunerDecision> Decide(const Dataflow& df, Seconds start,
                               ServiceMetrics* metrics, double build_fraction,
                               int fleet_bound);

  /// The recovery-capable execution loop of one decision; each attempt is
  /// `RunAttempt`, `LandBuilds` and, if it lost mandatory ops,
  /// `PlanRecoverySuffix` for the next. `df` keys the fault draws (batches
  /// use their head member); `initial_wait` is the fleet plan's wait.
  Result<ExecOutcome> ExecuteDecision(TunerDecision* decision,
                                      const Dataflow& df, Seconds start,
                                      Seconds initial_wait,
                                      ServiceMetrics* metrics);

  /// One attempt of `d` at `t0`: acquire containers, draw the fault trace,
  /// simulate, charge leases, evict dead containers, count. `hosts` gets
  /// the acquired containers' ids by schedule container.
  Result<ExecResult> RunAttempt(const TunerDecision& d, int df_id,
                                int attempt, Seconds t0,
                                std::vector<int>* hosts,
                                ServiceMetrics* metrics);

  /// Persists the builds of the attempt `run_key` (started at `t0`) through
  /// the breaker and the retry ladder, and keeps preempted builds' progress
  /// when builds are resumable. Returns the persist backoff delay.
  Seconds LandBuilds(const ExecResult& exec, uint64_t run_key, Seconds t0,
                     Seconds* last_persist, ServiceMetrics* metrics);

  /// Registers a build whose Put attempt `landed` succeeded: catalog mark,
  /// stored object with integrity stamps and idempotency token, grace clock.
  void RecordBuild(const BuildCompletion& b, uint64_t run_key, int landed,
                   bool container_died, Seconds built_at,
                   Seconds* last_persist, ServiceMetrics* metrics);

  /// Appends the dataflow's history record (its what-if gain per
  /// candidate index) and refreshes the last-useful clocks of its gainful
  /// candidates.
  void RecordHistory(const Dataflow& df, Seconds finish);

  /// Applies grace-gated index deletions (Gain policy decisions only).
  void ApplyDeletions(const std::vector<std::string>& to_delete,
                      Seconds finish, ServiceMetrics* metrics);

  /// Appends one timeline point at `finish`: the storage bill and the
  /// catalog's built-index state sampled, with this dataflow's queue delay
  /// and makespan.
  void StampTimeline(Seconds finish, double queue_delay_quanta,
                     double makespan_quanta, ServiceMetrics* metrics);

  /// The arrival-driven service loop (admission.open_loop). It stays a
  /// separate driver from the closed loop in `Run` because the pull
  /// protocols differ: the closed loop pulls `Next(clock)` after each
  /// finish, the open loop pulls ahead by arrival time through admission.
  Result<ServiceMetrics> RunOpenLoop(WorkloadClient* client);

  /// The run epilogue shared by both drivers: a final scrub over the idle
  /// horizon tail, the storage settle, the integrity/fleet/journal harvest,
  /// the always-on fleet's keep-alive and the final reap. Clears `loop_`.
  void SettleRun(ServiceMetrics* metrics);

  /// Policy step for kNoIndex / kRandom. `max_containers` > 0 overrides the
  /// configured fleet cap (elastic fleet); 0 keeps it bit-identically.
  Result<TunerDecision> BaselineDecision(const Dataflow& df,
                                         int max_containers = 0);

  /// \name Integrity helpers (DESIGN.md §12)
  /// @{

  /// Verifies every built partition of every index the decision binds to
  /// (checksum + expected generation) at bind time. Failed indexes are
  /// quarantined and the decision's ops that used them are rewritten to the
  /// base-scan fallback; surviving index-backed ops get the verify charge.
  void VerifyIndexBindings(TunerDecision* decision, Seconds now,
                           ServiceMetrics* metrics);

  /// Background scrub: spends the credit accrued since the last call
  /// (scrub_objects_per_quantum per elapsed quantum) verifying stored
  /// objects in path order from a persistent cursor. A no-op with scrub
  /// off.
  void RunScrub(Seconds now, ServiceMetrics* metrics);

  /// Quarantines a built partition (idempotent), drops its storage object,
  /// and enqueues a repair when repair is enabled.
  void QuarantineAndScheduleRepair(const std::string& index_id, int partition,
                                   Seconds now, ServiceMetrics* metrics);

  /// Appends up to kMaxRepairsPerDataflow queued repair builds to the
  /// decision and packs them into its idle slots (marginal-cost-zero).
  /// Unpacked entries return to the queue. A no-op on an empty queue,
  /// which only repair-on runs fill.
  void ScheduleRepairs(TunerDecision* decision, ServiceMetrics* metrics);
  /// @}

  /// \name Elastic fleet (DESIGN.md §13)
  /// @{

  /// True when any elastic-fleet machinery may change the execution path.
  bool ElasticActive() const {
    return opts_.autoscaler.enabled || opts_.faults.provider_enabled();
  }

  /// What PrepareFleet settled on for one dataflow execution.
  struct FleetPlan {
    /// Container cap the scheduler/tuner must plan within (>= 1).
    int bound = 0;
    /// Simulated seconds spent waiting for a usable container (boot
    /// delays, acquire backoff with an empty fleet); the caller adds this
    /// to the dataflow's elapsed time.
    Seconds wait = 0;
  };

  /// Runs the autoscaler policy step at `now`: moves the fleet target with
  /// the queue-pressure signal, drains idle containers above it, acquires
  /// usable capacity (with capped exponential backoff on provider denials,
  /// bypassed whenever nothing is usable), and waits out boot delays when
  /// the fleet is empty. Returns the plan bound = the containers actually
  /// usable, so admission estimates and the build knapsack see the real,
  /// smaller fleet. When ElasticActive() is false, returns the configured
  /// scheduler cap with zero wait and touches nothing.
  FleetPlan PrepareFleet(Seconds now, ServiceMetrics* metrics);

  /// Copies the fleet ledger into the metrics counters (absolute values;
  /// called once, at the end of the run).
  void HarvestFleet(ServiceMetrics* metrics) const;
  /// @}

  /// Applies any update batches due by `now` (version bumps + index
  /// invalidation + storage release).
  void ApplyDueUpdates(Seconds now, ServiceMetrics* metrics);

  /// \name Crash-consistent control-plane state (DESIGN.md §15)
  /// @{

  bool JournalOn() const { return opts_.journal.enabled; }

  /// The instant a replayed storage call is issued at. Replay re-issues
  /// verifies, persists and staged deletes at their journaled instants,
  /// which lie below the surviving store's `last_billed()`; storage makes
  /// no use of a time at or below that mark except to count a clock clamp,
  /// so a recovering run issues them at the mark — the same rule as
  /// SettleStorage — and reports the clamps its uncrashed twin does.
  Seconds ReplayClamp(Seconds t) const {
    return recovering_ ? std::max(t, storage_.last_billed()) : t;
  }

  /// Advances the billing-clock mirror (monotone).
  void BumpClockMirror(Seconds t) {
    if (t > state_.storage_clock_mirror) state_.storage_clock_mirror = t;
  }

  /// A verify, scrub or persist instant: `billed` on the service's clock,
  /// `issued` to storage (ReplayClamp(billed)).
  struct StorageInstant {
    Seconds billed = 0;
    Seconds issued = 0;
  };

  /// The storage-instant rule. Storage may already be settled past `t`
  /// (persists land in paid lease tails, out of order across dataflows), so
  /// the call is billed at the billing-clock mirror when that is later: the
  /// settle order stays monotone and no clock clamp is counted. The mirror,
  /// not `last_billed()`, keeps replay off the post-crash clock.
  StorageInstant StorageCallAt(Seconds t) {
    t = std::max(t, state_.storage_clock_mirror);
    BumpClockMirror(t);
    return {t, ReplayClamp(t)};
  }

  /// Service-side storage delete: immediate when the journal is off;
  /// staged for the next group commit (generation-guarded) when on, so a
  /// crash never finds an object destroyed that replay still reads.
  void StorageDelete(const std::string& path, Seconds at);

  /// Applies every staged delete whose object generation is unchanged
  /// since staging; called at each group-commit point.
  void FlushStagedDeletes();

  /// Settles storage through `t` and bumps the mirror. A replayed settle
  /// may lag the storage high-water mark; ReplayClamp makes it silent.
  void SettleStorage(Seconds t);

  /// Draws one control-plane crash at the current stage boundary. The
  /// boundary counter is monotone across recoveries (deliberately not
  /// restored — a directed crash fires exactly once); draws are suppressed
  /// after kMaxResumeAttempts consecutive resumes without a completed
  /// iteration (fail open, never a crash loop).
  bool MaybeCtlCrash();

  /// Captures the full control-plane state (loop locals via `loop_`).
  ServiceSnapshot MakeSnapshot(ServiceSnapshot::Kind kind,
                               const ServiceMetrics& metrics) const;

  /// Restores a snapshot into the live service (loop locals via `loop_`,
  /// metrics via the out-param), rewinding storage detections to the
  /// snapshot watermark.
  void RestoreSnapshot(const ServiceSnapshot& s, ServiceMetrics* metrics);

  /// Flushes staged deletes and group-commits a snapshot of the current
  /// state into the journal. Does nothing while the journal is off.
  void CommitJournal(ServiceSnapshot::Kind kind, const ServiceMetrics& metrics);

  /// The B-phase of one iteration: execute the in-flight decision, record
  /// history, apply deletions, settle, count each member's finish, stamp —
  /// with the b2..b4 crash boundaries between stages. Reads `in_flight_`
  /// and the driver loop's batch and start via `loop_`.
  Result<RunOutcome> FinishRun(ServiceMetrics* metrics);

  /// Runs the current iteration (loop_->batch/start/fraction) to
  /// completion, recovering and resuming across any injected control-plane
  /// crashes: restore the latest snapshot, then re-run the iteration
  /// (kIterStart) or re-enter the B-phase (kPreExecute). In-flight
  /// persists are re-resolved exactly-once via idempotency tokens. On
  /// completion the loop clock moves to the finish (and `settled` forward).
  Status RunIteration(ServiceMetrics* metrics);

  /// Copies the journal ledger's recovery counters into the metrics
  /// (absolute values, once at the end of the run; the ledger, like
  /// storage, survives crashes). All zero while the journal is off.
  void HarvestJournal(ServiceMetrics* metrics) const;
  /// @}

  Catalog* catalog_;
  ServiceOptions opts_;
  OnlineIndexTuner tuner_;
  StorageService storage_;
  /// Every fault draw of the run. Stateless, so one model serves every
  /// execution; attached to fleet_ when any provider rate is nonzero (a
  /// member for pointer stability).
  FaultModel faults_;
  /// The fleet authority: owns every container, the zero-slack acquisition
  /// ledger, and all charge/reap/release bookkeeping (DESIGN.md §13).
  Cluster fleet_;
  /// The admission loop's policy (shed policy, brownout curve); its one
  /// piece of mutable state, the brownout hysteresis, lives in `state_`.
  AdmissionController admission_;
  /// The journaled control state (see ControlState).
  ControlState state_;
  /// \name Crash-consistent control-plane state (DESIGN.md §15)
  /// @{
  /// The write-ahead journal + snapshot layer (no-op when disabled).
  Journal journal_;
  /// Monotone stage-boundary counter keying crash draws; deliberately NOT
  /// restored by recovery so a directed crash fires exactly once.
  int64_t ctl_boundary_counter_ = 0;
  /// Consecutive recoveries without a completed iteration (fail-open bound).
  int resume_attempts_ = 0;
  /// True while re-executing a journaled iteration after a recovery.
  bool recovering_ = false;
  /// The decision in flight between the pre-execute commit and the end of
  /// the iteration (what a kPreExecute snapshot restores).
  std::optional<InFlightDecision> in_flight_;
  /// The active driver loop's locals; set by Run/RunOpenLoop for the
  /// lifetime of the loop so snapshots can capture and restore them.
  ServiceSnapshot::LoopState* loop_ = nullptr;
  /// @}
};

}  // namespace dfim

#endif  // DFIM_CORE_SERVICE_H_
