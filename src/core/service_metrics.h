#ifndef DFIM_CORE_SERVICE_METRICS_H_
#define DFIM_CORE_SERVICE_METRICS_H_

#include <cstdint>
#include <vector>

#include "cloud/pricing.h"
#include "common/units.h"

namespace dfim {

/// \brief The cumulative ServiceMetrics counters that sum across tenants
/// and that a recovered run must reproduce, as an X-macro of (type, name)
/// pairs.
///
/// AggregateMetrics sums every entry, and the recovery and chaos tests
/// compare every entry of a crashed run against its uncrashed twin (all but
/// the six control-plane recovery counters, which only a crash moves).
/// Adding a counter to ServiceMetrics? Add it here too unless it belongs to
/// the deliberate exclusions: `storage_cost` and `queue_delay_quanta`
/// (floating-point sums compared on their own), and the storage-side
/// ledger terms harvested once at the end of the run
/// (`corruptions_injected`, `corruptions_dead`, `corruptions_latent`,
/// `quarantine_evicted`, `storage_clock_clamps`).
#define DFIM_MIRRORED_COUNTERS(X)       \
  X(int, dataflows_arrived)             \
  X(int, dataflows_finished)            \
  X(int, dataflows_overran)             \
  X(double, total_time_quanta)          \
  X(int64_t, total_vm_quanta)           \
  X(int, total_ops)                     \
  X(int, killed_ops)                    \
  X(int, index_partitions_built)        \
  X(int, indexes_deleted)               \
  X(int, update_batches)                \
  X(int, index_partitions_invalidated)  \
  X(int, containers_failed)             \
  X(int, ops_reexecuted)                \
  X(int64_t, recovery_quanta)           \
  X(int, dataflows_failed)              \
  X(int, storage_retries)               \
  X(int, storage_faults)                \
  X(int, storage_reads)                 \
  X(int, builds_discarded)              \
  X(int, ops_speculated)                \
  X(int, spec_wins)                     \
  X(int, spec_cancelled)                \
  X(double, spec_cancelled_quanta)      \
  X(int, hedged_reads)                  \
  X(int, hedge_wins)                    \
  X(int, dataflows_shed)                \
  X(int, shed_queue_full)               \
  X(int, shed_infeasible)               \
  X(int, deadlines_missed)              \
  X(int, builds_shed)                   \
  X(int, breaker_opens)                 \
  X(int, retries_denied)                \
  X(int, peak_queue_len)                \
  X(int, corruptions_detected_on_read)  \
  X(int, corruptions_detected_by_scrub) \
  X(int, stale_reads)                   \
  X(int, verified_reads)                \
  X(int, degraded_reads)                \
  X(int, partitions_quarantined)        \
  X(int, repairs_scheduled)             \
  X(int, repairs_completed)             \
  X(int64_t, scrub_reads)               \
  X(int, containers_reaped)             \
  X(int, containers_drained)            \
  X(int, containers_preempted)          \
  X(int64_t, fleet_acquire_requests)    \
  X(int64_t, fleet_granted)             \
  X(int64_t, acquires_denied_quota)     \
  X(int64_t, acquires_denied_capacity)  \
  X(int64_t, fleet_quanta_charged)      \
  X(int, fleet_grow_events)             \
  X(int, fleet_shrink_events)           \
  X(int, acquire_backoffs)              \
  X(double, boot_wait_quanta)           \
  X(int, dataflow_batches)              \
  X(int, batched_dataflows)             \
  X(int64_t, ctl_crashes)               \
  X(int64_t, journal_records)           \
  X(int64_t, journal_bytes)             \
  X(int64_t, replayed_records)          \
  X(int64_t, persists_deduped)          \
  X(double, recovery_replay_quanta)

/// \brief One sample of the service state over time (Fig. 13 series),
/// taken when a dataflow finishes.
struct TimelinePoint {
  Seconds t = 0;
  /// Indexes with at least one built partition.
  int indexes_built = 0;
  /// Total MB of built index partitions.
  MegaBytes index_mb = 0;
  /// Storage dollars accrued so far.
  Dollars storage_cost = 0;
  /// Queue delay (quanta) this dataflow suffered before starting.
  double queue_delay_quanta = 0;
  /// This dataflow's realized makespan (execution + recovery + persist
  /// backoff), in quanta — the tail-latency series the speculation bench
  /// reads p50/p99 from.
  double makespan_quanta = 0;
};

/// \brief Aggregated service metrics (Fig. 12/14, Table 7).
struct ServiceMetrics {
  /// Tenant these metrics belong to (sharded service; -1 = a monolithic
  /// run or a cross-tenant aggregate). Identity, not a counter.
  int tenant = -1;
  int dataflows_arrived = 0;
  int dataflows_finished = 0;
  /// Dataflows that completed but past the horizon (counted in neither
  /// finished nor failed). In both loops
  /// arrived == finished + failed + overran + shed, exactly.
  int dataflows_overran = 0;
  double total_time_quanta = 0;
  int64_t total_vm_quanta = 0;
  Dollars storage_cost = 0;
  int total_ops = 0;
  int killed_ops = 0;
  int index_partitions_built = 0;
  int indexes_deleted = 0;
  /// Batch updates applied and index partitions they invalidated.
  int update_batches = 0;
  int index_partitions_invalidated = 0;
  /// \name Failure & recovery accounting (fault injection)
  /// @{
  /// Containers lost to crashes/spot preemption.
  int containers_failed = 0;
  /// Operators executed during recovery attempts (re-paid work).
  int ops_reexecuted = 0;
  /// VM quanta charged for recovery attempts (subset of total_vm_quanta).
  int64_t recovery_quanta = 0;
  /// Dataflows abandoned after kMaxRecoveryAttempts.
  int dataflows_failed = 0;
  /// Transient storage-Put failures that triggered a backoff retry.
  int storage_retries = 0;
  /// Transient storage-read faults absorbed as latency spikes.
  int storage_faults = 0;
  /// Read requests issued to the storage service (cache-miss fetches plus
  /// hedge duplicates and clone fetches). The read-side companion of
  /// `storage_retries` (which only counts Put retries): read-path fault
  /// draws are a subset of these, so storage_faults <= storage_reads +
  /// storage_retries always holds.
  int storage_reads = 0;
  /// Completed builds discarded: their partition was never persisted
  /// (dead container, or Put failed after all retries).
  int builds_discarded = 0;
  /// @}
  /// \name Tail tolerance (speculation & hedging; zero when off).
  /// @{
  /// Speculative clones spawned into already-paid idle slots.
  int ops_speculated = 0;
  /// Clones that beat their original (first finisher wins).
  int spec_wins = 0;
  /// Clones cancelled because the original finished first.
  int spec_cancelled = 0;
  /// Reserved slot quanta returned to the build knapsack by cancellations.
  double spec_cancelled_quanta = 0;
  /// Duplicate storage reads issued after hedge_after elapsed, and how many
  /// beat the primary.
  int hedged_reads = 0;
  int hedge_wins = 0;
  /// @}
  /// \name Overload & SLO accounting (open-loop runs; zero otherwise,
  /// except that the closed loop sheds the one arrival the horizon cuts off
  /// before it can start).
  /// @{
  /// Dataflows dropped without execution (queue full, deadline-infeasible,
  /// or stranded in the queue when the horizon closed).
  int dataflows_shed = 0;
  /// Sheds caused by a full queue (subset of dataflows_shed).
  int shed_queue_full = 0;
  /// Early drops of deadline-infeasible entries (subset of dataflows_shed).
  int shed_infeasible = 0;
  /// Dataflows that finished past their deadline (they still count as
  /// finished; goodput = finished - deadlines_missed).
  int deadlines_missed = 0;
  /// Beneficial index builds excluded by the brownout knob.
  int builds_shed = 0;
  /// Times the storage circuit breaker opened (including re-opens).
  int breaker_opens = 0;
  /// Recovery attempts denied because the fleet-wide retry budget ran out.
  int retries_denied = 0;
  /// Total queue delay (quanta) summed over executed dataflows.
  double queue_delay_quanta = 0;
  /// Largest pending-queue length observed at any admission.
  int peak_queue_len = 0;
  /// Storage-billing clock regressions absorbed by the high-water clamp
  /// (surfaced from StorageService; nonzero means callers settled storage
  /// out of order).
  int64_t storage_clock_clamps = 0;
  /// @}
  /// \name Batched admission (zero with batch.max_batch == 1).
  /// @{
  /// Merged-admission batches executed (size >= 2 only; size-1 dequeues
  /// take the classic one-at-a-time path verbatim).
  int dataflow_batches = 0;
  /// Dataflows executed through a merged batch (each batch contributes its
  /// member count).
  int batched_dataflows = 0;
  /// @}
  /// \name Integrity accounting (DESIGN.md §12; all zero with the knobs
  /// off). Zero-slack corruption ledger, harvested from the storage service
  /// at the end of the run:
  ///   injected == detected_on_read + detected_by_scrub + dead + latent.
  /// Zero-slack quarantine ledger:
  ///   quarantined == repairs_completed + quarantine_evicted
  ///                  + (still quarantined at the end).
  /// @{
  /// Corruptions realized in storage (torn persists + bit-rot onsets).
  int64_t corruptions_injected = 0;
  /// First detections at dataflow bind time (verified reads).
  int corruptions_detected_on_read = 0;
  /// First detections by the background scrub.
  int corruptions_detected_by_scrub = 0;
  /// Corrupt objects overwritten/deleted before any verification saw them.
  int64_t corruptions_dead = 0;
  /// Corrupt-but-undetected objects still stored at the horizon.
  int64_t corruptions_latent = 0;
  /// Generation mismatches caught at bind time (stale overwrite races;
  /// quarantined like corruptions but not part of the checksum ledger).
  int stale_reads = 0;
  /// Cache-miss fetches that ran (and were charged) checksum verification.
  int verified_reads = 0;
  /// Ops that fell back to base scans after a failed verify (degraded,
  /// never wrong).
  int degraded_reads = 0;
  /// Built index partitions quarantined after a failed verification.
  int partitions_quarantined = 0;
  /// Quarantine entries evicted by drops/invalidations before repair.
  int quarantine_evicted = 0;
  /// Repair build ops packed into idle slots.
  int repairs_scheduled = 0;
  /// Repair builds that completed and persisted (quarantine lifted).
  int repairs_completed = 0;
  /// Objects verified by the background scrub.
  int64_t scrub_reads = 0;
  /// @}
  /// \name Elastic fleet & provider faults (DESIGN.md §13; all zero with
  /// the knobs off). The ledger-derived counters are harvested absolute
  /// from the fleet authority (Cluster::ledger()) and obey its zero-slack
  /// identities:
  ///   fleet_acquire_requests == fleet_granted + acquires_denied_capacity
  ///                             + acquires_denied_quota
  ///   fleet_granted == containers_reaped + containers_preempted
  ///                    + crashed + (alive at the end)
  /// (`containers_drained` is the autoscaler-initiated subset of
  /// containers_reaped; crashes are visible as ledger().crashed.)
  /// @{
  /// Containers released at lease expiry without a failure (idle reap),
  /// including autoscaler drains.
  int containers_reaped = 0;
  /// Idle containers the autoscaler released ahead of a lease renewal.
  int containers_drained = 0;
  /// Containers lost to provider spot reclaims (subset of the losses also
  /// counted in containers_failed, which keeps its historical meaning of
  /// "containers that died mid-execution for any reason").
  int containers_preempted = 0;
  /// Fresh-VM acquisition requests issued to the provider, and their fates.
  int64_t fleet_acquire_requests = 0;
  int64_t fleet_granted = 0;
  int64_t acquires_denied_quota = 0;
  int64_t acquires_denied_capacity = 0;
  /// Whole quanta pre-paid at the fleet level (allocation + lease
  /// extensions + drain/reap truncation never refunds).
  int64_t fleet_quanta_charged = 0;
  /// Autoscaler target moves (grow / shrink events actually applied).
  int fleet_grow_events = 0;
  int fleet_shrink_events = 0;
  /// Times a provider denial armed (or escalated) the acquire backoff.
  int acquire_backoffs = 0;
  /// Quanta the service spent waiting for a usable container (boot delays,
  /// denial backoffs with an empty fleet).
  double boot_wait_quanta = 0;
  /// @}
  /// \name Control-plane durability & recovery (DESIGN.md §15; all zero
  /// with the journal off). Harvested absolute from the journal's ledger —
  /// which, like the storage service, survives a control-plane crash — so
  /// the counters are monotone even though the rest of the metrics roll
  /// back to the last snapshot on recovery. These six are the *only*
  /// mirrored counters allowed to differ between a crashed-and-recovered
  /// run and its uncrashed twin.
  /// @{
  /// Control-plane crashes injected (directed or drawn).
  int64_t ctl_crashes = 0;
  /// Journal records written, ever (== the ledger's records_written).
  int64_t journal_records = 0;
  /// Canonical-encoding bytes of those records (estimate; deterministic).
  int64_t journal_bytes = 0;
  /// Snapshot records a recovery consumed to rebuild state.
  int64_t replayed_records = 0;
  /// Replayed persists acknowledged via their idempotency token instead of
  /// re-billed (== pre-crash landed in-flight persists, exactly).
  int64_t persists_deduped = 0;
  /// Simulated quanta spent re-executing journaled iterations after
  /// recoveries (the MTTR integrand of the bench sweep).
  double recovery_replay_quanta = 0;
  /// @}
  std::vector<TimelinePoint> timeline;

  double AvgTimeQuantaPerDataflow() const {
    return dataflows_finished > 0 ? total_time_quanta / dataflows_finished : 0;
  }
  /// VM quanta plus storage (converted at Mc) per finished dataflow.
  double AvgCostQuantaPerDataflow(const PricingModel& pricing) const {
    if (dataflows_finished == 0) return 0;
    double storage_quanta = storage_cost / pricing.vm_price_per_quantum;
    return (static_cast<double>(total_vm_quanta) + storage_quanta) /
           dataflows_finished;
  }
};

/// \brief Component-wise sum over per-tenant metrics: every counter in
/// DFIM_MIRRORED_COUNTERS plus the numeric fields it excludes (storage
/// cost, queue delay and the end-of-run storage ledger terms).
///
/// A sharded run's counters are the sum over its tenants by construction;
/// the sharding tests check shard-count invariance against this sum.
/// `peak_queue_len` is summed like everything else (an upper bound on any
/// instantaneous global queue, since tenant queues are disjoint). The
/// aggregate carries no timeline (per-tenant series do not merge into one
/// ordered series) and tenant = -1.
ServiceMetrics AggregateMetrics(const std::vector<ServiceMetrics>& per_tenant);

}  // namespace dfim

#endif  // DFIM_CORE_SERVICE_METRICS_H_
