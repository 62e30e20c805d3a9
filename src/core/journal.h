#ifndef DFIM_CORE_JOURNAL_H_
#define DFIM_CORE_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cluster.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/admission.h"
#include "core/service_metrics.h"
#include "core/tuner.h"
#include "data/catalog.h"
#include "dataflow/build_index_ops.h"
#include "dataflow/dataflow.h"

namespace dfim {

/// \brief Control-plane durability knobs (DESIGN.md §15).
///
/// Off by default: with `enabled` false the service takes no snapshots,
/// writes no records, and every execution path is bit-identical to a
/// service without the journal layer. The control-plane crash knobs in
/// FaultOptions (`ctl_crash_rate`, `crash_at_boundary`) require the journal
/// — a crash without a journal would simply lose the run.
struct JournalOptions {
  bool enabled = false;
};

/// Consecutive recoveries allowed without completing an iteration before
/// further crash injection is suppressed (fail open: the run terminates
/// instead of crash-looping forever under ctl_crash_rate = 1).
inline constexpr int kMaxResumeAttempts = 8;

/// \brief Zero-slack accounting of every journal record ever written
/// (DESIGN.md §15).
///
/// Each record ends up in exactly one bucket, so the identity
///
///   records_written == replayed + truncated_by_snapshot
///                      + tail_discarded + live-right-now
///
/// holds at all times. `truncated_by_snapshot` counts records group-
/// committed into (and superseded by) a later snapshot; `tail_discarded`
/// counts open-segment records a crash threw away; `replayed` counts
/// snapshot records a recovery consumed. The ledger also owns the recovery
/// counters surfaced in ServiceMetrics: like the storage service, the
/// journal survives a control-plane crash, so counters kept here are never
/// rolled back by a state restore.
struct JournalLedger {
  int64_t records_written = 0;
  int64_t bytes_written = 0;
  int64_t truncated_by_snapshot = 0;
  int64_t tail_discarded = 0;
  int64_t replayed = 0;
  /// Snapshot commits (one per iteration start + one per pre-execute).
  int64_t commits = 0;
  /// Injected control-plane crashes taken.
  int64_t ctl_crashes = 0;
  /// Replayed persists resolved by idempotency token (landed pre-crash,
  /// acknowledged without re-billing).
  int64_t persists_deduped = 0;
  /// Execution quanta re-spent replaying crashed iterations.
  double recovery_replay_quanta = 0;

  /// Slack of the record identity given the live count; zero when exact.
  int64_t Slack(int64_t live_now) const {
    return records_written - replayed - truncated_by_snapshot -
           tail_discarded - live_now;
  }
};

/// \brief The B-phase hand-off: everything `FinishRun` needs to resume an
/// iteration from the pre-execute boundary (the decision is final, the
/// fleet plan is made; execution has not started).
struct InFlightDecision {
  TunerDecision decision;
  /// Fleet plan wait (boot delays / backoff) folded into the elapsed time.
  Seconds fleet_wait = 0;
};

/// \brief A destructive storage delete deferred to the next group commit.
///
/// While the journal is on, service-side deletes are staged instead of
/// applied: a crash between the delete and the next snapshot must not have
/// destroyed an object the replay still reads. Applied generation-guarded —
/// if the object was overwritten since staging (a repair rebuilt the
/// partition), the delete is moot and skipped.
struct StagedDelete {
  std::string path;
  Seconds at = 0;
  int64_t generation = 0;
};

/// \brief A quarantined partition awaiting a repair build.
struct RepairEntry {
  std::string index_id;
  int partition = -1;
};

/// \brief The service's own journaled control state: the single list of
/// QaasService fields a control-plane crash rolls back (DESIGN.md §15).
///
/// The service holds it by value and a snapshot copies it as one unit, so
/// a field added here is journaled by construction. Deliberately *not*
/// journaled (they live on QaasService): the stage-boundary counter (a
/// directed crash must fire exactly once), the consecutive-resume count
/// (the fail-open bound spans recoveries) and the `recovering_` flag.
struct ControlState {
  ControlState() = default;
  explicit ControlState(uint64_t seed) : rng(seed) {}

  Rng rng;
  std::deque<DataflowRecord> history;
  /// Last time each index earned a positive per-dataflow gain (or was
  /// built); drives the deletion grace period.
  std::map<std::string, Seconds> last_useful;
  /// Partial build progress (resumable_builds extension).
  BuildProgress build_progress;
  /// Next scheduled update batch (update_interval_quanta > 0 only).
  Seconds next_update = 0;

  // --- elastic fleet (DESIGN.md §13) ---
  /// Autoscaler fleet-size target (containers).
  int fleet_target = 1;
  /// Acquire backoff: no fresh provider requests until this instant, and
  /// the current ladder rung in quanta (0 = ladder reset).
  Seconds acquire_backoff_until = 0;
  double acquire_backoff_quanta = 0;
  /// Queue pressure of the most recent dequeue (the autoscaler signal).
  double last_pressure = 0;

  // --- overload ---
  /// Brownout hysteresis (AdmissionController::BuildFraction): tuning is
  /// off until queue pressure falls below the resume threshold.
  bool brownout_off = false;
  /// Remaining fleet-wide recovery attempts (admission.retry_budget >= 0).
  int retry_budget_left = -1;
  /// The storage persist circuit breaker (BreakerOptions).
  PersistBreaker breaker;

  // --- integrity (DESIGN.md §12) ---
  /// Quarantined partitions awaiting a repair build (FIFO; entries whose
  /// quarantine was evicted meanwhile are skipped when popped).
  std::deque<RepairEntry> repair_queue;
  /// Scrub budget accrued (objects) and the instant it was last topped up.
  double scrub_credit = 0;
  Seconds last_scrub = 0;
  /// Last object path the scrub verified (walk resumes after it, wrapping).
  std::string scrub_cursor;

  // --- storage shadows (the data plane itself survives the crash) ---
  /// Control-plane mirror of the storage billing clock (== last_billed()
  /// in an uncrashed run): replay must not see the inflated post-crash
  /// `last_billed()`.
  Seconds storage_clock_mirror = 0;
  /// Deletes staged for the next group commit (journal on only).
  std::vector<StagedDelete> staged_deletes;
};

/// \brief One full control-plane snapshot: the minimal by-value clone of
/// every piece of QaasService state a crash would lose (DESIGN.md §15).
///
/// Two snapshots bracket each iteration: `kIterStart` (after arrivals,
/// batch formation and due updates; before the scrub/decide A-phase) and
/// `kPreExecute` (decision final, before execution). Recovery restores the
/// latest one; its kind tells the driver where to resume — re-run the whole
/// iteration, or re-enter the B-phase from the saved in-flight decision.
struct ServiceSnapshot {
  enum class Kind { kIterStart, kPreExecute };

  /// The driver loop's locals, captured so a restore can re-run the
  /// current iteration (batch, start instant, brownout fraction) and then
  /// continue the outer loop (clock, settled, pending queue, next pull).
  struct LoopState {
    Seconds clock = 0;
    Seconds settled = 0;
    std::deque<PendingDataflow> queue;
    std::optional<Dataflow> pending_arrival;
    std::vector<PendingDataflow> batch;
    Seconds start = 0;
    double build_fraction = 1.0;
  };

  Kind kind = Kind::kIterStart;
  Catalog::RuntimeState catalog;
  Cluster::State fleet;
  ControlState control;
  /// Detection-log watermark; recovery rewinds storage detections past it
  /// so replayed verifies return kCorrupt again identically.
  int64_t detection_watermark = 0;
  LoopState loop;
  ServiceMetrics metrics;
  /// The in-flight decision (kPreExecute only).
  std::optional<InFlightDecision> in_flight;
};

/// \brief The write-ahead journal + snapshot layer (DESIGN.md §15).
///
/// The journal keeps one snapshot and counts records: a stage or arrival
/// record is only a count and a byte estimate in the open segment. Group-
/// commit batching: the records appended since the last snapshot form the
/// open segment; the next `CommitSnapshot` bakes them into the snapshot
/// (they move to `truncated_by_snapshot`). A crash discards the open segment
/// (`tail_discarded`) and `Recover` consumes the latest snapshot
/// (`replayed`), re-seating the restored state as a fresh snapshot under a
/// bumped generation so a second crash during replay recovers from the same
/// point. While disabled, appends count nothing.
class Journal {
 public:
  explicit Journal(const JournalOptions& opts) : enabled_(opts.enabled) {}

  /// Counts one stage-completion record into the open segment. `items` is
  /// the payload cardinality (history rows, deleted paths, stamps...) and
  /// only feeds the byte estimate.
  void AppendStage(int64_t items) { Append(32 + 8 * items); }

  /// Counts one arrival record (a dataflow pulled from the client).
  void AppendArrival() { Append(48); }

  /// Group commit: writes a snapshot record; the open segment and the
  /// previous snapshot are superseded (truncated) by it.
  void CommitSnapshot(ServiceSnapshot snap);

  /// Crash recovery: discards the open segment, consumes the latest
  /// snapshot, bumps the generation, and re-seats the restored state as a
  /// fresh snapshot. Returns the consumed snapshot, or null when there is
  /// no snapshot to recover from.
  std::shared_ptr<const ServiceSnapshot> Recover();

  const JournalLedger& ledger() const { return ledger_; }
  JournalLedger* mutable_ledger() { return &ledger_; }

  /// Records currently live: the latest snapshot plus the open segment.
  int64_t live_records() const {
    return open_records_ + (snapshot_ != nullptr ? 1 : 0);
  }

  /// Slack of the ledger identity right now; zero when exact.
  int64_t LedgerSlack() const { return ledger_.Slack(live_records()); }

  /// Journal generation (recoveries survived).
  int64_t generation() const { return generation_; }

 private:
  /// Counts one open-segment record of `bytes` (nothing while disabled).
  void Append(int64_t bytes);

  bool enabled_;
  JournalLedger ledger_;
  int64_t generation_ = 0;
  /// Records appended since the latest snapshot (the open segment).
  int64_t open_records_ = 0;
  std::shared_ptr<const ServiceSnapshot> snapshot_;
};

}  // namespace dfim

#endif  // DFIM_CORE_JOURNAL_H_
