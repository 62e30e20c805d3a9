#ifndef DFIM_CORE_ADMISSION_H_
#define DFIM_CORE_ADMISSION_H_

#include <deque>
#include <string>

#include "core/service_metrics.h"
#include "dataflow/dataflow.h"

namespace dfim {

/// \brief What the bounded admission queue sheds when it is full.
enum class ShedPolicy {
  /// Drop the arriving dataflow (classic tail drop).
  kRejectNewest,
  /// Tail-drop on a full queue, plus an early drop at dequeue time of any
  /// dataflow that can no longer meet its deadline even if started
  /// immediately (requires `slo_factor` > 0).
  kDeadlineInfeasible,
};

std::string_view ShedPolicyToString(ShedPolicy policy);

/// \brief Open-loop admission control (all off by default: `open_loop`
/// false keeps the paper's closed-loop issue-on-return path bit-identical).
struct AdmissionOptions {
  /// Arrival-driven service loop: dataflows queue at their arrival times
  /// instead of being issued when the previous one returns.
  bool open_loop = false;
  /// Pending-queue capacity (0 = unbounded, nothing is ever shed).
  int max_queue = 0;
  ShedPolicy shed = ShedPolicy::kRejectNewest;
  /// Deadline = arrival + slo_factor x estimated makespan (DAG critical
  /// path). 0 disables deadlines and SLO accounting.
  double slo_factor = 0;
  /// Fleet-wide cap on recovery attempts across all dataflows; once spent,
  /// crash-lost dataflows fail immediately instead of rescheduling their
  /// suffix. -1 = unlimited (the per-dataflow kMaxRecoveryAttempts still
  /// applies either way).
  int retry_budget = -1;
};

/// \brief Pressure-based brownout of optional index builds.
///
/// Pressure is the queue delay (in quanta) of the dataflow being dequeued.
/// Between `lo` and `hi` the fraction of beneficial builds kept falls
/// linearly from 1 to 0; at `hi` tuning disables entirely and only
/// re-enables (hysteresis) once pressure drops below
/// lo x kBrownoutResumeFraction.
struct BrownoutOptions {
  /// Pressure at which shedding starts (0 with hi == 0 disables brownout).
  double pressure_lo_quanta = 0;
  /// Pressure at which tuning shuts off entirely; <= 0 disables brownout.
  double pressure_hi_quanta = 0;
};

/// Brownout re-enable threshold as a fraction of pressure_lo_quanta.
inline constexpr double kBrownoutResumeFraction = 0.5;

/// \brief Circuit breaker on the storage persist (Put) path; its state
/// machine is PersistBreaker.
struct BreakerOptions {
  /// Consecutive transient storage faults that open the breaker (0 = off).
  int open_after = 0;
  /// Simulated seconds the breaker stays open before the half-open probe.
  Seconds open_duration = 300.0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// \brief The persist breaker's state machine, journaled in ControlState.
///
/// It counts consecutive faulted Put attempts; at `open_after` it opens and
/// persists are skipped outright (no retries, no backoff delay) until
/// `open_duration` passes; then one half-open probe closes it or re-opens
/// it. With `open_after` 0 it never leaves kClosed.
struct PersistBreaker {
  BreakerState state = BreakerState::kClosed;
  /// Consecutive faulted Put attempts since the last landing or trip.
  int faults = 0;
  Seconds open_until = 0;

  /// True while open at `t`: persists are skipped and hedges suppressed.
  bool OpenAt(Seconds t) const {
    return state == BreakerState::kOpen && t < open_until;
  }
  /// The gate for a persist at `t` that wants `wanted` retries after its
  /// first attempt: -1 while open (skip the Put). Past `open_until` an
  /// open breaker turns half-open; its probe gets 0 retries.
  int Admit(Seconds t, int wanted) {
    if (OpenAt(t)) return -1;
    if (state == BreakerState::kOpen) state = BreakerState::kHalfOpen;
    return state == BreakerState::kHalfOpen ? 0 : wanted;
  }
  /// Records a faulted Put attempt at `t`; true when that opened the
  /// breaker (`open_after` consecutive faults, or a failed probe).
  bool Fault(const BreakerOptions& opts, Seconds t) {
    if (opts.open_after <= 0) return false;
    if (++faults < opts.open_after && state != BreakerState::kHalfOpen) {
      return false;
    }
    state = BreakerState::kOpen;
    open_until = t + opts.open_duration;
    faults = 0;
    return true;
  }
  /// Records a landed Put: closes the breaker and resets the count.
  void Landed() {
    state = BreakerState::kClosed;
    faults = 0;
  }
};

/// \brief Batched admission (DESIGN.md §14): dataflows already pending at
/// dequeue time whose arrivals fall within one virtual-time window are
/// tuned and scheduled through a single shared skyline pass, so one
/// dataflow's build ops can pack into another's idle slots.
///
/// Off by default: with `max_batch` 1 the batch path is never entered and
/// the open loop is bit-identical to the one-at-a-time service. Batching is
/// work-conserving — the window never delays a dequeue to wait for future
/// arrivals; it only merges entries that are already queued.
struct BatchOptions {
  /// Dataflows tuned + scheduled per admission batch (1 = off). Size-1
  /// batches take the classic one-at-a-time path verbatim.
  int max_batch = 1;
  /// Arrival window, in quanta: a pending entry joins the batch only when
  /// its arrival is within this many quanta of the batch head's arrival.
  /// 0 merges only simultaneous arrivals.
  double window_quanta = 0;
};

/// Rejects a non-positive batch size and a negative window.
Status ValidateBatchOptions(const BatchOptions& opts);

/// \brief One entry of the open-loop pending queue.
struct PendingDataflow {
  Dataflow df;
  Seconds arrival = 0;
  /// Makespan estimate used for admission decisions: the DAG critical
  /// path.
  Seconds estimate = 0;
  /// Absolute deadline (0 = none).
  Seconds deadline = 0;
};

/// \brief The admission loop's policy, carved out of the service: the
/// bounded pending queue's shed policy and the brownout curve. It holds no
/// mutable state — the brownout hysteresis bit is the caller's (the
/// service journals it in ControlState), so a crash rolls it back with the
/// rest of the control state.
class AdmissionController {
 public:
  AdmissionController(const AdmissionOptions& admission,
                      const BrownoutOptions& brownout)
      : admission_(admission), brownout_(brownout) {}

  /// Admits one arrival into the pending queue, shedding per policy.
  void Admit(Dataflow df, std::deque<PendingDataflow>* queue,
             ServiceMetrics* metrics);

  /// Brownout knob from queue pressure (quanta), with hysteresis:
  /// `*brownout_off` turns true once pressure crosses pressure_hi_quanta and
  /// false again once it falls below pressure_lo_quanta x
  /// kBrownoutResumeFraction.
  double BuildFraction(double pressure_quanta, bool* brownout_off) const;

 private:
  AdmissionOptions admission_;
  BrownoutOptions brownout_;
};

}  // namespace dfim

#endif  // DFIM_CORE_ADMISSION_H_
