#ifndef DFIM_CLOUD_CLUSTER_H_
#define DFIM_CLOUD_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/container.h"
#include "cloud/fault_model.h"
#include "cloud/pricing.h"
#include "common/result.h"
#include "common/units.h"

namespace dfim {

/// \brief Zero-slack lifecycle ledger of one fleet (DESIGN.md §13).
///
/// Every acquire request and every container exit is counted exactly once,
/// so two identities must hold at all times:
///
///   acquire_requests == granted + denied_capacity + denied_quota
///   granted == released_idle + preempted + crashed + alive-right-now
///
/// `drained` is the subset of `released_idle` that the autoscaler released
/// deliberately (as opposed to leases that expired idle on their own).
struct FleetLedger {
  /// Fresh-container requests made against the provider (reuse is free and
  /// is not a request).
  int64_t acquire_requests = 0;
  /// Requests the provider granted (one fresh container each).
  int64_t granted = 0;
  /// Requests denied by the fleet-size cap (`max_containers`).
  int64_t denied_capacity = 0;
  /// Requests denied by the injected provider quota throttle.
  int64_t denied_quota = 0;
  /// Containers whose lease ended while idle (reaped or drained).
  int64_t released_idle = 0;
  /// Containers the provider reclaimed (spot preemption).
  int64_t preempted = 0;
  /// Containers that crashed mid-execution.
  int64_t crashed = 0;
  /// Subset of `released_idle` released deliberately by the autoscaler.
  int64_t drained = 0;

  /// Slack of the request identity; zero when the ledger is exact.
  int64_t RequestSlack() const {
    return acquire_requests - granted - denied_capacity - denied_quota;
  }
  /// Slack of the grant identity given the current alive count.
  int64_t GrantSlack(int64_t alive_now) const {
    return granted - released_idle - preempted - crashed - alive_now;
  }
};

/// \brief One best-effort elastic acquisition (see Cluster::AcquireUsable).
struct AcquireOutcome {
  /// Containers usable right now, alive-order; may be fewer than asked.
  std::vector<Container*> usable;
  /// Alive containers still booting (in-flight capacity already paid for).
  int booting = 0;
  /// Fresh allocations denied this call by the provider quota throttle.
  int denied_quota = 0;
  /// Fresh allocations denied this call by the fleet-size cap.
  int denied_capacity = 0;
};

/// \brief Elastic pool of homogeneous containers with money accounting.
///
/// The QaaS service acquires containers per dataflow, reusing alive ones
/// (whose pre-paid quantum has not yet expired — their cache survives) and
/// allocating fresh ones up to `max_containers`. Idle containers are reaped
/// at the end of their leased quantum (paper §3: "An idle VM is deleted when
/// its currently leased time quantum expires").
///
/// The cluster is the single fleet authority: every acquire, charge, reap,
/// drain, and failure removal goes through it and is counted in a zero-slack
/// `FleetLedger`. With no fault model attached and `max_containers` high
/// enough to never deny, `Acquire` reproduces the pre-elastic ad-hoc pool
/// bit-identically (same reap predicate, same stable reuse order, same
/// monotone fresh ids).
class Cluster {
 public:
  /// Containers lease `quantum`-second quanta billed at `pricing`.
  Cluster(ContainerSpec spec, PricingModel pricing, Seconds quantum,
          int max_containers);

  /// \brief Attaches the provider fault source for fresh allocations.
  ///
  /// Fresh containers get a boot delay and a pre-drawn spot-reclaim instant;
  /// `AcquireUsable` draws quota throttles per request. `preempt_max_quanta`
  /// bounds the reclaim hazard walk (use the experiment horizon). Pass
  /// nullptr to detach. Zero-rate options leave every path untouched.
  void SetFaultModel(const FaultModel* model, int64_t preempt_max_quanta);

  /// \brief Returns `n` containers usable at `now`, reusing alive ones first.
  ///
  /// Fails with ResourceExhausted when more than `max_containers` would be
  /// alive simultaneously. All-or-nothing: the legacy strict path used when
  /// the elastic machinery is off.
  Result<std::vector<Container*>> Acquire(int n, Seconds now);

  /// \brief Best-effort elastic acquisition toward a target of `n` usable.
  ///
  /// Reuses every container usable at `now` first. Alive-but-booting
  /// containers count as in-flight coverage (they were already paid for, so
  /// re-requesting would double-allocate); only the remaining shortfall
  /// becomes fresh provider requests, each subject to the capacity cap and
  /// the injected quota throttle. The first fresh allocation of an *empty*
  /// fleet is exempt from the quota draw: the model throttles scale-out, it
  /// never wedges the service at zero VMs. Never fails — callers act on the
  /// fleet they actually got.
  AcquireOutcome AcquireUsable(int n, Seconds now);

  /// \brief Drains the fleet down to `target` alive containers.
  ///
  /// Releases idle containers above the target, earliest lease end first
  /// (they are the ones about to renew idle). Call only when the fleet is
  /// quiescent — the cluster does not track per-container busyness. Returns
  /// how many were released (ledger: drained + released_idle).
  int DrainIdleAbove(int target);

  /// \brief Removes a container that died mid-execution.
  ///
  /// `preempted` distinguishes provider reclaims from plain crashes in the
  /// ledger. No-op if the pointer is not an alive member.
  void RemoveFailed(const Container* container, bool preempted);

  /// \brief Charges `container` through time `t` and accrues the bill.
  void ChargeThrough(Container* container, Seconds t);

  /// \brief Extends every alive container's lease through `now`.
  ///
  /// Models statically provisioned always-on VMs: idle time between uses is
  /// billed instead of letting the lease lapse (the retroactive charge
  /// covers the whole idle gap). Containers past their reclaim instant are
  /// never revived — the provider, not the tenant, owns them.
  void KeepAlive(Seconds now);

  /// \brief Deletes containers whose lease expired at or before `now`, and
  /// containers whose pre-drawn reclaim instant has passed.
  ///
  /// Their local caches are lost. Expired-idle leases count as
  /// `released_idle`; reclaims that preceded the lease end count as
  /// `preempted`. Returns how many were deleted.
  int ReapExpired(Seconds now);

  /// Containers currently alive at `now`.
  int AliveCount(Seconds now) const;

  /// Containers usable for new work at `now`: alive, booted, and not inside
  /// their preemption-notice window.
  int UsableCount(Seconds now) const;

  /// Earliest instant a currently-booting container becomes usable for new
  /// work, or kNeverFails when nothing alive is booting (or every booting
  /// container boots straight into its reclaim-notice window).
  Seconds NextUsableAt(Seconds now) const;

  /// Containers currently held (reaped or not yet); the `alive-right-now`
  /// term of the grant identity.
  int64_t HeldCount() const { return static_cast<int64_t>(alive_.size()); }

  /// Total quanta charged across all containers, ever.
  int64_t total_quanta_charged() const { return total_quanta_; }

  /// Total VM dollars accrued, ever.
  Dollars total_vm_cost() const {
    return pricing_.VmCost(total_quanta_);
  }

  /// Containers allocated over the cluster lifetime (for reuse metrics).
  int64_t total_allocated() const { return next_id_; }

  const FleetLedger& ledger() const { return ledger_; }
  int max_containers() const { return max_containers_; }

  /// \name Journaled recovery (DESIGN.md §15)
  /// The fleet is control-plane state: a crash loses the lease map and the
  /// ledger, and recovery restores both from the last snapshot. Containers
  /// are deep-copied by value (their LRU caches included); the fault-model
  /// binding is configuration and survives untouched.
  /// @{
  struct State {
    int next_id = 0;
    int64_t total_quanta = 0;
    FleetLedger ledger;
    std::vector<Container> containers;
  };

  State SaveState() const;
  void RestoreState(const State& s);
  /// @}

 private:
  /// Allocates, charges, and fault-stamps one fresh container.
  Container* AllocateFresh(Seconds now);
  /// True when new work may be placed on `c` at `now` (alive, booted, and
  /// outside the reclaim-notice window).
  bool UsableForNewWork(const Container& c, Seconds now) const;

  ContainerSpec spec_;
  PricingModel pricing_;
  Seconds quantum_;
  int max_containers_;
  int next_id_ = 0;
  int64_t total_quanta_ = 0;
  const FaultModel* faults_ = nullptr;
  int64_t preempt_max_quanta_ = 0;
  Seconds preempt_notice_ = 0;
  FleetLedger ledger_;
  std::vector<std::unique_ptr<Container>> alive_;
};

}  // namespace dfim

#endif  // DFIM_CLOUD_CLUSTER_H_
