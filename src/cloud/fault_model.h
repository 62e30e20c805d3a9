#ifndef DFIM_CLOUD_FAULT_MODEL_H_
#define DFIM_CLOUD_FAULT_MODEL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace dfim {

/// Sentinel crash time for containers that never fail.
inline constexpr Seconds kNeverFails = std::numeric_limits<double>::infinity();

/// Multiplier on `FaultOptions::torn_write_rate` for crash-interrupted
/// persists (the build's container died during the run, so its single Put
/// attempt raced the failure).
inline constexpr double kTornCrashMultiplier = 4.0;

/// \brief Fault-injection rates (paper §3 cloud model, stressed).
///
/// The paper's model is explicit that a deleted/failed container loses its
/// local disk and that index partitions only survive when persisted to the
/// storage service. These knobs exercise that machinery: container
/// crash/spot-preemption (per-quantum hazard), per-container straggler
/// slowdowns, and transient storage faults on reads (latency spike) and
/// writes (fail + retry). All rates zero (the default) disables injection
/// entirely — the zero-fault pipeline is a strict no-op.
struct FaultOptions {
  /// Probability a container dies within any given leased quantum.
  double crash_rate = 0;
  /// Probability a container is a straggler for one dataflow execution.
  double straggler_rate = 0;
  /// Straggler slowdown factor range (CPU and transfers stretch by it).
  double straggler_slowdown_min = 1.5;
  double straggler_slowdown_max = 3.0;
  /// Probability one storage-service operation (read of an input, Put of a
  /// built index partition) hits a transient fault.
  double storage_fault_rate = 0;
  /// Latency added to a faulted storage read (the read still completes).
  Seconds storage_fault_latency = 30.0;
  /// \name Data corruption (integrity subsystem, DESIGN.md §12)
  /// @{
  /// Probability one persist lands torn: the Put succeeds but the object's
  /// content checksum can never verify.
  double torn_write_rate = 0;
  /// Per-object, per-quantum probability of latent bit-rot onset: once the
  /// onset quantum passes, the stored object's checksum stops verifying.
  double bitrot_rate = 0;
  /// @}
  /// \name Provider control-plane faults (elastic fleet, DESIGN.md §13).
  /// These model the IaaS control plane misbehaving, not the leased VM
  /// itself: acquisition requests throttled, cold starts, and spot reclaims
  /// announced with a notice window. All draws come from dedicated streams,
  /// so existing crash/straggler/storage traces are bit-identical whether
  /// or not the provider knobs are set.
  /// @{
  /// Probability one fresh-container acquire request is denied (quota
  /// throttle). The very first container of an empty fleet is exempt — the
  /// model throttles scale-out, it never wedges the service at zero VMs.
  double acquire_fail_rate = 0;
  /// Cold-start lag: a fresh container's boot delay is uniform in
  /// [0, boot_delay_max] seconds. Billing starts at acquisition (the lease
  /// is pre-paid), but the container only becomes schedulable once booted.
  Seconds boot_delay_max = 0;
  /// Per-quantum hazard of spot preemption, drawn once per container at
  /// acquisition: the provider reclaims the VM at the drawn instant and
  /// charges nothing past it.
  double preempt_rate = 0;
  /// Reclaim notice: seconds of warning before the reclaim instant. During
  /// the notice window the service drains the doomed container — no new
  /// work is dispatched and running builds are stopped with their progress
  /// staged off. 0 = unannounced reclaim (progress dies with the disk).
  Seconds preempt_notice = 0;
  /// @}
  /// \name Control-plane crashes (journaled recovery, DESIGN.md §15).
  /// These kill the *service brain* — catalog runtime state, tuner history,
  /// admission queue, fleet ledger — at a stage boundary of the decision
  /// loop; the storage service (the durable cloud) survives. Requires
  /// `ServiceOptions::journal.enabled` (checked at service entry): a crash
  /// without a journal would simply lose the run. Draws come from a
  /// dedicated stream keyed by the service's monotone boundary counter, so
  /// all other fault traces are bit-identical whether or not these are set.
  /// @{
  /// Per-boundary probability the control plane dies at that boundary.
  double ctl_crash_rate = 0;
  /// Directed mode: crash exactly at boundary-counter value `k` (-1 = off).
  /// The exhaustive recovery sweep drives this through every boundary.
  int64_t crash_at_boundary = -1;
  /// Second directed crash (double-crash tests: the replay itself dies).
  int64_t crash_at_boundary_2 = -1;
  /// @}
  /// Seed of the fault universe; independent of all other seeds.
  uint64_t seed = 1;

  bool enabled() const {
    return crash_rate > 0 || straggler_rate > 0 || storage_fault_rate > 0 ||
           corruption_enabled();
  }
  bool corruption_enabled() const {
    return torn_write_rate > 0 || bitrot_rate > 0;
  }
  bool provider_enabled() const {
    return acquire_fail_rate > 0 || boot_delay_max > 0 || preempt_rate > 0;
  }
  /// Deliberately not part of enabled(): control-plane crashes must not
  /// perturb the container/storage draw streams.
  bool ctl_enabled() const {
    return ctl_crash_rate > 0 || crash_at_boundary >= 0 ||
           crash_at_boundary_2 >= 0;
  }
};

/// \brief Rejects out-of-range fault knobs before any draw consumes them.
///
/// Rates must lie in [0, 1]; the straggler slowdown range must satisfy
/// 1 <= min <= max (a slowdown below 1 would *speed up* a "straggler" and
/// break the speculation watermark's healthy-estimate assumption); the
/// storage fault latency must be positive whenever the fault rate is
/// nonzero. Called from the simulator and the service entry points so a
/// misconfigured harness fails fast instead of producing silent nonsense.
Status ValidateFaultOptions(const FaultOptions& opts);

/// \brief Pre-drawn faults of one container for one execution.
struct ContainerFaults {
  /// Schedule-relative instant the container dies (kNeverFails if never).
  /// Everything unfinished at that instant — dataflow ops, build ops, the
  /// local-disk cache — is lost (paper §3).
  Seconds crash_at = kNeverFails;
  /// Multiplier (>= 1) on CPU time and transfers; 1.0 = healthy.
  double slowdown = 1.0;
  /// Provider spot-reclaim instant (schedule-relative; kNeverFails = none).
  /// At this instant the VM is gone exactly like a crash, except the caller
  /// classifies the loss as a preemption and is charged nothing past it.
  Seconds reclaim_at = kNeverFails;
  /// Start of the reclaim-notice window (<= reclaim_at). From this instant
  /// the container only drains: no new op is dispatched to it, and running
  /// builds are stopped with their partial progress carried off the doomed
  /// disk (graceful drain, DESIGN.md §13).
  Seconds notice_at = kNeverFails;

  bool crashes() const { return crash_at < kNeverFails; }
  bool straggles() const { return slowdown > 1.0; }
  bool reclaimed() const { return reclaim_at < kNeverFails; }
};

/// \brief A reproducible fault trace for one execution attempt.
struct FaultTrace {
  std::vector<ContainerFaults> containers;

  bool any() const {
    for (const auto& c : containers) {
      if (c.crashes() || c.straggles() || c.reclaimed()) return true;
    }
    return false;
  }
};

/// \brief Deterministic, seeded fault source.
///
/// Every draw is a pure function of (seed, run_key, stream, index) via
/// counter-based hashing, so traces are bit-identical across runs with the
/// same seed regardless of call order, and the model never perturbs any
/// other RNG stream (the zero-fault path stays bit-identical to a build
/// without fault injection).
class FaultModel {
 public:
  explicit FaultModel(const FaultOptions& opts) : opts_(opts) {}

  const FaultOptions& options() const { return opts_; }
  bool enabled() const { return opts_.enabled(); }

  /// \brief Pre-draws the fault trace for one execution attempt.
  ///
  /// `run_key` identifies the attempt (e.g. hash of dataflow id and retry
  /// number); `horizon` bounds the crash-hazard walk (crashes are drawn per
  /// leased quantum up to a margin past the horizon, so late overruns are
  /// still covered).
  FaultTrace DrawTrace(uint64_t run_key, int num_containers, Seconds horizon,
                       Seconds quantum) const;

  /// \brief Deterministic transient-fault draw for one storage operation.
  ///
  /// `op_key` identifies the operation within the run (op id for reads,
  /// a persist key + attempt number for Put retries), so a retry of the
  /// same operation re-draws independently.
  bool StorageOpFaults(uint64_t run_key, uint64_t op_key) const;

  /// \brief Deterministic torn-write draw for one landing persist attempt.
  ///
  /// `persist_key` identifies the attempt (same key space as the Put fault
  /// draws); `crash_interrupted` biases the rate by kTornCrashMultiplier
  /// (the persist raced the container's death). Pure counter-based hash —
  /// bit-identical per (seed, run_key, persist_key).
  bool TornWrite(uint64_t run_key, uint64_t persist_key,
                 bool crash_interrupted) const;

  /// \brief Pre-draws the latent bit-rot onset for one stored object.
  ///
  /// The draw is keyed on (object path hash, generation) so an overwrite
  /// re-draws independently, and walks a per-quantum hazard starting at
  /// `now` for up to `max_quanta` quanta (bound it by the experiment
  /// horizon; rot past the horizon is unobservable). Returns the absolute
  /// onset instant, or kNeverFails.
  Seconds BitRotOnset(uint64_t object_key, int64_t generation, Seconds now,
                      Seconds quantum, int64_t max_quanta) const;

  /// \brief Deterministic quota-throttle draw for one fresh-container
  /// acquire request.
  ///
  /// `request_index` is the fleet's monotone acquire-request counter, so a
  /// retry after backoff is a *new* request and re-draws independently.
  bool AcquireDenied(uint64_t request_index) const;

  /// \brief Cold-start lag of one fresh container, uniform in
  /// [0, boot_delay_max].
  ///
  /// Keyed on the container id, so one container's delay is stable no
  /// matter when in the run it is acquired or what the rest of the fleet
  /// is doing.
  Seconds BootDelay(uint64_t container_id) const;

  /// \brief Pre-draws the spot-reclaim instant for one fresh container.
  ///
  /// Per-quantum hazard walk starting at the lease start (same shape as
  /// the crash draw), bounded by `max_quanta`. Returns the reclaim offset
  /// from the lease start, or kNeverFails.
  Seconds PreemptOnset(uint64_t container_id, Seconds quantum,
                       int64_t max_quanta) const;

  /// \brief Deterministic control-plane crash draw at one stage boundary.
  ///
  /// `boundary_index` is the service's monotone boundary counter (never
  /// restored by recovery, so a directed crash fires exactly once and a
  /// replayed boundary re-draws at a fresh index instead of re-firing).
  bool CtlCrashAt(uint64_t boundary_index) const;

 private:
  FaultOptions opts_;
};

}  // namespace dfim

#endif  // DFIM_CLOUD_FAULT_MODEL_H_
